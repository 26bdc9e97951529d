"""Shared fixtures."""

import sys
from pathlib import Path

import pytest


@pytest.fixture
def bench_faults(monkeypatch):
    """The benchmark's generator of valid one-constant corruptions,
    `perfbench/faults.py`, imported read-only for the one test that pins
    it to `checks.fault_space`."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import faults

    return faults

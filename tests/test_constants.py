"""Each printed constant is written once: a label that states a constant
is rendered from the clean constant, so no fault moves it, and the
certificate forms are one table that the benchmark's fault generator
agrees with."""

import json
import random
from pathlib import Path

from quartic_twist.certificates import certificate_forms
from quartic_twist.checks import build_report, load_fault

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_NAMES = ("fault_dictionary.json", "fault_matrix.json", "fault_certificate.json")


def _rows(fault=None) -> list[tuple[str, str, str]]:
    return [(r.check_id, r.header, r.label) for r in build_report(fault=fault).checks]


def test_a_fault_moves_no_label(bench_faults, tmp_path):
    clean = _rows()
    paths = [FIXTURES / name for name in FIXTURE_NAMES]
    rng = random.Random(12)
    for target in sorted(bench_faults.SPACES):
        for n, payload in enumerate(rng.sample(bench_faults.SPACES[target], 3)):
            paths.append(tmp_path / f"{target}-{n}.json")
            paths[-1].write_text(json.dumps(payload), encoding="utf-8")
    for path in paths:
        assert _rows(load_fault(str(path))) == clean, path.read_text(encoding="utf-8")


def test_forms_table_matches_the_fault_generator(bench_faults):
    degrees = [(key, form.degree) for key, form in certificate_forms().items()]
    assert degrees == list(bench_faults.CERTIFICATE_FORMS.items())

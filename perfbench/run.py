"""Cold-process benchmark of the quartic-twist CLI.

    python3 perfbench/run.py --workload {verify,query,faults} --seed N \
        --seconds S --trace {0,1}

One client in a closed loop launches the real CLI (`python -m quartic_twist`
with PYTHONPATH=src) as fresh processes, one at a time, for S seconds.
Every output is checked against tests/golden/full_report.txt.

--trace 0 reports the end-to-end metrics: the CLI's times relative to
those of reference.py, run between invocations, and the set-up time
converted to seconds at the reference's nominal speed.
--trace 1 runs the same
invocations twice each, untraced and through tracer.py, and reports the
per-layer metrics, the micro-timings of micro.py and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it carries the provenance.
README.md in this directory documents the schema and every name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

import faults
import micro
import tracer
from gate import SECTIONS, Golden

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "full_report.txt"
FIXTURES = ROOT / "tests" / "fixtures"
FIXTURE_NAMES = ("fault_dictionary.json", "fault_matrix.json", "fault_certificate.json")
WORK = BENCH / "work"

QUERY_SECTIONS_PER_BLOCK = 1
QUERY_CHECKS_PER_BLOCK = 5

# The reason each workload was chosen is its `why` in BENCHMARK.json.
WORKLOADS = ("verify", "query", "faults")
BENCHMARK = ROOT / "BENCHMARK.json"

END_TO_END_UNITS = {
    "setup_s": "s", "wall_p50_rel": "x_ref", "wall_p75_rel": "x_ref", "cpu_p50_rel": "x_ref",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Spec:
    """One planned CLI invocation; `arg` is a section, a golden line index or
    a fault file, depending on the kind."""

    kind: str  # text | json | list | section | check | fault
    arg: object = None


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    out: str
    err: str


# ---------------------------------------------------------------------------
# workloads


def plan(workload: str, seed: int, lines: int) -> Iterator[Spec]:
    """The seeded, endless sequence of invocations of a workload.  `lines` is
    the number of golden check lines, over which `--check` indices range."""
    rng = random.Random(seed)
    if workload == "verify":
        while True:
            pair = [Spec("text"), Spec("json")]
            rng.shuffle(pair)
            yield from pair
    elif workload == "query":
        # Short blocks of fixed proportions keep the cost mix the same for
        # every seed, and the cheap sections few enough that the median lies
        # inside the cluster of full-report answers.  A `--list` opens each
        # block and supplies the ids.
        sections = _cycle_shuffled(rng, SECTIONS)
        indices = _cycle_shuffled(rng, range(lines))
        while True:
            block = [Spec("section", next(sections)) for _ in range(QUERY_SECTIONS_PER_BLOCK)]
            block += [Spec("check", next(indices)) for _ in range(QUERY_CHECKS_PER_BLOCK)]
            rng.shuffle(block)
            yield Spec("list")
            yield from block
    elif workload == "faults":
        # Blocks of one committed fixture and one corruption per target keep
        # the mix the same for every seed, as in `query`.
        fixtures = _cycle_shuffled(rng, FIXTURE_NAMES)
        written = 0
        while True:
            block = [Spec("fault", FIXTURES / next(fixtures))]
            for target in faults.TARGETS:
                path = WORK / "faults" / f"{written:04d}.json"
                path.write_text(json.dumps(faults.draw(rng, target)), encoding="utf-8")
                block.append(Spec("fault", path))
                written += 1
            rng.shuffle(block)
            yield from block
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _cycle_shuffled(rng: random.Random, items) -> Iterator:
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict[str, str]) -> Sample:
    """Run `python argv` to completion with stdout in a file; wall time from
    spawn to exit, CPU and peak RSS of the child from wait4."""
    out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
    return Sample(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        code=os.waitstatus_to_exitcode(status),
        out=out_path.read_text(encoding="utf-8", errors="replace"),
        err=err_path.read_text(encoding="utf-8", errors="replace"),
    )


class Client:
    """Turns specs into CLI arguments and gates each output; keeps the tally."""

    def __init__(self, golden: Golden, env: dict[str, str]):
        self.golden = golden
        self.env = env
        self.ids: Optional[list[str]] = None
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def cli_args(self, spec: Spec) -> Optional[list[str]]:
        if spec.kind == "text":
            return []
        if spec.kind == "json":
            return ["--format", "json"]
        if spec.kind == "list":
            return ["--list"]
        if spec.kind == "section":
            return ["--section", spec.arg]
        if spec.kind == "check":
            return ["--check", self.ids[spec.arg]] if self.ids else None
        return ["--fault", str(spec.arg)]

    def run(self, spec: Spec, prefix: list[str]) -> Optional[Sample]:
        """Run one invocation; None when it could not be formed (no id list)."""
        self.attempted += 1
        args = self.cli_args(spec)
        if args is None:
            self._fail(spec, "no valid --list output to take the check id from")
            return None
        sample = spawn(prefix + args, self.env)
        reason = self.gate(spec, sample)
        if reason is not None:
            stderr = sample.err.strip().splitlines()
            self._fail(spec, f"{reason} ({stderr[-1]})" if stderr else reason)
        return sample

    def gate(self, spec: Spec, sample: Sample) -> Optional[str]:
        golden, out, code = self.golden, sample.out, sample.code
        if spec.kind == "text":
            return golden.check_text(out, code)
        if spec.kind == "json":
            return golden.check_json(out, code)
        if spec.kind == "list":
            reason, ids = golden.check_list(out, code)
            self.ids = ids or None
            return reason
        if spec.kind == "section":
            return golden.check_text(out, code, golden.section(spec.arg))
        if spec.kind == "check":
            return golden.check_text(out, code, golden.single(spec.arg))
        return golden.check_fault(out, code)

    def _fail(self, spec: Spec, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"{spec.kind} {spec.arg}: {reason}")


CLI = ["-m", "quartic_twist"]


def closed_loop(specs: Iterator[Spec], seconds: float, step: Callable[[Spec], None]) -> None:
    """Run specs one after another until `seconds` have passed (at least one)."""
    deadline = time.perf_counter() + seconds
    while True:
        step(next(specs))
        if time.perf_counter() >= deadline:
            return


IMPORT = ["-c", "import quartic_twist"]
REFERENCE = [str(BENCH / "reference.py")]
# The reference program's median wall time on a 2-vCPU 2.1 GHz Xeon VM with
# Python 3.11.7.  `setup_s` must be in seconds; it is the set-up time relative
# to the reference, converted at this speed, so that it does not drift with
# the host either.
REFERENCE_S = 0.25


def end_to_end(client: Client, specs: Iterator[Spec], seconds: float) -> tuple[dict, dict]:
    """Each step runs a fresh `import quartic_twist` (set-up), the planned CLI
    invocation and the reference program, so the sequence is reference,
    import, CLI, reference, import, CLI, ...  Each import and CLI time is
    divided by the mean of the two reference times around its step."""
    env = client.env
    spawn(IMPORT, env)  # compiles bytecode if missing
    refs = [spawn(REFERENCE, env)]
    setup: list[tuple[Sample, Sample, Sample]] = []
    pairs: list[tuple[Sample, Sample, Sample]] = []

    def step(spec: Spec) -> None:
        imported = spawn(IMPORT, env)
        sample = client.run(spec, CLI)
        refs.append(spawn(REFERENCE, env))
        setup.append((imported, refs[-2], refs[-1]))
        if sample is not None:
            pairs.append((sample, refs[-2], refs[-1]))

    closed_loop(specs, seconds, step)
    # Every plan opens with an invocation that can always be formed, so
    # `pairs` is never empty.
    samples = [s for s, _, _ in pairs]
    wall_rel = [s.wall * 2 / (a.wall + b.wall) for s, a, b in pairs]
    cpu_rel = [s.cpu * 2 / (a.cpu + b.cpu) for s, a, b in pairs]
    setup_rel = [s.wall * 2 / (a.wall + b.wall) for s, a, b in setup]
    values = {
        "setup_s": statistics.median(setup_rel) * REFERENCE_S,
        "wall_p50_rel": statistics.median(wall_rel),
        "wall_p75_rel": _p75(wall_rel),
        "cpu_p50_rel": statistics.median(cpu_rel),
        "peak_rss_mb": statistics.median([s.rss_mb for s in samples]),
    }
    metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
    walls = [s.wall for s in samples]
    counts = {"invocations": len(samples), "setup_imports": len(setup),
              "references": len(refs),
              "beyond_p75": sum(r > values["wall_p75_rel"] for r in wall_rel)}
    as_measured = {
        "setup_s": statistics.median([s.wall for s, _, _ in setup]),
        "wall_p50_s": statistics.median(walls),
        "wall_p75_s": _p75(walls),
        "cpu_p50_s": statistics.median([s.cpu for s in samples]),
        "reference_wall_p50_s": statistics.median([r.wall for r in refs]),
        "reference_cpu_p50_s": statistics.median([r.cpu for r in refs]),
    }
    return metrics, {"samples": counts, "as_measured": as_measured}


def _p75(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def traced(client: Client, specs: Iterator[Spec], seconds: float, seed: int,
           label: str) -> tuple[dict, dict, list[str]]:
    spawn(IMPORT, client.env)  # compiles bytecode if missing
    micro_path = WORK / "micro.json"
    micro_path.unlink(missing_ok=True)
    spawn([str(BENCH / "micro.py"), str(seed), str(micro_path)], client.env)
    if micro_path.exists():
        timings = json.loads(micro_path.read_text(encoding="utf-8"))
    else:
        timings = {"metrics": {}, "missing": list(micro.MICRO)}
    record_path = WORK / "record.json"
    records: list[dict] = []
    cpu = {"untraced": 0.0, "traced": 0.0}

    def step(spec: Spec) -> None:
        plain = client.run(spec, CLI)
        if plain is None:
            return
        record_path.unlink(missing_ok=True)
        traced_sample = client.run(spec, [str(BENCH / "tracer.py"), str(record_path), "--"])
        if not record_path.exists():
            return
        record = json.loads(record_path.read_text(encoding="utf-8"))
        record["invocation"] = len(records)
        records.append(record)
        cpu["untraced"] += plain.cpu
        cpu["traced"] += traced_sample.cpu

    closed_loop(specs, seconds, step)
    with open(WORK / f"spans-{label}.jsonl", "w", encoding="utf-8") as handle:
        for record in records:
            for name, parent, start, end in record["spans"]:
                handle.write(json.dumps({"invocation": record["invocation"], "name": name,
                                         "parent": parent, "start_ns": start,
                                         "end_ns": end}) + "\n")
    metrics, missing = tracer.per_layer(records)
    metrics.update({name: tuple(value) for name, value in timings["metrics"].items()})
    missing += timings["missing"]
    if cpu["untraced"]:
        metrics["trace.overhead_ratio"] = (cpu["traced"] / cpu["untraced"] - 1, "ratio")
    else:
        missing.append("trace.overhead_ratio")
    return metrics, {"samples": {"traced_invocations": len(records)}}, missing


# ---------------------------------------------------------------------------
# provenance and output


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable: not a git checkout"


def preflight() -> Optional[str]:
    """Why the benchmark cannot run here, or None."""
    needed = [BENCHMARK, SRC / "quartic_twist" / "cli.py", GOLDEN]
    needed += [FIXTURES / name for name in FIXTURE_NAMES]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    return f"missing {', '.join(absent)}" if absent else None


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    problem = preflight()
    if problem:
        print(f"perfbench: cannot run: {problem}", file=sys.stderr)
        return 2
    try:
        golden = Golden(GOLDEN)
    except ValueError as error:
        print(f"perfbench: cannot read the golden report: {error}", file=sys.stderr)
        return 2
    why = {w["name"]: w["why"] for w in json.loads(BENCHMARK.read_text(encoding="utf-8"))["workloads"]}
    (WORK / "faults").mkdir(parents=True, exist_ok=True)

    client = Client(golden, child_env())
    specs = plan(args.workload, args.seed, len(golden.lines))
    missing: list[str] = []
    if args.trace:
        metrics, details, missing = traced(client, specs, args.seconds, args.seed, args.workload)
    else:
        metrics, details = end_to_end(client, specs, args.seconds)

    provenance = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **details,
        "failed_ratio": client.failed / client.attempted,
        "failures": client.reasons,
        "missing": missing,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }
    for name in missing:
        print(f"perfbench: metric {name} is missing", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

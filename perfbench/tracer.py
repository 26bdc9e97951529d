"""Traced invocations: wrap the public functions of each quartic_twist module,
run the CLI once in this process, and summarise the spans and counters.

Run as a child process, one CLI invocation per process so that caches such
as the branch-expansion cache start cold, as they do in the CLI:

    python3 perfbench/tracer.py RECORD.json -- [quartic-twist arguments]

The CLI's output goes to this process's stdout and its exit code becomes
this process's exit code.  RECORD.json receives the spans (name, parent,
start, end in ns) and the counters, kept in memory until the CLI returns.

The parent imports this module for `summarise` and `PER_LAYER`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from gate import SECTIONS

SRC = Path(__file__).resolve().parent.parent / "src"

LAYERS = (
    "cyclotomic", "curve", "divisors", "valuations", "certificates",
    "mordell_weil", "brauer", "theorems", "checks", "cli",
)

# Spans: name, start, end, parent.  `Class.method` names a method.
SPANS = {
    "curve": ("cusp_permutation", "quadratic_points"),
    "divisors": ("Divisor.galois",),
    "valuations": ("expand_branch", "valuation", "principal_divisor_on_support",
                   "verify_certificate"),
    "certificates": ("bitangent_checks", "cusp_relation_certificates",
                     "verify_principal_divisor", "e_divisor_equality"),
    "mordell_weil": ("fixed_submodule", "image_submodule", "pic1_has_fixed_point",
                     "two_torsion_multiples", "subgroup_generated",
                     "derive_action_matrix", "cusp_class"),
    "brauer": ("verify_e_identities", "reduce_mod_curve", "cocycle_tau_tau",
               "cocycle_table", "product_of_linear_forms"),
    "theorems": ("certificate_suite_passes", "verify_mordell_weil_structure",
                 "verify_odd_degree_torsors",
                 "verify_degree_two_classes_and_quadratic_points",
                 "verify_no_determinantal_representation", "quadratic_point_pairs"),
    "checks": ("build_report", "run_single", "list_check_ids", "render_text",
               "render_json"),
    "cli": ("main",),
}
# Tiny hot functions get a call counter only: a span per call would cost more
# than the call.
COUNTERS = {
    "cyclotomic": ("CycNum.__mul__", "CycNum.inv"),
    "curve": ("HomogPoly.evaluate",),
    "valuations": ("compose",),
    "mordell_weil": ("all_elements", "ActionMatrix.__call__", "ActionMatrix.__mul__",
                     "ModElement.__init__"),
}
CACHE_HITS = "valuations.expand_branch.cache_hit"


class Recorder:
    """Spans and counters of one traced invocation, held in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]
        self.counts: dict[str, list[int]] = {}
        self.present: list[str] = []

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1], clock(), 0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()

        return wrapper

    def counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def cache_probe(self, cache, fn):
        """Count calls of expand_branch(point, precision) whose key is
        already in the expansion cache."""
        cell = self.counts.setdefault(CACHE_HITS, [0])

        @functools.wraps(fn)
        def wrapper(point, precision, *args, **kwargs):
            if (point, precision) in cache:
                cell[0] += 1
            return fn(point, precision, *args, **kwargs)

        return wrapper


def _replace(owner, original, wrapper, namespaces) -> None:
    """Put the wrapper wherever the original is bound: every alias in a
    class, or every module namespace that imported the name."""
    if isinstance(owner, type):
        for attr, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, attr, wrapper)
        return
    for namespace in namespaces:
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper


def install(recorder: Recorder) -> None:
    """Wrap every target that exists; targets that do not are left out of
    `recorder.present`, and the parent reports their metrics as missing."""
    import quartic_twist

    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"quartic_twist.{layer}")
        except ImportError:
            continue
    namespaces = [vars(quartic_twist)] + [vars(m) for m in modules.values()]
    for kind, table in (("span", SPANS), ("count", COUNTERS)):
        for layer, qualnames in table.items():
            for qualname in qualnames:
                owner = modules.get(layer)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if not callable(original):
                    continue
                name = f"{layer}.{qualname}"
                make = recorder.span if kind == "span" else recorder.counter
                wrapper = make(name, original)
                if name == "valuations.expand_branch":
                    cache = getattr(owner, "_EXPANSION_CACHE", None)
                    if isinstance(cache, dict):
                        wrapper = recorder.cache_probe(cache, wrapper)
                        recorder.present.append(CACHE_HITS)
                _replace(owner, original, wrapper, namespaces)
                recorder.present.append(name)
    # The section builders are reached through this table, not by name.
    checks = modules.get("checks")
    builders = getattr(checks, "_SECTION_BUILDERS", None)
    if isinstance(builders, tuple):
        checks._SECTION_BUILDERS = tuple(
            (section, recorder.span(f"checks.section.{section}", fn))
            for section, fn in builders
        )
        recorder.present += [f"checks.section.{section}" for section, _ in builders]


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py RECORD.json -- [quartic-twist arguments]", file=sys.stderr)
        return 2
    record_path, cli_args = argv[0], argv[2:]
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    importlib.import_module("quartic_twist.cli")
    import_s = time.perf_counter() - start
    recorder = Recorder()
    install(recorder)
    try:
        code = sys.modules["quartic_twist.cli"].main(cli_args)
    except SystemExit as error:
        code = error.code if isinstance(error.code, int) else 2
    sys.stdout.flush()
    record = {
        "import_s": import_s,
        "present": recorder.present,
        "counts": {name: cell[0] for name, cell in recorder.counts.items()},
        "spans": recorder.spans,
    }
    Path(record_path).write_text(json.dumps(record), encoding="utf-8")
    return code


# ---------------------------------------------------------------------------
# parent side: per-invocation summaries and the per-layer metrics


def summarise(record: dict) -> dict:
    """Per-invocation totals from one child record.

    calls[name]   spans or counted calls of a target;
    incl[name]    seconds inside the target, outermost calls only;
    total[layer]  seconds inside the layer's outermost spans;
    self[layer]   seconds in the layer's spans minus the time their child
                  spans cover.
    """
    calls = Counter(record["counts"])
    incl: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    spans = record["spans"]
    names_above: list[frozenset] = []
    layers_above: list[frozenset] = []
    children_ns = [0] * len(spans)
    for name, parent, start, end in spans:
        layer = name.split(".", 1)[0]
        names = names_above[parent] if parent >= 0 else frozenset()
        layers = layers_above[parent] if parent >= 0 else frozenset()
        names_above.append(names | {name})
        layers_above.append(layers | {layer})
        duration = end - start
        calls[name] += 1
        if name not in names:
            incl[name] += duration / 1e9
        if layer not in layers:
            total[layer] += duration / 1e9
        if parent >= 0:
            children_ns[parent] += duration
    for (name, _, start, end), covered in zip(spans, children_ns):
        own[name.split(".", 1)[0]] += (end - start - covered) / 1e9
    return {"calls": calls, "incl": incl, "total": total, "self": own,
            "import_s": record["import_s"]}


def _calls(target):
    return lambda s: s["calls"][target]


def _incl(*targets):
    return lambda s: sum(s["incl"][t] for t in targets)


def _layer(layer, kind):
    return lambda s: s[kind][layer]


def _spans_of(layer):
    return tuple(f"{layer}.{q}" for q in SPANS[layer])


# name -> (unit, targets, per-invocation value).  A metric is missing when a
# target does not exist, or none of its targets was reached in the run.
PER_LAYER = {
    "cyclotomic.mul_calls": ("count", ("cyclotomic.CycNum.__mul__",), _calls("cyclotomic.CycNum.__mul__")),
    "cyclotomic.inv_calls": ("count", ("cyclotomic.CycNum.inv",), _calls("cyclotomic.CycNum.inv")),
    "curve.evaluate_calls": ("count", ("curve.HomogPoly.evaluate",), _calls("curve.HomogPoly.evaluate")),
    "curve.cusp_permutation_s": ("s", ("curve.cusp_permutation",), _incl("curve.cusp_permutation")),
    "divisors.galois_s": ("s", ("divisors.Divisor.galois",), _incl("divisors.Divisor.galois")),
    "valuations.expand_branch_calls": ("count", ("valuations.expand_branch",), _calls("valuations.expand_branch")),
    "valuations.expand_branch_s": ("s", ("valuations.expand_branch",), _incl("valuations.expand_branch")),
    "valuations.valuation_calls": ("count", ("valuations.valuation",), _calls("valuations.valuation")),
    "valuations.valuation_s": ("s", ("valuations.valuation",), _incl("valuations.valuation")),
    "valuations.compose_calls": ("count", ("valuations.compose",), _calls("valuations.compose")),
    "valuations.verify_certificate_s": ("s", ("valuations.verify_certificate",), _incl("valuations.verify_certificate")),
    "certificates.suite_runs": ("count", ("certificates.bitangent_checks",), _calls("certificates.bitangent_checks")),
    "certificates.bitangent_checks_s": ("s", ("certificates.bitangent_checks",), _incl("certificates.bitangent_checks")),
    "certificates.cusp_relation_certificates_s": ("s", ("certificates.cusp_relation_certificates",), _incl("certificates.cusp_relation_certificates")),
    "mordell_weil.sweeps": ("count", ("mordell_weil.all_elements",), _calls("mordell_weil.all_elements")),
    "mordell_weil.action_apply_calls": ("count", ("mordell_weil.ActionMatrix.__call__",), _calls("mordell_weil.ActionMatrix.__call__")),
    "mordell_weil.matmul_calls": ("count", ("mordell_weil.ActionMatrix.__mul__",), _calls("mordell_weil.ActionMatrix.__mul__")),
    "mordell_weil.element_constructions": ("count", ("mordell_weil.ModElement.__init__",), _calls("mordell_weil.ModElement.__init__")),
    "mordell_weil.fixed_submodule_s": ("s", ("mordell_weil.fixed_submodule",), _incl("mordell_weil.fixed_submodule")),
    "mordell_weil.image_submodule_s": ("s", ("mordell_weil.image_submodule",), _incl("mordell_weil.image_submodule")),
    "mordell_weil.pic1_has_fixed_point_s": ("s", ("mordell_weil.pic1_has_fixed_point",), _incl("mordell_weil.pic1_has_fixed_point")),
    "brauer.verify_e_identities_s": ("s", ("brauer.verify_e_identities",), _incl("brauer.verify_e_identities")),
    "brauer.reduce_mod_curve_s": ("s", ("brauer.reduce_mod_curve",), _incl("brauer.reduce_mod_curve")),
    "brauer.cocycle_tau_tau_s": ("s", ("brauer.cocycle_tau_tau",), _incl("brauer.cocycle_tau_tau")),
    "theorems.total_s": ("s", _spans_of("theorems"), _layer("theorems", "total")),
    "theorems.self_s": ("s", _spans_of("theorems"), _layer("theorems", "self")),
    "checks.build_report_calls": ("count", ("checks.build_report",), _calls("checks.build_report")),
    **{
        f"checks.section.{section}_s": ("s", (f"checks.section.{section}",), _incl(f"checks.section.{section}"))
        for section in SECTIONS
    },
    "checks.render_s": ("s", ("checks.render_text", "checks.render_json"), _incl("checks.render_text", "checks.render_json")),
    "cli.main_s": ("s", ("cli.main",), _incl("cli.main")),
    "cli.import_s": ("s", ("cli.main",), lambda s: s["import_s"]),
    **{
        f"{layer}.self_s": ("s", _spans_of(layer), _layer(layer, "self"))
        for layer in ("curve", "divisors", "valuations", "certificates", "mordell_weil",
                      "brauer", "checks", "cli")
    },
}


def per_layer(records: list[dict]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Mean per-invocation value of each traced metric over the records,
    plus the names of the metrics that are missing."""
    summaries = [summarise(r) for r in records]
    present = set.intersection(*(set(r["present"]) for r in records)) if records else set()
    reached = {name for s in summaries for name, n in s["calls"].items() if n}
    metrics, missing = {}, []
    for name, (unit, targets, value) in PER_LAYER.items():
        if not set(targets) <= present or not set(targets) & reached:
            missing.append(name)
            continue
        metrics[name] = (sum(value(s) for s in summaries) / len(summaries), unit)
    calls = sum(s["calls"]["valuations.expand_branch"] for s in summaries)
    if CACHE_HITS in present and calls:
        hits = sum(s["calls"][CACHE_HITS] for s in summaries)
        metrics["valuations.expand_cache_hit_ratio"] = (hits / calls, "ratio")
    else:
        missing.append("valuations.expand_cache_hit_ratio")
    return metrics, missing


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

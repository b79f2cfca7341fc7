"""The names the benchmark's tracer wraps (perfbench/tracing.py) against the
program: every one must exist, and a traced pipeline run must reach the
annealer, its fixed-point step and refinement's candidate scoring. A rename
in the program that the tracer does not follow would otherwise leave a
per-layer metric reading 0 without an error."""
import importlib
import importlib.util
from pathlib import Path

from mcagg.generators import gen_ncd

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_traced_name_resolves_to_a_callable():
    names = tracing.SPANS + tracing.COUNTS + tracing.CAPTURES
    missing = [(mod, attr) for mod, attr, _ in names
               if not callable(getattr(importlib.import_module(mod), attr,
                                       None))]
    assert missing == []


def test_traced_pipeline_reaches_anneal_fp_step_and_candidates():
    rows = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=0)[0].rows
    tracer = tracing.Tracer(timed=True)
    tracer.install()
    try:
        tracer.begin_op(0)
        importlib.import_module("mcagg.cli").run_pipeline(rows, k_max=6)
    finally:
        tracer.uninstall()
    assert "anneal.anneal" in {s[3] for s in tracer.spans}
    counts = {}
    for (_, _, name), n in tracer.counts.items():
        counts[name] = counts.get(name, 0) + n
    assert counts.get("fp_step", 0) > 0
    assert counts.get("candidate_scored", 0) > 0

"""Self-tests for the benchmark harness.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench

They cover the query generator, the span arithmetic, a smoke run of every
workload at a tiny size (traced and untraced), and the refusal to run
without the program's sources.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import queries  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


# ---------------------------------------------------------------------------
# query generator

_GENERATE = """
import itertools, json, sys
sys.path.insert(0, {here!r})
import queries
batches = list(itertools.islice(queries.rounds({seed}), 2))
loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'bodenhu')
print(json.dumps([batches, loaded]))
"""


def _generate(seed: int) -> tuple[list, list]:
    code = _GENERATE.format(here=HERE, seed=seed)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    batches, loaded = json.loads(out.stdout)
    return batches, loaded


def test_query_stream_is_deterministic_and_imports_no_bodenhu():
    first, loaded = _generate(3)
    again, _ = _generate(3)
    other, _ = _generate(4)
    assert loaded == []
    assert first == again
    assert first != other


def test_query_rounds_follow_the_mix_and_are_weight_vectors():
    batches = list(itertools.islice(queries.rounds(7), 3))
    texts = [t for b in batches for t in b]
    assert len(set(texts)) == len(texts)
    for batch in batches:
        alphas = [tuple(Fraction(a) for a in t.split(",")) for t in batch]
        assert sorted(len(a) for a in alphas) == sorted(n for n, _ in queries.ROUND)
        for a in alphas:
            assert 0 < a[0] and a[-1] < 1
            assert all(x < y for x, y in zip(a, a[1:]))
            assert sum(a).denominator == 1


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has two children d [5, 6] and e [7, 9] that cover it apart from 1.
    spans = [
        ["root", 0.0, 10.0, -1, None, None],
        ["a", 1.0, 4.0, 0, None, None],
        ["c", 2.0, 3.0, 1, None, None],
        ["b", 5.0, 9.0, 0, None, None],
        ["d", 5.0, 6.0, 3, None, None],
        ["e", 7.0, 9.0, 3, None, None],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]


def test_tracer_records_parents_and_layer_busy_time():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("cli.main"):
        with tracer.span("smallness.check_criterion"):
            with tracer.span("smallness.check_criterion"):
                pass
    names = [s[tracing.NAME] for s in tracer.spans]
    parents = [s[tracing.PARENT] for s in tracer.spans]
    assert names == ["cli.main", "smallness.check_criterion", "smallness.check_criterion"]
    assert parents == [-1, 0, 1]
    m = tracing.layer_metrics(tracer, 0, 0)
    # The nested call of the same layer is counted, not its time twice.
    assert m["smallness.check_criterion.calls"] == 2
    assert m["smallness.check_criterion.busy_s"] == 3.0
    assert m["cli.main.self_s"] == 2.0


# ---------------------------------------------------------------------------
# smoke runs at tiny sizes

worker = pytest.importorskip("worker", reason="needs the package on PYTHONPATH")


def _reference() -> dict:
    with open(worker.REFERENCE) as fh:
        return json.load(fh)["digests"]


SMOKE = {
    "scan": lambda: worker.scan_workload(nmax=7),
    "geometry": lambda: worker.geometry_workload(walls_n=6, realise_n=5),
    "query": lambda: worker.query_workload(
        seed=1,
        mix=[(9, queries.DENSE), (9, queries.MEDIUM), (10, queries.GENERIC)],
        rounds_per_pass=1,
    ),
}


@pytest.mark.parametrize("name", sorted(SMOKE))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(name, trace):
    result = worker.run_workload(SMOKE[name](), _reference(), 0.0, trace)
    assert result["failures"] == []
    assert result["attempted"] >= 1
    if trace:
        wanted = {m["name"] for m in SPEC["per_layer"]}
    else:
        # run.py adds setup_s, which it measures before the worker starts.
        wanted = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s"}
    assert wanted <= set(result["metrics"])


def test_smoke_trace_separates_the_layers():
    query = worker.run_workload(SMOKE["query"](), _reference(), 0.0, True)["metrics"]
    assert query["kernel.batch.calls"] == 0
    assert query["weightspace.feasible.calls"] == 0
    assert query["partitions.alpha_partitions.calls"] > 0
    scan = worker.run_workload(SMOKE["scan"](), _reference(), 0.0, True)["metrics"]
    assert scan["kernel.batch.calls"] > 0
    assert scan["kernel.classes"] == sum(scan[f"kernel.classes.L{L}"] for L in range(3, 8))


def test_trace_counts_one_pass_however_many_were_measured():
    one = worker.run_workload(SMOKE["scan"](), _reference(), 0.0, True)
    many = worker.run_workload(SMOKE["scan"](), _reference(), 0.5, True)
    assert one["passes"] == 1 and many["passes"] > 1
    for name in ("kernel.batch.calls", "kernel.classes", "partitions.shapes.count"):
        assert one["metrics"][name] == many["metrics"][name] > 0


def test_kernel_comparison_reports_its_outcome():
    import kernel_check

    outcome = kernel_check.compare_kernels(nmax=6)
    assert outcome == "ok" or outcome.startswith("skipped")


# ---------------------------------------------------------------------------
# refusal without sources


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        SPEC["command"] + ["--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""

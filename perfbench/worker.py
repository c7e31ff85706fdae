"""Run one workload in-process against the package found on PYTHONPATH.

run.py starts this in a child process with PYTHONPATH set to a fresh copy of
src/, so the peak RSS, the kernel kind and the imported code all belong to
that copy.  The last stdout line is one JSON object with the metrics, the
operation counts and the run's provenance.

A workload is an endless sequence of passes; a pass is a list of units and
each unit is one latency sample made of one or more operations (a CLI call
through `bodenhu.cli.main` with stdout captured, or one
`feasible_partitions` stream).  Only the operations are timed; checking
their outputs is not.

Operations are timed in process CPU time.  The program is single-threaded
and does no I/O, so on an idle machine its CPU time is its wall time; on a
shared virtual machine the wall time also holds whatever time the host gives
to other guests, which no change to the program can affect.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import bodenhu
from bodenhu import _kernel, cli, partitions, weightspace
from bodenhu.core import ModuliContext

import checks
import queries
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# The lru_cache object itself: tracing replaces the module attribute, and the
# wrapper has no cache_clear() or cache_info().
SUBSET_SUMS = weightspace.subset_sums


@dataclass
class Op:
    """One finished operation: its reference key, output digest and CPU time."""

    key: str
    digest: str
    seconds: float


def digest(rc: Optional[int], text: str) -> str:
    return hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest()[:16]


def key_digest(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:16]


class Runner:
    """Executes units, times their operations and checks every output."""

    def __init__(self, reference: dict, tracer: Optional[tracing.Tracer] = None):
        self.reference = reference
        self.tracer = tracer
        self.failures: list[str] = []

    def _finish(
        self, key: str, rc: Optional[int], text: str, seconds: float, problems: list
    ) -> Op:
        op = Op(key, digest(rc, text), seconds)
        expected = self.reference.get(key_digest(key))
        if expected is not None and expected != op.digest:
            problems.append("output differs from the recorded reference")
        if problems:
            self.failures.append(f"{key}: {'; '.join(problems)}")
        return op

    def cli(self, argv: list[str], check) -> tuple[Op, Optional[dict]]:
        """Call bodenhu.cli.main(argv); check(rc, payload) returns problems."""
        out, err = io.StringIO(), io.StringIO()
        rc: Optional[int] = None
        problems: list = []
        span = self.tracer.span("cli.main") if self.tracer else contextlib.nullcontext()
        start = time.process_time()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            problems.append(f"exited via SystemExit({exc.code})")
        except Exception as exc:  # a raising operation is a failed one
            problems.append(f"raised {exc!r}")
        seconds = time.process_time() - start
        text = out.getvalue()
        payload = None
        if not problems:
            try:
                payload = json.loads(text)
                problems += check(rc, payload)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"unreadable output ({exc!r}); stderr {err.getvalue()!r}")
        return self._finish(" ".join(argv), rc, text, seconds, problems), payload

    def realise(self, n: int, s: int) -> Op:
        """list(feasible_partitions(ModuliContext(n, s), min_len=1)), checked."""
        problems: list = []
        rows: list = []
        start = time.process_time()
        try:
            found = list(partitions.feasible_partitions(ModuliContext(n, s), min_len=1))
        except Exception as exc:  # a raising operation is a failed one
            found = []
            problems.append(f"raised {exc!r}")
        seconds = time.process_time() - start
        for part, point in found:
            rows.append((tuple((b.support, b.d_check) for b in part.blocks), tuple(point)))
        problems += checks.check_realised(n, s, rows)
        text = "\n".join(
            " ".join("%s:%d" % (",".join(map(str, sup)), d) for sup, d in blocks)
            + " @ " + ",".join(map(str, point))
            for blocks, point in rows
        )
        return self._finish(f"feasible_partitions {n} {s}", 0, text, seconds, problems)

    def query(self, alpha: str) -> list[Op]:
        """check small, check semismall, then fiber on the first id of length >= 3."""
        ops = []
        first_id = None
        for mode in ("small", "semismall"):
            op, payload = self.cli(
                ["check", "--alpha", alpha, "--mode", mode],
                lambda rc, p, mode=mode: checks.check_check(rc, p, alpha, mode),
            )
            ops.append(op)
            if payload is None:
                return ops
            if mode == "small" and payload["partitions"]:
                first_id = payload["partitions"][0]["id"]
        argv = ["fiber", "--alpha", alpha]
        if first_id is not None:
            argv += ["--id", str(first_id)]
        op, _ = self.cli(argv, lambda rc, p: checks.check_fiber(rc, p, alpha, first_id))
        ops.append(op)
        return ops

    def run_unit(self, unit: tuple) -> list[Op]:
        kind = unit[0]
        if kind == "scan":
            _, nmax, mode = unit
            argv = ["scan", "--nmax", str(nmax), "--mode", mode]
            return [self.cli(argv, checks.check_scan)[0]]
        if kind == "walls":
            _, n, s = unit
            argv = ["walls", "--n", str(n), "--s", str(s)]
            return [self.cli(argv, lambda rc, p: checks.check_walls(rc, p, n))[0]]
        if kind == "realise":
            return [self.realise(unit[1], unit[2])]
        return self.query(unit[1])


# ---------------------------------------------------------------------------
# workloads


# A workload is an endless iterator of passes, each a list of units.
Workload = Iterator[list[tuple]]


def scan_workload(nmax: int = 10) -> Workload:
    """`scan --nmax 10` in small then semismall mode; exhaustive, no seed."""
    while True:
        yield [("scan", nmax, mode) for mode in ("small", "semismall")]


def geometry_workload(walls_n: int = 9, realise_n: int = 8) -> Workload:
    """`walls --n 9 --s k` for every k, then feasible_partitions(8, s) for every s."""
    units = [("walls", walls_n, k) for k in range(1, walls_n)]
    units += [("realise", realise_n, s) for s in range(1, realise_n)]
    while True:
        yield list(units)


def query_workload(
    seed: int, mix: Sequence[tuple[int, str]] = queries.ROUND, rounds_per_pass: int = 6
) -> Workload:
    """A pass is 6 stratified rounds of distinct alphas: 120 queries, 12 beyond p90."""
    stream = queries.rounds(seed, mix)
    while True:
        yield [("query", a) for _ in range(rounds_per_pass) for a in next(stream)]


def make_workload(name: str, seed: int) -> Workload:
    if name == "scan":
        return scan_workload()
    if name == "geometry":
        return geometry_workload()
    if name == "query":
        return query_workload(seed)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# measurement


def run_pass(runner: Runner, units: list[tuple]) -> list[list[Op]]:
    """Run one pass from an empty subset_sums cache; spans carry the unit index."""
    SUBSET_SUMS.cache_clear()
    done = []
    for qid, unit in enumerate(units):
        if runner.tracer is not None:
            runner.tracer.qid = qid
        done.append(runner.run_unit(unit))
    return done


def measure(runner: Runner, workload: Workload, seconds: float) -> tuple[list, list]:
    """Run whole passes, at least one, until `seconds` have elapsed."""
    plan, done = [], []
    start = time.perf_counter()
    for units in workload:
        plan.append(units)
        done.append(run_pass(runner, units))
        if time.perf_counter() - start >= seconds:
            break
    return plan, done


def unit_seconds(done: list) -> list[float]:
    return [sum(op.seconds for op in ops) for pass_ in done for ops in pass_]


def end_to_end(done: list) -> dict[str, float]:
    latencies = [1000 * t for t in unit_seconds(done)]
    # Inclusive quantiles never reach past the largest sample, which matters
    # on `scan`, where a run holds only a few units.
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "pass_s": statistics.median(sum(unit_seconds([p])) for p in done),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_replay(
    reference: dict, units: list[tuple], untraced: list, spans_path: Optional[str]
) -> tuple[dict, list[str], int]:
    """Replay one measured pass under the tracer; outputs must match byte for byte.

    The per-layer metrics are therefore per pass, whatever number of
    untraced passes fitted into the time budget.
    """
    tracer = tracing.Tracer()
    runner = Runner(reference, tracer)
    with tracing.install(tracer):
        replay = run_pass(runner, units)
    info = SUBSET_SUMS.cache_info()
    failures = list(runner.failures)
    attempted = 0
    for ops_a, ops_b in zip(untraced, replay):
        for a, b in zip(ops_a, ops_b):
            attempted += 1
            if (a.key, a.digest) != (b.key, b.digest):
                failures.append(f"{a.key}: traced output differs from untraced")
    metrics = tracing.layer_metrics(tracer, info.hits, info.misses)
    metrics["trace.overhead_ratio"] = sum(unit_seconds([replay])) / sum(unit_seconds([untraced]))
    if spans_path:
        tracer.write(spans_path)
    return metrics, failures, attempted


def run_workload(
    workload: Workload,
    reference: dict,
    seconds: float,
    trace: bool,
    spans_path: Optional[str] = None,
) -> dict:
    """Measure untraced; with trace, measure half as long and replay the first pass traced.

    Returns metrics (end-to-end, or per-layer with trace), the failure
    messages, the number of operations attempted, and the units and passes
    measured.
    """
    runner = Runner(reference)
    if trace:
        seconds /= 2
    plan, done = measure(runner, workload, seconds)
    failures = list(runner.failures)
    attempted = sum(len(ops) for p in done for ops in p)
    if trace:
        metrics, more, replayed = traced_replay(reference, plan[0], done[0], spans_path)
        failures += more
        attempted += replayed
        metrics["fail_ratio"] = len(failures) / attempted
    else:
        metrics = end_to_end(done)
    return {
        "metrics": metrics,
        "failures": failures,
        "attempted": attempted,
        "units": len(unit_seconds(done)),
        "passes": len(done),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("scan", "query", "geometry"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    with open(REFERENCE) as fh:
        reference = json.load(fh)["digests"]
    info = {
        "kernel_kind": _kernel.KERNEL_KIND,
        "package_dir": os.path.dirname(bodenhu.__file__),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    workload = make_workload(args.workload, args.seed)
    result = run_workload(workload, reference, args.seconds, args.trace, args.spans)
    failures = result.pop("failures")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    info.update(units=result.pop("units"), passes=result.pop("passes"))
    print(json.dumps(dict(result, info=info, failures=len(failures))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

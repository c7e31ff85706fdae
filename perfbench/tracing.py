"""Spans recorded from outside the package, and the per-layer metrics.

`install` replaces public functions of the package by timing wrappers at
every module attribute that holds them (for example `smallness` imports
`scan_partition_batch` and `iter_partition_shapes` by name, `cli` imports
`check_criterion` and `alpha_partitions`, `moduli` imports
`stable_rotation`).  Generator layers are timed inside each `next()`.
Spans stay in memory as [name, start, end, parent, query id, tag] and are
written out when the run ends.  The tag is the result length for list
layers, whether the system was infeasible for `weightspace.feasible`, and
"item" for a generator `next()` that produced one.  Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence

NAME, START, END, PARENT, QID, TAG = range(6)

# Ancestors that decide which caller a weightspace.feasible call serves.
_FEASIBLE_CALLERS = {
    "weightspace.enumerate_walls": "walls",
    "partitions.feasible_partitions": "partitions",
    "smallness.scan_all_s": "scan",
}

# Spans whose tag holds the length of the list the call returned.
_COUNTED = ("partitions.alpha_partitions", "weightspace.enumerate_walls")


class Tracer:
    """An in-memory span stack for one single-threaded run."""

    def __init__(self, clock: Callable[[], float] = time.process_time):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.qid: Optional[int] = None
        self.kernel_classes_by_len: dict[int, int] = {}
        self.kernel_totals = [0, 0, 0]  # candidates, classes, violations

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.qid, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for idx, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach), min(end, s[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(s[END] - s[START] - covered)
    return out


# ---------------------------------------------------------------------------
# wrappers


def _wrap_call(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, idx, args, result)
        return result

    return traced


def _wrap_generator(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            idx = tracer.open(name)
            try:
                item = next(inner)
                tracer.spans[idx][TAG] = "item"
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            yield item

    return traced


def _count_degree_assignments(masks: Sequence[int], s_filter: int) -> int:
    """Degree vectors d_i in [-(r_i - 1), -1] with total -s_filter (0 = any)."""
    if not s_filter:
        return math.prod(m.bit_count() - 1 for m in masks)
    ways = {0: 1}
    for m in masks:
        nxt: dict[int, int] = {}
        for total, count in ways.items():
            for d in range(1, m.bit_count()):
                nxt[total + d] = nxt.get(total + d, 0) + count
        ways = nxt
    return ways.get(s_filter, 0)


def _after_kernel(tracer: Tracer, idx: int, args, result) -> None:
    n, s_filter, _, min_len, masks_list = args
    violations, stats = result
    totals = tracer.kernel_totals
    totals[0] += sum(c for c, _ in stats.values())
    totals[1] += sum(k for _, k in stats.values())
    totals[2] += len(violations)
    by_len = tracer.kernel_classes_by_len
    for masks in masks_list:
        L = len(masks)
        if L >= min_len:
            classes = _count_degree_assignments(masks, s_filter) * math.factorial(L - 1)
            by_len[L] = by_len.get(L, 0) + classes


def _after_count(tracer: Tracer, idx: int, args, result) -> None:
    tracer.spans[idx][TAG] = len(result)


def _after_feasible(tracer: Tracer, idx: int, args, result) -> None:
    tracer.spans[idx][TAG] = result is None


# (module, attribute, span name, kind, post-call hook)
_TARGETS = (
    ("bodenhu._kernel", "scan_partition_batch", "kernel.batch", "call", _after_kernel),
    ("bodenhu.partitions", "iter_partition_shapes", "partitions.shapes", "gen", None),
    ("bodenhu.partitions", "alpha_partitions", "partitions.alpha_partitions", "call", _after_count),
    ("bodenhu.partitions", "feasible_partitions", "partitions.feasible_partitions", "gen", None),
    ("bodenhu.partitions", "stable_rotation", "partitions.stable_rotation", "call", None),
    ("bodenhu.weightspace", "feasible", "weightspace.feasible", "call", _after_feasible),
    ("bodenhu.weightspace", "wall_system", "weightspace.system_build", "call", None),
    ("bodenhu.weightspace", "partition_system", "weightspace.system_build", "call", None),
    ("bodenhu.weightspace", "enumerate_walls", "weightspace.enumerate_walls", "call", _after_count),
    ("bodenhu.weightspace", "subset_sums", "weightspace.subset_sums", "call", None),
    ("bodenhu.weightspace", "is_generic", "weightspace.is_generic", "call", None),
    ("bodenhu.weightspace", "is_near", "weightspace.is_near", "call", None),
    ("bodenhu.weightspace", "find_generic_near", "weightspace.find_generic_near", "call", None),
    ("bodenhu.smallness", "check_criterion", "smallness.check_criterion", "call", None),
    ("bodenhu.smallness", "rotation_deltas", "smallness.rotation_deltas", "call", None),
    ("bodenhu.smallness", "scan_all_s", "smallness.scan_all_s", "call", None),
    ("bodenhu.moduli", "fiber_report", "moduli.fiber_report", "call", None),
)


@contextmanager
def install(tracer: Tracer) -> Iterator[None]:
    """Wrap every target at every bodenhu module attribute bound to it."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "bodenhu"]
    patched = []
    try:
        for module_name, attr, span, kind, after in _TARGETS:
            original = getattr(sys.modules[module_name], attr)
            if kind == "gen":
                wrapper = _wrap_generator(tracer, span, original)
            else:
                wrapper = _wrap_call(tracer, span, original, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        yield
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)


# ---------------------------------------------------------------------------
# metrics


def _ancestors(spans: Sequence[Sequence], idx: int) -> Iterator[int]:
    p = spans[idx][PARENT]
    while p >= 0:
        yield p
        p = spans[p][PARENT]


def layer_metrics(tracer: Tracer, cache_hits: int, cache_misses: int) -> dict[str, float]:
    """Per-layer counts and times from the recorded spans.

    busy_s is inclusive time, counting a span only when no ancestor has the
    same name; self_s subtracts child spans.  cache_hits/misses are the
    subset_sums cache_info() counts over the traced replay.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls, busy, own, found = Counter(), Counter(), Counter(), Counter()
    # Per feasible caller: calls, busy time, infeasible systems.
    feas = {caller: [0, 0.0, 0] for caller in ("walls", "partitions", "scan")}
    infeasible = 0
    for idx, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        names_above = [spans[a][NAME] for a in _ancestors(spans, idx)]
        calls[name] += 1
        own[name] += selfs[idx]
        if name not in names_above:
            busy[name] += dur
        if name in _COUNTED:
            found[name] += s[TAG]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        if name == "partitions.shapes" and parent.startswith("smallness."):
            found["shapes"] += s[TAG] == "item"
            busy["shapes"] += dur
        elif name == "partitions.feasible_partitions":
            found[name] += s[TAG] == "item"
        elif name == "smallness.check_criterion" and "smallness.scan_all_s" in names_above:
            calls["recheck"] += 1
            busy["recheck"] += dur
        elif name == "weightspace.feasible":
            infeasible += s[TAG]
            callers = [_FEASIBLE_CALLERS[a] for a in names_above if a in _FEASIBLE_CALLERS]
            if callers:
                entry = feas[callers[0]]
                entry[0] += 1
                entry[1] += dur
                entry[2] += s[TAG]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    cand, classes, viols = tracer.kernel_totals
    m: dict[str, float] = {
        "kernel.batch.calls": calls["kernel.batch"],
        "kernel.batch.busy_s": busy["kernel.batch"],
        "kernel.candidates": cand,
        "kernel.classes": classes,
        "kernel.violations": viols,
        "kernel.classes_per_s": ratio(classes, busy["kernel.batch"]),
    }
    for L in range(3, 8):
        m[f"kernel.classes.L{L}"] = tracer.kernel_classes_by_len.get(L, 0)
    realised = found["partitions.feasible_partitions"]
    fp_candidates = feas["partitions"][0]
    m.update({
        "partitions.shapes.count": found["shapes"],
        "partitions.shapes.busy_s": busy["shapes"],
        "partitions.alpha_partitions.calls": calls["partitions.alpha_partitions"],
        "partitions.alpha_partitions.busy_s": busy["partitions.alpha_partitions"],
        "partitions.alpha_partitions.found": found["partitions.alpha_partitions"],
        "partitions.feasible_partitions.busy_s": busy["partitions.feasible_partitions"],
        "partitions.feasible_partitions.candidates": fp_candidates,
        "partitions.feasible_partitions.realised": realised,
        "partitions.feasible_partitions.realised_ratio": ratio(realised, fp_candidates),
        "partitions.stable_rotation.calls": calls["partitions.stable_rotation"],
        "partitions.stable_rotation.busy_s": busy["partitions.stable_rotation"],
    })
    overall = (calls["weightspace.feasible"], busy["weightspace.feasible"], infeasible)
    for prefix, (n_calls, secs, bad) in [("weightspace.feasible", overall)] + [
        (f"weightspace.feasible.{caller}", entry) for caller, entry in feas.items()
    ]:
        m[f"{prefix}.calls"] = n_calls
        m[f"{prefix}.busy_s"] = secs
        m[f"{prefix}.ms_per_call"] = 1000 * ratio(secs, n_calls)
        m[f"{prefix}.infeasible_ratio"] = ratio(bad, n_calls)
    m.update({
        "weightspace.system_build.busy_s": busy["weightspace.system_build"],
        "weightspace.enumerate_walls.busy_s": busy["weightspace.enumerate_walls"],
        "weightspace.enumerate_walls.walls": found["weightspace.enumerate_walls"],
        "weightspace.subset_sums.calls": calls["weightspace.subset_sums"],
        "weightspace.subset_sums.busy_s": busy["weightspace.subset_sums"],
        "weightspace.subset_sums.cache_hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "weightspace.is_generic.busy_s": busy["weightspace.is_generic"],
        "weightspace.is_near.busy_s": busy["weightspace.is_near"],
        "weightspace.find_generic_near.calls": calls["weightspace.find_generic_near"],
        "weightspace.find_generic_near.busy_s": busy["weightspace.find_generic_near"],
        "smallness.check_criterion.calls": calls["smallness.check_criterion"],
        "smallness.check_criterion.busy_s": busy["smallness.check_criterion"],
        "smallness.rotation_deltas.calls": calls["smallness.rotation_deltas"],
        "smallness.rotation_deltas.busy_s": busy["smallness.rotation_deltas"],
        "smallness.recheck.calls": calls["recheck"],
        "smallness.recheck.busy_s": busy["recheck"],
        "smallness.scan_all_s.self_s": own["smallness.scan_all_s"],
        "moduli.fiber_report.calls": calls["moduli.fiber_report"],
        "moduli.fiber_report.busy_s": busy["moduli.fiber_report"],
        "cli.main.self_s": own["cli.main"],
    })
    return m

"""Kernel equivalence, stats accounting, and agreement with exact arithmetic.

The compiled_kernel fixture (conftest.py) always builds the current
_speedups.c into a temporary directory and loads it from there, so an
in-place build left over from an older source can never stand in for the
code under test.
"""

import itertools
import math
import signal
import subprocess
import sysconfig
import time
import tracemalloc
import types
from functools import lru_cache

import pytest

from bodenhu import MultiplicityVector, OrderedPartition, iter_partition_shapes
from bodenhu import _kernel
from bodenhu._kernel import KERNEL_KIND, pure
from bodenhu.smallness import rotation_deltas, violates_margin
from conftest import REPO_ROOT, c_compiler


@pytest.fixture(params=["pure", "compiled"])
def impl(request):
    if request.param == "pure":
        return pure
    return request.getfixturevalue("compiled_kernel")


@lru_cache(maxsize=None)
def pure_scan_shapes(n, s_filter, semismall, min_len):
    return pure.scan_shapes(n, s_filter, semismall, min_len)


def run_scan(impl, n, s_filter=0, semismall=False, min_len=3):
    masks_list = list(iter_partition_shapes(n, min_len))
    if impl is pure:
        # pure.scan_shapes is the batch entry over these very shapes
        # (TestScanShapes checks it); its results are cached for reuse
        index = {masks: pi for pi, masks in enumerate(masks_list)}
        viols, stats = pure_scan_shapes(n, s_filter, semismall, min_len)
        return [(index[masks], *rest) for masks, *rest in viols], dict(stats)
    return impl.scan_partition_batch(n, s_filter, semismall, min_len, masks_list)


def blocks_of_record(n, masks_list, record):
    pi, degs, order, _ = record
    blocks = tuple(
        MultiplicityVector(
            d, tuple(1 if mask >> i & 1 else 0 for i in range(n))
        )
        for mask, d in zip(masks_list[pi], degs)
    )
    return tuple(blocks[i] for i in order)


class TestKernelSelection:
    def test_kind_is_reported(self):
        assert KERNEL_KIND in ("pure", "compiled")

    def test_fresh_build_is_selected(self, compiled_kernel):
        assert compiled_kernel.KERNEL_API == pure.KERNEL_API
        assert _kernel.select(compiled_kernel) == (compiled_kernel, "compiled")

    def test_stale_builds_fall_back_to_pure(self, compiled_kernel):
        # an extension built from an older _speedups.c: an entry point is
        # missing, or the API number differs
        older = types.ModuleType("_speedups")
        older.KERNEL_API = pure.KERNEL_API
        older.scan_partition_batch = compiled_kernel.scan_partition_batch
        assert _kernel.select(older) == (pure, "pure")
        other = types.ModuleType("_speedups")
        other.KERNEL_API = pure.KERNEL_API + 1
        for name in _kernel.ENTRY_POINTS:
            setattr(other, name, getattr(compiled_kernel, name))
        assert _kernel.select(other) == (pure, "pure")
        assert _kernel.select(None) == (pure, "pure")

    def test_source_compiles_without_warnings(self):
        cc = c_compiler()
        if cc is None:
            pytest.skip("no C compiler found")
        include = sysconfig.get_paths()["include"]
        source = REPO_ROOT / "src" / "bodenhu" / "_kernel" / "_speedups.c"
        out = subprocess.run(
            [cc, "-fsyntax-only", "-Wall", "-Wextra", "-Werror",
             f"-I{include}", str(source)],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr


# Inputs off the canonical enumeration: blocks of rank below 2 (empty degree
# range), an empty shape, negative and oversized masks.
EDGE_CASES = [
    (4, 0, False, 1, [(0, 0b1111)]),
    (3, 0, False, 0, [()]),
    (3, 0, True, 1, [(0b111,)]),
    (3, 0, False, 1, [(0b111,), (0b1, 0b110)]),
    (4, 0, False, 1, [(-1, -6)]),
    (4, 3, True, 2, [(0b11 | 1 << 40, 0b1100)]),
]


class TestKernelEquivalence:
    @pytest.mark.parametrize("semismall", [False, True])
    def test_bit_for_bit(self, compiled_kernel, semismall):
        for n in range(4, 11):
            expected = run_scan(pure, n, semismall=semismall)
            assert run_scan(compiled_kernel, n, semismall=semismall) == expected

    def test_bit_for_bit_with_filters(self, compiled_kernel):
        for n in range(6, 11):
            for semismall in (False, True):
                args = dict(s_filter=n // 2, semismall=semismall)
                assert run_scan(compiled_kernel, n, **args) == run_scan(
                    pure, n, **args
                )
        for n in range(2, 9):
            for min_len in (1, 2):
                for semismall in (False, True):
                    args = dict(semismall=semismall, min_len=min_len)
                    assert run_scan(compiled_kernel, n, **args) == run_scan(
                        pure, n, **args
                    )

    @pytest.mark.parametrize("args", EDGE_CASES)
    def test_edge_inputs_bit_for_bit(self, compiled_kernel, args):
        expected = pure.scan_partition_batch(*args)
        got = compiled_kernel.scan_partition_batch(*args)
        assert got == expected
        assert list(got[1]) == list(expected[1])  # same stats key order

    def test_no_reference_leak(self, compiled_kernel):
        # small mode with min_len=1 records violations (single blocks), so
        # the tuple-building path runs on every call
        shapes = list(iter_partition_shapes(8, 1))
        tracemalloc.start()
        try:
            for call in range(1, 201):
                result = compiled_kernel.scan_partition_batch(
                    8, 0, False, 1, shapes
                )
                assert result[0]
                del result
                if call == 100:
                    mid = tracemalloc.get_traced_memory()[0]
            end = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert end <= mid


class TestScanShapes:
    def test_bit_for_bit(self, compiled_kernel):
        for n in range(2, 11):
            grid = itertools.product([n], (0, n // 2), (False, True), (1, 2, 3))
            for args in grid:
                expected = pure_scan_shapes(*args)
                got = compiled_kernel.scan_shapes(*args)
                assert got == expected, args
                assert list(got[1]) == list(expected[1]), args  # key order

    def test_equals_the_batch_entry(self, impl):
        for n in range(2, 9 if impl is pure else 11):
            for min_len in (1, 3):
                for semismall in (False, True):
                    masks_list = list(iter_partition_shapes(n, min_len))
                    viols, stats = impl.scan_partition_batch(
                        n, 0, semismall, min_len, masks_list
                    )
                    got = impl.scan_shapes(n, 0, semismall, min_len)
                    assert got[0] == [
                        (masks_list[pi], *rest) for pi, *rest in viols
                    ]
                    assert got[1] == stats
                    assert list(got[1]) == list(stats)

    def test_trivial_sizes(self, impl):
        for n in (0, 1):
            assert impl.scan_shapes(n, 0, False, 1) == ([], {})
        assert impl.scan_shapes(2, 0, False, 1) == (
            [((0b11,), (-1,), (0,), (0,))], {1: [1, 1]},
        )

    def test_capacity_limits(self, impl):
        with pytest.raises(ValueError, match="at most 30 slots"):
            impl.scan_shapes(31, 0, False, 3)
        with pytest.raises(ValueError, match="non-negative"):
            impl.scan_shapes(-1, 0, False, 3)

    def test_no_reference_leak(self, compiled_kernel):
        # small mode with min_len=1 records violations (single blocks), so
        # the record-building path runs on every call
        tracemalloc.start()
        try:
            for call in range(1, 201):
                result = compiled_kernel.scan_shapes(8, 0, False, 1)
                assert result[0]
                del result
                if call == 100:
                    mid = tracemalloc.get_traced_memory()[0]
            end = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert end <= mid

    def test_interruptible(self, compiled_kernel):
        # a signal handler that raises (as SIGINT's does) must end a long
        # scan: the enumerator checks for signals once per first block
        class Stop(Exception):
            pass

        def stop(signum, frame):
            raise Stop

        previous = signal.signal(signal.SIGALRM, stop)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.2)
            with pytest.raises(Stop):
                compiled_kernel.scan_shapes(13, 0, False, 3)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 2.0


def nested_lists(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


class TestDumps:
    """Nesting limits of both JSON writers, and the compiled one's references
    and selection; TestEncoder in test_cli.py checks both writers against
    json.dumps on random payloads."""

    def test_deep_nesting_raises_recursion_error(self, impl):
        deep = nested_lists(100_000)
        with pytest.raises(RecursionError):
            impl.dumps(deep)
        with pytest.raises(RecursionError):
            impl.dumps({"a": deep})

    def test_nesting_below_the_limit_encodes(self, impl):
        value = nested_lists(200)
        assert impl.dumps(value) == pure.dumps(value)

    def test_no_reference_leak(self, compiled_kernel):
        # every branch: escaped and plain strings, small and big ints,
        # finite and non-finite floats, and a TypeError halfway through
        payload = {
            "plain": "abc",
            "escaped": 'a"b\\c\u00e9\n',
            "ints": [0, -1, 2**70],
            "floats": [1.5, float("nan"), float("-inf")],
            "flags": [True, False, None, {}, []],
        }
        bad = [payload, {"x": 1j}]
        with pytest.raises(TypeError):
            compiled_kernel.dumps(bad)
        tracemalloc.start()
        try:
            for call in range(1, 201):
                text = compiled_kernel.dumps(payload)
                del text
                try:
                    compiled_kernel.dumps(bad)
                except TypeError:
                    pass
                if call == 100:
                    mid = tracemalloc.get_traced_memory()[0]
            end = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert end <= mid

    def test_builds_without_dumps_fall_back_to_pure(self, compiled_kernel):
        # an extension built before dumps existed: the entry point is
        # missing, or it carries the previous API number
        without = types.ModuleType("_speedups")
        without.KERNEL_API = pure.KERNEL_API
        without.scan_shapes = compiled_kernel.scan_shapes
        without.scan_partition_batch = compiled_kernel.scan_partition_batch
        assert _kernel.select(without) == (pure, "pure")
        older = types.ModuleType("_speedups")
        older.KERNEL_API = 2
        for name in _kernel.ENTRY_POINTS:
            setattr(older, name, getattr(compiled_kernel, name))
        assert _kernel.select(older) == (pure, "pure")
        assert pure.KERNEL_API == compiled_kernel.KERNEL_API == 3


@lru_cache(maxsize=None)
def labelled_count(m, L, s):
    """Set partitions of m labelled slots into L blocks of size >= 2, each
    block of rank r carrying a degree -e with 1 <= e <= r - 1, the e summing
    to s.  Recurrence on the block holding the lowest slot (Flajolet and
    Sedgewick, Analytic Combinatorics, ch. II)."""
    if L == 0:
        return int(m == 0 and s == 0)
    return sum(
        math.comb(m - 1, r - 1) * labelled_count(m - r, L - 1, s - e)
        for r in range(2, m + 1)
        for e in range(1, min(r - 1, s) + 1)
    )


def closed_form_stats(n, min_len=3):
    """s -> [candidates, ordering classes], classes weighting by (L-1)!."""
    out = {}
    for L in range(min_len, n // 2 + 1):
        for s in range(1, n):
            count = labelled_count(n, L, s)
            if count:
                acc = out.setdefault(s, [0, 0])
                acc[0] += count
                acc[1] += count * math.factorial(L - 1)
    return out


class TestClosedFormCounts:
    def test_compiled_counts(self, compiled_kernel):
        for n in range(2, 13):
            assert compiled_kernel.scan_shapes(n, 0, False, 3)[1] == (
                closed_form_stats(n)
            ), n

    def test_pure_counts(self):
        for n in range(2, 9):
            for semismall in (False, True):
                assert pure_scan_shapes(n, 0, semismall, 3)[1] == (
                    closed_form_stats(n)
                ), n

    def test_frozen_values(self):
        assert closed_form_stats(8) == {
            3: [490, 980], 4: [875, 2170], 5: [490, 980],
        }


class TestKernelBehaviour:
    def test_frozen_stats(self, impl):
        assert run_scan(impl, 6)[1] == {3: [15, 30]}
        assert run_scan(impl, 7)[1] == {3: [105, 210], 4: [105, 210]}
        assert run_scan(impl, 8)[1] == {
            3: [490, 980], 4: [875, 2170], 5: [490, 980],
        }

    def test_stats_match_brute_force(self, impl):
        import math

        for n in (6, 7):
            expected = {}
            for masks in iter_partition_shapes(n, 3):
                L = len(masks)
                ranges = [range(-(m.bit_count() - 1), 0) for m in masks]
                for degs in itertools.product(*ranges):
                    s = -sum(degs)
                    acc = expected.setdefault(s, [0, 0])
                    acc[0] += 1
                    acc[1] += math.factorial(L - 1)
            assert run_scan(impl, n)[1] == expected

    def test_s_filter_restricts_to_one_total(self, impl):
        full_viols, full_stats = run_scan(impl, 9)
        viols, stats = run_scan(impl, 9, s_filter=4)
        assert set(stats) == {4}
        assert stats[4] == full_stats[4]
        masks_list = list(iter_partition_shapes(9, 3))
        assert viols == [
            rec for rec in full_viols if -sum(rec[1]) == 4
        ]
        assert all(-sum(rec[1]) == 4 for rec in viols)
        assert masks_list  # enumeration nonempty sanity

    def test_min_len_skips_short_shapes(self, impl):
        full_block = ((1 << 5) - 1,)
        assert impl.scan_partition_batch(5, 0, False, 3, [full_block]) == (
            [],
            {},
        )

    def test_rank_below_two_yields_no_candidate(self, impl):
        # a rank-1 block has the empty degree range (-(r-1), 0)
        assert impl.scan_partition_batch(3, 0, False, 1, [(0b1, 0b110)]) == (
            [],
            {},
        )
        assert impl.scan_partition_batch(
            5, 0, False, 3, [(0b1, 0b110, 0b11000)]
        ) == ([], {})

    def test_capacity_limits(self, impl):
        with pytest.raises(ValueError, match="at most 30 slots"):
            impl.scan_partition_batch(31, 0, False, 3, [])
        blocks = tuple(0b11 << 2 * i for i in range(17))
        with pytest.raises(ValueError, match="at most 16 blocks"):
            impl.scan_partition_batch(30, 0, False, 3, [blocks])
        assert impl.scan_partition_batch(30, 0, False, 18, [blocks]) == (
            [],
            {},
        )

    def test_length_two_never_violates(self, impl):
        for n in (4, 5, 6):
            viols, _ = run_scan(impl, n, min_len=2)
            masks_list = list(iter_partition_shapes(n, 2))
            for rec in viols:
                assert len(masks_list[rec[0]]) >= 3

    def test_no_violations_through_eight_slots(self, impl):
        for n in range(4, 9):
            for semismall in (False, True):
                viols, _ = run_scan(impl, n, semismall=semismall)
                assert viols == []

    def test_violations_match_exact_arithmetic(self, impl):
        masks_list = list(iter_partition_shapes(9, 3))
        for semismall in (False, True):
            viols, _ = impl.scan_partition_batch(
                9, 0, semismall, 3, masks_list
            )
            assert viols
            for rec in viols[:80]:
                pi, degs, order, rots = rec
                assert order[0] == 0
                seq = blocks_of_record(9, masks_list, rec)
                op = OrderedPartition(seq)
                assert rotation_deltas(op) == rots
                mode = "semismall" if semismall else "small"
                assert violates_margin(rots, mode)

    def test_records_stay_in_enumeration_order(self, impl):
        viols, _ = run_scan(impl, 9)
        indices = [rec[0] for rec in viols]
        assert indices == sorted(indices)

    def test_orderings_of_one_candidate_stay_lexicographic(self, impl):
        # Two N=11 shapes with several violating orderings per candidate.
        # (0, 2, 3, 1) is the reverse of (0, 1, 3, 2), which comes before
        # (0, 2, 1, 3): a kernel that decides reverse pairs together must
        # still report (0, 2, 1, 3) first.
        shapes = [(52, 265, 704, 1026), (52, 264, 704, 1027)]
        viols, _ = impl.scan_partition_batch(11, 0, False, 3, shapes)
        degs = (-1, -1, -2, -1)
        assert [rec[:3] for rec in viols] == [
            (0, degs, (0, 2, 1, 3)),
            (0, degs, (0, 2, 3, 1)),
            (1, degs, (0, 1, 2, 3)),
            (1, degs, (0, 2, 1, 3)),
            (1, degs, (0, 2, 3, 1)),
        ]
        assert all(rec[3] == (3, 3, 3, 3) for rec in viols)

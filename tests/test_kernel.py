"""Kernel equivalence, stats accounting, and agreement with exact arithmetic.

The compiled_kernel fixture (conftest.py) always builds the current
_speedups.c into a temporary directory and loads it from there, so an
in-place build left over from an older source can never stand in for the
code under test.
"""

import gc
import hashlib
import itertools
import math
import random
import signal
import subprocess
import sysconfig
import time
import tracemalloc
import types
from functools import lru_cache

import pytest

from bodenhu import (
    MultiplicityVector,
    OrderedPartition,
    delta_seq,
    iter_partition_shapes,
)
from bodenhu import _kernel
from bodenhu._kernel import KERNEL_KIND, pure
from bodenhu.smallness import violates_margin
from conftest import REPO_ROOT, c_compiler, seeded_blocks


@pytest.fixture(params=["pure", "compiled"])
def impl(request):
    if request.param == "pure":
        return pure
    return request.getfixturevalue("compiled_kernel")


@lru_cache(maxsize=None)
def pure_scan_shapes(n, s_filter, semismall, min_len):
    return pure.scan_shapes(n, s_filter, semismall, min_len)


@lru_cache(maxsize=None)
def compiled_full_scan(kernel, n, semismall):
    """The compiled scan_shapes(n, 0, semismall, 3), the CLI's scan, shared by
    the tests that reach past the compiled == pure range."""
    return kernel.scan_shapes(n, 0, semismall, 3)


# sha256 of repr(scan_shapes(n, 0, semismall, 3)) from the compiled kernel
# before it skipped any ordering walk by the rotation bound.  They pin that
# the bound drops no violation and no count past the range of the compiled
# == pure tests; at N = 11 and 12 some violations have zero slack.
UNPRUNED_SCAN_DIGESTS = {
    (11, False): "42edaafb5a967216109ec068f20670226bdb7ad5f6a4705eb5c0f4b0b26e67f5",
    (11, True): "8e87a3015c301380df8f91b99193d0abb761134468af3c6800549319ffb633f2",
    (12, False): "d831ed9ec304be3b889cc8f978f4f33da691b8ec4f4620ea26f31358b37bb57b",
    (12, True): "76d60b125b0e1efed5522344a57d03de4984a16839f45f32d8fa50b4b75dfa6a",
}


def run_scan(impl, n, s_filter=0, semismall=False, min_len=3):
    if impl is pure:
        # pure.scan_shapes is the batch entry over these very shapes
        # (TestScanShapes checks it); its results are cached for reuse
        viols, stats = pure_scan_shapes(n, s_filter, semismall, min_len)
        return list(viols), dict(stats)
    masks_list = list(iter_partition_shapes(n, min_len))
    return impl.scan_partition_batch(n, s_filter, semismall, min_len, masks_list)


def blocks_of_record(n, record):
    masks, degs, order, _ = record
    blocks = tuple(
        MultiplicityVector(
            d, tuple(1 if mask >> i & 1 else 0 for i in range(n))
        )
        for mask, d in zip(masks, degs)
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

    def test_refusal_names_the_reason(self, compiled_kernel):
        # stubs for the ways an in-place build can be refused: none at all,
        # one from before batch input had to partition the slots (API 5),
        # and one with the current number but without the realisation
        # entries
        assert _kernel.refusal(compiled_kernel) is None
        assert _kernel.refusal(None) == "no extension"
        older = types.ModuleType("_speedups")
        older.KERNEL_API = 5
        for name in _kernel.ENTRY_POINTS:
            setattr(older, name, getattr(compiled_kernel, name))
        assert _kernel.refusal(older) == "API mismatch: extension 5, pure.py 6"
        assert _kernel.select(older) == (pure, "pure")
        without = types.ModuleType("_speedups")
        without.KERNEL_API = pure.KERNEL_API
        for name in ("scan_shapes", "scan_partition_batch", "alpha_shapes",
                     "rate_orders", "dumps"):
            setattr(without, name, getattr(compiled_kernel, name))
        assert _kernel.refusal(without) == (
            "missing entries: realise, realise_shapes"
        )
        assert _kernel.select(without) == (pure, "pure")

    def test_fallback_is_recorded(self):
        assert _kernel.KERNEL_FALLBACK == _kernel.refusal(_kernel._speedups)
        assert (_kernel.KERNEL_FALLBACK is None) == (KERNEL_KIND == "compiled")

    def test_source_compiles_without_warnings(self, tmp_path):
        # at the build's -O3, so that warnings which need flow analysis,
        # such as maybe-uninitialized, fail too
        cc = c_compiler()
        if cc is None:
            pytest.skip("no C compiler found")
        include = sysconfig.get_paths()["include"]
        source = REPO_ROOT / "src" / "bodenhu" / "_kernel" / "_speedups.c"
        out = subprocess.run(
            [cc, "-O3", "-Wall", "-Wextra", "-Werror", f"-I{include}",
             "-c", str(source), "-o", str(tmp_path / "_speedups.o")],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr


# Partition inputs off the canonical enumeration: the partition of no slots,
# one block, a block of rank 1 (empty degree range), blocks out of ascending
# order and given as a list, a shape min_len skips before it is read, and an
# s filter over shapes of unequal length.
EDGE_CASES = [
    (0, 0, False, 0, [()]),
    (0, 0, True, 0, [()]),
    (3, 0, True, 1, [(0b111,)]),
    (3, 0, False, 1, [(0b111,), (0b1, 0b110)]),
    (5, 0, False, 1, [(0b11000, 0b00110, 0b00001), [0b10100, 0b01011]]),
    (4, 0, False, 2, [(0b0011,), (0b1100, 0b0011)]),
    (6, 3, True, 1, [(0b110000, 0b001100, 0b000011), (0b111000, 0b000111)]),
]

# (n, masks): block input that is not a set partition of the n slots,
# which every entry taking blocks must refuse in both twins.  Blocks that
# overlap (the whole of three slots thrice, where the twins once disagreed,
# and two that share a slot), leave a slot uncovered or are empty, negative
# masks, masks past the n slots, the empty shape of a nonempty slot set,
# and n outside 0..30.
NON_PARTITIONS = [
    (3, (0b111, 0b111, 0b111)),
    (4, (0b0011, 0b0110)),
    (4, (0b0011,)),
    (4, (0b0011, 0b1100, 0b0000)),
    (4, (0, 0b1111)),
    (4, (-1, -6)),
    (4, (-4, 0b0011)),
    (4, (0b10011, 0b1100)),
    (4, (0b11 | 1 << 40, 0b1100)),
    (4, (1 << 70, 0b1111)),
    (3, ()),
    (-1, (0b11,)),
    (31, ()),
]


def shuffled_partitions(seed, count):
    """count random set partitions (n, masks) of n = 4..9 slots into 1 to 4
    blocks, the masks in random order rather than ascending."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 9)
        L = rng.randint(1, 4)
        slots = rng.sample(range(n), n)
        cuts = [0, *sorted(rng.sample(range(1, n), L - 1)), n]
        yield n, tuple(
            sum(1 << v for v in slots[a:b]) for a, b in zip(cuts, cuts[1:])
        )


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

    @pytest.mark.parametrize("n, masks", NON_PARTITIONS)
    def test_non_partitions_raise(self, impl, n, masks):
        for semismall in (False, True):
            with pytest.raises(ValueError):
                impl.scan_partition_batch(n, 0, semismall, 0, [masks])
        with pytest.raises(ValueError):
            impl.realise(n, masks, [-1] * len(masks))

    def test_shuffled_partitions_bit_for_bit(self, compiled_kernel):
        # the rotation bound and the reverse-pair shortcut hold on every
        # partition, not only on the ascending masks of the enumeration
        by_n = {}
        for n, masks in shuffled_partitions(1604, 3600):
            by_n.setdefault(n, []).append(masks)
        records = unordered = 0
        for n, shapes in sorted(by_n.items()):
            unordered += sum(list(masks) != sorted(masks) for masks in shapes)
            for semismall in (False, True):
                args = (n, 0, semismall, 1, shapes)
                expected = pure.scan_partition_batch(*args)
                got = compiled_kernel.scan_partition_batch(*args)
                assert got == expected, (n, semismall)
                assert list(got[1]) == list(expected[1])
                records += len(got[0])
        assert unordered > 1000
        assert records > 1000

    def test_no_reference_leak(self, compiled_kernel):
        # small mode with min_len=1 records violations (single blocks), so
        # the tuple-building path runs on every call; a batch whose last
        # shape is refused runs the error path after its records are made
        shapes = list(iter_partition_shapes(8, 1))
        refused = [shapes[0], (0b11,)]
        tracemalloc.start()
        try:
            for call in range(1, 201):
                result = compiled_kernel.scan_partition_batch(
                    8, 0, False, 1, shapes
                )
                assert result[0]
                del result
                try:
                    compiled_kernel.scan_partition_batch(8, 0, False, 1, refused)
                except ValueError:
                    pass
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
                    expected = impl.scan_partition_batch(
                        n, 0, semismall, min_len, masks_list
                    )
                    got = impl.scan_shapes(n, 0, semismall, min_len)
                    assert got == expected
                    assert list(got[1]) == list(expected[1])

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

    @pytest.mark.parametrize("n, semismall", sorted(UNPRUNED_SCAN_DIGESTS))
    def test_rotation_bound_drops_nothing(self, compiled_kernel, n, semismall):
        got = compiled_full_scan(compiled_kernel, n, semismall)
        digest = hashlib.sha256(repr(got).encode()).hexdigest()
        assert digest == UNPRUNED_SCAN_DIGESTS[n, semismall]

    def test_interruptible(self, compiled_kernel):
        # a signal handler that raises (as SIGINT's does) must end a long
        # scan: N = 14 runs for about 20 s, far past the bound below (N = 13
        # no longer does), and the enumerator checks for signals once per
        # choice of the first two blocks.  The call allocates a record per
        # violation, so a collection could run a gc callback (hypothesis
        # installs one) that takes the signal and swallows the handler's
        # exception; collections are off for the call.
        class Stop(Exception):
            pass

        def stop(signum, frame):
            raise Stop

        previous = signal.signal(signal.SIGALRM, stop)
        collecting = gc.isenabled()
        start = time.monotonic()
        try:
            gc.disable()
            signal.setitimer(signal.ITIMER_REAL, 0.2)
            with pytest.raises(Stop):
                compiled_kernel.scan_shapes(14, 0, False, 3)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if collecting:
                gc.enable()
        assert time.monotonic() - start < 2.0


def shape_cases():
    """(n, masks, min_len) over the seeded admissible blocks, N = 4..14."""
    for n, masks, _ in seeded_blocks():
        for min_len in (1, 3):
            yield n, list(masks), min_len


def rated_cases():
    """(masks, degs) of every shape of length >= 2 of the seeded alphas."""
    for n, masks, degree in seeded_blocks():
        for shape in pure.alpha_shapes(n, masks, 2):
            yield shape, [degree[mask] for mask in shape]


def same_outcome(call_a, call_b):
    """Both calls return equal values, or both raise the same exception type."""
    outcomes = []
    for call in (call_a, call_b):
        try:
            outcomes.append(("value", call()))
        except Exception as exc:  # the type is what is compared
            outcomes.append(("raised", type(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


# (n, masks, min_len): no admissible block, slots 3 and 4 covered by no
# block, min_len pruning, too few slots, and masks each twin must reject.
SHAPE_EDGE_CASES = [
    (4, [], 1),
    (4, [0b0011], 1),
    (5, [0b00011, 0b01100, 0b00101], 1),
    (4, [0b0011, 0b1100, 0b1111], 2),
    (4, [0b0011, 0b1100, 0b1111], 3),
    (4, [0b0011, 0b1100, 0b1111], 0),
    (0, [], 0),
    (1, [], 1),
    (4, [0], 1),
    (4, [0b0100], 1),
    (4, [0b10011], 1),
    (4, [-3], 1),
    (31, [], 1),
    (-1, [], 1),
]


class TestAlphaShapes:
    def test_bit_for_bit(self, compiled_kernel):
        for args in shape_cases():
            assert compiled_kernel.alpha_shapes(*args) == pure.alpha_shapes(
                *args
            ), args

    @pytest.mark.parametrize("args", SHAPE_EDGE_CASES)
    def test_edge_inputs(self, compiled_kernel, args):
        same_outcome(
            lambda: compiled_kernel.alpha_shapes(*args),
            lambda: pure.alpha_shapes(*args),
        )

    def test_edge_values(self, impl):
        assert impl.alpha_shapes(4, [], 1) == []
        assert impl.alpha_shapes(5, [0b00011, 0b01100, 0b00101], 1) == []
        masks = [0b0011, 0b1100, 0b1111]
        assert impl.alpha_shapes(4, masks, 1) == [(0b0011, 0b1100), (0b1111,)]
        assert impl.alpha_shapes(4, masks, 2) == [(0b0011, 0b1100)]
        assert impl.alpha_shapes(4, masks, 3) == []
        with pytest.raises(ValueError, match="rank >= 2 within 4 slots"):
            impl.alpha_shapes(4, [0b10011], 1)

    def test_no_reference_leak(self, compiled_kernel):
        n, masks, _ = seeded_blocks()[-3]  # dense N=14
        tracemalloc.start()
        try:
            for call in range(1, 201):
                result = compiled_kernel.alpha_shapes(n, list(masks), 1)
                assert result
                del result
                try:
                    compiled_kernel.alpha_shapes(n, [3, 1 << n], 1)
                except ValueError:
                    pass
                if call == 100:
                    mid = tracemalloc.get_traced_memory()[0]
            end = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert end <= mid

    def test_interruptible(self, compiled_kernel):
        # every pair of 29 slots: an odd slot count leaves no partition, so
        # the search runs for ages without emitting a shape; it checks for
        # signals every few thousand nodes
        pairs = [(1 << i) | (1 << j) for i in range(29) for j in range(i + 1, 29)]

        class Stop(Exception):
            pass

        def stop(signum, frame):
            raise Stop

        previous = signal.signal(signal.SIGALRM, stop)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.2)
            with pytest.raises(Stop):
                compiled_kernel.alpha_shapes(29, sorted(pairs), 1)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 2.0


# (masks, degs): the smallest partition, then inputs both twins must
# reject: fewer than two or more than MAX_BLOCKS blocks, mismatched
# lengths, and masks or degrees outside the documented range.
RATE_EDGE_CASES = [
    ([0b0011, 0b1100], [-1, -1]),
    ([0b0011, 0b1100], [-(1 << 32), 1 << 32]),
    ([], []),
    ([0b11], [-1]),
    ([0b11 << 2 * i for i in range(17)], [-1] * 17),
    ([0b0011, 0b1100], [-1]),
    ([0b0011, 0b1100], [-1, (1 << 32) + 1]),
    ([0b0011, 0b1100], [-(1 << 32) - 1, -1]),
    ([0, 0b1100], [-1, -1]),
    ([0b11, 1 << 30], [-1, -1]),
    ([0b11, -4], [-1, -1]),
    ([0b11, 1 << 70], [-1, -1]),
]


class TestRateOrders:
    @pytest.mark.parametrize("semismall", [False, True])
    def test_bit_for_bit(self, compiled_kernel, semismall):
        rated = 0
        for masks, degs in rated_cases():
            expected = pure.rate_orders(masks, degs, semismall)
            assert compiled_kernel.rate_orders(masks, degs, semismall) == (
                expected
            )
            rated += len(expected[0])
        assert rated == 11430

    @pytest.mark.parametrize("args", RATE_EDGE_CASES)
    def test_edge_inputs(self, compiled_kernel, args):
        for semismall in (False, True):
            same_outcome(
                lambda: compiled_kernel.rate_orders(*args, semismall),
                lambda: pure.rate_orders(*args, semismall),
            )

    def test_rejections(self, impl):
        for masks, degs in RATE_EDGE_CASES[2:]:
            with pytest.raises(ValueError):
                impl.rate_orders(masks, degs, False)

    def test_length_two(self, impl):
        # {1,2}:-1 then {3,4}:-1 over 4 slots
        assert impl.rate_orders([0b0011, 0b1100], [-1, -1], False) == (
            [{"order": [0, 1], "rotation_deltas": [4, -4], "violates": False}],
            -1,
        )

    def test_no_reference_leak(self, compiled_kernel):
        # the (9, 4) reference triple: its first ordering violates
        masks, degs = [0b11100, 0b11100000, 0b100000011], [-1, -2, -1]
        assert compiled_kernel.rate_orders(masks, degs, False)[1] == 0
        tracemalloc.start()
        try:
            for call in range(1, 201):
                result = compiled_kernel.rate_orders(masks, degs, False)
                del result
                try:
                    compiled_kernel.rate_orders(masks, [-1, -1, 1 << 40], False)
                except ValueError:
                    pass
                if call == 100:
                    mid = tracemalloc.get_traced_memory()[0]
            end = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert end <= mid


# (n, masks, degs) that realise must reject: blocks that overlap, leave a
# slot uncovered or are empty, then n out of range, lengths that differ, and
# masks outside the n slots.
REALISE_EDGE_CASES = [
    (4, [0b0011, 0b0110], [-1, -1]),
    (4, [0b0011], [-1]),
    (4, [0, 0b1111], [-1, -2]),
    (31, [], []),
    (-1, [], []),
    (4, [0b0011, 0b1100], [-1]),
    (4, [0b10011, 0b1100], [-1, -1]),
    (4, [-4, 0b0011], [-1, -1]),
    (4, [1 << 70, 0b1111], [-1, -1]),
]

# Degrees whose wall gate scales past 2^63: the compiled twin raises
# OverflowError where pure's ints decide the candidate.
OVERFLOWING = (4, [0b0011, 0b1100], [-(1 << 62), (1 << 62) - 2])


@lru_cache(maxsize=None)
def pure_realise_shapes(n, s, min_len):
    return pure.realise_shapes(n, s, min_len)


class TestRealise:
    def test_shapes_bit_for_bit(self, compiled_kernel):
        for n in range(0, 10):
            for s in range(-1, n + 2):
                for min_len in (1, 3):
                    assert compiled_kernel.realise_shapes(n, s, min_len) == (
                        pure_realise_shapes(n, s, min_len)
                    ), (n, s, min_len)

    def test_shapes_are_the_realisable_candidates(self, impl):
        # realise_shapes keeps exactly the candidates realise accepts, with
        # their witnesses, in shape order and then product order
        for n in range(2, 8):
            for s in range(1, n):
                expected = []
                for masks in iter_partition_shapes(n, 1):
                    ranges = [range(1 - m.bit_count(), 0) for m in masks]
                    for degs in itertools.product(*ranges):
                        found = (
                            impl.realise(n, masks, degs)
                            if sum(degs) == -s else None
                        )
                        if found is not None:
                            expected.append((masks, degs, *found))
                assert impl.realise_shapes(n, s, 1) == expected, (n, s)

    def test_any_degrees_bit_for_bit(self, compiled_kernel):
        # the inputs of test_weightspace's test_any_degrees: degrees from -n
        # to 1, so s also falls outside (0, n)
        for n in range(1, 6):
            for masks in iter_partition_shapes(n) if n > 1 else [(1,)]:
                for degs in itertools.product(range(-n, 2), repeat=len(masks)):
                    assert compiled_kernel.realise(n, masks, degs) == (
                        pure.realise(n, masks, degs)
                    ), (n, masks, degs)

    @pytest.mark.parametrize("args", REALISE_EDGE_CASES)
    def test_edge_inputs(self, compiled_kernel, args):
        outcome = same_outcome(
            lambda: compiled_kernel.realise(*args),
            lambda: pure.realise(*args),
        )
        assert outcome == ("raised", ValueError)

    def test_shape_edge_values(self, impl):
        for n in (0, 1):
            assert impl.realise_shapes(n, 0, 1) == []
        assert impl.realise_shapes(4, 0, 1) == []
        assert impl.realise_shapes(4, 4, 1) == []
        for n in (31, -1):
            with pytest.raises(ValueError, match="0 to 30 slots"):
                impl.realise_shapes(n, 1, 1)

    def test_overflow_reruns_on_pure(self, compiled_kernel):
        def overflowing(*args):
            raise OverflowError("stub")

        for name, args in (
            ("realise", (4, [0b1001, 0b0110], [-1, -1])),
            ("realise_shapes", (7, 3, 1)),
        ):
            entry = _kernel.on_overflow_pure(overflowing, getattr(pure, name))
            assert entry(*args) == getattr(pure, name)(*args)
            assert entry.__name__ == name
        with pytest.raises(OverflowError):
            compiled_kernel.realise(*OVERFLOWING)
        guarded = _kernel.on_overflow_pure(compiled_kernel.realise, pure.realise)
        assert guarded(*OVERFLOWING) == pure.realise(*OVERFLOWING) is None
        assert _kernel.realise(*OVERFLOWING) is None

    def test_no_reference_leak(self, compiled_kernel):
        tracemalloc.start()
        try:
            for call in range(1, 201):
                result = compiled_kernel.realise_shapes(6, 3, 1)
                assert result
                del result
                assert compiled_kernel.realise(4, [0b1001, 0b0110], [-1, -1])
                for args, error in (
                    (REALISE_EDGE_CASES[0], ValueError),
                    (OVERFLOWING, OverflowError),
                ):
                    try:
                        compiled_kernel.realise(*args)
                    except error:
                        pass
                if call == 100:
                    mid = tracemalloc.get_traced_memory()[0]
            end = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert end <= mid

    def test_interruptible(self, compiled_kernel):
        # N = 12 at s = 6 runs for seconds; the shape walk checks for
        # signals once per choice of the first two blocks.  The call
        # allocates a record per realised candidate, so a collection could
        # run a gc callback (hypothesis installs one) that takes the signal
        # and swallows the handler's exception; collections are off for the
        # call.
        class Stop(Exception):
            pass

        def stop(signum, frame):
            raise Stop

        previous = signal.signal(signal.SIGALRM, stop)
        collecting = gc.isenabled()
        start = time.monotonic()
        try:
            gc.disable()
            signal.setitimer(signal.ITIMER_REAL, 0.2)
            with pytest.raises(Stop):
                compiled_kernel.realise_shapes(12, 6, 1)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if collecting:
                gc.enable()
        assert time.monotonic() - start < 2.0


def reversed_mask(n, mask):
    return sum(1 << (n - 1 - i) for i in range(n) if mask >> i & 1)


def dual_record(n, masks, degs, order):
    """The dual of an ordered candidate as a canonical (masks, degs, order).

    Duality reverses the slots, sends a block's degree d to -r - d and
    reverses the sequence; the canonical form sorts the blocks by mask and
    starts the cyclic order at block 0.
    """
    seq = [
        (reversed_mask(n, masks[i]), -masks[i].bit_count() - degs[i])
        for i in reversed(order)
    ]
    shape = sorted(seq)
    index = [shape.index(block) for block in seq]
    start = index.index(0)
    return (
        tuple(mask for mask, _ in shape),
        tuple(d for _, d in shape),
        tuple(index[start:] + index[:start]),
    )


class TestDuality:
    """The scan's violations at s and at N - s correspond under duality."""

    @pytest.mark.parametrize("semismall", [False, True])
    def test_dual_of_every_violation_is_a_violation(
        self, compiled_kernel, semismall
    ):
        checked = 0
        for n in range(9, 13):
            viols, stats = compiled_full_scan(compiled_kernel, n, semismall)
            for s in stats:
                assert stats[s] == stats[n - s], (n, s)
            by_s = {}
            for masks, degs, order, rots in viols:
                by_s.setdefault(-sum(degs), {})[masks, degs, order] = rots
            for s, records in by_s.items():
                dual = by_s.get(n - s, {})
                assert len(dual) == len(records), (n, s)
                for (masks, degs, order), rots in records.items():
                    image = dual_record(n, masks, degs, order)
                    assert sorted(dual[image]) == sorted(rots), (n, s, image)
                    checked += 1
        assert checked == (223 if semismall else 1122)


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
        assert pure.KERNEL_API == compiled_kernel.KERNEL_API == 6


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
        # the rotation bound uses each mode's own margin, so each mode shows
        # on its own that a skipped ordering walk still counts
        for n in range(2, 13):
            for semismall in (False, True):
                assert compiled_full_scan(compiled_kernel, n, semismall)[1] == (
                    closed_form_stats(n)
                ), (n, semismall)

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
            for rec in viols:
                assert len(rec[0]) >= 3

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
                _, degs, order, rots = rec
                assert order[0] == 0
                seq = OrderedPartition(blocks_of_record(9, rec)).seq
                assert rots == tuple(
                    delta_seq(seq[l:] + seq[:l]) for l in range(len(seq))
                )
                mode = "semismall" if semismall else "small"
                assert violates_margin(rots, mode)

    def test_records_stay_in_enumeration_order(self, impl):
        viols, _ = run_scan(impl, 9)
        index = {masks: pi for pi, masks in enumerate(iter_partition_shapes(9, 3))}
        indices = [index[rec[0]] for rec in viols]
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
            (shapes[0], degs, (0, 2, 1, 3)),
            (shapes[0], degs, (0, 2, 3, 1)),
            (shapes[1], degs, (0, 1, 2, 3)),
            (shapes[1], degs, (0, 2, 1, 3)),
            (shapes[1], degs, (0, 2, 3, 1)),
        ]
        assert all(rec[3] == (3, 3, 3, 3) for rec in viols)

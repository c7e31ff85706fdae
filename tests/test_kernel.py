"""Kernel equivalence, stats accounting, and agreement with exact arithmetic.

The compiled_kernel fixture (conftest.py) always builds the current
_speedups.c into a temporary directory and loads it from there, so an
in-place build left over from an older source can never stand in for the
code under test.
"""

import hashlib
import inspect
import itertools
import math
import operator
import random
import types
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache

import pytest

from bodenhu import (
    MultiplicityVector,
    OrderedPartition,
    delta_seq,
    iter_partition_shapes,
)
from bodenhu import _kernel, smallness, weightspace
from bodenhu._kernel import KERNEL_KIND, pure
from bodenhu.smallness import MODES, violates_margin
from conftest import (
    KINDS,
    alarm,
    assert_interrupted,
    assert_no_growth,
    build_log,
    denominator,
    realisable_candidates,
    ref_admissible,
    seeded_blocks,
    weight_vector,
)


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


def run_scan(twin, n, s_filter=0, semismall=False, min_len=3):
    if twin is pure:
        # pure.scan_shapes is the batch entry over these very shapes
        # (TestScanShapes checks it); its results are cached for reuse
        viols, stats = pure_scan_shapes(n, s_filter, semismall, min_len)
        return list(viols), dict(stats)
    masks_list = list(iter_partition_shapes(n, min_len))
    return twin.scan_partition_batch(n, s_filter, semismall, min_len, masks_list)


def blocks_of_record(n, record):
    masks, degs, order, _ = record
    blocks = tuple(
        MultiplicityVector(
            d, tuple(1 if mask >> i & 1 else 0 for i in range(n))
        )
        for mask, d in zip(masks, degs)
    )
    return tuple(blocks[i] for i in order)


def stub_build(compiled, api=pure.KERNEL_API, names=_kernel.ENTRY_POINTS):
    """A stand-in for an in-place build: KERNEL_API api and the entries
    names of the compiled twin."""
    stub = types.ModuleType("_speedups")
    stub.KERNEL_API = api
    for name in names:
        setattr(stub, name, getattr(compiled, name))
    return stub


# Arguments every entry accepts, by name: a call of each on either twin
# returns a value.
VALID_ARGUMENTS = {
    "scan_shapes": (6, 0, False, 3, None),
    "scan_partition_batch": (4, 0, False, 1, [(0b0011, 0b1100)]),
    "admissible": (4, [1, 2, 3, 6], 4),
    "alpha_shapes": (4, [0b0011, 0b1100, 0b1111], 1),
    "rate_orders": (4, [[0b0011, 0b1100]], {0b0011: -1, 0b1100: -1}, False),
    "realise": (4, [0b1001, 0b0110], [-1, -1]),
    "realise_shapes": (6, 3, 1),
    "walls": (6, 3),
    "blocks": ([(0b11, -1), (0b1100, -2)],),
    "dumps": ({"n": [1, 2], "s": None},),
}


class TestKernelSelection:
    def test_kind_is_reported(self):
        assert KERNEL_KIND in ("pure", "compiled")

    def test_fresh_build_is_selected(self, compiled_kernel):
        assert compiled_kernel.KERNEL_API == pure.KERNEL_API
        assert _kernel.select(compiled_kernel) == (compiled_kernel, "compiled")

    def test_stale_builds_fall_back_to_pure(self, compiled_kernel):
        # an extension built from an older _speedups.c: an entry point is
        # missing, or the API number differs
        older = stub_build(compiled_kernel, names=["scan_partition_batch"])
        assert _kernel.select(older) == (pure, "pure")
        other = stub_build(compiled_kernel, api=pure.KERNEL_API + 1)
        assert _kernel.select(other) == (pure, "pure")
        assert _kernel.select(None) == (pure, "pure")

    def test_refusal_names_the_reason(self, compiled_kernel):
        # stubs for the ways an in-place build can be refused: none at all,
        # one from before the kernel formatted blocks (API 15), one with the
        # current number but without the realisation entries, and one
        # without walls
        assert _kernel.refusal(compiled_kernel) is None
        assert _kernel.refusal(None) == "no extension"
        older = stub_build(compiled_kernel, api=15)
        assert _kernel.refusal(older) == "API mismatch: extension 15, pure.py 16"
        assert _kernel.select(older) == (pure, "pure")
        without = stub_build(compiled_kernel, names=[
            "scan_shapes", "scan_partition_batch", "admissible",
            "alpha_shapes", "rate_orders", "walls", "blocks", "dumps",
        ])
        assert _kernel.refusal(without) == (
            "missing entries: realise, realise_shapes"
        )
        assert _kernel.select(without) == (pure, "pure")
        no_walls = stub_build(compiled_kernel, names=[
            name for name in _kernel.ENTRY_POINTS if name != "walls"
        ])
        assert _kernel.refusal(no_walls) == "missing entries: walls"
        assert _kernel.select(no_walls) == (pure, "pure")

    def test_entries_guard_only_the_compiled_realisation(self, compiled_kernel):
        # the binding of a twin: each entry is the twin's own object, but
        # the compiled admissible, realise and realise_shapes, which re-run
        # on pure when the compiled call raises OverflowError
        guarded = ("admissible", "realise", "realise_shapes")
        assert _kernel.entries(pure) == {
            name: getattr(pure, name) for name in _kernel.ENTRY_POINTS
        }
        bound = _kernel.entries(compiled_kernel)
        assert list(bound) == list(_kernel.ENTRY_POINTS)
        for name, entry in bound.items():
            assert (entry is getattr(compiled_kernel, name)) == (
                name not in guarded
            )
        for name, args in (("realise", OVERFLOWING),
                           ("admissible", ADMISSIBLE_OVERFLOWING)):
            with pytest.raises(OverflowError):
                getattr(compiled_kernel, name)(*args)
            assert bound[name](*args) == getattr(pure, name)(*args)

        def overflowing(*args):
            raise OverflowError("stub")

        stub = stub_build(compiled_kernel)
        for name in guarded:
            setattr(stub, name, overflowing)
        bound = _kernel.entries(stub)
        assert bound["realise"](4, [0b1001, 0b0110], [-1, -1]) == pure.realise(
            4, [0b1001, 0b0110], [-1, -1]
        )
        assert bound["realise_shapes"](7, 3, 1) == pure.realise_shapes(7, 3, 1)
        assert bound["admissible"](4, [1, 2, 3, 6], 4) == pure.admissible(
            4, [1, 2, 3, 6], 4
        )

    @pytest.mark.parametrize("name", _kernel.ENTRY_POINTS)
    def test_entries_take_keywords(self, twin, name):
        # every entry, as the package calls it, takes its arguments by
        # pure.py's parameter names too, through on_overflow_pure as well
        args = VALID_ARGUMENTS[name]
        params = inspect.signature(getattr(pure, name)).parameters
        entry = getattr(_kernel, name)
        assert entry(**dict(zip(params, args))) == entry(*args)

    def test_fallback_is_recorded(self):
        assert _kernel.KERNEL_FALLBACK == _kernel.refusal(_kernel._speedups)
        assert (_kernel.KERNEL_FALLBACK is None) == (KERNEL_KIND == "compiled")

    def test_source_compiles_without_warnings(self, kernel_builds):
        # the plain build's log: -Wall -Wextra at the interpreter's -O3, so
        # warnings that need flow analysis, such as maybe-uninitialized, show
        log = build_log(kernel_builds[0])
        assert [line for line in log.splitlines() if "warning:" in line] == []


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
    def test_non_partitions_raise(self, twin, n, masks):
        for semismall in (False, True):
            with pytest.raises(ValueError):
                twin.scan_partition_batch(n, 0, semismall, 0, [masks])
        with pytest.raises(ValueError):
            twin.realise(n, masks, [-1] * len(masks))

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

        def one_round():
            result = compiled_kernel.scan_partition_batch(8, 0, False, 1, shapes)
            assert result[0]
            with suppress(ValueError):
                compiled_kernel.scan_partition_batch(8, 0, False, 1, refused)

        assert_no_growth(one_round)


class TestScanShapes:
    def test_bit_for_bit(self, compiled_kernel):
        for n in range(2, 11):
            grid = itertools.product([n], (0, n // 2), (False, True), (1, 2, 3))
            for args in grid:
                expected = pure_scan_shapes(*args)
                got = compiled_kernel.scan_shapes(*args)
                assert got == expected, args
                assert list(got[1]) == list(expected[1]), args  # key order

    def test_equals_the_batch_entry(self, twin):
        for n in range(2, 9 if twin is pure else 11):
            for min_len in (1, 3):
                for semismall in (False, True):
                    masks_list = list(iter_partition_shapes(n, min_len))
                    expected = twin.scan_partition_batch(
                        n, 0, semismall, min_len, masks_list
                    )
                    got = twin.scan_shapes(n, 0, semismall, min_len)
                    assert got == expected
                    assert list(got[1]) == list(expected[1])

    def test_trivial_sizes(self, twin):
        for n in (0, 1):
            assert twin.scan_shapes(n, 0, False, 1) == ([], {})
        assert twin.scan_shapes(2, 0, False, 1) == (
            [((0b11,), (-1,), (0,), (0,))], {1: [1, 1]},
        )

    def test_capacity_limits(self, twin):
        with pytest.raises(ValueError, match="0 to 30 slots"):
            twin.scan_shapes(31, 0, False, 3)
        with pytest.raises(ValueError, match="0 to 30 slots"):
            twin.scan_shapes(-1, 0, False, 3)

    def test_no_reference_leak(self, compiled_kernel):
        # small mode with min_len=1 records violations (single blocks), so
        # the record-building path runs on every call
        def one_round():
            assert compiled_kernel.scan_shapes(8, 0, False, 1)[0]

        assert_no_growth(one_round)

    @pytest.mark.parametrize("n, semismall", sorted(UNPRUNED_SCAN_DIGESTS))
    def test_rotation_bound_drops_nothing(self, compiled_kernel, n, semismall):
        got = compiled_full_scan(compiled_kernel, n, semismall)
        digest = hashlib.sha256(repr(got).encode()).hexdigest()
        assert digest == UNPRUNED_SCAN_DIGESTS[n, semismall]

    def test_interruptible(self, compiled_kernel):
        # a signal handler that raises (as SIGINT's does) must end a long
        # scan: N = 14 runs for about 20 s, far past the bound below (N = 13
        # no longer does), and the enumerator checks for signals once per
        # choice of the first two blocks
        assert_interrupted(lambda: compiled_kernel.scan_shapes(14, 0, False, 3))


def shape_cases():
    """(n, masks, min_len) over the seeded admissible blocks, N = 4..14."""
    for n, masks, _ in seeded_blocks():
        for min_len in (1, 3):
            yield n, list(masks), min_len


def refusal_type(args):
    """The exception both twins raise for refused arguments: TypeError where
    one of them, or an item of one, is a float, which no reader takes, else
    ValueError."""
    items = [
        item
        for arg in args
        for item in (arg if isinstance(arg, (list, tuple)) else [arg])
    ]
    return TypeError if any(isinstance(x, float) for x in items) else ValueError


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


def twins_agree(compiled, name, *args):
    """same_outcome of the entry name of both twins, on args."""
    return same_outcome(
        lambda: getattr(compiled, name)(*args),
        lambda: getattr(pure, name)(*args),
    )


@lru_cache(maxsize=None)
def admissible_alphas():
    """Four seeded weight vectors of each kind for each N = 2..14."""
    rng = random.Random(3141)
    return tuple(
        weight_vector(rng, n, denominator(n, kind))
        for n in range(2, 15)
        for kind in KINDS
        for _ in range(4)
    )


# (n, nums, denom): no slot, one slot, two slots with and without an
# integral sum, and entries of either sign, which give degrees of either
# sign; then arguments both twins must reject: nums shorter or longer than
# n, a denominator of 0 or below, n outside 0..30, and a float entry or
# denominator.
ADMISSIBLE_VALUES = [
    ((0, [], 1), {}),
    ((1, [1], 2), {}),
    ((2, [1, 1], 2), {0b11: -1}),
    ((2, [1, 2], 2), {}),
    ((3, [-3, 0, 3], 3), {0b011: 1, 0b101: 0, 0b110: -1, 0b111: 0}),
]
ADMISSIBLE_EDGE_CASES = [(args, None) for args, _ in ADMISSIBLE_VALUES] + [
    (args, refusal_type(args))
    for args in [
        (3, [1, 2], 3),
        (3, [1, 2, 3, 4], 3),
        (3, [1, 2, 3], 0),
        (3, [1, 2, 3], -6),
        (31, [1] * 31, 2),
        (-1, [], 1),
        (2, [1, 1.0], 2),
        (2, [1, 1], 2.0),
    ]
]

# Scaled entries whose sums pass 2^63 only for the masks holding slots 2
# and 4, after five smaller masks are in the dict: the compiled twin raises
# OverflowError where pure's ints decide.
ADMISSIBLE_OVERFLOWING = (4, [1, 1 << 62, 1, 1 << 62], 1)


class TestAdmissible:
    def test_bit_for_bit(self, compiled_kernel):
        for alpha in admissible_alphas():
            args = (alpha.n, alpha.nums, alpha.denom)
            assert list(compiled_kernel.admissible(*args).items()) == list(
                pure.admissible(*args).items()
            ), args

    def test_matches_the_subset_sums(self, twin):
        # every mask of rank >= 2 with an integral sum, ascending, with its
        # degree, as the full table of subset_sums gives them
        for alpha in admissible_alphas():
            found = twin.admissible(alpha.n, alpha.nums, alpha.denom)
            assert list(found.items()) == list(ref_admissible(alpha).items())

    @pytest.mark.parametrize("args, raised", ADMISSIBLE_EDGE_CASES)
    def test_edge_inputs(self, compiled_kernel, args, raised):
        outcome = twins_agree(compiled_kernel, "admissible", *args)
        if raised is None:
            assert outcome[0] == "value"
        else:
            assert outcome == ("raised", raised)

    def test_edge_values(self, twin):
        for args, expected in ADMISSIBLE_VALUES:
            assert list(twin.admissible(*args).items()) == list(
                expected.items()
            ), args
        with pytest.raises(ValueError, match="^nums must hold n values$"):
            twin.admissible(3, [1, 2], 3)
        with pytest.raises(ValueError, match="^denom must be positive$"):
            twin.admissible(3, [1, 2, 3], 0)

    def test_no_reference_leak(self, compiled_kernel):
        alpha = admissible_alphas()[-12]  # dense N = 14

        def one_round():
            assert compiled_kernel.admissible(alpha.n, alpha.nums, alpha.denom)
            for args, error in (
                ((3, [1, 2], 3), ValueError),
                ((2, [1 << 70, 1], 2), OverflowError),
                (ADMISSIBLE_OVERFLOWING, OverflowError),
            ):
                with suppress(error):
                    compiled_kernel.admissible(*args)

        assert_no_growth(one_round)

    def test_interruptible(self, compiled_kernel):
        # the search is as long as its output: denominator 1 makes all 2^22
        # masks of rank >= 2 admissible, about half a second of work, and
        # the search checks for signals once per high half, so the alarm
        # must end it long before
        assert_interrupted(
            lambda: compiled_kernel.admissible(22, [0] * 22, 1),
            after=0.02, within=0.3,
        )


# (n, masks, min_len): no admissible block, slots 3 and 4 covered by no
# block, min_len pruning, too few slots, and masks each twin must reject,
# among them a float.
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
    (4, [0b0011, 12.0], 1),
]


class TestAlphaShapes:
    def test_bit_for_bit(self, compiled_kernel):
        for args in shape_cases():
            assert compiled_kernel.alpha_shapes(*args) == pure.alpha_shapes(
                *args
            ), args

    @pytest.mark.parametrize("args", SHAPE_EDGE_CASES)
    def test_edge_inputs(self, compiled_kernel, args):
        twins_agree(compiled_kernel, "alpha_shapes", *args)

    def test_edge_values(self, twin):
        assert twin.alpha_shapes(4, [], 1) == []
        assert twin.alpha_shapes(5, [0b00011, 0b01100, 0b00101], 1) == []
        masks = [0b0011, 0b1100, 0b1111]
        assert twin.alpha_shapes(4, masks, 1) == [(0b0011, 0b1100), (0b1111,)]
        assert twin.alpha_shapes(4, masks, 2) == [(0b0011, 0b1100)]
        assert twin.alpha_shapes(4, masks, 3) == []
        with pytest.raises(ValueError, match="rank >= 2 within 4 slots"):
            twin.alpha_shapes(4, [0b10011], 1)

    def test_every_block_gives_the_submask_walk(self, twin):
        # the listed blocks and every submask are the two block sources of
        # one shape walk: listing every block of rank >= 2, ascending, must
        # give the shapes of iter_partition_shapes in its order
        for n in range(11):
            masks = [mask for mask in range(1 << n) if mask.bit_count() >= 2]
            for min_len in (1, 3):
                assert twin.alpha_shapes(n, masks, min_len) == list(
                    iter_partition_shapes(n, min_len)
                ), (n, min_len)

    def test_shapes_hold_the_given_objects(self, twin):
        # the shapes share the caller's int objects, as pure.py's do: no
        # mask is built anew per shape
        for n, masks, _ in seeded_blocks():
            given = [int(str(mask)) for mask in masks]
            ids = {id(mask) for mask in given}
            shapes = twin.alpha_shapes(n, given, 1)
            assert all(id(mask) in ids for shape in shapes for mask in shape)

    def test_no_reference_leak(self, compiled_kernel):
        n, masks, _ = seeded_blocks()[-3]  # dense N=14

        def one_round():
            assert compiled_kernel.alpha_shapes(n, list(masks), 1)
            with suppress(ValueError):
                compiled_kernel.alpha_shapes(n, [3, 1 << n], 1)

        assert_no_growth(one_round)

    def test_interruptible(self, compiled_kernel):
        # every pair of 29 slots: an odd slot count leaves no partition, so
        # the search runs for ages without emitting a shape; it checks for
        # signals every few thousand nodes
        pairs = [(1 << i) | (1 << j) for i in range(29) for j in range(i + 1, 29)]
        assert_interrupted(
            lambda: compiled_kernel.alpha_shapes(29, sorted(pairs), 1)
        )


# Every kernel entry that takes n, with arguments that are valid at n = 2,
# and slot counts for them: valid, outside 0..30 (also past C long), and not
# an integer.
N_ENTRIES = [
    ("scan_shapes", (0, False, 3)),
    ("scan_partition_batch", (0, False, 1, [(0b11,)])),
    ("alpha_shapes", ([0b11], 1)),
    ("rate_orders", ([[0b01, 0b10]], {0b01: -1, 0b10: -1}, False)),
    ("realise", ([0b11], [-1])),
    ("realise_shapes", (1, 1)),
    ("walls", (1,)),
    ("admissible", ([1, 3], 2)),
]
SLOT_COUNTS = [2, -1, 31, 1 << 70, -(1 << 70), 1.5]


class TestSlotCount:
    @pytest.mark.parametrize("n", SLOT_COUNTS)
    @pytest.mark.parametrize("name, args", N_ENTRIES)
    def test_one_reader(self, compiled_kernel, name, args, n):
        outcome = twins_agree(compiled_kernel, name, n, *args)
        if n == 2:
            assert outcome[0] == "value"
        elif isinstance(n, float):
            assert outcome == ("raised", TypeError)
        else:
            for twin in (compiled_kernel, pure):
                with pytest.raises(
                    ValueError, match="^kernel supports 0 to 30 slots$"
                ):
                    getattr(twin, name)(n, *args)


# Every integer argument of every entry but n: the entry, arguments valid
# at their n, and the places of the integers in them (an argument's index,
# then an item's index or key, down to each mask and degree), named by
# that path or, for rate_orders, by a label: 1,i for mask i of its shape
# and 2,i for that mask's degree.  Each takes every value of
# INTEGER_VALUES: past C int, past int64 either way, a float, a bool and an
# object that is an integer only through __index__.
INTEGER_ARGUMENTS = [
    ("scan_shapes", (6, 0, False, 3), [(1,), (3,)]),
    ("scan_partition_batch", (4, 0, False, 1, [(0b0011, 0b1100)]),
     [(1,), (3,), (4, 0, 0), (4, 0, 1)]),
    ("admissible", (4, [1, 2, 3, 6], 4), [(1, 0), (1, 3), (2,)]),
    ("alpha_shapes", (4, [0b0011, 0b1100], 1), [(1, 0), (1, 1), (2,)]),
    ("rate_orders", (4, [[0b0011, 0b1100]], {0b0011: -1, 0b1100: -1}, False),
     {"1,0": (1, 0, 0), "1,1": (1, 0, 1), "2,0": (2, 0b0011),
      "2,1": (2, 0b1100)}),
    ("realise", (4, [0b1001, 0b0110], [-1, -1]),
     [(1, 0), (1, 1), (2, 0), (2, 1)]),
    ("realise_shapes", (6, 3, 1), [(1,), (2,)]),
    ("walls", (6, 3), [(1,)]),
]
class Index:
    """An integer only through __index__: it has no comparisons."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


INTEGER_VALUES = [
    pytest.param(value, id=name)
    for value, name in [(1 << 31, "2^31"), (1 << 63, "2^63"), (1 << 70, "2^70"),
                        (-(1 << 70), "-2^70"), (1.5, "1.5"), (True, "True"),
                        (Index(3), "index")]
]


def replaced(args, path, value):
    """args with the item at path (an index into args, then into the
    sequence there, or a key of the dict there) replaced by value."""
    head, *rest = path
    item = replaced(args[head], rest, value) if rest else value
    if isinstance(args, dict):
        return {**args, head: item}
    return type(args)([*args[:head], item, *args[head + 1:]])


class TestIntegerArguments:
    @pytest.mark.parametrize("value", INTEGER_VALUES)
    @pytest.mark.parametrize(
        "name, args, path",
        [pytest.param(name, args, path, id=f"{name}[{label}]")
         for name, args, paths in INTEGER_ARGUMENTS
         for label, path in (
             paths.items() if isinstance(paths, dict)
             else ((",".join(map(str, path)), path) for path in paths)
         )],
    )
    def test_one_reader(self, compiled_kernel, name, args, path, value):
        args = replaced(args, path, value)

        def compiled():
            try:
                return getattr(compiled_kernel, name)(*args)
            except OverflowError:
                # the readings on_overflow_pure re-runs: a degree of
                # realise, and a scaled entry or the denominator of
                # admissible, past int64
                assert (name, path[0]) in (
                    ("realise", 2), ("admissible", 1), ("admissible", 2)
                )
                assert not -(1 << 63) <= value < 1 << 63
                return getattr(pure, name)(*args)

        outcome = same_outcome(compiled, lambda: getattr(pure, name)(*args))
        if isinstance(value, float):
            assert outcome == ("raised", TypeError)


class FlagError(Exception):
    """Raised by the truth test of Flag."""


class Flag:
    """A semismall flag whose truth test raises."""

    def __bool__(self):
        raise FlagError


# (entry, arguments, what both twins raise) with a Flag for semismall: valid
# otherwise, with no shape or too few blocks (where the pure twin, when it
# tested the flag per shape, never reached the test), and with a float read
# before the flag (TypeError) or after it (the flag's error): rate_orders
# reads its shapes and their degrees after the flag.
FLAG_ROWS = [
    ("scan_shapes", (6, 0, Flag(), 3), FlagError),
    ("scan_shapes", (1, 0, Flag(), 1), FlagError),
    ("scan_shapes", (1.5, 0, Flag(), 1), TypeError),
    ("scan_shapes", (6, 0.5, Flag(), 1), TypeError),
    ("scan_shapes", (6, 0, Flag(), 1.5), FlagError),
    ("scan_partition_batch", (4, 0, Flag(), 1, [(0b0011, 0b1100)]), FlagError),
    ("scan_partition_batch", (4, 0, Flag(), 1, []), FlagError),
    ("scan_partition_batch", (4, 0, Flag(), 1.5, []), FlagError),
    ("scan_partition_batch", (4, 0, Flag(), 1, [(0b0011,)]), FlagError),
    ("rate_orders", (4, [[0b0011, 0b1100]], {3: -1, 12: -1}, Flag()),
     FlagError),
    ("rate_orders", (4, [[0b0011]], {3: -1}, Flag()), FlagError),
    ("rate_orders", (1.5, [[0b0011, 0b1100]], {3: -1, 12: -1}, Flag()),
     TypeError),
    ("rate_orders", (4, [[0b0011, 0b1100]], {3: -1, 12: 1.5}, Flag()),
     FlagError),
    ("rate_orders", (4, [[0b0011, 0b1100]], {3: -1}, Flag()), FlagError),
    ("rate_orders", (4, [], {}, Flag()), FlagError),
]


class TestSemismallFlag:
    @pytest.mark.parametrize("name, args, raised", FLAG_ROWS)
    def test_one_reader(self, compiled_kernel, name, args, raised):
        outcome = twins_agree(compiled_kernel, name, *args)
        assert outcome == ("raised", raised)


# rate_orders' listing of (9, 4): a shape of two blocks, which cannot
# violate (its two rotation values sum to 0), then the reference triple,
# whose first ordering violates.
LISTING_9 = [(0b000000011, 0b111111100), (0b11100, 0b11100000, 0b100000011)]
DEGREE_9 = {0b000000011: -1, 0b111111100: -3, 0b11100: -1, 0b11100000: -2,
            0b100000011: -1}
PAIR_4 = {0b0011: -1, 0b1100: -1}

# ((n, shapes, degree), what both twins raise, None where both return): the
# smallest partition, degrees at the bound, an empty listing; then a mask
# that degree lacks, shapes of fewer than two or more than MAX_BLOCKS blocks
# (17 singletons that do partition their slots), degrees outside the
# documented range, masks that are not a partition of the n slots (the
# rest of that rule is NON_PARTITIONS), a float mask or degree, a refused
# shape after a valid one, and a listing or a shape that is not iterable.
RATE_EDGE_CASES = [
    ((4, [[0b0011, 0b1100]], PAIR_4), None),
    ((4, [[0b0011, 0b1100]], {0b0011: -(1 << 32), 0b1100: 1 << 32}), None),
    ((4, [], {}), None),
    ((4, [[0b0011, 0b1100]], {0b0011: -1}), KeyError),
    ((0, [[]], {}), ValueError),
    ((2, [[0b11]], {0b11: -1}), ValueError),
    ((17, [[1 << i for i in range(17)]], {1 << i: -1 for i in range(17)}),
     ValueError),
    ((4, [[0b0011, 0b1100]], {0b0011: -1, 0b1100: (1 << 32) + 1}), ValueError),
    ((4, [[0b0011, 0b1100]], {0b0011: -(1 << 32) - 1, 0b1100: -1}),
     ValueError),
    ((4, [[0, 0b1100]], {0: -1, 0b1100: -1}), ValueError),
    ((30, [[0b11, 1 << 30]], {0b11: -1, 1 << 30: -1}), ValueError),
    ((4, [[0b11, -4]], {0b11: -1, -4: -1}), ValueError),
    ((4, [[0b11, 1 << 70]], {0b11: -1, 1 << 70: -1}), ValueError),
    ((4, [[3.0, 0b1100]], PAIR_4), TypeError),
    ((4, [[0b0011, 0b1100]], {0b0011: -1.0, 0b1100: -1}), TypeError),
    ((4, [[0b0011, 0b1100], [0b1111]], {**PAIR_4, 0b1111: -2}), ValueError),
    ((4, 5, PAIR_4), TypeError),
    ((4, [5], PAIR_4), TypeError),
]


def first_violation(ratings):
    """(i, j) of the first violating ordering of a listing's ratings, or
    None."""
    return next(
        (
            (i, j)
            for i, orderings in enumerate(ratings)
            for j, rated in enumerate(orderings)
            if rated["violates"]
        ),
        None,
    )


class TestRateOrders:
    @pytest.mark.parametrize("semismall", [False, True])
    def test_bit_for_bit(self, compiled_kernel, semismall):
        # one call over every listed shape of each seeded alpha, in both
        # twins, equals the one-shape calls concatenated
        rated = 0
        for n, masks, degree in seeded_blocks():
            shapes = pure.alpha_shapes(n, masks, 2)
            expected = pure.rate_orders(n, shapes, degree, semismall)
            assert compiled_kernel.rate_orders(n, shapes, degree, semismall) == (
                expected
            )
            for twin in (pure, compiled_kernel):
                ratings = [
                    twin.rate_orders(n, [shape], degree, semismall)[0][0]
                    for shape in shapes
                ]
                assert expected == (ratings, first_violation(ratings))
            rated += sum(map(len, expected[0]))
        assert rated == 11430

    @pytest.mark.parametrize(
        "args, raised", RATE_EDGE_CASES,
        ids=[f"args{i}" for i in range(len(RATE_EDGE_CASES))],
    )
    def test_edge_inputs(self, compiled_kernel, args, raised):
        for semismall in (False, True):
            outcome = twins_agree(
                compiled_kernel, "rate_orders", *args, semismall
            )
            assert outcome[0] == ("value" if raised is None else "raised")

    def test_rejections(self, twin):
        for args, raised in RATE_EDGE_CASES:
            if raised is not None:
                with pytest.raises(raised):
                    twin.rate_orders(*args, False)

    @pytest.mark.parametrize("semismall", [False, True])
    @pytest.mark.parametrize("n, masks", NON_PARTITIONS)
    def test_non_partitions_raise(self, compiled_kernel, n, masks, semismall):
        # the rule of every entry taking blocks: three copies of the whole of
        # three slots once gave rotation values [-6, 2, 2] in both twins
        degree = {mask: -1 for mask in masks}
        assert twins_agree(
            compiled_kernel, "rate_orders", n, [masks], degree, semismall
        ) == ("raised", ValueError)

    def test_length_two(self, twin):
        # {1,2}:-1 then {3,4}:-1 over 4 slots
        assert twin.rate_orders(4, [[0b0011, 0b1100]], PAIR_4, False) == (
            [[{"order": [0, 1], "rotation_deltas": [4, -4], "violates": False}]],
            None,
        )

    def test_first_counts_across_shapes(self, twin):
        ratings, first = twin.rate_orders(9, LISTING_9, DEGREE_9, False)
        assert [len(orderings) for orderings in ratings] == [1, 2]
        assert first == (1, 0)
        assert twin.rate_orders(9, LISTING_9[:1], DEGREE_9, False)[1] is None

    def test_no_reference_leak(self, compiled_kernel):
        assert compiled_kernel.rate_orders(9, LISTING_9, DEGREE_9, False)[1] == (
            1, 0
        )
        # refused while reading the second shape, after the first is rated:
        # a degree past the bound, a float degree, a mask with no degree,
        # and a shape that does not partition the slots
        refusals = [
            (LISTING_9, {**DEGREE_9, 0b11100: 1 << 40}, ValueError),
            (LISTING_9, {**DEGREE_9, 0b11100: -1.0}, TypeError),
            (LISTING_9, {k: d for k, d in DEGREE_9.items() if k != 0b11100},
             KeyError),
            (LISTING_9[:1] + [(0b11, 0b11)], DEGREE_9, ValueError),
        ]

        def one_round():
            compiled_kernel.rate_orders(9, LISTING_9 * 3, DEGREE_9, False)
            for shapes, degree, error in refusals:
                with suppress(error):
                    compiled_kernel.rate_orders(9, shapes, degree, False)

        assert_no_growth(one_round)

    def test_interruptible(self, compiled_kernel):
        # a listing of short shapes, two orderings each: the signal check
        # counts the orderings of the whole call, so a Ctrl-C ends it
        # early, and shapes are left in the listing's iterator (a handler
        # that ran only once the call returned would also raise, but would
        # find the listing used up).  The listing is a list iterator and
        # the degrees a dict, so no Python code runs during the call to
        # take the signal in the kernel's stead.
        shape = (0b000011, 0b001100, 0b110000)
        degree = {mask: -1 for mask in shape}
        listing = iter([shape] * 100_000)
        assert_interrupted(
            lambda: compiled_kernel.rate_orders(6, listing, degree, False),
            after=0.02,
        )
        assert operator.length_hint(listing) > 0


# (n, masks, degs) that realise must reject: blocks that overlap, leave a
# slot uncovered or are empty, then n out of range, lengths that differ,
# masks outside the n slots, and a float mask or degree.
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
    (4, [0b1001, 6.0], [-1, -1]),
    (4, [0b1001, 0b0110], [-1, -1.0]),
]

# Degrees whose wall gate scales past 2^63: the compiled twin raises
# OverflowError where pure's ints decide the candidate.
OVERFLOWING = (4, [0b0011, 0b1100], [-(1 << 62), (1 << 62) - 2])


@lru_cache(maxsize=None)
def pure_realise_shapes(n, s, min_len):
    return pure.realise_shapes(n, s, min_len)


def assert_interned(table, uses):
    """table holds distinct values, and uses, the index tuples of the rows,
    index each of them, first in table order."""
    assert len(set(table)) == len(table)
    first = dict.fromkeys(i for ix in uses for i in ix)
    assert list(first) == list(range(len(table)))


class TestRealise:
    def test_shapes_bit_for_bit(self, compiled_kernel):
        for n in range(0, 10):
            for s in range(-1, n + 2):
                for min_len in (1, 3):
                    assert compiled_kernel.realise_shapes(n, s, min_len) == (
                        pure_realise_shapes(n, s, min_len)
                    ), (n, s, min_len)

    def test_shapes_are_the_realisable_candidates(self, twin):
        # realise_shapes keeps exactly the candidates realise accepts, with
        # their witnesses, in shape order and then product order; each row,
        # expanded through the two tables, is one of them
        for n in range(2, 8):
            for s in range(1, n):
                expected = [
                    (masks, degs, tuple(
                        Fraction(x, den).as_integer_ratio() for x in nums
                    ))
                    for masks, degs, nums, den
                    in realisable_candidates(twin.realise, n, s)
                ]
                blocks, entries, rows = twin.realise_shapes(n, s, 1)
                got = []
                for block_ix, entry_ix in rows:
                    masks, degs = zip(*(blocks[i] for i in block_ix))
                    witness = tuple(entries[i] for i in entry_ix)
                    got.append((masks, degs, witness))
                assert got == expected, (n, s)
                assert_interned(blocks, [ix for ix, _ in rows])
                assert_interned(entries, [ix for _, ix in rows])
                for p, q in entries:
                    assert q > 0 and math.gcd(p, q) == 1, (p, q)

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
        outcome = twins_agree(compiled_kernel, "realise", *args)
        assert outcome == ("raised", refusal_type(args))

    def test_shape_edge_values(self, twin):
        for n in (0, 1):
            assert twin.realise_shapes(n, 0, 1) == ([], [], [])
        assert twin.realise_shapes(4, 0, 1) == ([], [], [])
        assert twin.realise_shapes(4, 4, 1) == ([], [], [])
        for n in (31, -1):
            with pytest.raises(ValueError, match="0 to 30 slots"):
                twin.realise_shapes(n, 1, 1)

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

    def test_arguments_never_enter_the_fallback(self, compiled_kernel):
        # an s or min_len past C int is read as the exact value compares
        # (saturated only past int64), so on_overflow_pure stays for the
        # arithmetic
        def unused(*args):
            raise AssertionError(f"{args} re-ran on pure")

        entry = _kernel.on_overflow_pure(compiled_kernel.realise_shapes, unused)
        assert entry(6, 1 << 40, 1) == ([], [], [])
        assert entry(6, 1, 1 << 40) == ([], [], [])
        assert compiled_kernel.scan_shapes(6, 1 << 40, False, 3) == ([], {})

    def test_no_reference_leak(self, compiled_kernel):
        def one_round():
            assert compiled_kernel.realise_shapes(6, 3, 1)[2]
            assert compiled_kernel.realise(4, [0b1001, 0b0110], [-1, -1])
            for args, error in (
                (REALISE_EDGE_CASES[0], ValueError),
                (OVERFLOWING, OverflowError),
            ):
                with suppress(error):
                    compiled_kernel.realise(*args)

        assert_no_growth(one_round)

    def test_interruptible(self, compiled_kernel):
        # N = 12 at s = 6 runs for seconds; the shape walk checks for
        # signals once per choice of the first two blocks
        assert_interrupted(lambda: compiled_kernel.realise_shapes(12, 6, 1))


# (n, s): the smallest W(n, s), then arguments both twins must reject: s
# at either end of 1..n-1 and beyond, too few or too many slots, and a
# float n or s.
WALL_EDGE_CASES = [
    (2, 1),
    (4, 2),
    (6, 0),
    (6, 6),
    (6, -1),
    (0, 0),
    (1, 1),
    (31, 15),
    (6.0, 3),
    (6, 3.0),
]


class TestWalls:
    def test_bit_for_bit(self, compiled_kernel):
        for n in range(2, 13):
            for s in range(1, n):
                assert compiled_kernel.walls(n, s) == pure.walls(n, s), (n, s)

    @pytest.mark.parametrize("args", WALL_EDGE_CASES)
    def test_edge_inputs(self, compiled_kernel, args):
        outcome = twins_agree(compiled_kernel, "walls", *args)
        if args[0] in (2, 4):
            assert outcome[0] == "value"
        else:
            assert outcome == ("raised", refusal_type(args))

    def test_edge_values(self, twin):
        assert twin.walls(2, 1) == []
        assert twin.walls(4, 1) == []
        assert twin.walls(4, 2) == [(0b1001, -1)]
        for s in (0, 4):
            with pytest.raises(ValueError, match="strictly between 0 and n"):
                twin.walls(4, s)

    def test_canonical_and_sorted(self, twin):
        # slot 1 in every support, rank 2..n-2, both summands of admissible
        # degree, ascending by mask and then degree, each pair once
        for n in range(4, 10):
            for s in range(1, n):
                found = twin.walls(n, s)
                assert found == sorted(set(found))
                for mask, d in found:
                    r = mask.bit_count()
                    assert mask & 1 and 2 <= r <= n - 2
                    assert -r < d < 0 and -(n - r) < -s - d < 0

    def test_no_reference_leak(self, compiled_kernel):
        def one_round():
            assert compiled_kernel.walls(10, 5)
            with suppress(ValueError):
                compiled_kernel.walls(10, 10)

        assert_no_growth(one_round)

    def test_interruptible(self, compiled_kernel):
        # 30 slots give 2^29 odd masks, minutes of work; the loop checks
        # for signals every 2^11 of them
        assert_interrupted(lambda: compiled_kernel.walls(30, 15))


class LongPair:
    """A pair that yields three values and then fails: unpacking it into two
    targets reads the third value, raises ValueError and reads no fourth."""

    def __iter__(self):
        yield from (0b11, -1, 0)
        raise AssertionError("a fourth value was read")


# pairs arguments of blocks: the smallest and largest masks, a degree past
# 64 bits, True as a degree, a pair given as a list and an empty list, then
# arguments both twins must reject: mask 0, a negative mask, mask 2^30, a
# float mask or degree, a 3-tuple, a pair of one value, a pair that yields
# too many values, an item that is not iterable and a pairs argument that
# is not iterable.
BLOCK_EDGE_CASES = [
    ([(1, -1), ((1 << 30) - 1, 0)], None),
    ([(0b101, 1 << 70), (0b11, -(1 << 70))], None),
    ([(0b11, True), (0b11, False)], None),
    ([[0b11, -1]], None),
    ([], None),
    ([(0, -1)], ValueError),
    ([(0b11, -1), (-3, -1)], ValueError),
    ([(1 << 30, -1)], ValueError),
    ([(3.0, -1)], TypeError),
    ([(0b11, -1.0)], TypeError),
    ([(0b11, -1, 0)], ValueError),
    ([(0b11,)], ValueError),
    ([LongPair()], ValueError),
    ([(0b11, -1), 3], TypeError),
    (3, TypeError),
]


def seeded_pairs(seed):
    """(n, pairs) for N = 2..30: 200 random nonempty masks within n slots,
    each with a degree from -n..n, past 64 bits or True."""
    rng = random.Random(seed)
    for n in range(2, 31):
        degrees = [*range(-n, n + 1), 1 << 64, -(1 << 80), True]
        yield n, [
            (rng.randrange(1, 1 << n), rng.choice(degrees)) for _ in range(200)
        ]


def block_of(mask, degree):
    """The payload block of a pair, by the definition, bit by bit."""
    return {
        "support": [i + 1 for i in range(mask.bit_length()) if mask >> i & 1],
        "degree": int(degree),
    }


class TestBlocks:
    def test_bit_for_bit(self, compiled_kernel):
        for n, pairs in seeded_pairs(33):
            found = compiled_kernel.blocks(pairs)
            assert found == pure.blocks(pairs), n
            assert pure.dumps(found) == pure.dumps(pure.blocks(pairs)), n

    def test_is_the_definition(self, twin):
        # keys in payload order, the degree an exact int, one new dict and
        # one new support list per pair, in input order, from any iterable
        for n, pairs in seeded_pairs(34):
            found = twin.blocks(iter(pairs))
            assert found == [block_of(mask, d) for mask, d in pairs], n
            assert all(list(b) == ["support", "degree"] for b in found)
            assert all(type(b["degree"]) is int for b in found)
        assert twin.blocks({0b110: -1, 0b11: 2}.items()) == [
            {"support": [2, 3], "degree": -1}, {"support": [1, 2], "degree": 2}
        ]
        a, b = twin.blocks([(0b11, -1), (0b11, -1)])
        assert a == b and a is not b and a["support"] is not b["support"]

    @pytest.mark.parametrize("pairs, raised", BLOCK_EDGE_CASES)
    def test_edge_inputs(self, compiled_kernel, pairs, raised):
        outcome = twins_agree(compiled_kernel, "blocks", pairs)
        if raised is None:
            assert outcome == ("value", [block_of(*pair) for pair in pairs])
        else:
            assert outcome == ("raised", raised)

    def test_no_reference_leak(self, compiled_kernel):
        walls = pure.walls(9, 4)

        def one_round():
            # a new degree object each round, which a leaked reference to
            # it, or to a pair holding it, would keep alive
            big = int("9" * 30)
            assert len(compiled_kernel.blocks(walls)) == len(walls)
            assert compiled_kernel.blocks({0b11: big}.items())
            for pairs in ([(0b11, -1), (0b101, big), (0, big)],
                          [(0b11, big), (0b11, 1.5)],
                          [[0b11, big], (0b11, -1, big)],
                          [[0b11, big], [0b11, -1, big], LongPair()]):
                with suppress(ValueError, TypeError):
                    compiled_kernel.blocks(pairs)

        assert_no_growth(one_round)

    def test_interruptible(self, compiled_kernel):
        # 100,000 pairs, each behind 5,000 falsy items that filter skips in
        # C: seconds of work on little memory; the loop checks for signals
        # every 4,096 pairs
        gap = [0] * 5000 + [(0b11, -1)]
        pairs = filter(
            None, itertools.chain.from_iterable(itertools.repeat(gap, 100_000))
        )
        assert_interrupted(lambda: compiled_kernel.blocks(pairs))


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

    def test_deep_nesting_raises_recursion_error(self, twin):
        deep = nested_lists(100_000)
        with pytest.raises(RecursionError):
            twin.dumps(deep)
        with pytest.raises(RecursionError):
            twin.dumps({"a": deep})

    def test_nesting_below_the_limit_encodes(self, twin):
        value = nested_lists(200)
        assert twin.dumps(value) == pure.dumps(value)

    def test_no_reference_leak(self, compiled_kernel):
        # every branch: escaped and plain strings, small and big ints, and
        # a TypeError halfway through, on a float or a complex
        payload = {
            "plain": "abc",
            "escaped": 'a"b\\c\u00e9\n',
            "ints": [0, -1, 2**70],
            "flags": [True, False, None, {}, []],
        }
        bad = [
            [payload, {"x": 1j}],
            [payload, {"floats": [1.5]}],
            [payload, [float("nan")], float("-inf")],
        ]
        for value in bad:
            with pytest.raises(TypeError):
                compiled_kernel.dumps(value)

        def one_round():
            compiled_kernel.dumps(payload)
            for value in bad:
                with suppress(TypeError):
                    compiled_kernel.dumps(value)

        assert_no_growth(one_round)

    def test_builds_without_dumps_fall_back_to_pure(self, compiled_kernel):
        # an extension built before dumps existed: the entry point is
        # missing, or it carries the previous API number
        without = stub_build(
            compiled_kernel, names=["scan_shapes", "scan_partition_batch"]
        )
        assert _kernel.select(without) == (pure, "pure")
        older = stub_build(compiled_kernel, api=2)
        assert _kernel.select(older) == (pure, "pure")
        assert pure.KERNEL_API == compiled_kernel.KERNEL_API == 16


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


def accept_all(*record):
    return True


def reject_all(*record):
    return False


def scan_settle(n, semismall):
    """The scan's own settle callable, with a witness table of its own."""
    return smallness._settler(n, MODES[semismall], {})


def first_records(records):
    """The first record of each candidate, in order: what a settle that
    accepts nothing is handed."""
    out = []
    for record in records:
        if not out or record[:2] != out[-1][:2]:
            out.append(record)
    return out


def first_of_each_s(records):
    """The first record of each total s, in order: what a settle that
    accepts everything is handed."""
    seen = set()
    out = []
    for record in records:
        s = -sum(record[1])
        if s not in seen:
            seen.add(s)
            out.append(record)
    return out


def sorted_stats(stats):
    return dict(sorted(stats.items()))


@lru_cache(maxsize=None)
def pure_settled(n, s_filter, semismall, min_len, kind):
    """pure.scan_shapes with the settle callable named by kind, or the
    exception type it raises; cached, as the pure twin is slow at N = 10."""
    settle = scan_settle(n, semismall) if kind == "scan" else SETTLES[kind]
    try:
        return "value", pure.scan_shapes(n, s_filter, semismall, min_len, settle)
    except Exception as exc:  # the type is what is compared
        return "raised", type(exc)


SETTLES = {"accept": accept_all, "reject": reject_all}

# (n, s_filter, min_len): settle-mode calls the walk ends early on although
# their counts pass 2^64: at 30 slots a total of 30 - min_len leaves every
# block its largest degree, and the first such candidate violates.
WIDE_COUNTS = [(30, 22, 8), (30, 21, 9), (30, 20, 10)]


class TestSettle:
    """scan_shapes with a settle callable: each s stops at its first
    accepted candidate, and the counts are the full scan's."""

    @pytest.mark.parametrize("kind", ["scan", "accept", "reject"])
    def test_bit_for_bit(self, compiled_kernel, kind):
        # the pure twin at N = 10 only as the CLI's scan calls it;
        # test_accept_and_reject_model_the_full_scan covers the rest there
        for n in range(2, 11):
            grid = itertools.product((0, n // 2), (False, True), (1, 3))
            for s_filter, semismall, min_len in grid:
                if n == 10 and (kind, s_filter, min_len) != ("scan", 0, 3):
                    continue
                args = (n, s_filter, semismall, min_len)
                settle = (
                    scan_settle(n, semismall) if kind == "scan"
                    else SETTLES[kind]
                )
                try:
                    got = "value", compiled_kernel.scan_shapes(*args, settle)
                except Exception as exc:  # the type is what is compared
                    got = "raised", type(exc)
                expected = pure_settled(*args, kind)
                assert got == expected, args
                if got[0] == "value":
                    assert list(got[1][1]) == sorted(got[1][1]), args

    @pytest.mark.parametrize("kind", ["accept", "reject"])
    def test_accept_and_reject_model_the_full_scan(self, twin, kind):
        # rejecting everything hands over the first record of every
        # candidate, accepting everything the first record of every s; the
        # stats are the full scan's, keys ascending
        model = first_records if kind == "reject" else first_of_each_s
        for n in range(2, 11 if twin is not pure else 9):
            grid = itertools.product((0, n // 2), (False, True), (1, 3))
            for args in ((n, *rest) for rest in grid):
                records, stats = pure_scan_shapes(*args)
                got = twin.scan_shapes(*args, SETTLES[kind])
                expected = model(first_records(records)), sorted_stats(stats)
                assert got == expected, args
                assert list(got[1]) == list(expected[1]), args

    @pytest.mark.parametrize("semismall", [False, True])
    def test_witnesses_are_the_first_realisable_violations(
        self, twin, semismall
    ):
        for n in range(2, 11 if twin is not pure else 10):
            records, _ = pure_scan_shapes(n, 0, semismall, 3)
            expected = {}
            for masks, degs, order, rots in first_records(records):
                s = -sum(degs)
                if s not in expected and weightspace.realise_blocks(
                    n, list(zip(masks, degs))
                ):
                    expected[s] = (masks, degs, order, rots)
            witnesses = {}
            settle = smallness._settler(n, MODES[semismall], witnesses)
            accepted = {}

            def tracking(*record):
                if settle(*record):
                    accepted[-sum(record[1])] = record
                    return True
                return False

            twin.scan_shapes(n, 0, semismall, 3, tracking)
            assert accepted == expected, n
            assert set(witnesses) == set(expected), n

    def test_stats_are_the_closed_form(self, compiled_kernel):
        for n in range(2, 13):
            for semismall, min_len in itertools.product((False, True), (1, 3)):
                stats = compiled_kernel.scan_shapes(
                    n, 0, semismall, min_len, accept_all
                )[1]
                assert stats == closed_form_stats(n, min_len), (n, min_len)
                assert list(stats) == sorted(stats)
                if n >= 4:
                    filtered = compiled_kernel.scan_shapes(
                        n, n // 2, semismall, min_len, reject_all
                    )[1]
                    assert filtered == {
                        s: stats[s] for s in [n // 2] if s in stats
                    }

    @pytest.mark.parametrize("n, s_filter, min_len", WIDE_COUNTS)
    def test_counts_past_64_bits(self, compiled_kernel, n, s_filter, min_len):
        # each call takes milliseconds; a reach test that drops the first
        # candidate would walk the 30 slots for good, so a timer ends it
        with alarm(10.0):
            records, stats = compiled_kernel.scan_shapes(
                n, s_filter, False, min_len, accept_all
            )
        assert len(records) == 1
        assert stats == {s_filter: closed_form_stats(n, min_len)[s_filter]}
        assert stats[s_filter][0] >= 1 << 64

    def test_no_live_total(self, twin):
        # a filter no candidate meets: no call of settle, no stats
        for s_filter in (-1, 9, 1 << 70):
            assert twin.scan_shapes(9, s_filter, False, 3, accept_all) == (
                [], {},
            )
        assert twin.scan_shapes(1, 0, False, 1, accept_all) == ([], {})

    def test_each_s_is_settled_once(self, twin):
        # every third call is accepted: no s is offered again once accepted
        calls = []

        def settle(*record):
            calls.append(record)
            return len(calls) % 3 == 0

        records, _ = twin.scan_shapes(9, 0, False, 1, settle)
        assert records == calls
        assert len(calls) >= 6
        accepted = [-sum(record[1]) for record in calls[2::3]]
        assert len(set(accepted)) == len(accepted)
        for i, record in enumerate(calls):
            assert -sum(record[1]) not in accepted[: i // 3]

    def test_settle_errors_propagate(self, twin):
        class Stop(Exception):
            pass

        def stop(*record):
            raise Stop

        with pytest.raises(Stop):
            twin.scan_shapes(9, 0, False, 3, stop)
        with pytest.raises(FlagError):
            twin.scan_shapes(9, 0, False, 3, lambda *record: Flag())
        # refused when read, before the walk: None or a callable only
        with pytest.raises(TypeError, match="settle must be None or callable"):
            twin.scan_shapes(9, 0, False, 3, 5)
        assert twin.scan_shapes(9, 0, False, 3, None) == pure_scan_shapes(
            9, 0, False, 3
        )

    def test_truth_is_tested_once(self, twin):
        tested = []

        class Once:
            def __bool__(self):
                tested.append(1)
                return True

        records, _ = twin.scan_shapes(9, 0, False, 3, lambda *r: Once())
        assert len(tested) == len(records) > 0

    def test_no_reference_leak(self, compiled_kernel):
        # small mode with min_len=1 violates at every one-block shape, so
        # records are made, trimmed and passed on every call
        def one_round():
            for settle in (accept_all, reject_all):
                assert compiled_kernel.scan_shapes(8, 0, False, 1, settle)[0]
            with suppress(TypeError):
                compiled_kernel.scan_shapes(8, 0, False, 1, nested_lists)

        assert_no_growth(one_round)

    def test_interruptible(self, compiled_kernel):
        # as TestScanShapes::test_interruptible, with a settle that accepts
        # nothing, so no s ends the walk early
        assert_interrupted(
            lambda: compiled_kernel.scan_shapes(14, 0, False, 3, reject_all)
        )


class TestKernelBehaviour:
    def test_frozen_stats(self, twin):
        assert run_scan(twin, 6)[1] == {3: [15, 30]}
        assert run_scan(twin, 7)[1] == {3: [105, 210], 4: [105, 210]}
        assert run_scan(twin, 8)[1] == {
            3: [490, 980], 4: [875, 2170], 5: [490, 980],
        }

    def test_stats_match_brute_force(self, twin):
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
            assert run_scan(twin, n)[1] == expected

    def test_s_filter_restricts_to_one_total(self, twin):
        full_viols, full_stats = run_scan(twin, 9)
        viols, stats = run_scan(twin, 9, s_filter=4)
        assert set(stats) == {4}
        assert stats[4] == full_stats[4]
        masks_list = list(iter_partition_shapes(9, 3))
        assert viols == [
            rec for rec in full_viols if -sum(rec[1]) == 4
        ]
        assert all(-sum(rec[1]) == 4 for rec in viols)
        assert masks_list  # enumeration nonempty sanity

    def test_min_len_skips_short_shapes(self, twin):
        full_block = ((1 << 5) - 1,)
        assert twin.scan_partition_batch(5, 0, False, 3, [full_block]) == (
            [],
            {},
        )

    def test_rank_below_two_yields_no_candidate(self, twin):
        # a rank-1 block has the empty degree range (-(r-1), 0)
        assert twin.scan_partition_batch(3, 0, False, 1, [(0b1, 0b110)]) == (
            [],
            {},
        )
        assert twin.scan_partition_batch(
            5, 0, False, 3, [(0b1, 0b110, 0b11000)]
        ) == ([], {})

    def test_capacity_limits(self, twin):
        with pytest.raises(ValueError, match="0 to 30 slots"):
            twin.scan_partition_batch(31, 0, False, 3, [])
        blocks = tuple(0b11 << 2 * i for i in range(17))
        with pytest.raises(ValueError, match="at most 16 blocks"):
            twin.scan_partition_batch(30, 0, False, 3, [blocks])
        assert twin.scan_partition_batch(30, 0, False, 18, [blocks]) == (
            [],
            {},
        )

    def test_length_two_never_violates(self, twin):
        for n in (4, 5, 6):
            viols, _ = run_scan(twin, n, min_len=2)
            for rec in viols:
                assert len(rec[0]) >= 3

    def test_no_violations_through_eight_slots(self, twin):
        for n in range(4, 9):
            for semismall in (False, True):
                viols, _ = run_scan(twin, n, semismall=semismall)
                assert viols == []

    def test_violations_match_exact_arithmetic(self, twin):
        masks_list = list(iter_partition_shapes(9, 3))
        for semismall in (False, True):
            viols, _ = twin.scan_partition_batch(
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

    def test_records_stay_in_enumeration_order(self, twin):
        viols, _ = run_scan(twin, 9)
        index = {masks: pi for pi, masks in enumerate(iter_partition_shapes(9, 3))}
        indices = [index[rec[0]] for rec in viols]
        assert indices == sorted(indices)

    def test_orderings_of_one_candidate_stay_lexicographic(self, twin):
        # Two N=11 shapes with several violating orderings per candidate.
        # (0, 2, 3, 1) is the reverse of (0, 1, 3, 2), which comes before
        # (0, 2, 1, 3): a kernel that decides reverse pairs together must
        # still report (0, 2, 1, 3) first.
        shapes = [(52, 265, 704, 1026), (52, 264, 704, 1027)]
        viols, _ = twin.scan_partition_batch(11, 0, False, 3, shapes)
        degs = (-1, -1, -2, -1)
        assert [rec[:3] for rec in viols] == [
            (shapes[0], degs, (0, 2, 1, 3)),
            (shapes[0], degs, (0, 2, 3, 1)),
            (shapes[1], degs, (0, 1, 2, 3)),
            (shapes[1], degs, (0, 2, 1, 3)),
            (shapes[1], degs, (0, 2, 3, 1)),
        ]
        assert all(rec[3] == (3, 3, 3, 3) for rec in viols)

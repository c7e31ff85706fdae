"""Scan-kernel equivalence, stats accounting, and agreement with exact arithmetic.

The compiled_kernel fixture always builds the current _speedups.c into a
temporary directory and loads it from there, so an in-place build left over
from an older source can never stand in for the code under test.
"""

import importlib.machinery
import importlib.util
import itertools
import os
import pathlib
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc

import pytest

from bodenhu import MultiplicityVector, OrderedPartition, iter_partition_shapes
from bodenhu._kernel import KERNEL_KIND, pure
from bodenhu.smallness import rotation_deltas, violates_margin

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _c_compiler():
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(shlex.split(cc)[0])


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled kernel, freshly built from the current _speedups.c."""
    if _c_compiler() is None:
        pytest.skip("no C compiler found to build the compiled kernel")
    out = tmp_path_factory.mktemp("kernel_build")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out), "--build-temp", str(out / "temp")],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    built = [
        out / "bodenhu" / "_kernel" / f"_speedups{suffix}"
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    ]
    built = [path for path in built if path.exists()]
    if not built:
        pytest.fail(
            "a C compiler is present but _speedups.c did not build:\n"
            + build.stdout + build.stderr
        )
    spec = importlib.util.spec_from_file_location(
        "bodenhu._kernel._speedups", built[0]
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["pure", "compiled"])
def impl(request):
    if request.param == "pure":
        return pure
    return request.getfixturevalue("compiled_kernel")


def run_scan(impl, n, s_filter=0, semismall=False, min_len=3):
    masks_list = list(iter_partition_shapes(n, min_len))
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

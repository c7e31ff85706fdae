"""Shared fixtures: the frozen reference inputs used across test modules,
the compiled kernel built fresh from the current _speedups.c, and the
kernel twin a test runs the package on."""

import importlib.machinery
import importlib.util
import os
import pathlib
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from fractions import Fraction
from functools import lru_cache

import pytest

from bodenhu import MultiplicityVector, Partition, WeightVector, _kernel

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

ALPHA_9_4 = (
    "1/15", "2/15", "1/7", "2/7", "4/7", "7/12", "2/3", "3/4", "4/5",
)
TRIPLE_9_4 = (((1, 2, 9), -1), ((3, 4, 5), -1), ((6, 7, 8), -2))

ALPHA_11_3 = (
    "1/26", "1/20", "1/15", "1/12", "2/11", "1/5", "4/11", "5/11",
    "6/13", "1/2", "3/5",
)
TRIPLE_11_3 = (
    ((2, 3, 4, 6, 11), -1), ((5, 7, 8), -1), ((1, 9, 10), -1),
)


def build_weight(entries: tuple[str, ...]) -> WeightVector:
    return WeightVector(tuple(Fraction(x) for x in entries))


def build_triple(
    n: int, triple: tuple[tuple[tuple[int, ...], int], ...]
) -> tuple[MultiplicityVector, ...]:
    return tuple(
        MultiplicityVector.from_support(n, d, support)
        for support, d in triple
    )


# Denominators as in the benchmark's query mix: dense (2N), medium, generic.
KINDS = ("dense", "medium", "generic")


def denominator(n: int, kind: str) -> int:
    return {"dense": 2 * n, "medium": 60, "generic": 997}[kind]


def weight_vector(rng: random.Random, n: int, d: int) -> WeightVector:
    """N distinct fractions k/d in (0, 1), sorted, summing to an integer."""
    while True:
        ks = rng.sample(range(1, d), n - 1)
        last = -sum(ks) % d
        if last and last not in ks:
            entries = tuple(Fraction(k, d) for k in sorted(ks + [last]))
            return WeightVector(entries)


def seeded_alphas(seed: int, kind: str) -> list[WeightVector]:
    """Four weight vectors of the given kind for each N = 4..10."""
    rng = random.Random(seed)
    return [
        weight_vector(rng, n, denominator(n, kind))
        for n in range(4, 11)
        for _ in range(4)
    ]


def admissible_shapes(
    n: int, min_len: int, masks
) -> list[tuple[int, ...]]:
    """The partitions of n slots into the given blocks of rank >= 2 with at
    least min_len blocks, as ascending mask tuples, in canonical order.

    Canonical order is lexicographic in the blocks taken by lowest slot, with
    masks compared as integers: the order of iter_partition_shapes, which
    TestShapeEnumeration pins to this function.  The partitions come from a
    memoised cover of each slot set, so the reference needs neither the
    unpruned stream (24 million shapes at N = 14) nor the kernel recursion.
    """
    blocks = [mask for mask in masks if mask.bit_count() >= 2]

    @lru_cache(maxsize=None)
    def covers(remaining):
        if not remaining:
            return [()]
        low = remaining & -remaining
        return [
            (mask,) + rest
            for mask in blocks
            if mask & low and mask & remaining == mask
            for rest in covers(remaining ^ mask)
        ]

    shapes = covers((1 << n) - 1) if n >= 2 else []
    return [
        tuple(sorted(shape))
        for shape in sorted(shapes)
        if len(shape) >= min_len
    ]


@lru_cache(maxsize=None)
def seeded_blocks() -> tuple[tuple[int, tuple[int, ...], dict[int, int]], ...]:
    """(N, masks, degree) for one alpha of each kind and each N = 4..14.

    masks are the blocks of rank >= 2 whose alpha sum is an integer,
    ascending, and degree maps each to minus that sum.
    """
    rng = random.Random(1412)
    out = []
    for n in range(4, 15):
        for kind in KINDS:
            alpha = weight_vector(rng, n, denominator(n, kind))
            masks = tuple(
                mask for mask in alpha.integral_masks if mask.bit_count() >= 2
            )
            degree = {
                mask: -(alpha.scaled_sum(mask) // alpha.denom) for mask in masks
            }
            out.append((n, masks, degree))
    return tuple(out)


def assert_public_rebuild(obj) -> None:
    """obj equals, and hashes like, its rebuild through the public constructors.

    Partition and OrderedPartition rebuilds re-run every validation; each
    block is rebuilt from its support, which also re-derives its rank.
    """
    blocks = obj.blocks if isinstance(obj, Partition) else obj.seq
    rebuilt = tuple(
        MultiplicityVector.from_support(b.n, b.d_check, b.support)
        for b in blocks
    )
    assert [b.r for b in blocks] == [b.r for b in rebuilt]
    public = type(obj)(rebuilt)
    assert obj == public
    assert hash(obj) == hash(public)


@pytest.fixture
def alpha94() -> WeightVector:
    return build_weight(ALPHA_9_4)


@pytest.fixture
def triple94() -> tuple[MultiplicityVector, ...]:
    return build_triple(9, TRIPLE_9_4)


@pytest.fixture
def alpha113() -> WeightVector:
    return build_weight(ALPHA_11_3)


@pytest.fixture
def triple113() -> tuple[MultiplicityVector, ...]:
    return build_triple(11, TRIPLE_11_3)


def kernel_line() -> str:
    """The kernel the package selected, which the CLI tests run on, and for
    the pure one why the compiled one was refused."""
    from bodenhu._kernel import KERNEL_FALLBACK, KERNEL_KIND

    return f"bodenhu kernel: {KERNEL_KIND} (fallback: {KERNEL_FALLBACK})"


def pytest_report_header(config):
    return kernel_line()


def pytest_terminal_summary(terminalreporter):
    # -q, as in the tier-1 command, drops the header; the summary stays
    if terminalreporter.verbosity < 0:
        terminalreporter.write_line(kernel_line())


def c_compiler():
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(shlex.split(cc)[0])


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled kernel, freshly built from the current _speedups.c."""
    if c_compiler() is None:
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


@pytest.fixture(
    params=[pytest.param("pure", id=pytest.HIDDEN_PARAM), "compiled"]
)
def kernel_twin(request, monkeypatch):
    """Run the test on each kernel twin, whatever the package selected.

    Every entry point on bodenhu._kernel is rebound, through the binding
    function the import uses, to pure.py or to the fresh compiled build;
    the rest of the package calls the entries through that module.  The
    pure run keeps the test's plain id, the compiled one adds "compiled".
    """
    twin = (
        _kernel.pure
        if request.param == "pure"
        else request.getfixturevalue("compiled_kernel")
    )
    for name, entry in _kernel.entries(twin).items():
        monkeypatch.setattr(_kernel, name, entry)
    return request.param

"""Shared fixtures: the frozen reference inputs used across test modules,
the compiled kernel built fresh from the current _speedups.c, the kernel
twin a test runs the package on, and the one leak, Ctrl-C and scan memo
harness of the twin tests."""

import contextlib
import gc
import importlib.machinery
import importlib.util
import itertools
import os
import pathlib
import random
import shlex
import shutil
import signal
import subprocess
import sys
import sysconfig
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache, partial

import pytest

from bodenhu import (
    MultiplicityVector,
    Partition,
    WeightVector,
    iter_partition_shapes,
    subset_sums,
)
from bodenhu import _kernel, cli, smallness

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


def realisable_candidates(realise, n, s):
    """(masks, degs, nums, den) of each candidate of one (n, s) that realise
    accepts, realise deciding them one at a time: the shapes of
    iter_partition_shapes(n, 1), each with its degree assignments of total
    -s in itertools.product order, with the witness realise gives."""
    for masks in iter_partition_shapes(n, 1):
        ranges = [range(1 - mask.bit_count(), 0) for mask in masks]
        for degs in itertools.product(*ranges):
            found = realise(n, masks, degs) if sum(degs) == -s else None
            if found is not None:
                yield (masks, degs, *found)


@lru_cache(maxsize=None)
def seeded_blocks() -> tuple[tuple[int, tuple[int, ...], dict[int, int]], ...]:
    """(N, masks, degree) for one alpha of each kind and each N = 4..14.

    degree is alpha.admissible: it maps the blocks of rank >= 2 whose alpha
    sum is an integer to minus that sum, and masks are its keys, ascending.
    """
    rng = random.Random(1412)
    out = []
    for n in range(4, 15):
        for kind in KINDS:
            degree = weight_vector(rng, n, denominator(n, kind)).admissible
            out.append((n, tuple(degree), degree))
    return tuple(out)


def ref_admissible(alpha: WeightVector) -> dict[int, int]:
    """The admissible blocks of alpha from the full table of subset_sums:
    each mask of rank >= 2 whose sum is an integer, ascending, mapped to
    minus that sum."""
    denom, sums = subset_sums(alpha.entries)
    return {
        mask: -(sums[mask] // denom)
        for mask in range(1 << alpha.n)
        if mask.bit_count() >= 2 and sums[mask] % denom == 0
    }


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


# The flags of the UndefinedBehaviorSanitizer build (test_sanitizer.py).
# setup.py compiles with sysconfig's CFLAGS, then these: their -O1 sets the
# level, and their -fno-wrapv turns back on the signed-overflow check that
# the -fwrapv in sysconfig's CFLAGS turns off.
UBSAN = {
    "CFLAGS": "-O1 -g -fno-wrapv -fsanitize=undefined -fno-sanitize-recover=all",
    "LDFLAGS": "-fsanitize=undefined",
}


@lru_cache(maxsize=None)
def build_log(build):
    """Wait for a build from kernel_builds and return its output."""
    return build[1].communicate()[0]


def built(build):
    """Wait for a build from kernel_builds and return the extension's path."""
    log = build_log(build)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = build[0] / "bodenhu" / "_kernel" / f"_speedups{suffix}"
        if path.exists():
            return path
    pytest.fail("a C compiler is present but _speedups.c did not build:\n" + log)


def load_kernel(path):
    """The compiled kernel module built at path."""
    spec = importlib.util.spec_from_file_location(
        "bodenhu._kernel._speedups", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def kernel_builds(tmp_path_factory):
    """The fresh builds of _speedups.c, plain and with UBSAN's flags, started
    together so that the second runs beside the tests on another core.  The
    plain build adds -Wextra to the environment's CFLAGS, which README's
    sanitizer runs set, and its log is the warnings test's."""
    if c_compiler() is None:
        pytest.skip("no C compiler found to build the compiled kernel")
    builds = []
    plain = {"CFLAGS": f"{os.environ.get('CFLAGS', '')} -Wextra".lstrip()}
    for flags in (plain, UBSAN):
        out = tmp_path_factory.mktemp("kernel_build")
        builds.append((out, subprocess.Popen(
            [sys.executable, "setup.py", "build_ext",
             "--build-lib", str(out), "--build-temp", str(out / "temp")],
            cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env={**os.environ, **flags},
        )))
    yield builds
    for _, process in builds:
        process.kill()
        process.wait()
        process.stdout.close()


@pytest.fixture(scope="session")
def compiled_kernel(kernel_builds):
    """The compiled kernel, freshly built from the current _speedups.c."""
    return load_kernel(built(kernel_builds[0]))


TWINS = ("pure", "compiled")

# For the tests that ran on the selected kernel alone before they ran on
# both twins: the pure run keeps the plain id, the compiled run adds
# "compiled".
PURE_RUN_UNNAMED = pytest.mark.parametrize(
    "twin",
    [pytest.param("pure", id=pytest.HIDDEN_PARAM), "compiled"],
    indirect=True,
)


# For the tests that run on the compiled twin alone, under their plain ids.
COMPILED_RUN_UNNAMED = pytest.mark.parametrize(
    "twin", [pytest.param("compiled", id=pytest.HIDDEN_PARAM)], indirect=True
)


@pytest.fixture(params=TWINS)
def twin(request, monkeypatch):
    """The kernel twin the test runs on, pure.py or the fresh compiled build,
    whatever the package selected: every entry on bodenhu._kernel is rebound
    to it through the binding function the import uses, so the rest of the
    package calls it too, and the test gets the twin module."""
    module = (
        _kernel.pure
        if request.param == "pure"
        else request.getfixturevalue("compiled_kernel")
    )
    for name, entry in _kernel.entries(module).items():
        monkeypatch.setattr(_kernel, name, entry)
    return module


def assert_no_growth(one_round):
    """Run one_round 200 times: the memory traced after call 200 must be no
    higher than after call 100, as it would be if a round leaked."""
    tracemalloc.start()
    try:
        for call in range(1, 201):
            one_round()
            if call == 100:
                mid = tracemalloc.get_traced_memory()[0]
        end = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert end <= mid


@contextlib.contextmanager
def alarm(after):
    """Raise TimeoutError in the main thread `after` seconds in, as Ctrl-C
    raises KeyboardInterrupt: a deadline, or the stand-in for Ctrl-C."""

    def ring(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, ring)
    try:
        signal.setitimer(signal.ITIMER_REAL, after)
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_interrupted(call, after=0.2, within=2.0):
    """call() must end by an alarm() `after` seconds in, within `within`
    seconds: the kernel's signal checks let Ctrl-C end a long call.
    Collections are off for the call, since a gc callback (hypothesis
    installs one) could take the signal and swallow the handler's
    exception."""
    collecting = gc.isenabled()
    start = time.monotonic()
    try:
        gc.disable()
        with pytest.raises(TimeoutError), alarm(after):
            call()
    finally:
        if collecting:
            gc.enable()
    assert time.monotonic() - start < within


@pytest.fixture
def scan_memo(twin, monkeypatch):
    """The CLI's scan takes each scan_all_s result from session_scan, so the
    json and table runs of a scan and the acceptance scan share one pure
    scan per mode.  The twin fixture does not install it: a test that
    injects a failure into the scan must run the scan."""
    monkeypatch.setattr(cli, "scan_all_s", partial(session_scan, twin))


@lru_cache(maxsize=None)
def session_scan(twin, n, mode):
    """scan_all_s(n, mode) on the bound twin, once per session; the CLI
    only reads the result."""
    return smallness.scan_all_s(n, mode)

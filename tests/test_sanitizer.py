"""The compiled twin under UndefinedBehaviorSanitizer, which sees undefined
behaviour that happens to give the right answer: the UBSAN build of
_speedups.c runs a compiled == pure subset in a child process, and any
sanitizer report fails.  README gives the manual AddressSanitizer run."""

import os
import shlex
import subprocess
import sys
import sysconfig

import pytest

from conftest import REPO_ROOT, UBSAN, build_log, built

CANARY = ("#include <limits.h>\nint main(int argc, char **argv) "
          "{ volatile int big = INT_MAX; return big + argc < 0; }\n")

# The subset, run on the build given as argv[1]: scan_shapes for N <= 9 in
# both modes, without settle and with the scan's own, then rate_orders,
# alpha_shapes, realise_shapes, walls and dumps at small N, blocks on those
# walls and on seeded pairs (N <= 30), admissible on its seeded points
# (N <= 14) and past int64, and the edge inputs of test_kernel.py; every
# value or exception type must be pure's, and an admissible past int64 must
# re-run on pure.
CHILD = """
import sys
from functools import partial
from bodenhu import _kernel, smallness
from bodenhu._kernel import pure
from conftest import load_kernel, seeded_blocks
from test_kernel import (ADMISSIBLE_EDGE_CASES, ADMISSIBLE_OVERFLOWING,
                         BLOCK_EDGE_CASES, RATE_EDGE_CASES, REALISE_EDGE_CASES,
                         SHAPE_EDGE_CASES, WALL_EDGE_CASES, admissible_alphas,
                         seeded_pairs, twins_agree)

ubsan = load_kernel(sys.argv[1])
for name, entry in _kernel.entries(ubsan).items():
    setattr(_kernel, name, entry)
same = partial(twins_agree, ubsan)
for n in range(2, 10):
    for semismall, mode in ((False, "small"), (True, "semismall")):
        same("scan_shapes", n, 0, semismall, 3)
        settle = smallness._settler(n, mode, {})
        same("scan_shapes", n, 0, semismall, 3, settle)
for n, masks, degree in seeded_blocks():
    if n <= 10:
        same("alpha_shapes", n, masks, 1)
        shapes = pure.alpha_shapes(n, masks, 2)
        for semismall in (False, True):
            same("rate_orders", n, shapes, degree, semismall)
        same("dumps", pure.rate_orders(n, shapes, degree, False))
for alpha in admissible_alphas():
    same("admissible", alpha.n, alpha.nums, alpha.denom)
for args in (ADMISSIBLE_OVERFLOWING, (2, [1 << 62, 1 << 62], 1)):
    assert _kernel.admissible(*args) == pure.admissible(*args)
for n in range(9):
    for s in range(-1, n + 2):
        same("realise_shapes", n, s, 1)
for n in range(2, 11):
    for s in range(1, n):
        same("walls", n, s)
        same("blocks", pure.walls(n, s))
for n, pairs in seeded_pairs(33):
    same("blocks", pairs)
same("dumps", [0, -1, 2**63 - 1, -2**63, 2**64, "a\\u00e9\\n", None])
assert same("dumps", [0, 1.5]) == ("raised", TypeError)
for args, _ in RATE_EDGE_CASES:
    same("rate_orders", *args, False)
for args, _ in ADMISSIBLE_EDGE_CASES:
    same("admissible", *args)
for pairs, _ in BLOCK_EDGE_CASES:
    same("blocks", pairs)
for name, rows in [("realise", REALISE_EDGE_CASES), ("walls", WALL_EDGE_CASES),
                   ("alpha_shapes", SHAPE_EDGE_CASES)]:
    for args in rows:
        same(name, *args)
print("all agree")
"""


def test_compiled_twin_is_clean_under_ubsan(tmp_path, kernel_builds):
    # the canary, built as setuptools builds: sysconfig's flags, then UBSAN's
    (tmp_path / "canary.c").write_text(CANARY)
    build = subprocess.run(
        [*shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC")),
         *shlex.split(sysconfig.get_config_var("CFLAGS")),
         *UBSAN["CFLAGS"].split(), "canary.c", "-o", "canary",
         UBSAN["LDFLAGS"]],
        cwd=tmp_path, capture_output=True, text=True,
    )
    if build.returncode:
        pytest.skip(f"cannot link -fsanitize=undefined: {build.stderr}")
    canary = subprocess.run([tmp_path / "canary"], capture_output=True, text=True)
    assert "runtime error: signed integer overflow" in canary.stderr
    # the build runs at UBSAN's -O1: its -O comes after sysconfig's -O3
    ubsan = built(kernel_builds[1])
    compile_line = next(
        shlex.split(line) for line in build_log(kernel_builds[1]).splitlines()
        if " -c " in line and "_speedups.c" in line
    )
    assert [arg for arg in compile_line if arg.startswith("-O")][-1] == "-O1"
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(ubsan)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ,
             "PYTHONPATH": f"{REPO_ROOT / 'src'}:{REPO_ROOT / 'tests'}"},
    )
    assert child.returncode == 0, child.stderr
    assert "runtime error" not in child.stderr
    assert child.stdout == "all agree\n"

"""Compare a compiled scan kernel with the pure one, in a process of its own.

run.py starts this with PYTHONPATH set to the fresh copy of src/, before the
measured worker, so the memory and time the comparison takes never count
against the workload.  The last stdout line is "ok", "skipped: ..." or
"mismatch ...".
"""

from __future__ import annotations

from bodenhu import partitions


def compare_kernels(nmax: int = 9) -> str:
    """A compiled kernel must match the pure one on every shape for N <= nmax."""
    try:
        from bodenhu._kernel import _speedups
    except ImportError:
        return "skipped: no compiled kernel importable"
    from bodenhu._kernel import pure

    for n in range(2, nmax + 1):
        shapes = list(partitions.iter_partition_shapes(n, min_len=1))
        for semismall in (False, True):
            args = (n, 0, semismall, 1, shapes)
            if _speedups.scan_partition_batch(*args) != pure.scan_partition_batch(*args):
                return f"mismatch at n={n} semismall={semismall}"
    return "ok"


if __name__ == "__main__":
    print(compare_kernels())

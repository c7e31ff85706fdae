"""Kernel selection: the compiled extension when it fits, else pure Python.

Both implementations expose the same scan entry points (scan_shapes,
scan_partition_batch), the same single-alpha entry points (alpha_shapes,
the partitions of the admissible blocks at one weight vector, and
rate_orders, the rated cyclic orderings of one partition), the same
realisation entry points (realise, a witness point for one candidate
partition, and realise_shapes, every realisable candidate of one (n, s)
with its witness) and the same JSON writer (dumps, the text of
json.dumps(payload, indent=2) for the CLI's payload types), and must agree
bit for bit (the test suite enforces this).  Block input has one rule in
both: the shapes of scan_partition_batch and the blocks of realise must be
set partitions of the n slots, and anything else raises ValueError.  The
compiled module is taken only if it has every entry point and the same
KERNEL_API as pure.py, so an extension built from an older _speedups.c
falls back to the pure kernel instead of failing at import.  KERNEL_KIND
names the kernel in use; KERNEL_FALLBACK says why the compiled one was
refused (None when it runs).  The compiled realisation works in checked
64-bit integers and raises OverflowError where they would not suffice;
on_overflow_pure re-runs that one call on pure.py, the only per-call
fallback.  The pure kernel is also the oracle the tests import directly.
"""

import functools
from types import ModuleType
from typing import Optional

from . import pure

ENTRY_POINTS = (
    "scan_shapes", "scan_partition_batch", "alpha_shapes", "rate_orders",
    "realise", "realise_shapes", "dumps",
)


def refusal(compiled: Optional[ModuleType]) -> Optional[str]:
    """Why the compiled module cannot serve as the kernel, or None if it can."""
    if compiled is None:
        return "no extension"
    api = getattr(compiled, "KERNEL_API", None)
    if api != pure.KERNEL_API:
        return f"API mismatch: extension {api}, pure.py {pure.KERNEL_API}"
    missing = [name for name in ENTRY_POINTS if not hasattr(compiled, name)]
    if missing:
        return "missing entries: " + ", ".join(missing)
    return None


def select(compiled: Optional[ModuleType]) -> tuple[ModuleType, str]:
    """(kernel module, kind): compiled if it matches pure's API, else pure."""
    if refusal(compiled) is None:
        return compiled, "compiled"
    return pure, "pure"


def on_overflow_pure(compiled_entry, pure_entry):
    """compiled_entry, re-run on pure_entry when it raises OverflowError.

    The compiled realisation works in checked 64-bit integers and raises
    OverflowError where Python's would grow; pure's exact ints then decide
    that one call.
    """

    @functools.wraps(pure_entry)
    def entry(*args):
        try:
            return compiled_entry(*args)
        except OverflowError:
            return pure_entry(*args)

    return entry


try:
    from . import _speedups
except ImportError:
    _speedups = None

_impl, KERNEL_KIND = select(_speedups)
KERNEL_FALLBACK = refusal(_speedups)
scan_shapes = _impl.scan_shapes
scan_partition_batch = _impl.scan_partition_batch
alpha_shapes = _impl.alpha_shapes
rate_orders = _impl.rate_orders
dumps = _impl.dumps
realise = _impl.realise
realise_shapes = _impl.realise_shapes
if _impl is not pure:
    realise = on_overflow_pure(realise, pure.realise)
    realise_shapes = on_overflow_pure(realise_shapes, pure.realise_shapes)

__all__ = [
    "scan_shapes", "scan_partition_batch", "alpha_shapes", "rate_orders",
    "realise", "realise_shapes", "dumps", "KERNEL_KIND", "KERNEL_FALLBACK",
]

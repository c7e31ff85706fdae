"""Kernel selection: the compiled extension when it fits, else pure Python.

Both implementations expose the same scan entry points (scan_shapes,
which with a settle callable stops each s at the first violating candidate
settle accepts, and scan_partition_batch), the same single-alpha entry
points (admissible, the blocks that can occur at one weight vector mapped
to their degrees, alpha_shapes, the partitions into those blocks, and
rate_orders, the rated cyclic orderings of each partition of a listing,
with the first violating one), the same realisation entry points
(realise, a witness point for one candidate partition, and realise_shapes,
every realisable candidate of one (n, s) with its witness, as rows of
indices into the call's distinct blocks and reduced witness entries), the
same wall listing (walls, the nonempty walls of one W(n, s) as
(mask, d_check) pairs, each decided by the closed form wall_meets), the
same block formatter (blocks, the package's one: a payload dict
{"support": [...], "degree": d} per (mask, degree) pair) and the same JSON
writer (dumps, the text of json.dumps(payload, indent=2) for the CLI's
payload types), and must agree bit for bit (the test suite enforces this).
Block input has one rule in both: the shapes of scan_partition_batch and
rate_orders and the blocks of realise must partition the n slots, or the
call raises ValueError.  Both read every argument through one reader per
kind (slot count, integer, integer list, partition, flag, settle callable,
(mask, degree) pair)
before any other check: a non-integer raises TypeError, an integer counts
at its exact value however large, and the
semismall flag's truth is tested once.  The
compiled module is taken only if it has every entry point and the same
KERNEL_API as pure.py, so an extension built from an older _speedups.c
falls back to the pure kernel instead of failing at import.  KERNEL_KIND
names the kernel in use; KERNEL_FALLBACK says why the compiled one was
refused (None when it runs).  The compiled realisation and admissible
work in checked 64-bit integers and raise OverflowError where they would
not suffice, or for a degree, scaled entry or denominator past 64 bits;
on_overflow_pure re-runs that one call, with the same positional and
keyword arguments, on pure.py, the only per-call fallback, which no other
argument reaches.  entries binds the entry points of either twin; this
module is the only place they are bound, and every other module calls
them as _kernel.<entry>, so rebinding them here switches the twin for the
whole package.  The pure kernel is also the oracle the tests import directly.
"""

import functools
from types import ModuleType
from typing import Callable, Optional

from . import pure

ENTRY_POINTS = (
    "scan_shapes", "scan_partition_batch", "admissible", "alpha_shapes",
    "rate_orders", "realise", "realise_shapes", "walls", "blocks", "dumps",
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

    The compiled realisation and admissible work in checked 64-bit
    integers and raise OverflowError where Python's would grow; pure's
    exact ints then decide that one call, on the same arguments.
    """

    @functools.wraps(pure_entry)
    def entry(*args, **kwargs):
        try:
            return compiled_entry(*args, **kwargs)
        except OverflowError:
            return pure_entry(*args, **kwargs)

    return entry


def entries(twin: ModuleType) -> dict[str, Callable]:
    """ENTRY_POINTS of the twin module by name, as the package calls them:
    the compiled admissible, realise and realise_shapes through
    on_overflow_pure."""
    bound = {name: getattr(twin, name) for name in ENTRY_POINTS}
    if twin is not pure:
        for name in ("admissible", "realise", "realise_shapes"):
            bound[name] = on_overflow_pure(bound[name], getattr(pure, name))
    return bound


try:
    from . import _speedups
except ImportError:
    _speedups = None

_impl, KERNEL_KIND = select(_speedups)
KERNEL_FALLBACK = refusal(_speedups)
globals().update(entries(_impl))

__all__ = [*ENTRY_POINTS, "KERNEL_KIND", "KERNEL_FALLBACK"]

"""Kernel selection: the compiled extension when it fits, else pure Python.

Both implementations expose the same scan entry points (scan_shapes,
scan_partition_batch) and the same JSON writer (dumps, the text of
json.dumps(payload, indent=2) for the CLI's payload types), and must agree
bit for bit (the test suite enforces this).  The compiled module is taken
only if it has every entry point and the same KERNEL_API as pure.py, so an
extension built from an older _speedups.c falls back to the pure kernel
instead of failing at import.  The pure kernel is also the oracle the tests
import directly.
"""

from types import ModuleType
from typing import Optional

from . import pure

ENTRY_POINTS = ("scan_shapes", "scan_partition_batch", "dumps")


def select(compiled: Optional[ModuleType]) -> tuple[ModuleType, str]:
    """(kernel module, kind): compiled if it matches pure's API, else pure."""
    if (
        compiled is not None
        and getattr(compiled, "KERNEL_API", None) == pure.KERNEL_API
        and all(hasattr(compiled, name) for name in ENTRY_POINTS)
    ):
        return compiled, "compiled"
    return pure, "pure"


try:
    from . import _speedups
except ImportError:
    _speedups = None

_impl, KERNEL_KIND = select(_speedups)
scan_shapes = _impl.scan_shapes
scan_partition_batch = _impl.scan_partition_batch
dumps = _impl.dumps

__all__ = ["scan_shapes", "scan_partition_batch", "dumps", "KERNEL_KIND"]

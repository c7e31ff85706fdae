"""Scan-kernel selection: the compiled extension when present, else pure Python.

Both implementations expose the same scan_partition_batch and must agree bit
for bit (the test suite enforces this).  The pure kernel is the fallback
when no compiled extension was built, and the oracle the tests import
directly.
"""

try:
    from . import _speedups as _impl  # type: ignore[attr-defined]

    KERNEL_KIND = "compiled"
except ImportError:
    from . import pure as _impl

    KERNEL_KIND = "pure"

scan_partition_batch = _impl.scan_partition_batch

__all__ = ["scan_partition_batch", "KERNEL_KIND"]

"""Build hook for the optional compiled scan kernel.

The package is fully functional without the extension (a pure-Python kernel
is selected at import time when the compiled one is missing), so the
extension is optional: without a working C compiler the build skips it
instead of failing.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "bodenhu._kernel._speedups",
            ["src/bodenhu/_kernel/_speedups.c"],
            optional=True,
        )
    ]
)

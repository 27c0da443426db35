"""Build script: metadata lives in pyproject.toml; this shim exists so
`pip install -e . --no-use-pep517` works on offline machines that lack
the `wheel` package, and to build the *optional* compiled hot-path
backend (``repro.sim._ckernel``, see ``repro.sim.backend``).

The extension is best-effort by default: any compiler/toolchain failure
degrades the install to the pure-Python backend with a warning instead
of failing it. Set ``TLT_REQUIRE_COMPILED=1`` to turn a failed
extension build into a hard error (used by the CI compiled-backend
job), or ``TLT_SKIP_COMPILED=1`` to skip the extension entirely.

Build in place with::

    python setup.py build_ext --inplace
"""

import os
import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """build_ext that degrades to the pure backend on toolchain failure."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any toolchain failure
            self._handle(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            self._handle(exc)

    def _handle(self, exc):
        if os.environ.get("TLT_REQUIRE_COMPILED") == "1":
            raise
        sys.stderr.write(
            "warning: building repro.sim._ckernel failed (%s); "
            "falling back to the pure-Python backend\n" % (exc,)
        )


ext_modules = []
if os.environ.get("TLT_SKIP_COMPILED") != "1":
    ext_modules.append(
        Extension(
            "repro.sim._ckernel",
            sources=["src/repro/sim/_ckernelmodule.c"],
            # -g0: the interpreter's own CFLAGS usually carry -g, and
            # debug info is a fifth of the compile time of this file
            # (gcc 1.72 -> 1.36 s here) for an extension nobody steps
            # through; function symbols stay in the .so for perf/gdb.
            extra_compile_args=["-O2", "-g0"],
            optional=os.environ.get("TLT_REQUIRE_COMPILED") != "1",
        )
    )

setup(ext_modules=ext_modules, cmdclass={"build_ext": OptionalBuildExt})

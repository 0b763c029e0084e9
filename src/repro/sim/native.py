"""Build and load the native lane and timing walks (``_walk.c``).

The fast kernel walks exact-type engines on the paper's 2-way cache --
none, next-line, stride, discontinuity and PIF -- through a plain-C99
library called with :mod:`ctypes`: one entry point for the lane walk
(:func:`repro.sim.engine._walk_lane_native`) and one for the timing walk
(:func:`repro.sim.timing._run_timing_native`).  This module compiles
it on the first native walk of a process -- never at import -- with the
interpreter's configured C compiler: ``sysconfig``'s ``CC``, replaced
by the ``CC`` environment variable when set, as setuptools does.  No
``-march=native``: one cache directory may serve several CPUs.  The
timing walk returns doubles that must equal the Python loop's, so the
flags turn floating-point contraction off (no fused multiply-add).

The library lives in the user cache, not the trace store (a fresh
store must not mean a fresh build)::

    ${XDG_CACHE_HOME:-~/.cache}/repro/native/<key>.so

``<key>`` is the SHA-256 of the C source, the compiler command, the
flags and the machine type, so editing any of them builds a new library
beside the old one.  A build writes a private temporary file and
publishes it with ``os.replace``, so processes building at once (pool
workers, a worker fleet) each load a complete library.  Every published
library ends in a trailer holding the SHA-256 of the bytes before it; a
library whose trailer does not verify (truncated, overwritten) is
deleted and rebuilt.

When no library can be built or loaded, :func:`load` warns once per
process with a :class:`RuntimeWarning` and returns None, and every lane
and timing walk takes the Python walkers (``_walk_lane_inline2`` and
``_run_timing_fast``): the same results, at roughly 20-45x the cost per
access.
"""

from __future__ import annotations

import functools
import hashlib
import os
import platform
import shlex
import warnings
from pathlib import Path
from typing import List, Optional

from ..trace.store import cache_home

#: The C source of the lane and timing walks (package data).
SOURCE = Path(__file__).with_name("_walk.c")

#: Compiler flags after the compiler command.  ``-ffp-contract=off``
#: keeps every multiply and add of the timing walk separately rounded,
#: as in Python.
CFLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")

#: Ends every published library: marker, then the body's SHA-256.
_TRAILER_MAGIC = b"repro-walklib-v1"


class NativeBuildError(RuntimeError):
    """The compiler failed to build the native walks."""


def compiler() -> List[str]:
    """The compiler command: ``$CC`` if set, else ``sysconfig``'s."""
    import sysconfig

    # reprolint: disable=RL004 - build-compiler knob, read as setuptools does; never reaches a result
    command = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shlex.split(command) or ["cc"]


def library_path(source: Path = SOURCE,
                 command: Optional[List[str]] = None) -> Path:
    """Where the library built from ``source`` with ``command`` lives."""
    command = compiler() if command is None else command
    digest = hashlib.sha256(source.read_bytes())
    for part in (*command, "--", *CFLAGS, "--", platform.machine()):
        digest.update(part.encode() + b"\0")
    return cache_home() / "repro" / "native" / f"{digest.hexdigest()}.so"


def verified(path: Path) -> bool:
    """True when ``path`` is a complete published library."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    body, trailer = data[:-48], data[-48:]
    return (trailer[:16] == _TRAILER_MAGIC
            and hashlib.sha256(body).digest() == trailer[16:])


def build(path: Path, command: List[str]) -> None:
    """Compile :data:`SOURCE` and publish it at ``path`` atomically."""
    import subprocess
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    handle, scratch_name = tempfile.mkstemp(prefix=path.name + ".",
                                            suffix=".tmp", dir=path.parent)
    os.close(handle)
    scratch = Path(scratch_name)
    try:
        try:
            result = subprocess.run(
                [*command, *CFLAGS, "-o", str(scratch), str(SOURCE)],
                capture_output=True, text=True, timeout=300, check=False)
        except subprocess.SubprocessError as exc:
            raise NativeBuildError(f"{command[0]}: {exc}") from exc
        if result.returncode != 0:
            raise NativeBuildError(
                f"{shlex.join(command)} exited {result.returncode}: "
                f"{result.stderr.strip()[-500:]}")
        body = scratch.read_bytes()
        scratch.write_bytes(body + _TRAILER_MAGIC
                            + hashlib.sha256(body).digest())
        os.replace(scratch, path)
    finally:
        scratch.unlink(missing_ok=True)


def _declare(library):
    """Declare the C signatures (every argument is checked by ctypes:
    arrays must be C-contiguous with the exact dtype)."""
    import ctypes

    import numpy as np

    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    u8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    inputs = [
        ctypes.c_int64, i64, i64, u8, u8,   # accesses: n, block, pc, trap, wrong
        ctypes.c_int64, i64, i64, i64, u8, i64,   # plan: n, at, key, trigger, survives, bits
        i64,   # config
    ]
    library.walk_lane.argtypes = [
        *inputs, i64, i64, i64]   # out_lane, out_levels, out_channels
    library.walk_timing.argtypes = [
        *inputs, f64, i64, i64, f64]   # constants, out_lane, out_channels, out_timing
    library.walk_lane.restype = library.walk_timing.restype = ctypes.c_int
    return library


@functools.cache
def load():
    """This process's native walks (a :class:`ctypes.CDLL`), built on
    first use; None after one :class:`RuntimeWarning` when they cannot
    be built or loaded."""
    import ctypes

    try:
        command = compiler()
        path = library_path(command=command)
        if not verified(path):
            path.unlink(missing_ok=True)
            build(path, command)
        return _declare(ctypes.CDLL(str(path)))
    except (OSError, NativeBuildError) as exc:
        warnings.warn(f"native walk unavailable, lanes and timings take "
                      f"the Python walkers: {exc}", RuntimeWarning,
                      stacklevel=2)
        return None

"""Backend selection for the CBC-DBD construction, dbd_construct.

The C kernel in _dbd.c is compiled with the system C compiler (the first of
cc, gcc, clang on PATH) the first time this module is imported, and loaded
with ctypes. The shared library is cached in $XDG_CACHE_HOME/latgen (default
~/.cache/latgen) under a name keyed by a hash of the source, the flags and
the machine. Processes that import at the same time each compile to a
temporary name and move the result into place with os.replace, so none of
them can load a half-written file.

The C kernel holds dbd_construct alone; it builds its level tables from the
log-sine table and returns the components it could build (see
latgen._slowpath.dbd_construct, its twin). The numpy implementation in
latgen._slowpath is the fallback: it is used when LATGEN_PURE=1 is set, the
cache cannot be written, no compiler is found, or the compile fails. BACKEND
is "c" or "numpy"; BACKEND_REASON says which library was loaded or why the
fallback was chosen. Nothing else is chosen here: the per-level walk that
cbc_dbd.h_bar and update_p use comes straight from latgen._slowpath.
"""

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile

import numpy as np

from . import _slowpath

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_dbd.c")
COMPILERS = ("cc", "gcc", "clang")
# -ffp-contract=off: no fused multiply-add, so the scores round as written.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


class _Unavailable(Exception):
    """The C kernel cannot be used; the message says why."""


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "latgen")


def find_compiler():
    """Path of the first C compiler on PATH, or None."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def _compiled_library() -> str:
    """Path of the cached shared library, compiling it on a cache miss."""
    with open(SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read())
    key.update(" ".join(FLAGS + (platform.machine(),)).encode())
    directory = _cache_dir()
    target = os.path.join(directory, "_dbd-%s.so" % key.hexdigest()[:16])
    if os.path.exists(target):
        return target
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_dbd-", suffix=".tmp", dir=directory)
        os.close(fd)
    except OSError as exc:
        raise _Unavailable("cache directory %s is not writable: %s" % (directory, exc))
    try:
        cc = find_compiler()
        if cc is None:
            raise _Unavailable("no C compiler found on PATH (looked for %s)"
                               % ", ".join(COMPILERS))
        cmd = [cc, *FLAGS, "-o", tmp, SOURCE, "-lm"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise _Unavailable("running %s failed: %s" % (cc, exc))
        if proc.returncode != 0:
            raise _Unavailable("compile failed (%s exited with %d): %s"
                               % (" ".join(cmd), proc.returncode, proc.stderr.strip()))
        try:
            os.replace(tmp, target)
        except OSError as exc:
            raise _Unavailable("cannot move the compiled kernel to %s: %s" % (target, exc))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _load():
    pure = os.environ.get("LATGEN_PURE", "0")
    if pure not in ("", "0"):
        raise _Unavailable("forced by LATGEN_PURE=%s" % pure)
    path = _compiled_library()
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        raise _Unavailable("cannot load %s: %s" % (path, exc))
    # Plain addresses: the wrapper below makes or checks every array it
    # passes, which is cheaper than ndpointer's checks on each call.
    lib.dbd_construct.argtypes = [ctypes.c_void_p, ctypes.c_int, ctypes.c_double,
                                  ctypes.c_int64, ctypes.c_void_p, ctypes.c_double,
                                  ctypes.c_void_p]
    lib.dbd_construct.restype = ctypes.c_int64
    return lib, path


try:
    _lib, _path = _load()
    BACKEND, BACKEND_REASON = "c", "C kernel %s" % _path
except _Unavailable as exc:
    _lib = None
    BACKEND, BACKEND_REASON = "numpy", str(exc)

if _lib is None:
    dbd_construct = _slowpath.dbd_construct
else:

    def dbd_construct(ktab, n, gamma1, gammas, rtol):
        ktab = np.ascontiguousarray(ktab, dtype=np.float64)
        if n < 2 or ktab.shape != (1 << n,):
            raise ValueError("need n >= 2 and len(ktab) == 2^n")
        g = np.ascontiguousarray(gammas, dtype=np.float64)
        z = np.empty(g.shape[0], dtype=np.uint64)
        done = _lib.dbd_construct(ktab.ctypes.data, n, gamma1, g.shape[0], g.ctypes.data,
                                  rtol, z.ctypes.data)
        if done < 0:
            raise MemoryError("the CBC-DBD kernel could not allocate its tables for n = %d" % n)
        return z[:done].tolist()

"""Backend selection for the compiled kernels, dbd_construct and product_sum.

The C kernels in _dbd.c are compiled with the system C compiler (the first
of cc, gcc, clang on PATH) the first time this module is imported, and
loaded with ctypes. The shared library is cached in $XDG_CACHE_HOME/latgen
(default ~/.cache/latgen) under a name keyed by a hash of the source, the
flags and the machine. Processes that import at the same time each compile
to a temporary name and move the result into place with os.replace, so none
of them can load a half-written file.

The library holds three functions. dbd_construct builds the CBC-DBD
components from the log-sine table and returns those it could build (see
latgen._slowpath.dbd_construct, its twin). product_sum computes the
per-slot values prod_j (1 + gamma_j col_j) - 1 of a product-weight lattice
sum whose columns are slices of one buffer (numtheory.ColumnSlices), the
product branch of weights.subset_product_sum (see
latgen._slowpath.product_sum). cbc_step runs one fast-CBC component on a
step state of latgen.cbc: the update, the short tail's scores, the rounding
bound, the argmin and the near set (see latgen._slowpath.cbc_step); it
reads the state through one struct of its arrays' addresses, made on the
first call. The numpy implementations in latgen._slowpath are the
fallback: they are used when LATGEN_PURE=1 is set, the cache cannot be
written, no compiler is found, or the compile fails. dbd_construct and
product_sum give the same doubles on both, and so does cbc_step's update;
its short-tail scores are a fixed-order dot in C and a BLAS product in
numpy, so the scores and the bound may differ in their last bits, and
either near set holds the exact gather sum's choice. BACKEND is "c" or
"numpy"; BACKEND_REASON says which library was loaded or why the fallback
was chosen.
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
# -ftree-vectorize: plain -O2 leaves product_sum's element loops scalar; the
# vector code rounds every element as the scalar code does.
FLAGS = ("-O2", "-ftree-vectorize", "-ffp-contract=off", "-shared", "-fPIC")


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
    lib.product_sum.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                                ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                                ctypes.c_void_p]
    lib.product_sum.restype = None
    lib.cbc_step.argtypes = [ctypes.POINTER(_StepArgs), ctypes.c_int64, ctypes.c_double,
                             ctypes.c_int]
    lib.cbc_step.restype = ctypes.c_int64
    return lib, path


class _Level(ctypes.Structure):
    """struct cbc_level of _dbd.c."""

    _fields_ = [("values", ctypes.c_void_p), ("start", ctypes.c_int64),
                ("len", ctypes.c_int64), ("kernel_norm", ctypes.c_double)]


class _StepArgs(ctypes.Structure):
    """struct cbc_state of _dbd.c."""

    _fields_ = [(name, ctypes.c_void_p) for name in
                ("p", "sc", "near", "bound", "part", "levels", "rows", "ct", "counts")]
    _fields_ += [(name, ctypes.c_int64) for name in ("nlev", "Q", "P", "m", "short_start")]
    _fields_ += [(name, ctypes.c_double) for name in ("tfactor", "sfactor", "row_norm")]


def _step_args(st) -> _StepArgs:
    """The kernel's view of the step state st, once every array it reads or
    writes is known to have its shape: the kernel reads them unchecked."""
    plan = st.plan
    P, m = plan.rows.shape
    Q = st.sc.shape[0]
    n = plan.short + m
    keep = [np.ascontiguousarray(a, dtype=np.float64)
            for a in (plan.rows, st.ct, plan.short_counts)]
    rows, ct, counts = keep
    # with no long level the short tail's P scores are all Q of them
    ok = (P > 0 and Q % P == 0 and (plan.levels or Q == P) and ct.shape == (m, P)
          and counts.shape == (m,))
    ok = ok and all(
        0 <= lv.start < lv.stop <= plan.short and Q % (lv.stop - lv.start) == 0
        and lv.values.shape[0] >= 2 * (lv.stop - lv.start) for lv in plan.levels)
    for a, shape, dtype in ((st.p, (n,), np.float64), (st.sc, (Q,), np.float64),
                            (st.near, (Q,), np.int64), (st.bound, (1,), np.float64),
                            (st.part, (P,), np.float64)):
        ok = ok and a.shape == shape and a.dtype == dtype and a.flags.c_contiguous
    if not ok:
        raise ValueError("the step state does not match its plan")
    values = [np.ascontiguousarray(lv.values, dtype=np.float64) for lv in plan.levels]
    levels = (_Level * max(len(values), 1))(*[
        _Level(v.ctypes.data, lv.start, lv.stop - lv.start, lv.kernel_norm)
        for v, lv in zip(values, plan.levels)])
    args = _StepArgs(st.p.ctypes.data, st.sc.ctypes.data, st.near.ctypes.data,
                     st.bound.ctypes.data, st.part.ctypes.data, ctypes.addressof(levels),
                     rows.ctypes.data, ct.ctypes.data, counts.ctypes.data, len(values), Q, P,
                     m, plan.short, st.tfactor, st.sfactor, plan.row_norm)
    args.keep = (keep, values, levels)  # alive as long as the struct
    return args


try:
    _lib, _path = _load()
    BACKEND, BACKEND_REASON = "c", "C kernel %s" % _path
except _Unavailable as exc:
    _lib = None
    BACKEND, BACKEND_REASON = "numpy", str(exc)

if _lib is None:
    dbd_construct = _slowpath.dbd_construct
    product_sum = _slowpath.product_sum
    cbc_step = _slowpath.cbc_step
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

    def product_sum(gammas, cols):
        g = np.ascontiguousarray(gammas, dtype=np.float64)
        m = cols.lengths.shape[0]
        if g.shape != (len(cols),) or not g.shape[0]:
            raise ValueError("need one gamma per column and at least one column")
        d = np.empty(cols.size)
        # cols (numtheory.ColumnSlices) has checked that every slice lies in buf
        _lib.product_sum(cols.buf.ctypes.data, m, cols.lengths.ctypes.data, g.shape[0],
                         cols.offsets.ctypes.data, g.ctypes.data, d.ctypes.data)
        return d

    def cbc_step(st, b, gamma, score):
        args = st.handle
        if args is None:
            args = st.handle = _step_args(st)
        n = _lib.cbc_step(args, b, gamma, score)
        if n < 0:
            raise ValueError("candidate %d is out of range" % b)
        return n

"""Per-layer tracing from outside the program.

`Tracer.install` replaces each target function, in every `latgen.*` module
namespace that holds it, with a wrapper that records a span: name, start,
end, parent span, op id and a work count taken from the call's arguments.
Spans stay in memory. `uninstall` puts every original back. A target that
does not exist is listed in `absent` and reports zero.
"""

import functools
import statistics
import sys
import time
from collections import defaultdict

#: Layer (a latgen module) -> public functions traced in it.
TARGETS = {
    "cli": ("main", "read_vector", "write_vector", "parse_weight_spec"),
    "numtheory": ("primitive_root", "is_prime", "prev_prime"),
    "kernel": ("kernel_table", "fourier_decay_table"),
    "fft": ("fft", "cyclic_convolution"),
    "cbc": ("construct_korobov_cbc", "construct_standard_cbc", "rader_scores"),
    "cbc_dbd": ("construct_cbc_dbd",),
    "_kernels": ("dbd_score_pair", "dbd_update", "accumulate_product", "gather_score"),
    "error": ("wce_product", "T_quantity", "vartheta_table", "bound_thm_cbcdbd",
              "bound_thm_cbc"),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


#: Span name -> the work count its arguments imply.
WORK = {
    # slots read by one level-v score: sum_{t=v..n} 2^(t-1)
    "_kernels.dbd_score_pair": lambda a, k: (1 << _arg(a, k, 2, "n"))
                                            - (1 << (_arg(a, k, 3, "v") - 1)),
    "fft.fft": lambda a, k: len(_arg(a, k, 0, "x")),
    "fft.cyclic_convolution": lambda a, k: len(_arg(a, k, 0, "a")),
    "cbc_dbd.construct_cbc_dbd": lambda a, k: _arg(a, k, 0, "n"),
    # greedy components chosen: s - 1
    "cbc.construct_korobov_cbc": lambda a, k: _arg(a, k, 1, "s") - 1,
    "cbc.construct_standard_cbc": lambda a, k: _arg(a, k, 1, "s") - 1,
}


def metric_name(span_name: str) -> str:
    """`_kernels.gather_score` -> `kernels.gather_score`: metric names start
    with a letter."""
    return span_name.lstrip("_")


def latgen_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "latgen" or name.startswith("latgen."))]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, work]
        self.op = None  # id of the op now running, set by the caller
        self.absent = []
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            w = None
            if work is not None:
                try:
                    w = work(args, kwargs)
                except (IndexError, KeyError, TypeError):
                    pass
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, w]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        self.absent = []
        for layer, fns in TARGETS.items():
            mod = sys.modules.get("latgen." + layer)
            for fn_name in fns:
                fn = getattr(mod, fn_name, None)
                if fn is None:
                    self.absent.append("%s.%s" % (layer, fn_name))
                else:
                    wrappers[id(fn)] = (fn, self._wrap("%s.%s" % (layer, fn_name), fn))
        for mod in latgen_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        while self._patched:
            mod, attr, val = self._patched.pop()
            setattr(mod, attr, val)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def summarize(spans):
    """name -> {calls, busy_s, self_s, work}.

    busy is the summed span duration; self subtracts the part covered by
    the span's direct children.
    """
    child = defaultdict(float)
    for name, start, end, parent, _op, _w in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0})
    for i, (name, start, end, _parent, _op, w) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        agg["busy_s"] += end - start
        agg["self_s"] += end - start - child[i]
        agg["work"] += w or 0
    return dict(out)


def layer_metrics(spans, passes: int):
    """Every per-layer metric but the overhead ratio, per traced pass."""
    summary = summarize(spans)
    m = {}
    for layer, fns in TARGETS.items():
        for fn in fns:
            agg = summary.get("%s.%s" % (layer, fn), {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            base = metric_name("%s.%s" % (layer, fn))
            m[base + ".calls"] = agg["calls"] / passes
            m[base + ".busy_s"] = agg["busy_s"] / passes
            m[base + ".self_s"] = agg["self_s"] / passes

    def work(name):
        return summary.get(name, {}).get("work", 0)

    m["kernels.dbd_score_pair.slots"] = work("_kernels.dbd_score_pair") / passes
    m["fft.cyclic_convolution.points"] = work("fft.cyclic_convolution") / passes
    m["fft.fft.points"] = work("fft.fft") / passes
    components = work("cbc.construct_korobov_cbc") + work("cbc.construct_standard_cbc")
    gathers = summary.get("_kernels.gather_score", {}).get("calls", 0)
    m["kernels.gather_score.per_component"] = gathers / components if components else 0.0
    m["cbc_dbd.scaling_n16_n15"] = dbd_scaling(spans, 16, 15)
    return m


def dbd_scaling(spans, hi: int, lo: int) -> float:
    """Median construct_cbc_dbd time at n = hi over that at n = lo; 0 when
    the workload builds no such pair."""
    t = defaultdict(list)
    for name, start, end, _p, _op, n in spans:
        if name == "cbc_dbd.construct_cbc_dbd":
            t[n].append(end - start)
    if not t[hi] or not t[lo]:
        return 0.0
    return statistics.median(t[hi]) / statistics.median(t[lo])


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("scaling_n16_n15", "overhead_ratio")):
        return "ratio"
    return "count"


def metric_names():
    """The names `layer_metrics` reports, plus the overhead ratio."""
    return list(layer_metrics([], 1)) + ["trace.overhead_ratio"]

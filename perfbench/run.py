"""latgen benchmark: drives `latgen.cli.main(argv)` in-process, one client,
closed loop, and checks every output.

    python3 perfbench/run.py --workload dbd-pow2 --seed 1 --seconds 25 --trace 0

--workload is one of dbd-pow2, cbc-fft, sweep-small, or all. With --trace 0
the run measures set-up time, runs one untimed warm-up pass and then whole
timed passes for about --seconds, and reports the end-to-end metrics. With
--trace 1 it alternates untraced and traced passes and reports per-layer
metrics from the traced ones. The last line of stdout is one JSON
object: correct, attempted, failed, metrics. The exit code is 0 when every
output passed its check, 1 when one did not, and 2 when the run could not
start (for instance when latgen would not be imported from this checkout).
"""

import argparse
import contextlib
import csv
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

import spans
from workloads import NAMES, make_workload

# checks imports numpy, so it is imported only after main() pins BLAS threads.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fresh `python -m latgen.cli construct` calls per set-up measurement.
SETUP_REPEATS = 5
#: Pinned to one thread for every process the benchmark runs.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "construct_s_p50": "s", "eval_s_p50": "s", "row_s_p50": "s",
    "row_s_p90": "s", "ops_per_s": "1/s", "ok_ratio": "ratio", "peak_rss_mb": "MB",
}


class CannotRun(Exception):
    pass


@dataclass
class OpOut:
    rc: object  # exit code, or "exception" when the call raised
    stdout: str
    text: str  # vector file written or read, or CSV written
    seconds: float


# ----------------------------------------------------------------- statistics

def percentile(values, p: int):
    """Nearest-rank p-th percentile: the smallest value with at least p% of
    the values at or below it, so always one of the values (an interpolated
    one could fall in the gap between fast and slow op kinds). Returns
    (value, count, count of values above its rank)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    rank = max(1, -(-p * len(xs) // 100))
    return xs[rank - 1], len(xs), len(xs) - rank


def kind_percentile(samples, p: int):
    """p-th percentile over op kinds of each kind's median time.

    samples maps an op key to its times, one per pass. Taking the median per
    kind first keeps one slow repeat, or a change in the number of passes,
    from moving the result across kinds. Returns (value, samples, kinds).
    """
    value, kinds, _ = percentile([statistics.median(v) for v in samples.values()], p)
    return value, sum(len(v) for v in samples.values()), kinds


# --------------------------------------------------------------- running ops

def import_checkout_latgen(root: str = ROOT):
    """Import latgen from root/src, and refuse any other copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "latgen", "__init__.py")):
        raise CannotRun("no latgen sources under %s" % src)
    sys.path.insert(0, src)
    try:
        import latgen
        import latgen.cli
    except ImportError as exc:
        raise CannotRun("cannot import latgen from %s: %s" % (src, exc))
    got = os.path.realpath(latgen.__file__)
    if not got.startswith(os.path.realpath(src) + os.sep):
        raise CannotRun("latgen imported from %s, not from %s" % (got, src))
    return latgen


def call_cli(argv):
    """One CLI call in this process; returns (exit code, captured stdout)."""
    import latgen.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = latgen.cli.main(list(argv))
    return rc, buf.getvalue()


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def run_pass(workload, tracer=None, tamper=None):
    """Run every op of one pass in order; returns [(op, OpOut)].

    Only the CLI call is timed. tamper(op, out) -> out replaces an output
    before it is checked (the benchmark's tests use it as a negative control).
    """
    results = []
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = i
        if op.kind != "error" and os.path.exists(op.path):
            os.remove(op.path)  # a stale file must not pass for this call's output
        t0 = time.perf_counter()
        try:
            rc, stdout = call_cli(op.argv)
        except Exception:  # an op that crashes is a failed op, not a crashed run
            traceback.print_exc()
            rc, stdout = "exception", ""
        dt = time.perf_counter() - t0
        out = OpOut(rc, stdout, _read(op.path), dt)
        if tamper is not None:
            out = tamper(op, out)
        results.append((op, out))
    return results


def run_checks(checker, outputs):
    """[(op key, reason)] for every output that fails its check."""
    failures = []
    for op, out in outputs:
        reason = checker.check(op, out)
        if reason is not None:
            failures.append((op.key, reason))
    return failures


def measure_setup(root: str, work: str):
    """Wall times of fresh `python -m latgen.cli construct` runs at tiny size."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    out = os.path.join(work, "setup.txt")
    argv = [sys.executable, "-m", "latgen.cli", "construct", "--algo", "cbc-dbd",
            "--n", "4", "--s", "3", "--weights", "product:1/j^2", "--out", out]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or not _read(out).startswith("# latgen v1"):
            raise CannotRun("set-up run failed: %s" % proc.stderr.decode(errors="replace"))
    return times


# --------------------------------------------------------------- provenance

def blas_threads():
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def git_commit(root: str):
    """HEAD of root/.git, read without git; None outside a repository."""
    head = _read(os.path.join(root, ".git", "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(os.path.join(root, ".git", ref)).strip()
    if sha:
        return sha
    for line in _read(os.path.join(root, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def provenance(root: str):
    import latgen
    import numpy
    import scipy

    return {"backend": latgen.BACKEND, "latgen": latgen.__version__,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "commit": git_commit(root)}


# ------------------------------------------------------------------- digest

def vector_digest(outputs):
    """sha256 over each op's vector (construct) or error value (sweep, which
    writes no vector), in key order, from the first output of each op."""
    from checks import CheckFailed, parse_vector

    lines = {}
    for op, out in outputs:
        if op.key in lines or op.kind == "error":
            continue
        try:
            if op.kind == "construct":
                lines[op.key] = " ".join(map(str, parse_vector(out.text)[1]))
            else:
                lines[op.key] = next(csv.DictReader(io.StringIO(out.text)))["wce"]
        except (CheckFailed, ValueError, KeyError, StopIteration):
            lines[op.key] = "unreadable"
    text = "".join("%s %s\n" % kv for kv in sorted(lines.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def digest_status(workload: str, seed: int, digest: str) -> str:
    try:
        with open(os.path.join(HERE, "digests.json")) as fh:
            ref = json.load(fh).get(workload, {}).get(str(seed))
    except (OSError, ValueError):
        ref = None
    return "no reference" if ref is None else ("same" if ref == digest else "changed")


# ------------------------------------------------------------------ metrics

def end_to_end(timed, setup_times, failures, attempted, peak_mb):
    groups = defaultdict(lambda: defaultdict(list))
    for op, out in timed:
        groups["row"][op.key].append(out.seconds)
        if op.kind in ("construct", "error"):
            groups["construct" if op.kind == "construct" else "eval"][op.key].append(out.seconds)
        else:  # a sweep row splits its own time; take the split it reports
            try:
                row = next(csv.DictReader(io.StringIO(out.text)))
                groups["construct"][op.key].append(float(row["construct_seconds"]))
                groups["eval"][op.key].append(float(row["eval_seconds"]))
            except (ValueError, KeyError, StopIteration):
                pass
    m, notes = {}, {}
    for name, group, p in (("construct_s_p50", "construct", 50), ("eval_s_p50", "eval", 50),
                           ("row_s_p50", "row", 50), ("row_s_p90", "row", 90)):
        value, n, kinds = kind_percentile(groups[group], p)
        m[name] = value
        notes[name] = "p%d over %d op kinds, %d samples" % (p, kinds, n)
    m["setup_s"] = statistics.median(setup_times)
    notes["setup_s"] = "median of %d fresh processes" % len(setup_times)
    m["ops_per_s"] = len(timed) / sum(out.seconds for _, out in timed)
    notes["ops_per_s"] = "%d timed CLI calls" % len(timed)
    m["ok_ratio"] = (attempted - len(failures)) / attempted
    notes["ok_ratio"] = "%d of %d ops passed their checks" % (attempted - len(failures), attempted)
    m["peak_rss_mb"] = peak_mb
    notes["peak_rss_mb"] = "ru_maxrss after the timed passes"
    return {k: {"value": m[k], "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}, notes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- run

def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """One workload at one seed; returns the result record."""
    from checks import Checker

    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = os.path.join(base, "run-%d-%s" % (os.getpid(), name))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        wl = make_workload(name, seed, work)
        record = {"workload": name, "seed": seed, "trace": int(trace),
                  "ops_per_pass": len(wl.ops)}
        setup_times = [] if trace else measure_setup(ROOT, work)
        outputs = run_pass(wl)  # warm-up, untimed
        timed, pass_times, traced_times = [], [], []
        tracer = spans.Tracer() if trace else None
        t0 = time.perf_counter()
        last = 0.0  # wall time of the last pass (or untraced and traced pair)
        # Whole passes only: start another while it ends nearer to `seconds`
        # than stopping now would.
        while (time.perf_counter() - t0 + last / 2 < seconds or len(timed) < wl.min_rows
               or (trace and not traced_times)):
            t1 = time.perf_counter()
            res = run_pass(wl)
            timed += res
            pass_times.append(sum(o.seconds for _, o in res))
            if trace:
                with tracer:
                    res = run_pass(wl, tracer)
                outputs += res
                traced_times.append(sum(o.seconds for _, o in res))
            last = time.perf_counter() - t1
        peak = peak_rss_mb()
        outputs += timed
        failures = run_checks(Checker(wl), outputs)
        record.update(attempted=len(outputs), failures=failures, passes=len(pass_times),
                      pass_seconds=pass_times, traced_pass_seconds=traced_times,
                      digest=vector_digest(outputs))
        record["digest_status"] = digest_status(name, seed, record["digest"])
        if trace:
            lm = spans.layer_metrics(tracer.spans, len(traced_times))
            lm["trace.overhead_ratio"] = (statistics.median(traced_times)
                                          / statistics.median(pass_times))
            record["metrics"] = {k: {"value": v, "unit": spans.unit_of(k)} for k, v in lm.items()}
            record["notes"] = {}
            record["absent"] = tracer.absent
            record["spans"] = tracer.spans
        else:
            record["metrics"], record["notes"] = end_to_end(
                timed, setup_times, failures, len(outputs), peak)
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def save_record(record):
    out = os.path.join(ROOT, ".perfbench_work", "results")
    os.makedirs(out, exist_ok=True)
    stem = os.path.join(out, "%s-seed%d-trace%d" % (record["workload"], record["seed"],
                                                    record["trace"]))
    spans_list = record.pop("spans", None)
    if spans_list is not None:
        with open(stem + ".spans.jsonl", "w") as fh:
            for sp in spans_list:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op", "work"),
                                             sp))) + "\n")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    return stem + ".json"


def report(record):
    w = record["workload"]
    print("workload %s seed %d: %d ops, %d timed passes, %d traced passes, %d failed"
          % (w, record["seed"], record["attempted"], record["passes"],
             len(record["traced_pass_seconds"]), len(record["failures"])))
    for key, reason in record["failures"]:
        print("FAILED %s: %s" % (key, reason))
    print("vector digest %s (%s)" % (record["digest"], record["digest_status"]))
    if record.get("absent"):
        print("absent trace targets: %s" % ", ".join(record["absent"]))
    for name, m in record["metrics"].items():
        note = record["notes"].get(name, "")
        print("  %-40s %.6g %s%s" % (name, m["value"], m["unit"], "  (%s)" % note if note else ""))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.pop("LATGEN_THREADS", None)
    # Before numpy loads: a threaded BLAS spins on the short dot products of
    # the numpy backend, which doubles their time and swings with load.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_checkout_latgen()
    except CannotRun as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    prov = provenance(ROOT)
    print("provenance %s" % json.dumps(prov))
    names = NAMES if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except CannotRun as exc:
            print("perfbench: %s" % exc, file=sys.stderr)
            return 2
        record["provenance"] = prov
        report(record)
        print("record written to %s" % save_record(record))
        records.append(record)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(len(r["failures"]) for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], k): v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set-up, then the timed phase of one workload.

Started by ``run.py`` with BLAS threads already capped in the environment.
Prints ``READY`` as its first line when set-up ends (imports, inputs,
files, oracles, one warm-up job per kind), then ``PROBE <scale>`` from a
short burst of the reference probe; ``--setup-only`` exits there.
Otherwise it runs whole cycles of jobs, one at a time, until ``--seconds``
have passed and prints one JSON line with the measurements.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    import cyclica

    src = (ROOT / "src").resolve()
    if src not in Path(cyclica.__file__).resolve().parents:
        raise ImportError(f"cyclica imported from {cyclica.__file__}, not {src}")


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def corrupt(out):
    """A wrong answer of the same shape, for checking the checks."""
    from cyclica.orbit import OrbitReport
    from cyclica.verdicts import Verdict

    if isinstance(out, Verdict):
        return replace(out, status="Corrupted")
    if isinstance(out, OrbitReport):
        return replace(out, residuals=out.residuals - 1.0)
    if isinstance(out, tuple):
        return (corrupt(out[0]),) + out[1:]
    if isinstance(out, (bool, int)):
        return not out if isinstance(out, bool) else out + 1
    if hasattr(out, "verdict"):  # CyclicityReport
        return replace(out, verdict=corrupt(out.verdict))
    raise TypeError(f"no corruption for {type(out).__name__}")


class Probe:
    """Fixed reference work outside the library, timed after every job.

    The machine's speed drifts by up to a quarter over minutes, for Python
    and BLAS alike.  Dividing job times by probe times measured under the
    same drift gives figures that compare across runs.  The probe mixes a
    pure-Python loop with a two-thread BLAS product, like the jobs do.
    """

    NOMINAL_S = 2e-3  # normalized figures read as if the probe took 2 ms
    SHARE = 0.2  # probe time after each job, as a share of the job's time

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
        self.times = []
        self.job_scales = []  # per job: its probes' mean time / nominal

    def _once(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        self.matrix @ self.matrix
        return time.perf_counter() - t0

    def after_job(self, job_s):
        first = len(self.times)
        spent = 0.0
        while spent < self.SHARE * job_s or not spent:
            self.times.append(self._once())
            spent += self.times[-1]
        self.job_scales.append(spent / (len(self.times) - first) / self.NOMINAL_S)
        return spent

    def burst_scale(self, seconds=0.2):
        """Mean probe time over about ``seconds``, relative to nominal."""
        times = []
        while sum(times) < seconds:
            times.append(self._once())
        return statistics.fmean(times) / self.NOMINAL_S


class Phase:
    """Latencies and outcomes of the jobs run in one timed phase."""

    def __init__(self):
        self.latencies = []
        self.traced = []  # per job: did it run under the tracer
        self.failed = 0
        self.endpoint_mismatch = 0
        self.curve_mismatch = 0
        # wall time of each cycle without the probe, keyed by "traced"
        self.cycle_walls = {False: [], True: []}
        self.probe = Probe()
        self.wall = 0.0


def run_phase(cycle, seconds, tracer=None, corrupt_first=False):
    """Whole cycles until ``seconds`` have passed, with the reference probe
    after each job.  With a tracer, traced and untraced cycles alternate and
    end on a complete pair, so the tracing overhead is measured under the
    same machine load as the traced cycles."""
    phase = Phase()
    walls = phase.cycle_walls
    clock = time.perf_counter
    t0 = clock()
    while True:
        traced = tracer is not None and len(walls[True]) <= len(walls[False])
        if traced:
            tracer.install()
        tc = clock()
        probe_s = 0.0
        for pos, job in enumerate(cycle):
            if traced:
                tracer.job = len(phase.latencies)
            ts = clock()
            try:
                out = job.run()
                te = clock()
                if corrupt_first and pos == 0:
                    out = corrupt(out)
                ok = job.check(out)
                if job.mismatch is not None:
                    endpoint, curve = job.mismatch(out)
                    phase.endpoint_mismatch += bool(endpoint)
                    phase.curve_mismatch += bool(curve)
            except Exception:
                te = clock()
                ok = False
                if phase.failed < 3:
                    traceback.print_exc()
            phase.latencies.append(te - ts)
            phase.traced.append(traced)
            phase.failed += not ok
            probe_s += phase.probe.after_job(te - ts)
        walls[traced].append(clock() - tc - probe_s)
        if traced:
            tracer.uninstall()
        paired = tracer is None or len(walls[True]) == len(walls[False])
        if clock() - t0 >= seconds and paired:
            break
    phase.wall = clock() - t0
    return phase


def tail(latencies):
    """Highest listed percentile with at least 10 samples beyond it."""
    n = len(latencies)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - p / 100) >= 10:
            cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
            return p, cuts[int(round(p * 10)) - 1]
    return None, max(latencies)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt the first job's output in every cycle")
    args = ap.parse_args(argv)
    os.environ.pop("CYCLICA_SEED", None)  # it would override CLI seeds

    _import_library()
    import numpy as np
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        rng = np.random.default_rng(args.seed)
        wl = WORKLOADS[args.workload](rng, args.size, workdir)
        cycle = [wl.cycle[i] for i in rng.permutation(len(wl.cycle))]
        for job in wl.warmup:
            if not job.check(job.run()):
                raise RuntimeError(f"warm-up job {job.kind} failed its check")
        print("READY", flush=True)
        # the machine's speed at the end of set-up, for normalizing setup_s
        print(f"PROBE {Probe().burst_scale():.6f}", flush=True)
        if args.setup_only:
            return 0

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        phase = run_phase(cycle, args.seconds, tracer, args.corrupt)
        env = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(phase.latencies)
    # timing figures come from untraced jobs only; checks count every job
    timed = [i for i, traced in enumerate(phase.traced) if not traced]
    lat_ms = [phase.latencies[i] * 1e3 for i in timed]
    scales = [phase.probe.job_scales[i] for i in timed]
    passed = 1 - phase.failed / n
    p_tail, v_tail = tail(lat_ms)
    info = {
        "env": env,
        "jobs": n,
        "cycles": sum(map(len, phase.cycle_walls.values())),
        "cycle_jobs": len(cycle),
        "timed_s": phase.wall,
        "job_tail": {"percentile": p_tail, "ms": v_tail, "n": len(lat_ms)},
        "endpoint_mismatch": phase.endpoint_mismatch,
        "curve_mismatch": phase.curve_mismatch,
        "report_sha256": wl.digest() if wl.digest else None,
    }
    raw = {
        "jobs_per_s": (len(lat_ms) * passed / sum(lat_ms) * 1e3, "1/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_tail_ms": (v_tail, "ms"),
        "ref_probe_ms": (statistics.fmean(phase.probe.times) * 1e3, "ms"),
        "failed_ratio": (phase.failed / n, "1"),
        "endpoint_mismatch_ratio": (phase.endpoint_mismatch / n, "1"),
        "curve_mismatch_ratio": (phase.curve_mismatch / n, "1"),
    }
    if tracer is None:
        metrics = {
            # each job's time over its own probes' time, summed: drift
            # within the run cancels.  A single job's probes are too few to
            # divide its own latency by, so the median uses the median scale.
            "jobs_per_s_norm": (
                len(lat_ms) * passed / sum(t / s for t, s in zip(lat_ms, scales)) * 1e3,
                "1/s"),
            "job_p50_ms_norm": (statistics.median(lat_ms) / statistics.median(scales), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        info["extra"] = {k: v[0] for k, v in raw.items()}
    else:
        traced_jobs = n - len(timed)  # as many as untraced: cycles pair up
        metrics = tracer.layer_metrics(traced_jobs)
        metrics.update(raw)
        traced, untraced = phase.cycle_walls[True], phase.cycle_walls[False]
        metrics["trace.timed_s"] = (sum(traced) / traced_jobs, "s/job")
        metrics["trace.overhead_s"] = ((sum(traced) - sum(untraced)) / traced_jobs, "s/job")
        spans = OUT / f"spans-{args.workload}.jsonl"  # the latest traced run
        tracer.write(spans)
        info["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps({
        "attempted": n,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

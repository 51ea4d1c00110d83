"""cyclica benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload orbit-disc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root; the library is imported from ``src/``.  One
client submits one job at a time and waits for its result.  BLAS threads
are capped at the number of usable cores before numpy is imported, and
``CYCLICA_SEED`` is cleared because it would override the CLI's seed.

Workloads (see ``workloads.py``):

* ``orbit-disc``: ``orbit_project`` on dyadic and merged-pair series,
  bases 2/4/16, budgets 64-1024, checked against an LSMR oracle.
* ``orbit-polydisc``: the criterion-8 pipeline, ending in
  ``one_in_orbit_check`` at the (2^8, 3^4) box.
* ``certify-mix``: tail-span sweeps, decompositions, power shifts, residue
  crosschecks, stacked and block criteria, factorizations and CLI
  subcommands.

``--trace 0`` measures the end-to-end metrics.  The machine's speed
drifts by up to a quarter over minutes, so the timings are divided by
those of a reference probe run under the same drift (``worker.Probe``):
they read as if the probe took 2 ms.  Set-up (process start to the first
timed job) is repeated in five processes, each followed by a short probe
burst, and ``setup_s`` is the median of the normalized set-up times; the
timed phase runs in the last process.  ``jobs_per_s_norm`` and
``job_p50_ms_norm`` divide job times by those of the probe run right
after every job.  The raw ``jobs_per_s``, ``job_p50_ms`` and
``job_tail_ms`` are printed as comments.

``--trace 1`` runs one process whose cycles alternate between traced and
untraced: traced cycles wrap every public function of each ``cyclica``
module (``tracing.py``) and give calls and self time per module and the
layer counters, per traced job; the untraced ones give the raw timing
figures and the tracing overhead under the same machine load.  Spans are
written to ``perfbench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs every
workload at a tiny size, asserts that every metric named in
``BENCHMARK.json`` is emitted with its unit, and that a corrupted output is
counted as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("orbit-disc", "orbit-polydisc", "certify-mix")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _worker_env():
    env = dict(os.environ)
    env.pop("CYCLICA_SEED", None)
    env["PYTHONHASHSEED"] = "0"  # same set and dict layouts in every run
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        env[var] = threads
    return env


def _spawn(args, extra, deadline):
    """Start a worker; return (seconds from start to READY, its probe scale,
    result or None).  The worker is killed if still running at the deadline."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        probe = proc.stdout.readline().split()
        out = proc.stdout.read()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode == -signal.SIGKILL:
        raise BenchError("worker killed at the time limit")
    if proc.returncode != 0 or first.strip() != "READY" or probe[:1] != ["PROBE"]:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    lines = out.strip().splitlines()
    return ready, float(probe[1]), (json.loads(lines[-1]) if lines else None)


def run_workload(args, extra=()):
    """All processes of one run; returns the result object to print."""
    deadline = time.monotonic() + DEADLINE_S
    extra = list(extra)
    samples = []  # (set-up seconds, probe scale) per process
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(_spawn(args, extra + ["--setup-only"], deadline)[:2])
    ready, scale, res = _spawn(args, extra, deadline)
    samples.append((ready, scale))
    if res is None:
        raise BenchError("worker printed no result")
    metrics = res["metrics"]
    if not args.trace:
        setup_s = statistics.median(t / s for t, s in samples)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    info = res["info"]
    info["setup_samples"] = samples
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}, info


def _print_run(result, info, args):
    env = info["env"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{info['jobs']} jobs in {info['cycles']} cycles of {info['cycle_jobs']}, "
          f"timed {info['timed_s']:.3f} s, set-up samples (s / probe scale) "
          + ", ".join(f"{t:.3f}/{s:.3f}" for t, s in info["setup_samples"]))
    print(f"# env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS {env['blas']} with {env['blas_threads']} threads "
          f"(env {env['blas_threads_env']}), nproc {env['nproc']}")
    t = info["job_tail"]
    label = f"p{t['percentile']:g}" if t["percentile"] else "max (too few jobs)"
    print(f"# job_tail_ms: {label} = {t['ms']:.3f} ms, n = {t['n']}")
    print(f"# endpoint mismatches {info['endpoint_mismatch']}, "
          f"curve mismatches {info['curve_mismatch']} of {info['jobs']} jobs")
    if info.get("report_sha256"):
        print(f"# report_sha256: {info['report_sha256']}")
    if info.get("spans_file"):
        print(f"# spans: {info['spans_file']}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for name, value in info.get("extra", {}).items():
        print(f"# {name} = {value:.6g}")


def smoke():
    """Every workload at a tiny size, traced and untraced, plus corruption."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=0.2,
                                      trace=trace)
            result, _ = run_workload(args, ["--size", "smoke"])
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == units[trace], (workload, trace, got.items() ^ units[trace].items())
            assert result["correct"] and result["failed"] == 0, (workload, result)
        args = argparse.Namespace(workload=workload, seed=7, seconds=0.2, trace=1)
        result, _ = run_workload(args, ["--size", "smoke", "--corrupt"])
        assert result["failed"] > 0 and not result["correct"], (workload, result)
        assert result["metrics"]["failed_ratio"]["value"] > 0, workload
        print(f"smoke {workload}: ok")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cyclica" / "__init__.py").is_file():
        print(f"error: no cyclica sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        result, info = run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_run(result, info, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner for loopdeform: time to verdict on four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--selfcheck]

All load comes from this one process.  Each pass of a workload runs in a
fresh child interpreter (perfbench/child.py), one at a time, so no
process-global memo carries from one pass to the next.

* ``--trace 0`` repeats untraced passes for about S seconds (at least one),
  adds set-up-only children until there are five set-up samples, and reports
  the end-to-end metrics as medians over passes.
* ``--trace 1`` runs one untraced and one traced pass and reports the
  per-layer metrics of the traced pass, with ``trace.overhead_frac``.
* ``--selfcheck`` runs two traced passes of each workload and fails unless
  their counts and verdict digests are identical.

Every verdict is checked against perfbench/expected/<workload>.json.  The
last line of output is one JSON object with the keys correct, attempted,
failed and metrics; a run with any error exits 1.  Without the package
source under src/ the runner exits 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))

WORKLOADS = ("coproduct-hom", "twist-series", "random-soundness", "cli-sweep")
MIN_SETUP_SAMPLES = 5
#: one invocation must end within 180 s; children get what is left
DEADLINE_S = 170

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "max_job_s": "s",
             "decided_frac": "ratio", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def machine_note(nproc):
    """Python version, processors and a fixed pure-Python Fraction loop, so
    that results from different machines can be compared."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 50001):
        total += Fraction(i % 13, i % 17 + 1)
    return {"python": sys.version.split()[0],
            "nproc": nproc,
            "fraction_calib_s": time.perf_counter() - t0}


def pin_to_one_cpu():
    """Run this process and every child on one CPU, so that the speed probes
    of speed.py measure the CPU that does the work."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass  # unpinned, the probes still sample the CPU of the child


def run_child(workload, seed, traced, started, setup_only=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    os.makedirs(TMP, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload,
           str(seed), "1" if traced else "0", repr(time.monotonic()), TMP]
    if setup_only:
        cmd.append("--setup-only")
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("out of time before starting a pass")
    # a session of its own, so that a CLI command the child forked goes
    # down with it
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=left)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError("%s pass exceeded the %d s deadline"
                                 % (workload, DEADLINE_S)) from None
            raise
    if proc.returncode != 0:
        raise BenchError("%s child exited %d: %s" % (
            workload, proc.returncode, stderr.decode()[-2000:]))
    return json.loads(stdout.decode().strip().splitlines()[-1])


def untraced_run(workload, seed, seconds, started):
    passes = []
    while True:
        passes.append(run_child(workload, seed, False, started))
        elapsed = time.monotonic() - started
        typical = statistics.median(p["wall_raw_s"] + p["setup_raw_s"]
                                    for p in passes)
        if elapsed + typical > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_child(workload, seed, False, started,
                                setup_only=True)["setup_s"])
    return passes, setups


def summarize(passes):
    jobs = [j for p in passes for j in p["jobs"]]
    items = sum(j["items"] for j in jobs)
    return {
        "attempted": len(jobs),
        "failed": sum(1 for j in jobs if j["errors"]),
        "items": items,
        "decided": sum(j["decided"] for j in jobs),
        "errors": sorted({"%s: %s" % (j["name"], e)
                          for j in jobs for e in j["errors"]}),
        "digests": sorted({p["digest"] for p in passes}),
    }


def end_to_end(passes, setups):
    s = summarize(passes)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "max_job_s": statistics.median(max(j["s"] for j in p["jobs"])
                                       for p in passes),
        "decided_frac": s["decided"] / s["items"] if s["items"] else 0.0,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def bench(workload, seed, seconds, traced):
    """One run of one workload: (human-readable lines, result object)."""
    started = time.monotonic()
    if traced:
        plain = run_child(workload, seed, False, started)
        passes = [plain, run_child(workload, seed, True, started)]
        metrics = dict(passes[1]["per_layer"])
        metrics["trace.overhead_frac"] = passes[1]["wall_s"] / plain["wall_s"]
        units = _per_layer_units()
        units["trace.overhead_frac"] = "ratio"
        lines = ["%s traced pass (seed %d): wall %.3f s traced, %.3f s "
                 "untraced" % (workload, seed, passes[1]["wall_s"],
                               plain["wall_s"])]
    else:
        passes, setups = untraced_run(workload, seed, seconds, started)
        metrics = end_to_end(passes, setups)
        units = E2E_UNITS
        lines = ["%s (seed %d): %d passes, %d set-up samples, medians; "
                 "as measured: wall %.4g s, set-up %.4g s; slow-mode share "
                 "%.2f" % (workload, seed, len(passes), len(setups),
                           statistics.median(p["wall_raw_s"] for p in passes),
                           statistics.median(p["setup_raw_s"] for p in passes),
                           statistics.median(p["slow_share"] for p in passes))]
    s = summarize(passes)
    correct = s["failed"] == 0 and len(s["digests"]) == 1
    for name, value in metrics.items():
        base = ""
        if name == "decided_frac":
            base = " (base: %d items)" % s["items"]
        lines.append("  %-42s %.6g %s%s" % (name, value, units[name], base))
    lines.append("  %-42s %.6g ratio (base: %d jobs)" % (
        "error_frac", s["failed"] / s["attempted"], s["attempted"]))
    for e in s["errors"]:
        lines.append("  ERROR %s" % e)
    if len(s["digests"]) != 1:
        lines.append("  ERROR verdict digests differ between passes: %s"
                     % s["digests"])
    result = {"correct": correct, "attempted": s["attempted"],
              "failed": s["failed"] if correct else max(s["failed"], 1),
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in metrics.items()}}
    return lines, result


def _per_layer_units():
    import tracing  # needs loopdeform importable; only the traced path does

    return {n: u for n, (u, _) in tracing.PER_LAYER.items()}


def selfcheck(workloads, seed):
    """Two traced passes per workload: identical counts and digests."""
    import tracing

    ok = True
    for workload in workloads:
        started = time.monotonic()
        a, b = (run_child(workload, seed, True, started) for _ in range(2))
        diff = [n for n in tracing.COUNT_METRICS
                if a["per_layer"][n] != b["per_layer"][n]]
        same = not diff and a["digest"] == b["digest"]
        ok = ok and same
        print("selfcheck %-16s %s: %d counts compared, digest %s%s" % (
            workload, "identical" if same else "DIFFERENT",
            len(tracing.COUNT_METRICS),
            "equal" if a["digest"] == b["digest"] else "DIFFERENT",
            "; differing: %s" % diff if diff else ""))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "loopdeform", "__init__.py")):
        print("perfbench: no loopdeform source under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # tracing imports loopdeform for its units
    nproc = len(os.sched_getaffinity(0))
    pin_to_one_cpu()
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.selfcheck:
            return selfcheck(chosen, args.seed)
        note = machine_note(nproc)
        code = 0
        for workload in chosen:
            lines, result = bench(workload, args.seed, args.seconds,
                                  args.trace == 1)
            print("machine: %s" % json.dumps(note, sort_keys=True))
            print("\n".join(lines))
            print(json.dumps(result, sort_keys=True))
            sys.stdout.flush()
            code = code or (0 if result["correct"] else 1)
        return code
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(TMP))
        except OSError:
            pass  # another runner still uses it


if __name__ == "__main__":
    sys.exit(main())

"""One pass of one workload, in a fresh interpreter.

Usage (started by run.py, one child at a time):

    python3 perfbench/child.py WORKLOAD SEED TRACE SPAWNED_AT TMPDIR \
        [--setup-only]

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process, so set-up time includes interpreter start and ``import loopdeform``.
Prints one JSON object: set-up and wall time (in reference seconds, see
speed.py, and as measured), per-job times and verdicts, a digest of every
verdict, peak RSS and, when TRACE is 1, the per-layer metrics.
"""

import hashlib
import json
import resource
import sys
import time

from speed import SpeedClock


def main():
    workload, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    spawned_at, tmp = float(sys.argv[4]), sys.argv[5]
    setup_only = sys.argv[6:] == ["--setup-only"]
    clock = SpeedClock()
    clock.start()

    import loopdeform  # noqa: F401  (import time is part of set-up)

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    # imported after the tracer so that its by-name imports see the wrappers
    import workloads

    ctx = workloads.Context(tmp, tracer)
    jobs = workloads.WORKLOADS[workload](seed, ctx)
    setup_end = time.monotonic()
    if setup_only:
        clock.stop()
        print(json.dumps({"setup_s": clock.scaled(spawned_at, setup_end),
                          "setup_raw_s": setup_end - spawned_at}))
        return 0

    expected = workloads.load_expected(workload)
    ran = []
    for job in jobs:
        if tracer is not None:
            tracer.job_begin()
        t0 = time.monotonic()
        try:
            items, extra = job.run()
            error = None
        except Exception as exc:  # a raising job is a counted error
            items, extra, error = [], {}, "%s: %s" % (type(exc).__name__, exc)
        t1 = time.monotonic()
        if tracer is not None:
            tracer.job_end(job.name)
        ran.append((job, (t0, t1), items, extra, error))
    wall_end = time.monotonic()
    clock.stop()
    out = {"setup_s": clock.scaled(spawned_at, setup_end),
           "wall_s": clock.scaled(setup_end, wall_end),
           "setup_raw_s": setup_end - spawned_at,
           "wall_raw_s": wall_end - setup_end,
           "slow_share": clock.slow_share()}

    digest = hashlib.sha256()
    out["jobs"] = []
    for job, (t0, t1), items, extra, error in ran:
        errors = [error] if error else workloads.check(
            expected.get(job.name), items, extra)
        digest.update(json.dumps([job.name, items, extra, error],
                                 sort_keys=True).encode())
        out["jobs"].append({
            "name": job.name, "s": clock.scaled(t0, t1), "items": len(items),
            "decided": sum(v in workloads.DECIDED for _, v, _ in items),
            "errors": errors})
    out["digest"] = digest.hexdigest()
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = rss_kb / 1024
    if tracer is not None:
        out["per_layer"] = tracing.per_layer(
            tracing.merge([tracer.raw()] + ctx.cli_traces))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

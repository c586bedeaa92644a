"""One workload run in a fresh interpreter, started by ``run.py``.

    python3 bench/child.py JOB.json

The job file names the scenario specs, the output directory, whether to
trace and where to write the result.  Each ``cli.run`` call is timed on
its own; ``elapsed_s`` also covers importing ``ifsmeasure``, which makes it
the set-up time when the specs have empty command lists.  The process is
pinned to one CPU, whose speed ``hostspeed`` measures: with ``probe`` set
to "during" from a thread that samples it from the first call to the
last, with "after" once the timed part has ended.  With ``trace`` set, the
spans of ``tracing.Tracer`` are kept in memory and written out with the
result when the run ends.
"""

import json
import os
import resource
import sys
import time


def _peak_rss_kb() -> int:
    """Peak resident set of this process.

    ``ru_maxrss`` would also count the parent's resident set at the time
    of exec, so the kernel's high-water mark of this image comes first.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(job_path: str) -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.perf_counter()
    with open(job_path) as fh:
        job = json.load(fh)
    import ifsmeasure
    from ifsmeasure import cli

    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(ifsmeasure)
    probe = None
    if job["probe"] == "during":
        import hostspeed
        probe = hostspeed.Probe()
    calls = []
    try:
        for spec in job["specs"]:
            t0 = time.perf_counter()
            code, report = cli.run(spec, out_dir=job["out_dir"], fmt="json")
            calls.append({"spec": spec, "code": code,
                          "seconds": time.perf_counter() - t0,
                          "report": report})
    finally:
        probe_s = probe.stop() if probe is not None else None
        if tracer is not None:
            tracer.restore()
    elapsed_s = time.perf_counter() - start
    if job["probe"] == "after":
        import hostspeed
        probe_s = hostspeed.probe_after()
    result = {
        "calls": calls,
        "elapsed_s": elapsed_s,
        "maxrss_kb": _peak_rss_kb(),
        "probe_s": probe_s,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

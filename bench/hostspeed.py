"""Speed of the CPU a workload runs on, sampled while it runs.

On a shared VM the same run can take twice as long when another tenant
loads the physical core, and such spells last from seconds to minutes,
longer than a workload run.  ``Probe`` measures them: a background thread
repeats a fixed slice of interpreter, standard-library and numpy work
every PERIOD_S and records the thread CPU time it took.  Thread CPU time
excludes waiting for the GIL or the scheduler, so it reads the speed of
the core itself.  The caller pins the process to one CPU first, so probe
and workload share it.

A run's normalised time is its wall time times REFERENCE_S over the
harmonic mean of the run's probes: the time the run would have taken on a
host where the probe takes REFERENCE_S.  The probes are evenly spaced in
time and speed is the reciprocal of a probe's time, so their harmonic
mean gives the speed averaged over the run, as the run's wall time sees
it; a median would ignore a slow spell that covers less than half of the
run.  A set-up takes a fraction of a second, so ``probe_after`` samples
the CPU right after it instead.  The probe runs no ifsmeasure code, so a
change to the package moves the normalised time exactly as much as the
wall time it takes on a steady host.
"""

from __future__ import annotations

import json
import re
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.1
AFTER_REPEATS = 9
# About the probe's time on an idle 2-vCPU Intel Xeon VM, so that on such
# a host a normalised time reads as wall time.
REFERENCE_S = 1.3e-3

_DATA = np.random.default_rng(0).random(16384)
_RECORDS = [{"k": i, "v": [i * 0.5, str(i)], "s": "x" * (i % 17)}
            for i in range(150)]
_PAIR = re.compile(r"(\d+):(x*)")


def probe_once() -> float:
    """Thread CPU seconds of one fixed slice of work.

    The slice mixes a tight interpreter loop, library code with a wider
    footprint (json, sorting, formatting, regular expressions) and numpy
    over an array that fits in L2.  On a shared 2-vCPU Intel Xeon VM the
    workloads' wall times slowed as powers 0.87 to 1.03 of this probe's
    time; with the loop and numpy alone, as powers 0.81 to 1.15.
    """
    t0 = time.thread_time()
    table, acc = {}, 0
    for i in range(4000):
        table[i & 511] = acc
        acc += i * i % 7
    records = json.loads(json.dumps(_RECORDS))
    pairs = sorted((r["s"], -r["k"]) for r in records)
    text = ",".join(f"{-k}:{s}" for s, k in pairs)
    sum(len(m.group(2)) for m in _PAIR.finditer(text))
    np.sort(_DATA)
    np.cumsum(_DATA)
    return time.thread_time() - t0


def probe_after() -> float:
    """The median of AFTER_REPEATS probes taken now, one after another."""
    return statistics.median(probe_once() for _ in range(AFTER_REPEATS))


class Probe:
    """Samples ``probe_once`` from a background thread until ``stop``."""

    def __init__(self):
        self.samples = [probe_once()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            self.samples.append(probe_once())

    def stop(self) -> float:
        """Stop sampling; the harmonic mean probe, one taken now included."""
        self._stop.set()
        self._thread.join()
        self.samples.append(probe_once())
        return statistics.harmonic_mean(self.samples)

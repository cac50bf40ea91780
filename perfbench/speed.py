"""How fast the host runs right now, sampled inside the timed pass.

The benchmark runs on a few cores of a shared host whose speed drifts
with what other tenants do: a fixed pure-Python loop takes up to twice
as long for stretches of seconds to minutes, with no CPU stolen from the
process (its CPU time slows just as much as its wall time).  Timing a
pass alone would measure those neighbours as much as the program.

:class:`SpeedProbe` therefore samples the host's speed *during* the
pass: a ``SIGPROF`` interval timer interrupts the program every
``interval`` CPU seconds and runs one of a few fixed reference loops,
timed.  The loops stand for the kinds of work the program does —
interpreter arithmetic, object allocation plus a binary heap, scattered
dictionary reads and a small list scheduler, and on the numpy side
seeded draws with a vectorised verdict and a sort — so together they
slow down with the host roughly as the program does.  (Interpreter-only
loops slow down more than the program: on ``whole_sky`` and
``campaign_grid`` the program's log-slowdown was 0.6–0.7 of theirs, and
0.85–0.9 of the six loops' together.)  :meth:`SpeedProbe.factor` is the
geometric mean over the loops of (median sampled time / the loop's
nominal time), i.e. how much slower than nominal the host ran;
dividing a time measured over the same stretch by it gives seconds at
nominal host speed.  Time spent in the probe itself is reported so the
caller can take it out of the wall time.

The reference loops never change: a change to them changes every
normalised figure.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import signal
import statistics
import time

import numpy as np

clock = time.perf_counter


class _Cell:
    __slots__ = ("value", "count")

    def __init__(self, value: float):
        self.value = value
        self.count = 0


_rng = random.Random(20080101)
_KEYS = [_rng.random() for _ in range(256)]
_PROBS = np.random.default_rng(20080101).random(2048)
_TABLE = {i: [float(i), i] for i in range(50_000)}
# A 64-task layered DAG with fixed runtimes, list-scheduled on 4 workers.
_DAG_RUNTIME = [1.0 + _rng.random() for _ in range(64)]
_DAG_PARENTS = [
    [] if i < 8 else sorted(_rng.sample(range(i - i % 8 - 8, i - i % 8), 2))
    for i in range(64)
]
_DAG_CHILDREN: list[list[int]] = [[] for _ in range(64)]
for _child, _parents in enumerate(_DAG_PARENTS):
    for _p in _parents:
        _DAG_CHILDREN[_p].append(_child)


def ref_arith(n: int = 300) -> float:
    cell = _Cell(0.0)
    seen = {}
    for i in range(n):
        cell.value += i * 0.5
        cell.count = (cell.count + i) % 97
        seen[i & 63] = cell.value
    return cell.value + len(seen)


def ref_heap(n: int = 200) -> float:
    heap: list = []
    for key in _KEYS[:n]:
        heapq.heappush(heap, (key, _Cell(key)))
    total = 0.0
    while heap:
        key, cell = heapq.heappop(heap)
        total += cell.value
    return total


def ref_table(n: int = 300) -> float:
    table = _TABLE
    total = 0.0
    for i in range(n):
        row = table[(i * 7919) % 50_000]
        total += row[0] + row[1]
    return total


def ref_schedule(workers: int = 4) -> float:
    waiting = [len(p) for p in _DAG_PARENTS]
    ready = [i for i, w in enumerate(waiting) if w == 0]
    heapq.heapify(ready)
    running: list = []
    free, now = workers, 0.0
    while ready or running:
        while ready and free:
            task = heapq.heappop(ready)
            heapq.heappush(running, (now + _DAG_RUNTIME[task], task))
            free -= 1
        now, task = heapq.heappop(running)
        free += 1
        for child in _DAG_CHILDREN[task]:
            waiting[child] -= 1
            if waiting[child] == 0:
                heapq.heappush(ready, child)
    return now


def ref_draws(n: int = 2048) -> float:
    draws = np.random.default_rng(7).random(n)
    verdicts = np.less(draws, _PROBS[:n])
    return float(np.cumsum(draws)[-1]) + int(np.count_nonzero(verdicts))


def ref_sort(n: int = 1024) -> float:
    order = np.argsort(_PROBS[:n] * 7.0 % 1.0, kind="stable")
    return float(_PROBS[order[:16]].sum())


#: reference loop -> its median time in seconds at nominal host speed:
#: sampled inside ``whole_sky`` passes (so with the caches the program
#: leaves behind) on a quiet 2-vCPU Intel Xeon host, Python 3.11.
REFERENCES = {
    ref_arith: 44e-6,
    ref_heap: 120e-6,
    ref_table: 190e-6,
    ref_schedule: 49e-6,
    ref_draws: 170e-6,
    ref_sort: 120e-6,
}


class SpeedProbe:
    """Samples the reference loops on a CPU-time timer while active."""

    def __init__(self, interval: float = 0.005):
        self.interval = interval
        self._loops = list(REFERENCES)
        self.samples: dict = {f: [] for f in self._loops}
        self.probe_s = 0.0
        self._turn = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        loop = self._loops[self._turn % len(self._loops)]
        self._turn += 1
        collecting = gc.isenabled()
        gc.disable()
        t0 = clock()
        loop()
        took = clock() - t0
        if collecting:
            gc.enable()
        self.samples[loop].append(took)
        self.probe_s += clock() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def n_samples(self) -> int:
        return sum(len(v) for v in self.samples.values())

    def factors(self) -> dict[str, float]:
        return {
            loop.__name__: statistics.median(taken) / REFERENCES[loop]
            for loop, taken in self.samples.items() if taken
        }

    def factor(self) -> float:
        """Host slowness against nominal (1.0 = nominal; 2.0 = half speed)."""
        ratios = list(self.factors().values())
        if not ratios:
            return 1.0
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

"""Host-speed probe: scales host timings to a reference host speed.

On a shared host, the speed at which the same code runs drifts by up to
2x over seconds to minutes, because other tenants load the same cores
and caches.  The process's CPU time tracks its wall time, so the drift
is slower execution, not preemption, and a time measured in one minute
cannot be compared with one measured in the next.

The probe is a fixed job that does not depend on the simulator: random
reads from a 160 MB tuple of Python ints, more than the 105 MB last-level
cache of the 2-vCPU Intel Xeon VM it was tuned on.  There the drift comes
from contention for the shared cache and memory (an arithmetic loop that
stays in cache does not follow it), and the probe's reads miss the cache
as the simulator's object graph does.  The probe slows down with the
host, but less steeply than the simulator: the simulator also loses the
cache hits it has on a calm host, while the probe misses every time.
Over reps of one run, the simulator's host time grows as about the
:data:`EXPONENT` power of the probe's.

The benchmark runs the probe right before and right after every timed
rep, and between two network cycles whenever :data:`STRETCH_S` has passed
since the last probe.  The probes inside a rep are taken out of its host
time.  Each stretch of simulation between two probes is scaled by
:data:`NOMINAL_S` over the mean of those two probe times, to the power
:data:`EXPONENT`, so a rep's scaled time is its host time at the host
speed where one probe takes :data:`NOMINAL_S`.  The scale does not
depend on the simulator: a change that makes the simulator faster or
slower moves the scaled time by the same share as the raw one.  One cost
remains: each probe evicts the simulator's data from the cache, so every
stretch starts cold.
"""

from __future__ import annotations

import random
import time
from array import array
from contextlib import contextmanager
from typing import Iterator

from workloads import wrapped

#: Ints the probe reads from (32 MB of pointers plus 128 MB of int
#: objects, more than the 105 MB last-level cache).
LIST_LEN = 1 << 22
#: Random reads per probe.
READS = 100_000
#: Probe time (s) that defines the reference host speed: about the median
#: probe time on a shared 2-vCPU Intel Xeon VM, Python 3.11.
NOMINAL_S = 0.050
#: Power of the probe time that the simulator's host time follows, fitted
#: on that VM: of 1, 1.25, 1.5, 1.75 and 2, it gave the smallest largest
#: run-to-run spread of the scaled times over the three workloads.
EXPONENT = 1.5
#: Simulation time (s) between two probes inside a rep.
STRETCH_S = 0.4


def scale(probe_s: float) -> float:
    """Scale for host time measured where one probe takes ``probe_s``."""
    return (NOMINAL_S / probe_s) ** EXPONENT


class HostProbe:
    """The probe's data and every probe taken in one run."""

    def __init__(self) -> None:
        rng = random.Random(0)
        # Fresh int objects (above the small-int cache), laid out in order.
        # A tuple of ints drops out of the garbage collector's view, so the
        # collections during a rep do not walk it.
        self._ints = tuple([i + 1000 for i in range(LIST_LEN)])
        self._order = array("l", (rng.randrange(LIST_LEN) for _ in range(READS)))
        #: Host time of each probe, and when it started and ended.
        self.samples: list[float] = []
        self.spans: list[tuple[float, float]] = []

    def sample(self) -> float:
        """Run the probe once; record and return its host time."""
        ints, total = self._ints, 0
        t0 = time.perf_counter()
        for i in self._order:
            total += ints[i]
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spans.append((t0, t1))
        return t1 - t0

    def factor(self, first: int = 0) -> float:
        """Scale for the time since probe ``first``: for each stretch,
        :data:`NOMINAL_S` over the mean of the two probes around it, to the
        power :data:`EXPONENT`; averaged with the stretches' lengths as
        weights.
        """
        weighted = total = 0.0
        for i in range(first, len(self.samples) - 1):
            stretch = self.spans[i + 1][0] - self.spans[i][1]
            weighted += stretch * scale((self.samples[i] + self.samples[i + 1]) / 2)
            total += stretch
        return weighted / total

    @contextmanager
    def between_cycles(self) -> Iterator[None]:
        """Within the block, probe after a network cycle once
        :data:`STRETCH_S` has passed since the last probe (there must be one).
        """
        from repro.noc.network import Network

        def make(step):
            def step_then_probe(network, now):
                step(network, now)
                if time.perf_counter() - self.spans[-1][1] > STRETCH_S:
                    self.sample()

            return step_then_probe

        with wrapped(Network, "step", make):
            yield

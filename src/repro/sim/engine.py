"""Cycle-driven simulation engine.

The engine ties together a :class:`~repro.noc.network.Network`, a workload
(anything with a ``step(now) -> list[Packet]`` method) and a
:class:`~repro.sim.stats.Stats` collector, and advances them cycle by cycle.
It also watches for lack of forward progress, turning routing deadlocks
into a :class:`~repro.sim.stats.DeadlockError` instead of a silent hang —
this is how the deadlock-freedom tests exercise Theorem 1.
"""

from __future__ import annotations

from typing import Iterable, Optional, Protocol

from repro.noc.flit import Packet
from repro.noc.network import Network
from .stats import DeadlockError, DrainTimeoutError, Stats


class Workload(Protocol):
    """A packet source driven by the engine."""

    def step(self, now: int) -> Iterable[Packet]:
        """Packets created at cycle ``now`` (may be empty)."""
        ...

    def done(self, now: int) -> bool:
        """True once the workload will never produce packets again."""
        ...


class Engine:
    """Drives one simulation run."""

    def __init__(
        self,
        network: Network,
        workload: Workload,
        stats: Stats,
        *,
        deadlock_threshold: Optional[int] = 20_000,
    ) -> None:
        self.network = network
        self.workload = workload
        self.stats = stats
        self.deadlock_threshold = deadlock_threshold
        self.cycle = 0
        #: Optional postmortem sink (duck-typed
        #: :class:`repro.telemetry.forensics.ForensicsSession`).  When set,
        #: any failure escaping :meth:`run` / :meth:`run_until_drained`
        #: writes a bundle first and gains a ``bundle_path`` attribute.
        self.forensics = None
        #: Optional live feed (duck-typed
        #: :class:`repro.telemetry.live.LiveFeed`).  When set, a failure
        #: escaping :meth:`run` / :meth:`run_until_drained` lands in the
        #: feed as a terminal ``failure`` event — with the postmortem
        #: bundle path when forensics captured one — so ``repro watch``
        #: surfaces the death without waiting for the registry.
        self.livefeed = None

    def run(self, cycles: int) -> Stats:
        """Advance the simulation by ``cycles`` cycles."""
        end = self.cycle + cycles
        tick = self._tick
        try:
            while self.cycle < end:
                tick()
        except (RuntimeError, AssertionError) as exc:
            self._capture_failure(exc)
            raise
        return self.stats

    def run_until_drained(self, max_cycles: int) -> Stats:
        """Run until the workload is exhausted and the network is empty.

        Used for trace replay, where every packet of the trace should be
        delivered before statistics are read.  Raises
        :class:`~repro.sim.stats.DrainTimeoutError` — carrying a per-router
        buffered-flit census — if the network fails to drain within
        ``max_cycles``.
        """
        deadline = self.cycle + max_cycles
        tick = self._tick
        try:
            while self.cycle < deadline:
                tick()
                if self.workload.done(self.cycle) and self._empty():
                    return self.stats
        except (RuntimeError, AssertionError) as exc:
            self._capture_failure(exc)
            raise
        census = {
            router.node: flits
            for router in self.network.routers
            if (flits := router.buffered_flits()) > 0
        }
        error = DrainTimeoutError(
            self.cycle,
            max_cycles,
            census,
            self.network.in_flight_flits(),
            self.cycle - self.stats.last_movement_cycle,
        )
        self._capture_failure(error)
        raise error

    def _capture_failure(self, exc: BaseException) -> None:
        """Write a postmortem bundle for ``exc`` (best effort, never masks it).

        ``AssertionError`` covers the sanitizer's ``InvariantViolation``
        without importing :mod:`repro.analysis` (which would create an
        import cycle through the topology builders).
        """
        if isinstance(exc, DrainTimeoutError):
            reason = "drain-timeout"
        elif isinstance(exc, DeadlockError):
            reason = "deadlock"
        elif isinstance(exc, AssertionError):
            reason = "invariant-violation"
        else:
            reason = "runtime-error"
        path = None
        session = self.forensics
        if session is not None:
            try:
                path = session.capture_to_file(reason, self.cycle, error=exc)
            except Exception:  # noqa: BLE001 - forensics must not mask the failure
                path = None
            if path is not None and getattr(exc, "bundle_path", None) is None:
                try:
                    exc.bundle_path = str(path)
                except AttributeError:
                    pass  # exception type refuses new attributes
        feed = self.livefeed
        if feed is not None:
            try:
                feed.fail(
                    reason,
                    self.cycle,
                    error=f"{type(exc).__name__}: {exc}",
                    bundle=str(path) if path is not None else None,
                )
            except Exception:  # noqa: BLE001 - telemetry must not mask the failure
                pass

    def _empty(self) -> bool:
        return self.network.buffered_flits() == 0 and self.network.in_flight_flits() == 0

    def _tick(self) -> None:
        now = self.cycle
        stats = self.stats
        stats.now = now
        for packet in self.workload.step(now):
            stats.note_packet_injected(packet)
            self.network.inject(packet)
        self.network.step(now)
        self.cycle = now + 1
        if (
            self.deadlock_threshold is not None
            and now - stats.last_movement_cycle > self.deadlock_threshold
        ):
            buffered = self.network.buffered_flits()
            if buffered > 0:
                raise DeadlockError(now, buffered, now - stats.last_movement_cycle)
            stats.last_movement_cycle = now

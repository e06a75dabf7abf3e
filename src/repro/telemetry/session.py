"""One-call attachment of the full telemetry stack to a network.

:class:`TelemetryConfig` is the declarative surface exposed by the CLI
(``repro simulate --metrics DIR --trace FILE --epoch N``) and by the
experiment harness (``run_synthetic(..., telemetry=...)``); a
:class:`TelemetrySession` instantiates the requested collectors against a
built network's bus and, at :meth:`~TelemetrySession.finalize`, flushes
their outputs to disk and detaches everything — bus subscribers and the
host-time ledger's wrappers alike — so the network returns to the
zero-subscriber fast path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Optional

from .attribution import LatencyLedger
from .digest import RunDigest
from .forensics import ForensicsConfig, ForensicsSession, HealthThresholds
from .hostprof import HostTimeLedger
from .live import LiveFeed
from .metrics import EpochMetrics
from .progress import ProgressReporter
from .trace import ChromeTraceBuilder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.flit import Packet
    from repro.noc.network import Network


@dataclass
class TelemetryConfig:
    """What to collect during a run and where to put it.

    Every field is optional; an all-defaults config collects epoch metrics
    in memory only (reachable via ``RunResult.telemetry.metrics``).
    """

    #: Directory for per-epoch CSVs + ``metrics.json`` (None: keep in memory).
    metrics_dir: Optional[str | Path] = None
    #: Output path for the Chrome trace-event JSON (None: no trace).
    trace_path: Optional[str | Path] = None
    #: Epoch length in cycles for the time-series collectors.
    epoch_length: int = 1_000
    #: Predicate selecting packets for the trace (default: all, capped).
    trace_sample: Optional[Callable[["Packet"], bool]] = None
    #: Cap on traced packets.
    trace_max_packets: int = 512
    #: Emit a live progress line while the run advances.
    progress: bool = False
    #: Cycles between progress updates.
    progress_every: int = 5_000
    #: Progress destination (default: stderr).
    progress_stream: Optional[IO[str]] = None
    #: Attach the host wall-time ledger
    #: (:class:`~repro.telemetry.hostprof.HostTimeLedger`): attribute
    #: engine wall time to named phases.
    host_time: bool = False
    #: Time every Nth cycle and extrapolate (1: time every cycle).
    host_stride: int = 1
    #: Attach the per-packet latency-attribution ledger
    #: (:class:`~repro.telemetry.attribution.LatencyLedger`).
    latency_breakdown: bool = False
    #: Write the per-stage breakdown CSV here (implies the ledger).
    breakdown_csv: Optional[str | Path] = None
    #: Collect per-epoch metrics.  On by default; the CLI turns it off for
    #: configs that exist only to carry forensics capture, so plain runs
    #: keep the zero-subscriber fast path.
    epoch_metrics: bool = True
    #: Capture a postmortem bundle when the run fails (deadlock, drain
    #: timeout, invariant violation) — see
    #: :class:`~repro.telemetry.forensics.ForensicsSession`.
    forensics: bool = False
    #: Directory postmortem bundles are written into.
    bundle_dir: str | Path = "forensics"
    #: Attach the :class:`~repro.telemetry.forensics.FlightRecorder` ring
    #: buffer (implies ``forensics``; its tail lands in captured bundles).
    flight_recorder: bool = False
    #: Recorder history window in cycles.
    recorder_window: int = 4_096
    #: Recorder detail preset (``"packet"``, ``"route"`` or ``"full"``).
    recorder_events: str = "packet"
    #: Attach the :class:`~repro.telemetry.forensics.HealthMonitor` live
    #: probes (implies ``forensics``).
    health: bool = False
    #: Cycles between health probes.
    health_every: int = 2_000
    #: Health anomaly thresholds (None: defaults).
    health_thresholds: Optional[HealthThresholds] = None
    #: Stream for live health-anomaly flags (None: keep them in memory).
    health_stream: Optional[IO[str]] = None
    #: Stream run lifecycle / progress / epoch / health events to a
    #: schema-versioned JSONL live feed under ``live_dir`` for
    #: ``repro watch`` (see :class:`~repro.telemetry.live.LiveFeed`).
    live: bool = False
    #: Directory live feeds are appended under.
    live_dir: str | Path = "runs/live"
    #: Cycles between live heartbeat events.
    live_every: int = 1_000
    #: Run id keying the feed file and joining it to the run registry
    #: record (None: a fresh id is generated at attach time).
    run_id: Optional[str] = None
    #: Attach the streaming :class:`~repro.telemetry.digest.RunDigest` —
    #: a platform-stable chained hash of every bus event, persisted on
    #: the run record (``digest`` block) for ``repro diff``.
    digest: bool = False
    #: Cycles between digest checkpoint entries.
    digest_checkpoint_every: int = 1_000
    #: Optional ``(first, last)`` cycle-label window over which the
    #: digest records every per-cycle chain value (implies ``digest``;
    #: used by ``repro diff`` localization re-runs).
    digest_capture: Optional[tuple[int, int]] = None


@dataclass
class TelemetrySession:
    """Live collectors attached to one network for one run."""

    network: "Network"
    config: TelemetryConfig
    metrics: Optional[EpochMetrics] = None
    trace: Optional[ChromeTraceBuilder] = None
    progress: Optional[ProgressReporter] = None
    ledger: Optional[LatencyLedger] = None
    forensics: Optional[ForensicsSession] = None
    #: Host wall-time ledger (set when ``host_time`` was requested; the
    #: harness attaches it to the engine, :meth:`finalize` detaches it).
    hostprof: Optional[HostTimeLedger] = None
    #: Live JSONL feed for ``repro watch`` (set when ``live`` was
    #: requested; the harness installs it as ``engine.livefeed`` so the
    #: failure path can emit a terminal ``failure`` event).
    live: Optional[LiveFeed] = None
    #: Streaming run digest (set when ``digest`` was requested).
    digest: Optional[RunDigest] = None
    #: Files written by :meth:`finalize`.
    written: list[Path] = field(default_factory=list)

    @classmethod
    def attach(
        cls,
        network: "Network",
        config: Optional[TelemetryConfig] = None,
        *,
        warmup: int = 0,
        total_cycles: Optional[int] = None,
    ) -> "TelemetrySession":
        """Instantiate the collectors a config asks for and subscribe them."""
        config = config or TelemetryConfig()
        session = cls(network=network, config=config)
        if config.epoch_metrics:
            session.metrics = EpochMetrics(
                network, epoch_length=config.epoch_length, warmup=warmup
            )
        if config.trace_path is not None:
            session.trace = ChromeTraceBuilder(
                network,
                sample=config.trace_sample,
                max_packets=config.trace_max_packets,
            )
        if config.progress:
            session.progress = ProgressReporter(
                network,
                every_cycles=config.progress_every,
                stream=config.progress_stream,
                total_cycles=total_cycles,
            )
        if config.latency_breakdown or config.breakdown_csv is not None:
            session.ledger = LatencyLedger(network, measure_from=warmup)
        if config.host_time:
            session.hostprof = HostTimeLedger(stride=config.host_stride)
        if config.forensics or config.flight_recorder or config.health:
            forensics_config = ForensicsConfig(
                bundle_dir=config.bundle_dir,
                flight_recorder=config.flight_recorder,
                recorder_window=config.recorder_window,
                recorder_events=config.recorder_events,
                health=config.health,
                health_every=config.health_every,
                health_stream=config.health_stream,
            )
            if config.health_thresholds is not None:
                forensics_config.thresholds = config.health_thresholds
            session.forensics = ForensicsSession(network, forensics_config)
        if config.digest or config.digest_capture is not None:
            session.digest = RunDigest(
                network,
                checkpoint_every=config.digest_checkpoint_every,
                capture=config.digest_capture,
            )
        if config.live:
            # Attached last on purpose: the bus dispatches in subscription
            # order, so epoch metrics and health probes for a boundary
            # cycle are already recorded when the feed's heartbeat drains
            # them.
            from .runstore import new_run_id

            session.live = LiveFeed(
                network,
                run_id=config.run_id or new_run_id(),
                directory=config.live_dir,
                every=config.live_every,
                total_cycles=total_cycles,
                metrics=session.metrics,
                monitor=(
                    session.forensics.monitor if session.forensics is not None else None
                ),
                digest=session.digest,
            )
        return session

    def finalize(self, end_cycle: int) -> list[Path]:
        """Close collectors, write outputs, detach from the bus and engine."""
        if self.hostprof is not None:
            self.hostprof.detach()
        if self.progress is not None:
            self.progress.close()
        if self.metrics is not None:
            self.metrics.finish(end_cycle)
            if self.config.metrics_dir is not None:
                self.written.extend(self.metrics.write(self.config.metrics_dir))
        if self.trace is not None:
            self.trace.detach()
            if self.config.trace_path is not None:
                self.written.append(self.trace.write(self.config.trace_path))
        if self.ledger is not None:
            self.ledger.detach()
            if self.config.breakdown_csv is not None:
                self.written.append(self.ledger.write_csv(self.config.breakdown_csv))
        if self.forensics is not None:
            self.forensics.detach()
        if self.digest is not None:
            self.digest.detach()
        if self.live is not None:
            # No-op when the engine's failure path already closed the
            # feed with a terminal failure event.
            self.written.append(self.live.finish(end_cycle))
        return self.written

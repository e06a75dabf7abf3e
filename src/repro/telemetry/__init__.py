"""Unified observability for the simulator (see ``docs/observability.md``).

* :class:`TelemetryBus` — the single instrumentation seam: named events,
  zero-cost with no subscribers (``repro.telemetry.bus``);
* :class:`LatencyLedger` — per-packet latency attribution with an exact
  conservation invariant, aggregate breakdowns and topology bottleneck
  tables (``repro.telemetry.attribution``);
* :class:`EpochMetrics` — per-epoch time-series collectors with CSV/JSON
  export (``repro.telemetry.metrics``);
* :class:`ChromeTraceBuilder` — Perfetto-loadable Chrome trace-event
  export of sampled packets and component lanes
  (``repro.telemetry.trace``);
* :class:`ProgressReporter` / :class:`EtaEstimator` — live cycles/sec +
  in-flight + delivered + ETA status line for long runs
  (``repro.telemetry.progress``);
* :class:`LiveFeed` — schema-versioned JSONL streaming of run lifecycle,
  progress/ETA, epoch samples and health events to
  ``runs/live/<run_id>.jsonl`` for ``repro watch``
  (``repro.telemetry.live``);
* :mod:`repro.telemetry.server` — the stdlib SSE fleet-observability
  service behind ``repro watch`` (imported lazily by the CLI);
* :class:`FlightRecorder` / :class:`HealthMonitor` /
  :class:`ForensicsSession` — bounded event ring buffer, live health
  probes and automatic postmortem bundles for wedged runs, rendered by
  ``repro postmortem`` (``repro.telemetry.forensics``);
* :class:`TelemetryConfig` / :class:`TelemetrySession` — one-call
  attachment used by ``run_synthetic`` / ``run_trace`` and the
  ``repro simulate`` CLI (``repro.telemetry.session``);
* :class:`RunDigest` — streaming platform-stable chained hash of every
  bus event, with checkpoint chains, golden-trace files and the
  three-granularity differential oracle behind ``repro diff`` /
  ``repro golden`` (``repro.telemetry.digest`` /
  ``repro.telemetry.diff``);
* :class:`HostTimeLedger` — host wall-time attribution across engine /
  router / link / PHY phases by lap-timing wrappers it installs at attach
  time, plus cProfile→speedscope folding, driven by ``repro profile``
  (``repro.telemetry.hostprof``);
* :class:`MemLedger` — tracemalloc/``ru_maxrss`` heap observability with
  allocation sites folded to the same phase taxonomy, riding an untimed
  ``repro bench`` rep and ``repro profile --mem``
  (``repro.telemetry.memprof``);
* :func:`load_history` / :func:`analyze_history` — per-metric time
  series over the registry's bench records and the rank-based
  changepoint sentinel behind ``repro regress``
  (``repro.telemetry.history`` / ``repro.telemetry.sentinel``);
* :class:`RunStore` / :class:`RunRecord` — the append-only cross-run
  registry under ``runs/`` (``repro.telemetry.runstore``);
* :mod:`repro.telemetry.bench` / :mod:`repro.telemetry.compare` /
  :mod:`repro.telemetry.dashboard` — the ``repro bench`` perf suite,
  the noise-aware regression diff, and the static HTML dashboard
  (see ``docs/perf.md``).

Import note: ``repro.noc`` imports :mod:`repro.telemetry.bus` at module
load, so this package initializer must stay free of ``repro.noc`` imports;
collector submodules only reference simulator types under
``typing.TYPE_CHECKING``, and the bench/dashboard modules import the
simulator inside functions only.
"""

from .attribution import (
    STAGES,
    AttributionError,
    LatencyLedger,
    render_breakdown,
)
from .bench import BENCH_SCHEMA_VERSION, run_bench, write_bench
from .bus import EVENT_NAMES, NULL_BUS, TelemetryBus
from .compare import MetricVerdict, compare_bench, compare_records, compare_paths
from .diff import (
    DiffError,
    DiffReport,
    Diffable,
    check_golden_file,
    diff_runs,
    load_diffable,
    parse_sim_spec,
    record_golden_case,
    resimulate,
)
from .digest import (
    DIGEST_ALGO,
    DIGEST_SCHEMA_VERSION,
    GOLDEN_SCHEMA_VERSION,
    DigestError,
    RunDigest,
    digests_comparable,
    golden_files,
    golden_path,
    load_golden,
    make_golden,
    validate_digest_block,
    write_golden,
)
from .forensics import (
    FORENSICS_SCHEMA_VERSION,
    FlightRecorder,
    ForensicsConfig,
    ForensicsSession,
    HealthMonitor,
    HealthThresholds,
    capture_bundle,
    load_bundle,
    render_bundle_html,
    render_bundle_text,
    validate_bundle,
    write_bundle,
)
from .history import MetricSeries, RunHistory, SeriesPoint, load_history
from .hostprof import (
    PHASES as HOST_PHASES,  # package-level alias: avoids clashing with attribution.STAGES
    HostprofError,
    HostTimeLedger,
    render_host_table,
    validate_speedscope,
)
from .live import (
    LIVE_SCHEMA_VERSION,
    LiveFeed,
    LiveFeedError,
    feed_status,
    live_feed_path,
    read_feed,
    validate_live_event,
)
from .memprof import (
    MEM_SCHEMA_VERSION,
    MemLedger,
    MemProfError,
    render_mem_table,
    validate_mem_block,
)
from .metrics import EpochMetrics, EpochSample
from .progress import EtaEstimator, ProgressReporter, format_eta
from .runstore import (
    RUN_SCHEMA_VERSION,
    RunRecord,
    RunStore,
    RunStoreError,
    record_from_result,
)
from .sentinel import (
    SENTINEL_SCHEMA_VERSION,
    MetricReport,
    SentinelConfig,
    SentinelReport,
    analyze_history,
    detect_changepoint,
    render_sentinel,
)
from .session import TelemetryConfig, TelemetrySession
from .trace import ChromeTraceBuilder

__all__ = [
    "AttributionError",
    "BENCH_SCHEMA_VERSION",
    "DIGEST_ALGO",
    "DIGEST_SCHEMA_VERSION",
    "DiffError",
    "DiffReport",
    "Diffable",
    "DigestError",
    "EVENT_NAMES",
    "GOLDEN_SCHEMA_VERSION",
    "FORENSICS_SCHEMA_VERSION",
    "FlightRecorder",
    "ForensicsConfig",
    "ForensicsSession",
    "HealthMonitor",
    "HealthThresholds",
    "HOST_PHASES",
    "HostTimeLedger",
    "HostprofError",
    "LIVE_SCHEMA_VERSION",
    "LatencyLedger",
    "LiveFeed",
    "LiveFeedError",
    "MEM_SCHEMA_VERSION",
    "MemLedger",
    "MemProfError",
    "MetricReport",
    "MetricSeries",
    "NULL_BUS",
    "RUN_SCHEMA_VERSION",
    "SENTINEL_SCHEMA_VERSION",
    "STAGES",
    "SentinelConfig",
    "SentinelReport",
    "SeriesPoint",
    "render_breakdown",
    "TelemetryBus",
    "EpochMetrics",
    "EpochSample",
    "EtaEstimator",
    "MetricVerdict",
    "ProgressReporter",
    "RunDigest",
    "RunHistory",
    "RunRecord",
    "RunStore",
    "RunStoreError",
    "TelemetryConfig",
    "TelemetrySession",
    "ChromeTraceBuilder",
    "analyze_history",
    "capture_bundle",
    "check_golden_file",
    "compare_bench",
    "compare_paths",
    "compare_records",
    "detect_changepoint",
    "diff_runs",
    "digests_comparable",
    "feed_status",
    "golden_files",
    "golden_path",
    "load_diffable",
    "load_golden",
    "make_golden",
    "parse_sim_spec",
    "record_golden_case",
    "resimulate",
    "validate_digest_block",
    "write_golden",
    "format_eta",
    "live_feed_path",
    "load_bundle",
    "load_history",
    "record_from_result",
    "render_bundle_html",
    "render_bundle_text",
    "render_host_table",
    "render_mem_table",
    "render_sentinel",
    "read_feed",
    "run_bench",
    "validate_bundle",
    "validate_live_event",
    "validate_mem_block",
    "validate_speedscope",
    "write_bundle",
]

"""Standardized simulator performance suite (``repro bench``).

Runs a small canon of configurations drawn from the paper's evaluation —
the Fig 11 hetero-PHY torus, the Fig 14 hetero-channel system and the
Table 3 parallel-mesh baseline — ``reps`` times each (plus one discarded
warm-up repetition), and writes a schema-versioned ``BENCH_<n>.json``
with median/IQR wall time and simulated cycles per second, the run's
headline statistics, and exact hot-path event counts collected through
the telemetry bus.  ``repro compare`` diffs two such files with a
noise-aware threshold; CI runs the suite on every push (see
``docs/perf.md``).

Timing repetitions run with **zero** bus subscribers (the measured number
is the uninstrumented simulator); event counts come from one extra,
untimed, fully instrumented repetition.

Import note: simulator modules are imported inside functions only — this
module is imported by the ``repro.telemetry`` package machinery and must
not pull ``repro.noc`` in at module load.
"""

from __future__ import annotations

import json
import re
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

from .runstore import git_revision

#: Version of the ``BENCH_<n>.json`` schema.
BENCH_SCHEMA_VERSION = 1

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")

#: Simulation horizons per scale: (cycles, warm-up) — mirrors
#: ``repro.exps.common.HORIZONS`` without importing the simulator.
_HORIZONS = {
    "tiny": (2_000, 400),
    "small": (6_000, 1_000),
    "paper": (100_000, 10_000),
}


@dataclass(frozen=True)
class BenchCase:
    """One canonical configuration of the perf suite."""

    name: str
    family: str
    chiplets: tuple[int, int]
    nodes: tuple[int, int]
    pattern: str
    rate: float


#: The canonical suite: one representative per headline artifact.
CASES: tuple[BenchCase, ...] = (
    BenchCase("fig11_hetero_phy", "hetero_phy_torus", (2, 2), (4, 4), "uniform", 0.15),
    BenchCase("fig14_hetero_channel", "hetero_channel", (2, 2), (3, 3), "uniform", 0.15),
    BenchCase("table3_parallel_mesh", "parallel_mesh", (4, 4), (2, 2), "uniform", 0.10),
)

CASE_NAMES: tuple[str, ...] = tuple(case.name for case in CASES)


def _median_iqr(samples: Sequence[float]) -> tuple[float, float]:
    if not samples:
        return float("nan"), float("nan")
    if len(samples) == 1:
        return float(samples[0]), 0.0
    quartiles = statistics.quantiles(samples, n=4, method="inclusive")
    return float(statistics.median(samples)), float(quartiles[2] - quartiles[0])


def _run_case(
    case: BenchCase, scale: str, reps: int, seed: int, host_stride: int, mem_top: int
) -> dict[str, Any]:
    from repro.sim.build import build_network
    from repro.sim.config import SimConfig
    from repro.sim.engine import Engine
    from repro.sim.experiment import run_synthetic
    from repro.sim.stats import Stats
    from repro.topology.grid import ChipletGrid
    from repro.topology.system import build_system
    from repro.traffic.injection import SyntheticWorkload
    from repro.traffic.patterns import make_pattern

    from .session import TelemetryConfig

    cycles, warmup = _HORIZONS[scale]
    grid = ChipletGrid(case.chiplets[0], case.chiplets[1], case.nodes[0], case.nodes[1])
    config = SimConfig().replace(sim_cycles=cycles, warmup_cycles=warmup)
    spec = build_system(case.family, grid, config)

    # Timing repetitions: zero subscribers; the first rep warms caches and
    # is discarded.
    walls: list[float] = []
    result = None
    for rep in range(reps + 1):
        result = run_synthetic(spec, case.pattern, case.rate, seed=seed)
        if rep > 0:
            walls.append(result.wall_seconds)
    assert result is not None
    cps = [cycles / wall for wall in walls if wall > 0]

    # One extra instrumented repetition for the run digest (untimed: its
    # taps cost per-event dispatches).  Its per-event counts are the
    # hot-path census, so BENCH documents carry exact event counts and a
    # reproducibility fingerprint without adding a timed subscriber.
    from .digest import RunDigest

    stats = Stats(measure_from=warmup)
    network = build_network(spec, stats)
    digest = RunDigest(network)
    digest.meta = {
        "system": spec.name,
        "family": case.family,
        "chiplets": list(case.chiplets),
        "nodes": list(case.nodes),
        "pattern": case.pattern,
        "rate": case.rate,
        "seed": seed,
        "cycles": cycles,
        "warmup": warmup,
    }
    workload = SyntheticWorkload(
        make_pattern(case.pattern, grid.n_nodes),
        grid.n_nodes,
        case.rate,
        config.packet_length,
        until=cycles,
        seed=seed,
    )
    Engine(network, workload, stats).run(cycles)
    digest.detach()

    # One more untimed repetition with the host-time ledger attached: the
    # per-phase wall-time shares that tell `repro compare` *which* pipeline
    # stage a cycles/sec regression lives in (strided to keep it cheap).
    host_result = run_synthetic(
        spec,
        case.pattern,
        case.rate,
        seed=seed,
        telemetry=TelemetryConfig(
            host_time=True, host_stride=host_stride, epoch_metrics=False
        ),
    )
    host = host_result.telemetry.hostprof.record_summary()

    # And one final untimed repetition under the memory ledger (tracing
    # roughly doubles allocation cost, so it can never ride a timed rep):
    # peak/current heap plus top allocation sites folded to the same
    # phase taxonomy as the host block.
    from .memprof import MemLedger

    with MemLedger(top_n=mem_top) as mem_ledger:
        run_synthetic(spec, case.pattern, case.rate, seed=seed)
    mem = mem_ledger.record_summary()

    wall_median, wall_iqr = _median_iqr(walls)
    cps_median, cps_iqr = _median_iqr(cps)
    return {
        "family": case.family,
        "chiplets": list(case.chiplets),
        "nodes": list(case.nodes),
        "pattern": case.pattern,
        "rate": case.rate,
        "n_nodes": grid.n_nodes,
        "cycles": cycles,
        "warmup": warmup,
        "config_hash": result.config_hash,
        "wall_s": {"median": wall_median, "iqr": wall_iqr, "samples": walls},
        "cps": {"median": cps_median, "iqr": cps_iqr, "samples": cps},
        "events": {name: count for name, count in digest.counts.items() if count},
        "digest": digest.summary(),
        "host": host,
        "mem": mem,
        "stats": {
            "avg_latency": result.avg_latency,
            "packets_delivered": result.stats.packets_delivered,
            "delivered_fraction": result.stats.delivered_fraction,
        },
    }


def run_bench(
    *,
    scale: str = "tiny",
    reps: int = 5,
    seed: int = 1,
    cases: Optional[Sequence[BenchCase]] = None,
    git_rev: Optional[str] = None,
    host_stride: int = 4,
    mem_top: int = 10,
) -> dict[str, Any]:
    """Execute the suite and return the (not yet written) bench document.

    ``host_stride`` controls the host-time ledger's sampling stride on
    the extra attribution repetition (see
    :class:`~repro.telemetry.hostprof.HostTimeLedger`); the timed
    repetitions always run unledgered.  ``mem_top`` caps the allocation
    sites kept in each case's ``mem`` block (its own untimed rep).
    """
    if scale not in _HORIZONS:
        raise ValueError(f"scale must be one of {tuple(_HORIZONS)}, got {scale!r}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if host_stride < 1:
        raise ValueError("host_stride must be >= 1")
    if mem_top < 1:
        raise ValueError("mem_top must be >= 1")
    from .runstore import utc_now_iso

    suite = tuple(cases) if cases is not None else CASES
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "bench",
        "created": utc_now_iso(),
        "git_rev": git_rev if git_rev is not None else git_revision(),
        "scale": scale,
        "reps": reps,
        "seed": seed,
        "cases": {
            case.name: _run_case(case, scale, reps, seed, host_stride, mem_top)
            for case in suite
        },
    }


def next_bench_path(directory: str | Path = ".") -> Path:
    """The first unused ``BENCH_<n>.json`` path under ``directory``."""
    directory = Path(directory)
    taken = [
        int(match.group(1))
        for path in directory.glob("BENCH_*.json")
        if (match := _BENCH_NAME.match(path.name))
    ]
    index = max(taken) + 1 if taken else 0
    return directory / f"BENCH_{index}.json"


def write_bench(doc: dict[str, Any], directory: str | Path = ".") -> Path:
    """Write a bench document to the next free ``BENCH_<n>.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = next_bench_path(directory)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def load_bench(path: str | Path) -> dict[str, Any]:
    """Load and schema-check one bench file."""
    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: bench schema v{version!r} is not supported "
            f"(this build reads v{BENCH_SCHEMA_VERSION})"
        )
    return doc


def bench_files(directory: str | Path = ".") -> list[Path]:
    """All ``BENCH_<n>.json`` files under ``directory``, in index order."""
    directory = Path(directory)
    indexed = [
        (int(match.group(1)), path)
        for path in directory.glob("BENCH_*.json")
        if (match := _BENCH_NAME.match(path.name))
    ]
    return [path for _, path in sorted(indexed)]


def render_bench(doc: dict[str, Any]) -> str:
    """A plain-text summary table of one bench document."""
    lines = [
        f"bench @ {doc.get('git_rev', 'unknown')} "
        f"(scale={doc.get('scale')}, reps={doc.get('reps')}, "
        f"created {doc.get('created', '?')})",
        f"{'case':>24s} {'cyc/s med':>12s} {'cyc/s IQR':>12s} "
        f"{'wall med':>10s} {'avg_lat':>8s} {'peak heap':>10s}  {'top host phase':<16s}",
    ]
    from .memprof import fmt_bytes

    for name, case in doc.get("cases", {}).items():
        cps = case["cps"]
        top_phase = ""
        shares = (case.get("host") or {}).get("shares") or {}
        ranked = sorted(
            (
                (phase, share)
                for phase, share in shares.items()
                if isinstance(share, (int, float)) and share == share
            ),
            key=lambda item: -item[1],
        )
        if ranked:
            top_phase = f"{ranked[0][0]} {ranked[0][1]:.0%}"
        mem = case.get("mem") or {}
        peak = fmt_bytes(mem["peak_bytes"]) if "peak_bytes" in mem else "n/a"
        lines.append(
            f"{name:>24s} {cps['median']:>12,.0f} {cps['iqr']:>12,.0f} "
            f"{case['wall_s']['median']:>9.3f}s "
            f"{case['stats']['avg_latency']:>8.1f} {peak:>10s}  {top_phase:<16s}"
        )
    return "\n".join(lines)

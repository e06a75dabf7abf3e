"""Host wall-time attribution and profiler folding (``repro profile``).

The latency ledger answers "where do a packet's *simulated* cycles go?".
This module answers the twin question for the machine running the
simulation: **where does host wall-clock time go inside the per-cycle
loop?**  You cannot claim a rewrite helped a phase you never measured.

Two instruments live here:

* :class:`HostTimeLedger` — ``perf_counter_ns`` lap timers.  The engine
  has one cycle loop and no timing code of its own:
  :meth:`HostTimeLedger.attach` installs lap-timing wrappers as instance
  attributes over the phase sites (the engine tick, the network step,
  each router stage, each link step, each hetero-PHY receive and credit
  delivery) and :meth:`HostTimeLedger.detach` removes them again.
  Attributed time is checked against the timed-loop total (the same
  conservation discipline as the latency ledger's invariant).  A
  *strided* mode times every Nth cycle and extrapolates; off-stride
  cycles skip the clock reads but still pass through the wrappers.
* cProfile **folding** — :func:`fold_profile` maps every profiled
  function to a phase-rooted synthetic stack, emitted as a
  speedscope-compatible JSON document (:func:`speedscope_document`) and
  as collapsed-stack flamegraph text (:func:`collapsed_stacks`).

Pure stdlib; simulator types are imported inside functions or under
``TYPE_CHECKING`` only (see the package initializer's import note).
"""

from __future__ import annotations

import json
import math
import pstats
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import cProfile

    from repro.sim.engine import Engine

#: Host phases the engine attributes wall time to, in pipeline order.
#: :meth:`HostTimeLedger.attach` is the only place that names them at a
#: timing site; each wrapper charges the lap since the previous clock
#: reading to its phase, so everything between two sites (work-list
#: bookkeeping, the timers themselves) lands in the phase that follows.
PHASES: tuple[str, ...] = (
    "inject",  # workload step + packet injection (lap up to network.step)
    "rc_va",  # router routing computation + VC allocation
    "sa_st",  # router switch allocation + switch traversal
    "link",  # plain pipelined-link advance (incl. credit delivery)
    "phy_rx",  # hetero-PHY receive: ROB insert/release to downstream
    "phy_tx",  # hetero-PHY serialize/dispatch + credit delivery
    "telemetry",  # network.step tail: cycle_end bus fan-out (per-event
    #               dispatch costs land in the phase that emitted the event)
    "stats",  # engine epilogue: deadlock watchdog + cycle bookkeeping
)

#: Synthetic phase charged with the residual between the timed-loop
#: total and the sum of attributed phases (zero while the wrappers' laps
#: chain exactly); folded profiles also root the engine and network loop
#: functions here.
RESIDUAL_PHASE = "dispatch"

#: Every phase a summary can carry, in rendering order — the timed
#: taxonomy plus the residual.  Shared by the dashboard's stacked bars
#: and the memory ledger's site folding so the panels line up.
ALL_PHASES: tuple[str, ...] = (*PHASES, RESIDUAL_PHASE)

#: Default conservation tolerance: attributed time must reach this
#: fraction of the timed-loop total (mirrors the 5% acceptance budget).
CONSERVATION_TOLERANCE = 0.05


class HostprofError(RuntimeError):
    """The host-time attribution violated its conservation invariant."""


class HostTimeLedger:
    """Attributes engine wall time to named phases.

    One ledger observes one engine run.  :meth:`attach` it before the run
    (``TelemetryConfig(host_time=True)`` does that in the experiment
    harness), :meth:`detach` it afterwards and read :meth:`summary`.
    ``stride=N`` times every Nth cycle and extrapolates (the estimator
    assumes sampled cycles are representative, which holds for the
    stationary workloads of the bench suite); ``stride=1`` times every
    cycle.

    The ledger is a passive observer: its wrappers call the methods they
    shadow with the same arguments in the same order and never touch
    simulator state, so a run with the ledger attached produces
    byte-identical statistics to one without (checked by
    ``tests/test_hostprof.py``).
    """

    def __init__(
        self,
        *,
        stride: int = 1,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride
        #: Nanosecond clock; injectable so tests can drive a fake one.
        self.clock = clock
        #: Accumulated nanoseconds per phase (timed cycles only).
        self.phases: dict[str, int] = dict.fromkeys(PHASES, 0)
        #: Cycles actually timed / all cycles the engine ran.
        self.timed_cycles = 0
        self.total_cycles = 0
        #: Total wall nanoseconds of the timed ticks (phase sums + residual).
        self.loop_ns = 0
        #: ``(instance, attribute)`` of every wrapper :meth:`attach` installed.
        self._installed: list[tuple[Any, str]] = []

    # -- installation -------------------------------------------------------
    def attach(self, engine: "Engine") -> None:
        """Install the lap-timing wrappers on ``engine`` and its network.

        Each wrapper is an instance attribute that shadows the method the
        instance resolves at attach time (so a method patched on the class
        beforehand is the one timed) and charges the lap since the previous
        clock reading to its phase:

        * ``engine._tick`` — opens the lap on timed cycles, charges the
          epilogue to ``stats`` and books the loop total;
        * ``network.step`` — ``inject`` on entry, ``telemetry`` at its tail;
        * each router's ``_stage_rc_va`` / ``_stage_sa`` — ``rc_va`` /
          ``sa_st``;
        * each plain link's ``step`` — ``link``;
        * each hetero-PHY link's ``_receive`` — ``phy_rx`` — and
          ``_deliver_credits`` — ``phy_tx``, which also covers the
          ``_dispatch`` between the two.

        Every lap ends where the next starts, so the phases sum to the
        timed-loop total exactly.  On stride-skipped cycles no lap is
        open and the wrappers only pass through.
        """
        if self._installed:
            raise RuntimeError("ledger is already attached")
        from repro.core.phy import HeteroPhyLink  # simulator import, deferred

        clock = self.clock
        phases = self.phases
        wants = self.wants
        # Clock reading that ends the current lap; None off timed cycles.
        lap: Optional[int] = None

        def timed(method: Callable[[int], Any], phase: str) -> Callable[[int], Any]:
            def wrapper(now: int) -> Any:
                nonlocal lap
                result = method(now)
                if lap is not None:
                    t = clock()
                    phases[phase] += t - lap
                    lap = t
                return result

            return wrapper

        tick = engine._tick

        def timed_tick() -> None:
            nonlocal lap
            if not wants(engine.cycle):
                tick()
                self.note_plain_cycle()
                return
            start = lap = clock()
            tick()
            t = clock()
            phases["stats"] += t - lap
            lap = None
            self.note_timed_cycle(t - start)

        network = engine.network
        network_step = timed(network.step, "telemetry")

        def timed_network_step(now: int) -> None:
            nonlocal lap
            if lap is not None:
                t = clock()
                phases["inject"] += t - lap
                lap = t
            network_step(now)

        def install(obj: Any, name: str, wrapper: Callable[..., Any]) -> None:
            setattr(obj, name, wrapper)
            self._installed.append((obj, name))

        def wrap(obj: Any, name: str, phase: str) -> None:
            install(obj, name, timed(getattr(obj, name), phase))

        install(engine, "_tick", timed_tick)
        install(network, "step", timed_network_step)
        for router in network.routers:
            wrap(router, "_stage_rc_va", "rc_va")
            wrap(router, "_stage_sa", "sa_st")
        for link in network.links:
            if isinstance(link, HeteroPhyLink):
                wrap(link, "_receive", "phy_rx")
                wrap(link, "_deliver_credits", "phy_tx")
            else:
                wrap(link, "step", "link")

    def detach(self) -> None:
        """Remove every installed wrapper; a no-op when not attached."""
        for obj, name in self._installed:
            vars(obj).pop(name, None)
        self._installed.clear()

    # -- cycle accounting (called by the tick wrapper) ------------------------
    def wants(self, cycle: int) -> bool:
        """True when ``cycle`` should be timed (the stride filter)."""
        return cycle % self.stride == 0

    def note_plain_cycle(self) -> None:
        """An untimed (stride-skipped) cycle ran."""
        self.total_cycles += 1

    def note_timed_cycle(self, tick_ns: int) -> None:
        """A timed cycle ran; ``tick_ns`` is its full tick wall time."""
        self.timed_cycles += 1
        self.total_cycles += 1
        self.loop_ns += tick_ns

    # -- results ------------------------------------------------------------
    @property
    def attributed_ns(self) -> int:
        """Nanoseconds attributed to named phases (excludes the residual)."""
        return sum(self.phases.values())

    @property
    def conservation(self) -> float:
        """Attributed fraction of the timed-loop total (target: >= 0.95)."""
        if self.loop_ns <= 0:
            return math.nan
        return self.attributed_ns / self.loop_ns

    def check_conservation(self, tolerance: float = CONSERVATION_TOLERANCE) -> None:
        """Raise :class:`HostprofError` unless attribution conserves time.

        Attributed time must be within ``tolerance`` of the timed-loop
        total on *both* sides — a sum above the loop total would mean a
        phase was double-counted.
        """
        ratio = self.conservation
        if math.isnan(ratio):
            raise HostprofError("no timed cycles — was the ledger attached?")
        if ratio < 1.0 - tolerance or ratio > 1.0 + tolerance:
            raise HostprofError(
                f"host-time attribution violates conservation: attributed "
                f"{self.attributed_ns} ns is {ratio:.1%} of the "
                f"{self.loop_ns} ns timed-loop total "
                f"(tolerance {tolerance:.0%})"
            )

    def summary(self) -> dict[str, Any]:
        """Full attribution summary (extrapolated when strided).

        ``phases`` maps each phase — including the ``dispatch`` residual
        — to raw nanoseconds, ns/timed-cycle, its share of the timed-loop
        total, and the stride-extrapolated estimate for the whole run.
        """
        timed = self.timed_cycles
        loop = self.loop_ns
        scale = self.total_cycles / timed if timed else math.nan
        residual = max(0, loop - self.attributed_ns)
        phases: dict[str, dict[str, float]] = {}
        for name in (*PHASES, RESIDUAL_PHASE):
            ns = residual if name == RESIDUAL_PHASE else self.phases[name]
            phases[name] = {
                "ns": float(ns),
                "ns_per_cycle": ns / timed if timed else math.nan,
                "share": ns / loop if loop else math.nan,
                "est_total_ns": ns * scale if timed else math.nan,
            }
        return {
            "stride": self.stride,
            "timed_cycles": timed,
            "total_cycles": self.total_cycles,
            "loop_ns": loop,
            "attributed_ns": self.attributed_ns,
            "conservation": self.conservation,
            "ns_per_cycle": loop / timed if timed else math.nan,
            "est_loop_ns": loop * scale if timed else math.nan,
            "phases": phases,
        }

    def record_summary(self) -> dict[str, Any]:
        """Compact summary for ``BENCH_*.json`` / run-registry records."""
        summary = self.summary()
        return {
            "stride": self.stride,
            "timed_cycles": self.timed_cycles,
            "total_cycles": self.total_cycles,
            "conservation": summary["conservation"],
            "ns_per_cycle": {
                name: cell["ns_per_cycle"] for name, cell in summary["phases"].items()
            },
            "shares": {name: cell["share"] for name, cell in summary["phases"].items()},
        }


def _fmt_ns(ns: float) -> str:
    if math.isnan(ns):
        return "n/a"
    if ns >= 1e9:
        return f"{ns / 1e9:.2f} s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f} µs"
    return f"{ns:.0f} ns"


def render_host_table(summary: dict[str, Any]) -> str:
    """Plain-text phase breakdown of a :meth:`HostTimeLedger.summary`."""
    lines = [
        f"host-time attribution: {summary['timed_cycles']}/"
        f"{summary['total_cycles']} cycles timed "
        f"(stride {summary['stride']}), "
        f"{_fmt_ns(summary['ns_per_cycle'])}/cycle, "
        f"conservation {summary['conservation']:.1%}",
        f"{'phase':>12s} {'ns/cycle':>12s} {'share':>8s} {'est total':>12s}",
    ]
    phases = summary["phases"]
    ranked = sorted(phases.items(), key=lambda item: -item[1]["ns"])
    for name, cell in ranked:
        if not cell["ns"]:
            continue
        lines.append(
            f"{name:>12s} {cell['ns_per_cycle']:>12,.0f} "
            f"{cell['share']:>8.1%} {_fmt_ns(cell['est_total_ns']):>12s}"
        )
    lines.append(
        f"{'total':>12s} {summary['ns_per_cycle']:>12,.0f} "
        f"{'100.0%':>8s} {_fmt_ns(summary['est_loop_ns']):>12s}"
    )
    return "\n".join(lines)


# -- cProfile folding ---------------------------------------------------------

#: Function-name overrides for files whose functions span phases.
_PHASE_BY_FUNC: dict[str, str] = {
    # repro/noc/router.py
    "_stage_rc_va": "rc_va",
    "_try_vc_allocate": "rc_va",
    "_stage_sa": "sa_st",
    "_allocate_output": "sa_st",
    "_send_flit": "sa_st",
    "_eject": "sa_st",
    "inject": "inject",
    # repro/core/phy.py
    "_receive": "phy_rx",
    "_dispatch": "phy_tx",
    "_issue": "phy_tx",
    "_decide_bypass": "phy_tx",
}

#: Path-substring → phase rules, first match wins (paths normalized to "/").
_PHASE_BY_PATH: tuple[tuple[str, str], ...] = (
    ("repro/traffic/", "inject"),
    ("repro/routing/", "rc_va"),
    ("repro/noc/link", "link"),
    ("repro/core/rob", "phy_rx"),
    ("repro/core/", "phy_tx"),
    ("repro/sim/stats", "stats"),
    ("repro/telemetry/", "telemetry"),
    ("repro/sim/engine", RESIDUAL_PHASE),
    ("repro/noc/network", RESIDUAL_PHASE),
)


def phase_of(filename: str, funcname: str) -> str:
    """Heuristic phase of one profiled function (``"other"`` if unknown).

    The mapping mirrors :data:`PHASES`, so the flamegraph's second level
    lines up with the :class:`HostTimeLedger` breakdown table.
    """
    if funcname in _PHASE_BY_FUNC:
        return _PHASE_BY_FUNC[funcname]
    path = filename.replace("\\", "/")
    for needle, phase in _PHASE_BY_PATH:
        if needle in path:
            return phase
    return "other"


def _frame_label(filename: str, funcname: str) -> str:
    path = filename.replace("\\", "/")
    if "/" in path:
        # Keep the package-relative tail: src/repro/noc/router.py -> repro/noc/router.py
        parts = path.split("/")
        if "repro" in parts:
            path = "/".join(parts[parts.index("repro"):])
        else:
            path = parts[-1]
    if path.startswith("~"):  # pstats marker for C builtins
        return funcname
    return f"{path}:{funcname}"


def fold_profile(profile: "cProfile.Profile") -> list[tuple[tuple[str, ...], int]]:
    """Fold a cProfile capture into phase-rooted synthetic stacks.

    Each profiled function becomes one ``(stack, self_time_ns)`` row with
    the stack ``("engine", <phase>, <module:function>)`` — the phase→stack
    mapping that makes the flamegraph comparable to the
    :class:`HostTimeLedger` table.  Rows are sorted hottest-first.
    """
    stats = pstats.Stats(profile)
    rows: list[tuple[tuple[str, ...], int]] = []
    for (filename, _lineno, funcname), entry in stats.stats.items():  # type: ignore[attr-defined]
        self_ns = int(entry[2] * 1e9)  # tt: total time excluding subcalls
        if self_ns <= 0:
            continue
        stack = ("engine", phase_of(filename, funcname), _frame_label(filename, funcname))
        rows.append((stack, self_ns))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


def collapsed_stacks(rows: list[tuple[tuple[str, ...], int]]) -> str:
    """Collapsed-stack flamegraph text (``flamegraph.pl`` input format).

    One ``frame;frame;frame weight`` line per stack; weights are integer
    microseconds (zero-weight rows are dropped).
    """
    lines = []
    for stack, ns in rows:
        weight = ns // 1000
        if weight <= 0:
            continue
        lines.append(";".join(stack) + f" {weight}")
    return "\n".join(lines) + ("\n" if lines else "")


def speedscope_document(
    rows: list[tuple[tuple[str, ...], int]], *, name: str = "repro profile"
) -> dict[str, Any]:
    """Build a speedscope-compatible ``sampled`` profile document.

    Loads directly in https://www.speedscope.app — every folded stack
    becomes one sample whose weight is the function's self time in
    nanoseconds.
    """
    frames: list[dict[str, str]] = []
    index: dict[str, int] = {}
    samples: list[list[int]] = []
    weights: list[int] = []
    for stack, ns in rows:
        sample = []
        for label in stack:
            frame_idx = index.get(label)
            if frame_idx is None:
                frame_idx = index[label] = len(frames)
                frames.append({"name": label})
            sample.append(frame_idx)
        samples.append(sample)
        weights.append(ns)
    total = sum(weights)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "exporter": "repro profile",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "nanoseconds",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
    }


def validate_speedscope(doc: Any) -> None:
    """Schema-check a speedscope document; raises ``ValueError`` on defects.

    Covers the invariants speedscope's importer actually relies on:
    frames table present, one ``sampled`` profile, equal-length
    samples/weights, and every sample index resolving to a frame.
    """
    if not isinstance(doc, dict):
        raise ValueError("speedscope document must be a JSON object")
    frames = doc.get("shared", {}).get("frames")
    if not isinstance(frames, list) or not all(
        isinstance(f, dict) and isinstance(f.get("name"), str) for f in frames
    ):
        raise ValueError("shared.frames must be a list of {name: str} objects")
    profiles = doc.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        raise ValueError("profiles must be a non-empty list")
    for profile in profiles:
        if profile.get("type") != "sampled":
            raise ValueError(f"unsupported profile type {profile.get('type')!r}")
        samples = profile.get("samples")
        weights = profile.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            raise ValueError("sampled profile needs samples and weights lists")
        if len(samples) != len(weights):
            raise ValueError(
                f"samples/weights length mismatch: {len(samples)} != {len(weights)}"
            )
        for sample in samples:
            if not sample:
                raise ValueError("empty sample stack")
            for idx in sample:
                if not isinstance(idx, int) or not 0 <= idx < len(frames):
                    raise ValueError(f"sample frame index {idx!r} out of range")
        if any(not isinstance(w, (int, float)) or w < 0 for w in weights):
            raise ValueError("weights must be non-negative numbers")
        end = profile.get("endValue", 0)
        if abs(sum(weights) - end) > max(1, 0.01 * end):
            raise ValueError("endValue does not match the weight sum")


def write_speedscope(
    doc: dict[str, Any], path: str | Path
) -> Path:
    """Validate and write one speedscope document; returns the path."""
    validate_speedscope(doc)
    path = Path(path)
    if path.parent != Path():
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def load_speedscope(path: str | Path) -> dict[str, Any]:
    """Load and schema-check a speedscope JSON file."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    validate_speedscope(doc)
    return doc


__all__ = [
    "ALL_PHASES",
    "CONSERVATION_TOLERANCE",
    "HostTimeLedger",
    "HostprofError",
    "PHASES",
    "RESIDUAL_PHASE",
    "collapsed_stacks",
    "fold_profile",
    "load_speedscope",
    "phase_of",
    "render_host_table",
    "speedscope_document",
    "validate_speedscope",
    "write_speedscope",
]

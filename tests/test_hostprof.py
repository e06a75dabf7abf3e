"""Tests for the host-time observatory (``repro.telemetry.hostprof``).

Covers the ledger's accounting math with a fake clock, the engine-side
conservation invariant across every system family, the passive-observer
guarantee (attaching the ledger never changes simulated results), the
strided extrapolation, the cProfile→speedscope folding, and the
end-to-end acceptance story: an injected per-phase slowdown must show up
in ``repro compare`` under the guilty phase's name.
"""

import json
import time

import pytest

from repro.sim.config import SimConfig
from repro.sim.experiment import run_synthetic
from repro.telemetry import TelemetryConfig
from repro.telemetry.compare import compare_bench, regressions
from repro.telemetry.hostprof import (
    CONSERVATION_TOLERANCE,
    PHASES,
    RESIDUAL_PHASE,
    HostprofError,
    HostTimeLedger,
    collapsed_stacks,
    fold_profile,
    load_speedscope,
    phase_of,
    render_host_table,
    speedscope_document,
    validate_speedscope,
    write_speedscope,
)
from repro.topology.grid import ChipletGrid
from repro.topology.system import build_system

from .test_bench_compare import make_bench_doc, make_case


def small_spec(family="hetero_phy_torus", cycles=800, warmup=100):
    grid = ChipletGrid(2, 2, 3, 3)
    config = SimConfig().replace(sim_cycles=cycles, warmup_cycles=warmup)
    return build_system(family, grid, config)


def run_with_ledger(spec, *, stride=1, seed=1, rate=0.1):
    result = run_synthetic(
        spec,
        "uniform",
        rate,
        seed=seed,
        telemetry=TelemetryConfig(
            host_time=True, host_stride=stride, epoch_metrics=False
        ),
    )
    return result, result.telemetry.hostprof


# -- ledger accounting (fake clock, exact math) ------------------------------
def test_ledger_rejects_bad_stride():
    with pytest.raises(ValueError, match="stride"):
        HostTimeLedger(stride=0)


def test_wants_follows_stride():
    ledger = HostTimeLedger(stride=4)
    assert [ledger.wants(c) for c in range(6)] == [
        True, False, False, False, True, False,
    ]
    assert all(HostTimeLedger(stride=1).wants(c) for c in range(5))


def test_summary_math_is_exact():
    ledger = HostTimeLedger(stride=4)
    for cycle in range(12):
        if ledger.wants(cycle):
            ledger.phases["inject"] += 70
            ledger.phases["sa_st"] += 30
            ledger.note_timed_cycle(100)
        else:
            ledger.note_plain_cycle()
    assert (ledger.timed_cycles, ledger.total_cycles) == (3, 12)
    assert ledger.loop_ns == 300 and ledger.attributed_ns == 300
    assert ledger.conservation == 1.0
    ledger.check_conservation()  # must not raise

    summary = ledger.summary()
    assert summary["ns_per_cycle"] == pytest.approx(100.0)
    # Stride 4 over 12 cycles: the estimate scales the 3 timed cycles x4.
    assert summary["est_loop_ns"] == pytest.approx(1200.0)
    inject = summary["phases"]["inject"]
    assert inject["ns_per_cycle"] == pytest.approx(70.0)
    assert inject["share"] == pytest.approx(0.7)
    assert inject["est_total_ns"] == pytest.approx(840.0)
    # Fully-attributed loop: the dispatch residual row is zero.
    assert summary["phases"][RESIDUAL_PHASE]["ns"] == 0.0

    record = ledger.record_summary()
    assert record["shares"]["sa_st"] == pytest.approx(0.3)
    assert set(record["ns_per_cycle"]) == {*PHASES, RESIDUAL_PHASE}


def test_conservation_check_is_two_sided():
    under = HostTimeLedger()
    under.phases["link"] += 500
    under.note_timed_cycle(1000)  # half the loop unattributed
    with pytest.raises(HostprofError, match="50.0%"):
        under.check_conservation()

    over = HostTimeLedger()
    over.phases["link"] += 2000  # double-counted phase
    over.note_timed_cycle(1000)
    with pytest.raises(HostprofError, match="conservation"):
        over.check_conservation()

    empty = HostTimeLedger()
    with pytest.raises(HostprofError, match="no timed cycles"):
        empty.check_conservation()
    # A ratio just inside the tolerance band passes.
    close = HostTimeLedger()
    close.phases["link"] += int(1000 * (1 - CONSERVATION_TOLERANCE / 2))
    close.note_timed_cycle(1000)
    close.check_conservation()


def test_render_host_table_lists_hot_phases():
    ledger = HostTimeLedger()
    ledger.phases["sa_st"] += 600
    ledger.phases["link"] += 400
    ledger.note_timed_cycle(1000)
    table = render_host_table(ledger.summary())
    assert "conservation 100.0%" in table
    assert table.index("sa_st") < table.index("link")  # hottest first
    assert "inject" not in table  # zero phases are dropped


# -- engine integration ------------------------------------------------------
def test_conservation_holds_for_every_family(family):
    _, ledger = run_with_ledger(small_spec(family, cycles=500))
    assert ledger.total_cycles >= 500
    assert ledger.timed_cycles == ledger.total_cycles  # stride 1
    ledger.check_conservation()
    # The lap-timer protocol attributes the timed loop exactly.
    assert ledger.conservation == pytest.approx(1.0, abs=1e-9)
    assert sum(ledger.phases.values()) == ledger.loop_ns


def test_ledger_is_a_passive_observer(family):
    def stats_fingerprint(result):
        return json.dumps(result.stats.summary(), sort_keys=True)

    baseline = run_synthetic(small_spec(family, cycles=600), "uniform", 0.1, seed=9)
    with_ledger, ledger1 = run_with_ledger(
        small_spec(family, cycles=600), stride=1, seed=9
    )
    strided, ledger3 = run_with_ledger(
        small_spec(family, cycles=600), stride=3, seed=9
    )
    assert stats_fingerprint(baseline) == stats_fingerprint(with_ledger)
    assert stats_fingerprint(baseline) == stats_fingerprint(strided)
    assert baseline.stats.packets_delivered == with_ledger.stats.packets_delivered
    assert ledger1.total_cycles == ledger3.total_cycles


def test_strided_sampling_times_every_nth_cycle():
    result, ledger = run_with_ledger(small_spec(cycles=900), stride=4)
    assert ledger.total_cycles >= 900
    # Cycles 0, 4, 8, ... are timed: one quarter of the loop (rounded up).
    expected = (ledger.total_cycles + 3) // 4
    assert ledger.timed_cycles == expected
    summary = ledger.summary()
    scale = ledger.total_cycles / ledger.timed_cycles
    assert summary["est_loop_ns"] == pytest.approx(ledger.loop_ns * scale)
    assert result.host_phases is not None
    assert result.host_phases["stride"] == 4


def test_router_work_lands_in_pipeline_phases():
    _, ledger = run_with_ledger(small_spec(cycles=800), rate=0.15)
    summary = ledger.summary()
    # Under load the switch/VC pipeline dominates; the residual dispatch
    # row must stay negligible (the laps leave nothing unattributed).
    assert summary["phases"]["sa_st"]["share"] > 0.1
    assert summary["phases"]["rc_va"]["share"] > 0.0
    assert summary["phases"][RESIDUAL_PHASE]["share"] < 0.01


def test_conservation_and_passive_observer_under_run_trace():
    from repro.sim.experiment import run_trace
    from repro.traffic.trace import Trace, TraceRecord

    n = small_spec().grid.n_nodes

    def trace():
        records = [
            TraceRecord(t, t % n, (7 * t + 11) % n, 4)
            for t in range(0, 600, 3)
            if t % n != (7 * t + 11) % n
        ]
        return Trace(records, name="mix")

    baseline = run_trace(small_spec(), trace())
    ledgered = run_trace(
        small_spec(),
        trace(),
        telemetry=TelemetryConfig(host_time=True, epoch_metrics=False),
    )
    ledger = ledgered.telemetry.hostprof
    # The drain path is timed every cycle and attributed exactly.
    assert ledger.timed_cycles == ledger.total_cycles == ledgered.cycles
    assert ledger.conservation == 1.0
    assert sum(ledger.phases.values()) == ledger.loop_ns
    assert json.dumps(baseline.stats.summary(), sort_keys=True) == json.dumps(
        ledgered.stats.summary(), sort_keys=True
    )
    assert baseline.cycles == ledgered.cycles


#: Instance attributes :meth:`HostTimeLedger.attach` may install.
WRAPPED = {"_tick", "step", "_stage_rc_va", "_stage_sa", "_receive", "_deliver_credits"}


def installed_wrappers(engine):
    """``(type, attribute)`` of every ledger wrapper left on an instance."""
    network = engine.network
    instances = [engine, network, *network.routers, *network.links]
    return sorted(
        (type(obj).__name__, name)
        for obj in instances
        for name in WRAPPED & set(vars(obj))
    )


def test_finalize_removes_every_wrapper_after_a_normal_run(monkeypatch):
    from repro.sim import experiment

    engines = []

    class RecordingEngine(experiment.Engine):
        def run(self, cycles):
            # The harness attaches the ledger between construction and run.
            engines.append((self, installed_wrappers(self)))
            return super().run(cycles)

    monkeypatch.setattr(experiment, "Engine", RecordingEngine)
    _, ledger = run_with_ledger(small_spec(cycles=200))
    ((engine, at_start),) = engines
    kinds = {kind for kind, _ in at_start}
    assert kinds == {
        "RecordingEngine", "Network", "Router", "PipelinedLink", "HeteroPhyLink",
    }
    assert installed_wrappers(engine) == []
    assert ledger.timed_cycles == 200
    ledger.detach()  # a second detach is a no-op


def test_finalize_removes_every_wrapper_after_a_failed_run():
    from repro.sim.build import build_network
    from repro.sim.engine import Engine
    from repro.sim.stats import DeadlockError, Stats
    from repro.telemetry import TelemetrySession
    from repro.traffic.injection import SyntheticWorkload
    from repro.traffic.patterns import make_pattern

    from .test_forensics import ring_routing

    # The examples/forced_deadlock.py ring: eastward-only routing wedges.
    grid = ChipletGrid(2, 1, 2, 2)
    config = SimConfig(sim_cycles=4_000, warmup_cycles=0)
    spec = build_system("serial_torus", grid, config)
    stats = Stats()
    network = build_network(spec, stats, routing=ring_routing)
    workload = SyntheticWorkload(
        make_pattern("uniform", grid.n_nodes),
        grid.n_nodes,
        1.0,
        spec.config.packet_length,
        seed=3,
    )
    engine = Engine(network, workload, stats, deadlock_threshold=300)
    session = TelemetrySession.attach(
        network, TelemetryConfig(host_time=True, epoch_metrics=False)
    )
    session.hostprof.attach(engine)
    assert installed_wrappers(engine)
    with pytest.raises(RuntimeError, match="already attached"):
        session.hostprof.attach(engine)
    with pytest.raises(DeadlockError):
        try:
            engine.run(4_000)
        finally:
            session.finalize(engine.cycle)
    assert installed_wrappers(engine) == []
    assert session.hostprof.timed_cycles > 0


# -- cProfile folding + speedscope -------------------------------------------
def test_phase_of_mapping():
    assert phase_of("src/repro/noc/router.py", "_stage_rc_va") == "rc_va"
    assert phase_of("src/repro/noc/router.py", "_send_flit") == "sa_st"
    assert phase_of("src/repro/core/phy.py", "_receive") == "phy_rx"
    assert phase_of("src/repro/core/phy.py", "_dispatch") == "phy_tx"
    assert phase_of("src/repro/noc/link.py", "step") == "link"
    assert phase_of("src/repro/traffic/injection.py", "step") == "inject"
    assert phase_of("src/repro/sim/engine.py", "run") == RESIDUAL_PHASE
    assert phase_of("~", "<built-in method time.sleep>") == "other"


def test_fold_profile_produces_phase_rooted_stacks():
    import cProfile

    from repro.sim.build import build_network
    from repro.sim.engine import Engine
    from repro.sim.stats import Stats
    from repro.traffic.injection import SyntheticWorkload
    from repro.traffic.patterns import make_pattern

    spec = small_spec(cycles=400)
    stats = Stats(measure_from=100)
    network = build_network(spec, stats)
    workload = SyntheticWorkload(
        make_pattern("uniform", spec.grid.n_nodes),
        spec.grid.n_nodes,
        0.1,
        spec.config.packet_length,
        until=400,
        seed=1,
    )
    profile = cProfile.Profile()
    profile.enable()
    Engine(network, workload, stats).run(400)
    profile.disable()

    rows = fold_profile(profile)
    assert rows and all(stack[0] == "engine" for stack, _ in rows)
    assert all(ns > 0 for _, ns in rows)
    assert rows == sorted(rows, key=lambda row: (-row[1], row[0]))
    phases_seen = {stack[1] for stack, _ in rows}
    assert "sa_st" in phases_seen and "link" in phases_seen

    doc = speedscope_document(rows, name="unit")
    validate_speedscope(doc)
    text = collapsed_stacks(rows)
    assert text.startswith("engine;")
    for line in text.splitlines():
        frames, weight = line.rsplit(" ", 1)
        assert frames.count(";") == 2 and int(weight) > 0


def test_speedscope_roundtrip_and_validation(tmp_path):
    rows = [
        (("engine", "sa_st", "repro/noc/router.py:_send_flit"), 1_500_000),
        (("engine", "link", "repro/noc/link.py:step"), 500_000),
    ]
    doc = speedscope_document(rows, name="roundtrip")
    path = write_speedscope(doc, tmp_path / "deep" / "profile.speedscope.json")
    loaded = load_speedscope(path)
    assert loaded == doc
    assert loaded["profiles"][0]["endValue"] == 2_000_000

    with pytest.raises(ValueError, match="frames"):
        validate_speedscope({"shared": {"frames": "nope"}, "profiles": []})
    bad_type = speedscope_document(rows)
    bad_type["profiles"][0]["type"] = "evented"
    with pytest.raises(ValueError, match="unsupported profile type"):
        validate_speedscope(bad_type)
    mismatch = speedscope_document(rows)
    mismatch["profiles"][0]["weights"] = [1]
    with pytest.raises(ValueError, match="length mismatch"):
        validate_speedscope(mismatch)
    out_of_range = speedscope_document(rows)
    out_of_range["profiles"][0]["samples"][0] = [999]
    with pytest.raises(ValueError, match="out of range"):
        validate_speedscope(out_of_range)
    short_end = speedscope_document(rows)
    short_end["profiles"][0]["endValue"] = 5
    with pytest.raises(ValueError, match="endValue"):
        validate_speedscope(short_end)


# -- acceptance: compare names the guilty phase ------------------------------
def host_case(host, **kwargs):
    case = make_case(**kwargs)
    case["host"] = host
    return case


def test_injected_slowdown_is_attributed_to_the_guilty_phase(monkeypatch):
    from repro.noc.router import Router

    _, clean = run_with_ledger(small_spec(cycles=400), seed=5)

    original = Router._stage_rc_va

    def slow_rc_va(self, now):
        time.sleep(20e-6)  # the "time.sleep in VA" of the acceptance test
        return original(self, now)

    monkeypatch.setattr(Router, "_stage_rc_va", slow_rc_va)
    _, slowed = run_with_ledger(small_spec(cycles=400), seed=5)

    npc_clean = clean.record_summary()["ns_per_cycle"]
    npc_slow = slowed.record_summary()["ns_per_cycle"]
    assert npc_slow["rc_va"] > 3 * npc_clean["rc_va"]
    # Attribution stays conserved even with the sleep inside the lap.
    slowed.check_conservation()

    before = make_bench_doc(fig11=host_case(clean.record_summary()))
    after = make_bench_doc(fig11=host_case(slowed.record_summary()))
    verdicts = compare_bench(before, after)
    flagged = {v.metric for v in regressions(verdicts)}
    assert "host.rc_va" in flagged
    # Gating isolates the phase verdicts from unrelated noise.
    gated = regressions(verdicts, gate=["host.rc_va"])
    assert [v.metric for v in gated] == ["host.rc_va"]
    assert regressions(verdicts, gate=["events"]) == []


def test_compare_tolerates_missing_host_blocks():
    old = make_bench_doc(fig11=make_case())  # pre-hostprof bench file
    new = make_bench_doc(
        fig11=host_case(
            {
                "stride": 1,
                "timed_cycles": 100,
                "total_cycles": 100,
                "conservation": 1.0,
                "ns_per_cycle": {"sa_st": 5000.0, "link": 1000.0},
                "shares": {"sa_st": 0.8, "link": 0.2},
            }
        )
    )
    verdicts = compare_bench(old, new)
    host_verdicts = [v for v in verdicts if v.metric.startswith("host.")]
    assert host_verdicts and all(v.verdict == "n/a" for v in host_verdicts)
    assert regressions(verdicts, gate=["host"]) == []


def test_compare_skips_sub_noise_phases():
    base = {
        "stride": 1,
        "timed_cycles": 100,
        "total_cycles": 100,
        "conservation": 1.0,
        "ns_per_cycle": {"sa_st": 10_000.0, "stats": 50.0},
        "shares": {"sa_st": 0.995, "stats": 0.005},
    }
    tripled_tiny = dict(base, ns_per_cycle={"sa_st": 10_000.0, "stats": 150.0})
    verdicts = compare_bench(
        make_bench_doc(fig11=host_case(base)),
        make_bench_doc(fig11=host_case(tripled_tiny)),
    )
    # A 3x jump in a 0.5%-share phase is absolute noise, not a regression.
    assert not any(v.metric == "host.stats" for v in verdicts)
    assert not regressions(verdicts, gate=["host"])

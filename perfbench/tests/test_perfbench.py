"""Fast checks of the benchmark itself, on workloads of reduced length."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

workloads.use_program()

NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def small(name: str, pinned: dict | None = None) -> workloads.Workload:
    """A reduced-length variant of a single-run workload (nothing pinned)."""
    pinned = {} if pinned is None else pinned
    if name == "phy_torus_256":
        return workloads.PhyTorus256(pinned=pinned, cycles=120)
    return workloads.ChannelCns256(pinned=pinned, iterations=1)


SINGLE_RUN = ["phy_torus_256", "channel_cns_256"]


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict:
    """Per-layer outcome and metrics of each reduced single-run workload."""
    out = tmp_path_factory.mktemp("trace")
    return {name: run.per_layer(small(name), 1, 0, out) for name in SINGLE_RUN}


def test_metric_names_and_units_are_printed(traced, capsys) -> None:
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    outcome, metrics = run.end_to_end(small("channel_cns_256"), 1, 0)
    assert outcome.failed == 0
    assert [m["name"] for m in declared["end_to_end"]] == run.END_TO_END
    assert set(run.END_TO_END) | set(run.PRINTED_ONLY) == set(metrics)
    for _, layers in traced.values():
        assert [m["name"] for m in declared["per_layer"]] == list(layers)
    for name, metric in [*metrics.items(), *traced["phy_torus_256"][1].items()]:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(metric.unit), (name, metric.unit)
    run.report(outcome, metrics, run.END_TO_END)
    lines = capsys.readouterr().out.splitlines()
    for name, metric in metrics.items():
        assert any(line.split()[0] == name and metric.unit in line.split() for line in lines)
    result = json.loads(lines[-1])
    # One warm-up rep and one timed rep.
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_traced_run_is_passive_and_phy_calls_follow_the_topology(traced) -> None:
    for name, (outcome, _) in traced.items():
        # The traced rep is checked against the untraced rep's fingerprint.
        assert outcome.attempted == 2 and outcome.failed == 0, (name, outcome.problems)
    assert traced["channel_cns_256"][1]["core.phy.calls"].value == 0
    assert traced["phy_torus_256"][1]["core.phy.calls"].value > 0
    assert traced["phy_torus_256"][1]["noc.router.calls"].value > 0


def test_reps_are_scaled_by_the_probes_around_them(monkeypatch) -> None:
    import hostprobe

    class SlowHost(hostprobe.HostProbe):
        """Every probe reads twice the nominal time: the host runs at half speed."""

        def sample(self) -> float:
            super().sample()
            self.samples[-1] = 2 * hostprobe.NOMINAL_S
            return self.samples[-1]

    monkeypatch.setattr(run, "HostProbe", SlowHost)
    workload = small("channel_cns_256")
    outcome = run.Outcome()
    probed = run.probed_repeat(workload, workload.setup(1), 1, 0, outcome)
    assert outcome.attempted == 2 and outcome.failed == 0
    half_speed = 2**hostprobe.EXPONENT
    assert probed.raw_s and probed.scaled_s == pytest.approx([t / half_speed for t in probed.raw_s])
    assert probed.raw_s[0] == outcome.reps[1].wall_s


@pytest.mark.parametrize("name", SINGLE_RUN)
def test_perturbed_fingerprint_is_a_failed_run(name: str) -> None:
    workload = small(name)
    inputs = workload.setup(1)
    fingerprint = json.loads(workload.rep(inputs).fingerprint)
    fingerprint["router_flits"] += 1
    rep = run.run_rep(small(name, pinned={"1": fingerprint}), inputs, 1)
    assert rep.failed == 1
    assert "pinned fingerprint" in rep.failures[0][1]


def test_reps_of_an_unpinned_seed_must_agree() -> None:
    workload = small("channel_cns_256")
    inputs = workload.setup(7)
    assert run.run_rep(workload, inputs, 7).failed == 0
    workload._first_fingerprint = "{}"
    rep = run.run_rep(workload, inputs, 7)
    assert rep.failed == 1 and "first rep" in rep.failures[0][1]


@pytest.mark.parametrize("name", SINGLE_RUN)
def test_dropped_packet_is_a_failed_run(name: str, monkeypatch) -> None:
    from repro.noc.network import Network

    workload = small(name)
    inputs = workload.setup(1)
    inject = Network.inject
    dropped: list = []

    def lossy(network, packet):
        if not dropped:
            dropped.append(packet)  # counted as injected, never reaches a router
            return
        inject(network, packet)

    monkeypatch.setattr(Network, "inject", lossy)
    rep = run.run_rep(workload, inputs, 1)
    assert dropped and rep.failed == 1
    assert any("unaccounted" in problem for _, problem in rep.failures)


def test_dropped_body_flit_is_a_failed_run(monkeypatch) -> None:
    from repro.noc.link import PipelinedLink

    workload = small("channel_cns_256")
    inputs = workload.setup(1)
    accept = PipelinedLink.accept
    dropped: list = []

    def lossy(link, flit, vc, now):
        if not dropped and not flit.is_head and not flit.is_tail:
            dropped.append(flit)
            link._note_accept(now)
            return
        accept(link, flit, vc, now)

    monkeypatch.setattr(PipelinedLink, "accept", lossy)
    rep = run.run_rep(workload, inputs, 1)
    assert dropped and rep.failed == rep.runs == 1


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


@pytest.mark.parametrize(
    "target", ["repro.sim.engine.Engine.run_until_drained", "repro.topology.system.build_system"]
)
def test_exception_is_a_failed_run_and_still_reported(target, monkeypatch, capsys) -> None:
    monkeypatch.setattr(target, _boom)
    outcome, metrics = run.end_to_end(small("channel_cns_256"), 1, 0)
    assert outcome.attempted == outcome.failed == 1
    assert metrics["runs_failed_frac"].value == 1
    assert "wall_s" not in metrics and "sim_cycles_per_s" not in metrics
    result = run.report(outcome, metrics, run.END_TO_END)
    assert not result["correct"] and result["failed"] == 1
    assert "boom" in capsys.readouterr().err


def test_failed_fresh_interpreter_setup_is_a_failed_run(monkeypatch) -> None:
    monkeypatch.setattr(run.sys, "executable", shutil.which("false"))
    outcome, metrics = run.end_to_end(small("channel_cns_256"), 1, 0)
    assert outcome.failed == 1 and "setup_s" not in metrics
    assert "fresh interpreter" in outcome.problems[0]


def test_exits_nonzero_without_the_program(tmp_path) -> None:
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phy_torus_256", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` runs the workload
untraced, once to warm up and then as long as another rep fits in
``--seconds``, and reports the end-to-end metrics, with host times scaled
to a reference host speed by the probe in ``hostprobe.py``.  ``--trace 1``
runs it untraced for half the time, then once more under the outside-in
tracer (see ``tracer.py``), and reports the per-layer metrics.  Every
metric is printed by name with its unit and sample count; the last line
of output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every simulated run passed
its checks.

``--pin`` re-records ``pinned.json`` from one rep of each workload at the
default seed; use it only when a change is meant to alter the simulated
statistics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import AbstractContextManager, nullcontext
from pathlib import Path
from typing import Callable, Optional, TypeVar

import hostprobe
import tracer as tracing
import workloads
from hostprobe import HostProbe
from workloads import DEFAULT_SEED, WORKLOADS, Rep, Workload

#: Set-ups timed per end-to-end run, each in a fresh interpreter.  Import
#: time, most of set-up, varies by up to 2x between back-to-back
#: interpreters: one in-process set-up per run spread up to 0.37 over
#: ten runs.
SETUP_RUNS = 5
#: Where the traced run writes its spans (inside the checkout, git-ignored).
TRACE_DIR = workloads.ROOT / ".perfbench-out"


class Metric:
    """One reported number: value, unit and how many samples it summarizes."""

    def __init__(self, value: float, unit: str, samples: int) -> None:
        self.value = value
        self.unit = unit
        self.samples = samples


class Outcome:
    """Reps of one run of the benchmark, with the failures they found."""

    def __init__(self) -> None:
        self.reps: list[Rep] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, rep: Rep) -> None:
        self.reps.append(rep)
        self.attempted += rep.runs
        self.failed += rep.failed
        self.problems.extend(f"{label}: {problem}" for label, problem in rep.failures)


def failed_rep(workload: Workload, exc: Exception) -> Rep:
    """A rep that raised ``exc``: every run of it failed."""
    rep = Rep(runs=workload.runs_per_rep)
    detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
    rep.failures = [(f"run {i}", detail) for i in range(rep.runs)]
    return rep


def run_rep(
    workload: Workload,
    inputs: object,
    seed: int,
    timed: Callable[[], AbstractContextManager] = nullcontext,
) -> Rep:
    """One rep with its checks; an exception fails every run of the rep.

    The previous rep's networks are collected first, so that neither its
    memory nor a collection of its garbage lands in this rep.
    """
    gc.collect()
    try:
        rep = workload.rep(inputs, timed)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed run, reported below
        return failed_rep(workload, exc)
    workload.check_fingerprint(rep, seed)
    return rep


def repeat(workload: Workload, inputs: object, seed: int, seconds: float, outcome: Outcome) -> None:
    """Run reps while another one fits in ``seconds`` (at least one); stop at a failure."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rep = run_rep(workload, inputs, seed)
        outcome.add(rep)
        now = time.perf_counter()
        if rep.failures or now - start + (now - t0) > seconds:
            return


class Probed:
    """What :func:`probed_repeat` measured."""

    def __init__(self) -> None:
        #: Unscaled and scaled host times of the timed reps that passed.
        self.raw_s: list[float] = []
        self.scaled_s: list[float] = []
        self.probe: Optional[HostProbe] = None
        self.peak_rss_mb = 0.0


def probed_repeat(
    workload: Workload, inputs: object, seed: int, seconds: float, outcome: Outcome
) -> Probed:
    """A warm-up rep, then probed reps while another one fits in ``seconds``.

    The warm-up rep is checked but not timed; the peak RSS is read after
    it, before the probe's data exists.  Every later rep starts and ends
    with a probe and probes between its network cycles (see
    :meth:`HostProbe.between_cycles`); the probes inside it are taken out
    of its host time, which is then scaled by the probes around each
    stretch of it.  Stops at a failed rep.
    """
    probed = Probed()
    start = time.perf_counter()
    warm_up = run_rep(workload, inputs, seed)
    outcome.add(warm_up)
    probed.peak_rss_mb = peak_rss_mb()
    if warm_up.failures:
        return probed
    probe = probed.probe = HostProbe()
    probe.sample()
    while True:
        t0 = time.perf_counter()
        before = len(probe.samples) - 1
        rep = run_rep(workload, inputs, seed, probe.between_cycles)
        inside = sum(probe.samples[before + 1 :])
        probe.sample()
        outcome.add(rep)
        if not rep.failures:
            rep.wall_s -= inside
            probed.raw_s.append(rep.wall_s)
            probed.scaled_s.append(rep.wall_s * probe.factor(before))
        now = time.perf_counter()
        if rep.failures or now - start + (now - t0) > seconds:
            return probed


def setup_once(workload: Workload, seed: int) -> float:
    """Host time of one set-up: import the workload's modules, build its inputs."""
    t0 = time.perf_counter()
    workload.setup(seed)
    return time.perf_counter() - t0


def current_cpu() -> int:
    """The CPU this process runs on now (Linux ``/proc``)."""
    with open("/proc/self/stat", encoding="ascii") as stat:
        return int(stat.read().rsplit(")", 1)[1].split()[36])


def timed_setup(workload: Workload, seed: int, probe: HostProbe) -> float:
    """Median scaled host time of :data:`SETUP_RUNS` set-ups.

    Each runs :func:`setup_once` in a fresh interpreter, on the CPU this
    process (and so the probe) runs on, and is scaled by the mean of the
    probes right before and after it.  The first probe after a fresh
    interpreter reads up to 2x slow (the interpreter has evicted the
    probe's data), so it is taken but not used.
    """
    cpu = current_cpu()
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", workload.name, "--seed", str(seed),
    ]
    scaled = []
    for _ in range(SETUP_RUNS):
        before = probe.sample()
        child = subprocess.run(
            command, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        if child.returncode != 0:
            lines = child.stderr.strip().splitlines() or [f"exit code {child.returncode}"]
            raise RuntimeError(f"set-up in a fresh interpreter failed: {lines[-1]}")
        probe.sample()
        after = probe.sample()
        scaled.append(float(child.stdout.split()[-1]) * hostprobe.scale((before + after) / 2))
    return statistics.median(scaled)


T = TypeVar("T")


def guarded(workload: Workload, outcome: Outcome, step: Callable[[], T]) -> Optional[T]:
    """``step()``, or None with a failed rep in ``outcome`` if it raised."""
    try:
        return step()
    except Exception as exc:  # noqa: BLE001 - a crash is a failed run, reported below
        outcome.add(failed_rep(workload, exc))
        return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload: Workload, seed: int, seconds: float) -> tuple[Outcome, dict[str, Metric]]:
    """End-to-end metrics; the rates cover only the reps that passed.

    The inputs of the reps come from one untimed in-process set-up;
    ``setup_s`` is timed after the reps, in fresh interpreters, once the
    probe's data exists.
    """
    outcome = Outcome()
    metrics: dict[str, Metric] = {}
    inputs = guarded(workload, outcome, lambda: workload.setup(seed))
    if inputs is None:
        metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MB", 1)
    else:
        probed = probed_repeat(workload, inputs, seed, seconds, outcome)
        metrics["peak_rss_mb"] = Metric(probed.peak_rss_mb, "MB", 1)
        if probed.scaled_s:
            probe, n = probed.probe, len(probed.scaled_s)
            wall_s = statistics.median(probed.scaled_s)
            last = [rep for rep in outcome.reps if not rep.failures][-1]
            metrics["wall_s"] = Metric(wall_s, "s", n)
            metrics["sim_cycles_per_s"] = Metric(last.cycles / wall_s, "cycles/s", n)
            metrics["flit_hops_per_s"] = Metric(last.flit_hops / wall_s, "hops/s", n)
            metrics["host.raw_wall_s"] = Metric(statistics.median(probed.raw_s), "s", n)
            setup_s = guarded(workload, outcome, lambda: timed_setup(workload, seed, probe))
            if setup_s is not None:
                metrics["setup_s"] = Metric(setup_s, "s", SETUP_RUNS)
            metrics["host.probe_s"] = Metric(statistics.median(probe.samples), "s", len(probe.samples))
    metrics["runs_failed_frac"] = Metric(outcome.failed / outcome.attempted, "ratio", outcome.attempted)
    return outcome, metrics


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when the layer saw no work to divide by."""
    return num / den if den else 0.0


def per_layer(
    workload: Workload, seed: int, seconds: float, out_dir: Path
) -> tuple[Outcome, dict[str, Metric]]:
    outcome = Outcome()
    inputs = guarded(workload, outcome, lambda: workload.setup(seed))
    if inputs is None:
        return outcome, {}
    repeat(workload, inputs, seed, seconds / 2, outcome)
    if outcome.failed:
        return outcome, {}
    untraced_s = statistics.median(rep.wall_s for rep in outcome.reps)
    with tracing.Tracer() as tracer:
        tracing.trace_simulator(tracer)
        traced_inputs = guarded(workload, outcome, lambda: workload.setup(seed))
        if traced_inputs is None:
            return outcome, {}
        rep = run_rep(workload, traced_inputs, seed, tracer.hot)
    outcome.add(rep)
    tracer.dump(
        out_dir / f"trace-{workload.name}-seed{seed}.json",
        {"workload": workload.name, "seed": seed, "wall_s": rep.wall_s, "cycles": rep.cycles},
    )
    cycles, hops = rep.cycles, rep.flit_hops
    phy_flits = rep.phy_parallel + rep.phy_serial
    points = [ns / 1e9 for ns in tracer.span_ns("exps.point")]
    router_calls = tracer.calls("noc.router")
    link_calls, phy_calls = tracer.calls("noc.link"), tracer.calls("core.phy")
    values = {
        "exps.points": (len(points), "count"),
        "exps.point_s_median": (statistics.median(points) if points else 0.0, "s"),
        "exps.point_s_max": (max(points, default=0.0), "s"),
        "topology.build_system_s": (sum(tracer.span_ns("topology.build_system")) / 1e9, "s"),
        "sim.build.build_network_s": (sum(tracer.span_ns("sim.build.build_network")) / 1e9, "s"),
        "traffic.trace_gen_s": (sum(tracer.span_ns("traffic.trace_gen")) / 1e9, "s"),
        "traffic.workload_step.calls": (tracer.calls("traffic.workload_step"), "count"),
        "traffic.workload_step.ns_per_cycle": (
            _ratio(tracer.self_ns("traffic.workload_step"), cycles),
            "ns/cycle",
        ),
        "sim.engine.self_ns_per_cycle": (_ratio(tracer.self_ns("sim.engine"), cycles), "ns/cycle"),
        "noc.network.self_ns_per_cycle": (_ratio(tracer.self_ns("noc.network"), cycles), "ns/cycle"),
        "noc.network.router_steps_per_cycle": (_ratio(router_calls, cycles), "steps/cycle"),
        "noc.network.link_steps_per_cycle": (_ratio(link_calls + phy_calls, cycles), "steps/cycle"),
        "noc.router.calls": (router_calls, "count"),
        "noc.router.self_ns_per_flit_hop": (_ratio(tracer.self_ns("noc.router"), hops), "ns/flit-hop"),
        "noc.router.idle_step_frac": (_ratio(tracer.idle_router_steps, router_calls), "ratio"),
        "routing.calls": (tracer.calls("routing"), "count"),
        "routing.self_ns_per_call": (
            _ratio(tracer.self_ns("routing"), tracer.calls("routing")),
            "ns/call",
        ),
        "noc.link.calls": (link_calls, "count"),
        "noc.link.self_ns_per_flit": (_ratio(tracer.self_ns("noc.link"), rep.link_flits), "ns/flit"),
        "core.phy.calls": (phy_calls, "count"),
        "core.phy.self_ns_per_flit": (_ratio(tracer.self_ns("core.phy"), phy_flits), "ns/flit"),
        "core.phy.serial_flit_frac": (_ratio(rep.phy_serial, phy_flits), "ratio"),
        "sim.stats.calls": (tracer.calls("sim.stats"), "count"),
        "sim.stats.self_ns_per_flit_hop": (_ratio(tracer.self_ns("sim.stats"), hops), "ns/flit-hop"),
        "trace.overhead_frac": (rep.wall_s / untraced_s - 1, "ratio"),
    }
    return outcome, {name: Metric(value, unit, 1) for name, (value, unit) in values.items()}


def report(outcome: Outcome, metrics: dict[str, Metric], json_names: list[str]) -> dict:
    """Print every metric, then the one-line JSON result; return the result."""
    for name, metric in metrics.items():
        print(f"{name:<38} {metric.value:>18.6g} {metric.unit:<12} n={metric.samples}")
    print("rep wall_s:", " ".join(f"{rep.wall_s:.4f}" for rep in outcome.reps))
    for problem in outcome.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = outcome.failed == 0 and outcome.attempted > 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name].value, "unit": metrics[name].unit}
            for name in json_names
            if name in metrics and math.isfinite(metrics[name].value)
        },
    }
    print(json.dumps(result))
    return result


#: Names in the JSON result.  ``runs_failed_frac`` is printed above but is
#: carried in the JSON by ``attempted`` and ``failed``.
END_TO_END = ["wall_s", "sim_cycles_per_s", "flit_hops_per_s", "setup_s", "peak_rss_mb"]
#: Printed only: the failed share, the median probe time and the median
#: unscaled rep time, so that the scaling can be checked.
PRINTED_ONLY = ["runs_failed_frac", "host.probe_s", "host.raw_wall_s"]


def pin() -> int:
    """Re-record ``pinned.json`` from one rep of each workload at the default seed."""
    pinned: dict[str, dict] = {}
    for name, cls in WORKLOADS.items():
        workload = cls(pinned={})
        rep = workload.rep(workload.setup(DEFAULT_SEED))
        if rep.failures:
            print(f"{name}: {rep.failures}", file=sys.stderr)
            return 1
        fingerprint = json.loads(rep.fingerprint)
        pinned[name] = fingerprint if name == "fig12_regen" else {str(DEFAULT_SEED): fingerprint}
    workloads.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="re-record pinned.json")
    parser.add_argument("--setup-only", action="store_true", help="print one set-up's host time")
    args = parser.parse_args(argv)
    try:
        workloads.use_program()
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]()
    if args.setup_only:
        print(setup_once(workload, args.seed))
        return 0
    if args.trace:
        outcome, metrics = per_layer(workload, args.seed, args.seconds, TRACE_DIR)
        names = list(metrics)
    else:
        outcome, metrics = end_to_end(workload, args.seed, args.seconds)
        names = END_TO_END
    result = report(outcome, metrics, names)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

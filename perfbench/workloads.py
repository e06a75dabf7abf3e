"""The benchmark's workloads, driven only through the simulator's public API.

Each workload is a fixed batch job.  :meth:`setup` imports the simulator
and builds the inputs (system specs, traces) from the workload seed;
:meth:`rep` runs the timed entry call(s) once and then, outside the timed
region, checks the outputs:

* the simulated-statistics fingerprint must match the pinned one (default
  seed) or agree across reps (any other seed);
* every flit handed to the network must be accounted for: a run ends with
  each injected flit delivered, buffered in a router or in flight on a
  link.  Runs that stop at a fixed cycle are drained afterwards, so the
  check reduces to "injected = delivered" on an empty network.

Any exception or mismatch makes the run a failed run.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FIG12_CSV = ROOT / "benchmarks" / "results" / "fig12_tiny.csv"
PINNED = Path(__file__).with_name("pinned.json")

#: The seed whose fingerprints are pinned in ``pinned.json``.
DEFAULT_SEED = 1
#: Drain allowance after a fixed-cycle run (cycles, far above any latency).
DRAIN_CYCLES = 20_000


class ProgramMissing(RuntimeError):
    """The simulator sources are not next to the benchmark."""


def use_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; refuse without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"simulator sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_pinned() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))


@contextmanager
def wrapped(owner: Any, name: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.name`` by ``make(original)`` for the block's duration.

    ``owner`` must define ``name`` itself, so that restoring the original
    cannot shadow an inherited attribute.
    """
    original = vars(owner)[name]
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


@dataclass
class Rep:
    """One execution of a workload's timed entry call(s)."""

    wall_s: float = 0.0
    #: Simulated runs attempted in this rep.
    runs: int = 0
    #: (run label, problem): a run with any problem is a failed run.
    failures: list[tuple[str, str]] = field(default_factory=list)
    #: Simulated cycles and router flit-hops over all runs of the rep.
    cycles: int = 0
    flit_hops: int = 0
    #: Flits carried by plain links, and by hetero-PHY links per PHY.
    link_flits: int = 0
    phy_parallel: int = 0
    phy_serial: int = 0
    #: Canonical JSON of the simulated statistics (compared across reps).
    fingerprint: str = ""

    @property
    def failed(self) -> int:
        return min(self.runs, len({label for label, _ in self.failures}))

    def add_run(self, result: Any) -> None:
        """Fold one ``RunResult`` into the rep's totals."""
        from repro.noc.channel import ChannelKind

        stats = result.stats
        self.runs += 1
        self.cycles += result.cycles
        self.flit_hops += stats.router_flits
        self.link_flits += sum(
            n for kind, n in stats.link_flits.items() if kind is not ChannelKind.HETERO_PHY
        )
        self.phy_parallel += result.phy_split[0]
        self.phy_serial += result.phy_split[1]


def canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def fingerprint(result: Any) -> dict:
    """Simulated statistics of one run: summary, latencies, flit counts."""
    stats = result.stats
    latencies = canonical(stats.latencies).encode()
    return {
        "cycles": result.cycles,
        "summary": stats.summary(),
        "latencies": {"n": len(stats.latencies), "sha256": hashlib.sha256(latencies).hexdigest()},
        "router_flits": stats.router_flits,
        "flits_injected": stats.flits_injected,
        "phy_split": list(result.phy_split),
    }


def flit_accounting(stats: Any, network: Any, trace: Any = None) -> list[str]:
    """Problems with the flit ledger of one finished run (empty if none).

    Every injected flit must be delivered, buffered in a router or in
    flight on a link.  Statistics must cover every packet (warm-up 0).
    With ``trace`` given, the run must also have received all its packets.
    """
    problems = []
    if stats.measure_from != 0:
        problems.append("flit accounting needs a run measured from cycle 0")
    held = network.buffered_flits() + network.in_flight_flits()
    if stats.flits_injected != stats.flits_delivered + held:
        problems.append(
            f"flits unaccounted: injected {stats.flits_injected}, delivered "
            f"{stats.flits_delivered}, buffered or in flight {held}"
        )
    if held == 0 and stats.packets_injected != stats.packets_delivered:
        problems.append(
            f"packets lost: injected {stats.packets_injected}, delivered {stats.packets_delivered}"
        )
    if trace is not None and (
        stats.packets_injected != len(trace) or stats.flits_injected != trace.total_flits
    ):
        problems.append(
            f"trace handed {len(trace)} packets / {trace.total_flits} flits, network "
            f"received {stats.packets_injected} / {stats.flits_injected}"
        )
    return problems


@contextmanager
def captured_networks() -> Iterator[list]:
    """Collect every network the experiment harness builds in the block."""
    import repro.sim.experiment as experiment

    networks: list = []

    def make(build: Callable) -> Callable:
        def build_and_keep(*args, **kwargs):
            network = build(*args, **kwargs)
            networks.append(network)
            return network

        return build_and_keep

    with wrapped(experiment, "build_network", make):
        yield networks


class _Exhausted:
    """A workload with no packets left; drains a network after a run."""

    def step(self, now: int) -> list:
        return []

    def done(self, now: int) -> bool:
        return True


def drain(network: Any, stats: Any, cycle: int) -> None:
    """Keep simulating a fixed-cycle run until its network is empty."""
    from repro.sim.engine import Engine

    engine = Engine(network, _Exhausted(), stats)
    engine.cycle = cycle
    engine.run_until_drained(DRAIN_CYCLES)


class Workload:
    """Base class: a named batch job with pinned outputs."""

    name = ""
    #: Simulated runs per rep, and the label a single-run rep reports under.
    runs_per_rep = 1
    run_label = "run"
    #: Modules whose import is part of set-up.
    modules: tuple[str, ...] = ()

    def __init__(self, pinned: Optional[dict] = None) -> None:
        self.pinned = load_pinned().get(self.name, {}) if pinned is None else pinned
        self._first_fingerprint: Optional[str] = None

    def setup(self, seed: int) -> Any:
        self.import_modules()
        return self.build_inputs(seed)

    def import_modules(self) -> None:
        for module in self.modules:
            importlib.import_module(module)

    def build_inputs(self, seed: int) -> Any:
        raise NotImplementedError

    def rep(self, inputs: Any, timed: Callable[[], AbstractContextManager] = nullcontext) -> Rep:
        """Run the timed entry call(s) once, inside ``timed()``, then check."""
        raise NotImplementedError

    def expected(self, seed: int) -> Optional[str]:
        """The pinned fingerprint for ``seed`` (None if the seed is not pinned)."""
        pinned = self.pinned.get(str(seed))
        return canonical(pinned) if pinned is not None else None

    def check_fingerprint(self, rep: Rep, seed: int) -> None:
        """Compare with the pinned fingerprint, or with the first rep's."""
        expected, source = self.expected(seed), "pinned"
        if expected is None:
            if self._first_fingerprint is None:
                self._first_fingerprint = rep.fingerprint
                return
            expected, source = self._first_fingerprint, "first rep"
        if rep.fingerprint != expected:
            rep.failures.append(
                (self.run_label, f"simulated statistics differ from the {source} fingerprint")
            )


class Fig12Regen(Workload):
    """The full ``repro.exps.fig12.run("tiny")`` artifact: 12 trace replays.

    The artifact is fixed by its figure definition, so the seed does not
    change it; its table must equal the committed CSV byte for byte.
    """

    name = "fig12_regen"
    runs_per_rep = 12
    modules = ("repro.exps.fig12",)

    def build_inputs(self, seed: int) -> Any:
        return importlib.import_module("repro.exps.fig12")

    def rep(self, fig12: Any, timed: Callable[[], AbstractContextManager] = nullcontext) -> Rep:
        rep = Rep()
        results: list[tuple[Any, Any, Any]] = []

        def make(run_trace: Callable) -> Callable:
            def run_point(spec, trace, *args, **kwargs):
                start = len(networks)
                result = run_trace(spec, trace, *args, **kwargs)
                results.append((result, networks[start], trace))
                return result

            return run_point

        with captured_networks() as networks, wrapped(fig12, "run_trace", make), timed():
            t0 = time.perf_counter()
            table = fig12.run("tiny")
            rep.wall_s = time.perf_counter() - t0
        for point, (result, network, trace) in enumerate(results):
            rep.add_run(result)
            for problem in flit_accounting(result.stats, network, trace):
                rep.failures.append((f"point {point}", problem))
        csv = (table.to_csv() + "\n").encode()
        expected = FIG12_CSV.read_bytes()
        if csv != expected:
            # Line i + 1 of the table is point i; a header or length change
            # fails every point.
            got, want = csv.splitlines(keepends=True), expected.splitlines(keepends=True)
            same_shape = got[0] == want[0] and len(got) == len(want)
            for point in range(len(results)):
                if not same_shape or got[point + 1] != want[point + 1]:
                    rep.failures.append((f"point {point}", f"row differs from {FIG12_CSV.name}"))
        rep.fingerprint = canonical({"cycles": rep.cycles, "router_flits": rep.flit_hops})
        return rep

    def expected(self, seed: int) -> Optional[str]:
        # Seed-independent: the pinned totals hold for every seed.
        return canonical(self.pinned) if self.pinned else None


class PhyTorus256(Workload):
    """One ``run_synthetic`` on the Fig 11 small grid, hetero-PHY torus.

    4x4 chiplets of 4x4 nodes (256 nodes), uniform Bernoulli injection at
    0.15 flits/cycle/node for a fixed number of cycles, statistics from
    cycle 0 (buffers start empty).  The run is drained afterwards, outside
    the timed region, for the flit accounting.
    """

    name = "phy_torus_256"
    modules = ("repro.sim.experiment", "repro.topology.system", "repro.exps.common")
    rate = 0.15

    def __init__(self, pinned: Optional[dict] = None, cycles: int = 1500) -> None:
        super().__init__(pinned)
        self.cycles = cycles

    def build_inputs(self, seed: int) -> Any:
        from repro.exps.common import scaled_config
        from repro.topology.grid import ChipletGrid
        import repro.topology.system as system

        spec = system.build_system("hetero_phy_torus", ChipletGrid(4, 4, 4, 4), scaled_config("small"))
        return spec, seed

    def rep(self, inputs: Any, timed: Callable[[], AbstractContextManager] = nullcontext) -> Rep:
        import repro.sim.experiment as experiment

        spec, seed = inputs
        rep = Rep()
        with captured_networks() as networks, timed():
            t0 = time.perf_counter()
            result = experiment.run_synthetic(
                spec, "uniform", self.rate, cycles=self.cycles, warmup=0, seed=seed
            )
            rep.wall_s = time.perf_counter() - t0
        rep.add_run(result)
        rep.fingerprint = canonical(fingerprint(result))
        drain(networks[0], result.stats, result.cycles)
        rep.failures.extend((self.run_label, p) for p in flit_accounting(result.stats, networks[0]))
        return rep


class ChannelCns256(Workload):
    """One strict ``run_trace`` of the Fig 15 small CNS trace, hetero-channel.

    ``generate_cns_trace(64, 5)`` with the workload seed, embedded on the
    core nodes of the 256-node grid, replayed until drained.
    """

    name = "channel_cns_256"
    modules = (
        "repro.sim.experiment",
        "repro.topology.system",
        "repro.exps.common",
        "repro.traffic.hpc",
    )

    def __init__(self, pinned: Optional[dict] = None, iterations: int = 5) -> None:
        super().__init__(pinned)
        self.iterations = iterations

    def build_inputs(self, seed: int) -> Any:
        from repro.exps.common import scaled_config
        from repro.topology.grid import ChipletGrid
        import repro.topology.system as system
        import repro.traffic.hpc as hpc

        grid = ChipletGrid(4, 4, 4, 4)
        spec = system.build_system("hetero_channel", grid, scaled_config("small"))
        trace = hpc.embed_ranks(
            hpc.generate_cns_trace(64, self.iterations, seed=seed), grid, core_only=True
        )
        return spec, trace

    def rep(self, inputs: Any, timed: Callable[[], AbstractContextManager] = nullcontext) -> Rep:
        import repro.sim.experiment as experiment

        spec, trace = inputs
        rep = Rep()
        with captured_networks() as networks, timed():
            t0 = time.perf_counter()
            result = experiment.run_trace(spec, trace, strict=True)
            rep.wall_s = time.perf_counter() - t0
        rep.add_run(result)
        rep.fingerprint = canonical(fingerprint(result))
        rep.failures.extend(
            (self.run_label, p) for p in flit_accounting(result.stats, networks[0], trace)
        )
        return rep


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Fig12Regen, PhyTorus256, ChannelCns256)
}


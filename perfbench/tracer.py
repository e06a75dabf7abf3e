"""Outside-in tracer for the benchmark's traced run.

The tracer wraps the simulator's public per-layer entry points from the
outside (class methods, module functions and each network's routing
function) and restores them when it is done.  The simulator is not edited
and never sees the tracer: every wrapper calls the original with the same
arguments and returns its result unchanged, so a traced run simulates
exactly what an untraced one does.

It keeps three records in memory and writes them out with :meth:`dump`:

* spans at the coarse boundaries (an experiment point, a system or
  network build, a trace generation): id, layer, parent span id, start
  and end in host nanoseconds;
* exact call counts at every boundary, folded per (layer, parent layer);
* self time per layer, from a wall-clock sampler.  While the timed region
  runs, a ``SIGALRM`` timer interrupts the process every
  :data:`INTERVAL_S` and charges one sample to the innermost open
  layer, the top of the tracer's own layer stack.  A sample that lands in
  a wrapper's own code is charged to ``trace.wrapper`` instead, so the
  tracer's cost does not show up as the self time of the layer that called
  it.  Hot boundaries (``Router.step`` runs hundreds of thousands of times
  per run) therefore cost one counting wrapper each and no clock reads.
  Part of a wrapper's cost (building the forwarded call) still lands in
  the layer it enters, so sampled self times run somewhat above untraced
  ones; ``trace.overhead_frac`` bounds the error.

Span wrappers are installed for the tracer's whole life (set-up included);
counting wrappers and the sampler only inside :meth:`Tracer.hot`, which
the workload enters around its timed entry call.
"""

from __future__ import annotations

import json
import signal
import time
from contextlib import ExitStack, contextmanager
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator

from workloads import wrapped

#: Frame slots: layer name, flit moved (set by ``Stats.note_router_flit``),
#: span id (-1 for a folded call).
_LAYER, _MOVED, _SPAN = range(3)
#: Sampling interval of the self-time sampler (seconds of wall time).
INTERVAL_S = 0.00025
#: Sample bucket for time spent in the wrappers themselves.
WRAPPER = "trace.wrapper"


class Tracer:
    """Records spans, call counts and sampled self time; see the module doc."""

    def __init__(self) -> None:
        #: layer -> parent layer -> calls
        self.folded: dict[str, dict[str, int]] = {}
        #: Coarse spans: (id, layer, parent span id, start ns, end ns).
        self.spans: list[Any] = []
        #: Sampler hits per innermost layer, and the wall time sampled.
        self.samples: dict[str, int] = {}
        self.sampled_ns = 0
        #: Router.step calls that moved no flit.
        self.idle_router_steps = 0
        self._stack: list[list[Any]] = [["root", 0, -1]]
        self._spans_exit = ExitStack()
        self._hot_patches: list[tuple[Any, str, str, dict]] = []
        self._hot = False
        self._hot_networks: list[tuple[Any, Any]] = []
        #: Code object shared by every wrapper (set by the first :meth:`wrap`).
        self._wrapper_code = None

    # -- wrapping -------------------------------------------------------------
    def wrap(
        self,
        layer: str,
        fn: Callable,
        *,
        span: bool = False,
        moves_flit: bool = False,
        counts_idle: bool = False,
    ) -> Callable:
        """A passive wrapper of ``fn`` that counts it under ``layer``.

        ``span`` also records every call as a span.  ``moves_flit`` marks
        the caller's frame as having moved a flit, and ``counts_idle``
        counts calls whose frame was never so marked.
        """
        stack = self._stack
        push, pop = stack.append, stack.pop
        by_parent = self.folded.setdefault(layer, {})
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0, -1]
            if span:
                frame[_SPAN] = len(spans)
                spans.append(None)
                t0 = clock()
            push(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()
                by_parent[parent[_LAYER]] = by_parent.get(parent[_LAYER], 0) + 1
                if moves_flit:
                    parent[_MOVED] = 1
                elif counts_idle and not frame[_MOVED]:
                    tracer.idle_router_steps += 1
                if span:
                    spans[frame[_SPAN]] = (frame[_SPAN], layer, parent[_SPAN], t0, clock())

        self._wrapper_code = traced.__code__
        traced.__wrapped__ = fn
        return traced

    def span_patch(self, owner: Any, name: str, layer: str, after: Callable | None = None) -> None:
        """Record calls of ``owner.name`` as spans until :meth:`close`.

        ``after``, if given, receives each call's result.
        """

        def make(original: Callable) -> Callable:
            traced = self.wrap(layer, original, span=True)
            if after is None:
                return traced

            def traced_then(*args, **kwargs):
                result = traced(*args, **kwargs)
                after(result)
                return result

            return traced_then

        self._spans_exit.enter_context(wrapped(owner, name, make))

    def hot_patch(self, owner: Any, name: str, layer: str, **options: bool) -> None:
        """Count calls of ``owner.name`` under ``layer`` while :meth:`hot` is open."""
        self._hot_patches.append((owner, name, layer, options))

    def network_built(self, network: Any) -> None:
        """Count a network's routing calls if it is built while hot."""
        if self._hot:
            original = network.routers[0].routing_fn
            network.set_routing(self.wrap("routing", original))
            self._hot_networks.append((network, original))

    @contextmanager
    def hot(self) -> Iterator[None]:
        """Count hot boundaries and sample self time inside the block."""
        with ExitStack() as patches:
            for owner, name, layer, options in self._hot_patches:
                patches.enter_context(wrapped(owner, name, partial(self.wrap, layer, **options)))
            previous = signal.signal(signal.SIGALRM, self._sample)
            self._hot = True
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            t0 = time.perf_counter_ns()
            try:
                yield
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self.sampled_ns += time.perf_counter_ns() - t0
                self._hot = False
                signal.signal(signal.SIGALRM, previous)
                for network, original in self._hot_networks:
                    network.set_routing(original)
                self._hot_networks.clear()

    def _sample(self, signum: int, frame: Any) -> None:
        if frame is not None and frame.f_code is self._wrapper_code:
            layer = WRAPPER
        else:
            layer = self._stack[-1][_LAYER]
        self.samples[layer] = self.samples.get(layer, 0) + 1

    def close(self) -> None:
        """Restore every attribute replaced for spans."""
        self._spans_exit.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- results ----------------------------------------------------------------
    def calls(self, layer: str) -> int:
        return sum(self.folded.get(layer, {}).values())

    def self_ns(self, layer: str) -> float:
        """Sampled self time of ``layer`` in host nanoseconds."""
        total = sum(self.samples.values())
        return self.samples.get(layer, 0) / total * self.sampled_ns if total else 0.0

    def span_ns(self, layer: str) -> list[int]:
        return [end - start for _, name, _, start, end in self.spans if name == layer]

    def dump(self, path: Path, meta: dict) -> None:
        """Write spans, call counts and samples as one JSON document."""
        doc = {
            **meta,
            "sampler": {
                "interval_s": INTERVAL_S,
                "sampled_ns": self.sampled_ns,
                "samples": dict(sorted(self.samples.items())),
            },
            "spans": [
                {"id": sid, "layer": layer, "parent": parent, "start_ns": t0, "end_ns": t1}
                for sid, layer, parent, t0, t1 in self.spans
            ],
            "calls": [
                {"layer": layer, "parent": parent, "calls": calls}
                for layer, by_parent in sorted(self.folded.items())
                for parent, calls in sorted(by_parent.items())
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def trace_simulator(tracer: Tracer) -> None:
    """Register the benchmark's layer boundaries on the simulator.

    Layers are named by module.  Methods are patched on the class that
    defines them, so every call through an instance goes through the
    wrapper; functions are patched in each module namespace that callers
    look them up in.
    """
    import repro.exps.fig12 as fig12
    import repro.sim.build as build
    import repro.sim.experiment as experiment
    import repro.topology.system as system
    import repro.traffic.hpc as hpc
    import repro.traffic.parsec as parsec
    from repro.core.phy import HeteroPhyLink
    from repro.noc.link import PipelinedLink
    from repro.noc.network import Network
    from repro.noc.router import Router
    from repro.sim.engine import Engine
    from repro.sim.stats import Stats
    from repro.traffic.injection import SyntheticWorkload
    from repro.traffic.trace import TraceWorkload

    for owner, name in ((experiment, "run_synthetic"), (experiment, "run_trace"), (fig12, "run_trace")):
        tracer.span_patch(owner, name, "exps.point")
    tracer.span_patch(system, "build_system", "topology.build_system")
    for owner, name in (
        (hpc, "generate_cns_trace"),
        (hpc, "embed_ranks"),
        (parsec, "generate_parsec_trace"),
        (fig12, "generate_parsec_trace"),
    ):
        tracer.span_patch(owner, name, "traffic.trace_gen")
    # run_synthetic / run_trace look build_network up in their own module.
    for owner in (build, experiment):
        tracer.span_patch(owner, "build_network", "sim.build.build_network", tracer.network_built)

    tracer.hot_patch(Engine, "run", "sim.engine")
    tracer.hot_patch(Engine, "run_until_drained", "sim.engine")
    tracer.hot_patch(SyntheticWorkload, "step", "traffic.workload_step")
    tracer.hot_patch(TraceWorkload, "step", "traffic.workload_step")
    tracer.hot_patch(Network, "step", "noc.network")
    tracer.hot_patch(Router, "step", "noc.router", counts_idle=True)
    tracer.hot_patch(PipelinedLink, "step", "noc.link")
    tracer.hot_patch(HeteroPhyLink, "step", "core.phy")
    tracer.hot_patch(Stats, "note_router_flit", "sim.stats", moves_flit=True)
    for name in ("note_link_flit", "note_packet_injected", "note_packet_delivered"):
        tracer.hot_patch(Stats, name, "sim.stats")

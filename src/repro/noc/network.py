"""Network container and cycle loop.

A :class:`Network` owns the routers and links of one multi-chiplet system
and advances them cycle by cycle.  Only *active* routers and links — those
holding flits, credits or queued work — are stepped, which keeps large
lightly-loaded systems fast without changing cycle-level behaviour.

Activity bookkeeping is deterministic (index-ordered flags plus append-only
work lists), so two runs with the same seed produce identical results.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro.telemetry.bus import TelemetryBus

from .channel import ChannelKind, ChannelSpec
from .flit import Packet
from .link import Link, PipelinedLink
from .router import Router


class StatsSink(Protocol):
    """What the network needs from a statistics collector."""

    def note_link_flit(self, kind_id: int, energy_pj: float) -> None: ...

    def note_router_flit(self) -> None: ...

    def note_packet_delivered(self, packet: Packet, now: int) -> None: ...


LinkFactory = Callable[[ChannelSpec], Link]


def default_link_factory(spec: ChannelSpec) -> Link:
    """Build a plain pipelined link; hetero-PHY channels need a custom factory."""
    if spec.kind is ChannelKind.HETERO_PHY:
        raise ValueError(
            "HETERO_PHY channels need repro.core.phy.HeteroPhyLink; "
            "pass link_factory=hetero_phy_link_factory(...)"
        )
    return PipelinedLink(spec)


class Network:
    """Routers + links of one system, with the per-cycle scheduler."""

    def __init__(
        self,
        n_nodes: int,
        stats: StatsSink,
        *,
        injection_vcs: int = 2,
        ejection_bandwidth: int = 4,
        vct: bool = True,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("network needs at least one node")
        self.stats = stats
        #: Instrumentation seam: probes subscribe here (see repro.telemetry).
        self.telemetry = TelemetryBus()
        self.routers = [
            Router(
                node,
                self,
                injection_vcs=injection_vcs,
                ejection_bandwidth=ejection_bandwidth,
                vct=vct,
            )
            for node in range(n_nodes)
        ]
        self.links: list[Link] = []
        self.specs: list[ChannelSpec] = []
        self._router_active = [False] * n_nodes
        self._router_work: list[int] = []
        self._link_active: list[bool] = []
        self._link_work: list[int] = []
        self._finalized = False

    @property
    def n_nodes(self) -> int:
        return len(self.routers)

    # -- construction -------------------------------------------------------
    def add_channel(
        self, spec: ChannelSpec, link_factory: Optional[LinkFactory] = None
    ) -> Link:
        """Instantiate and wire one directed channel.

        Interface channels get extra credit slack (``bandwidth x round-trip``)
        on top of the configured buffer depth; this is the paper's
        "additional buffer" that hides cross-chiplet flow-control feedback
        lag (Sec 7.1).
        """
        if self._finalized:
            raise RuntimeError("cannot add channels after finalize()")
        factory = link_factory or default_link_factory
        link = factory(spec)
        link._index = len(self.links)
        depth = spec.buffer_depth
        if spec.is_interface:
            depth += spec.total_bandwidth * (spec.max_delay + link.credit_delay)
        src = self.routers[spec.src]
        dst = self.routers[spec.dst]
        in_port = dst.add_input(link)
        dst.inputs[in_port].buffer_depth = depth
        out_port = src.add_output(link, credits_per_vc=depth)
        link.attach(self, src, out_port, dst, in_port)
        self.links.append(link)
        self.specs.append(spec)
        self._link_active.append(False)
        return link

    def set_routing(self, routing_fn) -> None:
        """Install one routing function on every router."""
        for router in self.routers:
            router.routing_fn = routing_fn

    def finalize(self) -> None:
        """Freeze topology and validate per-router wiring."""
        for router in self.routers:
            router.finalize()
        self._finalized = True

    # -- activity tracking ----------------------------------------------------
    def activate_router(self, router: Router) -> None:
        node = router.node
        if not self._router_active[node]:
            self._router_active[node] = True
            self._router_work.append(node)

    def activate_link(self, link: Link) -> None:
        idx = link.index
        if not self._link_active[idx]:
            self._link_active[idx] = True
            self._link_work.append(idx)

    # -- simulation ------------------------------------------------------------
    def step(self, now: int) -> None:
        """Advance the whole network by one cycle."""
        if not self._finalized:
            raise RuntimeError("call finalize() before stepping the network")
        links = self.links
        work = self._link_work
        self._link_work = []
        for idx in work:
            if links[idx].step(now):
                self._link_work.append(idx)
            else:
                self._link_active[idx] = False
        routers = self.routers
        work_r = self._router_work
        self._router_work = []
        for node in work_r:
            if routers[node].step(now):
                self._router_work.append(node)
            else:
                self._router_active[node] = False
        if self.telemetry.cycle_end is not None:
            self.telemetry.cycle_end(self, now)

    def inject(self, packet: Packet) -> None:
        """Hand a freshly generated packet to its source router."""
        if self.telemetry.packet_inject is not None:
            self.telemetry.packet_inject(self, packet)
        self.routers[packet.src].inject(packet)

    # -- introspection -----------------------------------------------------------
    def buffered_flits(self) -> int:
        """Flits buffered in all router input VCs (excludes link pipelines)."""
        return sum(router.buffered_flits() for router in self.routers)

    def in_flight_flits(self) -> int:
        """Flits inside link pipelines."""
        total = 0
        for link in self.links:
            occupancy = getattr(link, "occupancy", None)
            if occupancy is not None:
                total += occupancy
        return total

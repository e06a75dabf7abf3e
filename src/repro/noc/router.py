"""Canonical virtual-channel router with heterogeneous interface support.

The pipeline follows the paper's simulator (Sec 7.1): 1) routing
computation, 2) VC allocation, 3) switch allocation, 4) transmission — one
cycle per stage at zero load.  Interface ports may be wider than on-chip
ports; the switch allocator can grant several flits per cycle to (and from)
such ports, which models the paper's higher-radix crossbar and multi-port
input buffer (Sec 4.1) without re-designing the rest of the router.

Routing functions are pluggable.  A routing function returns *candidate
output virtual channels* for a packet at this router::

    route(router, packet) -> list[(out_port, out_vc, is_escape)]

Escape candidates (``is_escape=True``) form the connected deadlock-free
sub-network C0 of Lemma 1; adaptive candidates are preferred and escape is
used as the fallback.  When a packet falls back to escape *because adaptive
candidates were blocked*, it is marked ``adaptive_banned`` so the livelock
rule of Sec 6.2 can restrict later choices.

Implementation note: the router is event-driven internally — input VCs
needing routing computation or VC allocation sit on a pending list, and
VCs holding an output sit on an active list — so per-cycle cost scales
with traffic, not with port count.  Allocation semantics are unchanged
from the textbook router.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from .flit import Flit, Packet
from .link import Link

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network

#: A routing candidate: (output port index, output VC index, is_escape).
Candidate = tuple[int, int, bool]
RoutingFunction = Callable[["Router", Packet], list[Candidate]]

# Input-VC pipeline states.
VC_IDLE = 0  # waiting for a head flit / routing computation
VC_VA = 1  # route computed, waiting to win an output VC
VC_ACTIVE = 2  # output VC held, flits flow through switch allocation


class InputVC:
    """One virtual-channel buffer of an input port."""

    __slots__ = (
        "port",
        "index",
        "queue",
        "state",
        "candidates",
        "out_port",
        "out_vc",
        "ready_cycle",
        "queued",
    )

    def __init__(self, port: int, index: int) -> None:
        self.port = port
        self.index = index
        self.queue: deque[Flit] = deque()
        self.state = VC_IDLE
        self.candidates: Optional[list[Candidate]] = None
        self.out_port = -1
        self.out_vc = -1
        self.ready_cycle = 0
        # True while the VC sits on one of the router's work lists.
        self.queued = False

    def reset_route(self) -> None:
        self.state = VC_IDLE
        self.candidates = None
        self.out_port = -1
        self.out_vc = -1


class InputPort:
    """An input port: the receiving side of a link, or the injection port."""

    __slots__ = ("index", "link", "vcs", "buffer_depth")

    def __init__(self, index: int, link: Optional[Link], n_vcs: int, buffer_depth: int) -> None:
        self.index = index
        self.link = link
        self.vcs = [InputVC(index, v) for v in range(n_vcs)]
        self.buffer_depth = buffer_depth

    @property
    def is_injection(self) -> bool:
        return self.link is None


class OutputPort:
    """An output port: the transmitting side of a link, or the ejection port."""

    __slots__ = ("index", "link", "n_vcs", "credits", "vc_owner", "rr_next", "bandwidth")

    def __init__(self, index: int, link: Optional[Link], n_vcs: int, credits: int, bandwidth: int) -> None:
        self.index = index
        self.link = link
        self.n_vcs = n_vcs
        # None link => ejection: effectively infinite credits.
        self.credits = [credits] * n_vcs
        self.vc_owner: list[Optional[InputVC]] = [None] * n_vcs
        self.rr_next = 0
        self.bandwidth = bandwidth

    @property
    def is_ejection(self) -> bool:
        return self.link is None


class Router:
    """One network node's router.

    Port convention: ``inputs[0]`` is the injection port and ``outputs[0]``
    is the ejection port; ports 1.. correspond to attached channels in the
    order the topology builder created them.
    """

    EJECT_PORT = 0
    INJECT_PORT = 0

    def __init__(
        self,
        node: int,
        network: "Network",
        *,
        injection_vcs: int = 2,
        ejection_bandwidth: int = 4,
        vct: bool = True,
    ) -> None:
        self.node = node
        self.network = network
        self._stats = network.stats
        self._telemetry = network.telemetry
        # Virtual cut-through allocation: an output VC is granted only when
        # the downstream buffer can hold the whole packet.  This is what
        # makes the escape-channel argument of Lemma 1 sound for the
        # deadlock proofs (the paper's 32/64-flit buffers exceed its
        # 16-flit packets, so the evaluated systems operate in this regime).
        self.vct = vct
        self.routing_fn: Optional[RoutingFunction] = None
        self.inputs: list[InputPort] = [
            InputPort(self.INJECT_PORT, None, injection_vcs, buffer_depth=1 << 30)
        ]
        self.outputs: list[OutputPort] = [
            OutputPort(self.EJECT_PORT, None, 1, credits=1 << 30, bandwidth=ejection_bandwidth)
        ]
        # Channel tag -> output port index, used by routing functions.
        self.out_port_by_tag: dict[object, int] = {}
        self._inj_rr = 0
        # Work lists: VCs awaiting RC/VA, and VCs holding an output VC.
        self._pending: list[InputVC] = []
        self._active: list[InputVC] = []

    def finalize(self) -> None:
        """Validate wiring; part of the network construction protocol."""
        if self.routing_fn is None:
            raise RuntimeError(f"router {self.node} has no routing function")

    # -- wiring -----------------------------------------------------------
    def add_input(self, link: Link) -> int:
        spec = link.spec
        port = InputPort(len(self.inputs), link, spec.n_vcs, spec.buffer_depth)
        self.inputs.append(port)
        return port.index

    def add_output(self, link: Link, credits_per_vc: int) -> int:
        spec = link.spec
        port = OutputPort(
            len(self.outputs),
            link,
            spec.n_vcs,
            credits=credits_per_vc,
            bandwidth=spec.total_bandwidth,
        )
        self.outputs.append(port)
        if spec.tag is not None:
            if spec.tag in self.out_port_by_tag:
                raise ValueError(f"duplicate channel tag {spec.tag!r} at node {self.node}")
            self.out_port_by_tag[spec.tag] = port.index
        return port.index

    # -- external events ---------------------------------------------------
    def inject(self, packet: Packet) -> None:
        """Queue a packet's flits at the injection port (source queue)."""
        vcs = self.inputs[self.INJECT_PORT].vcs
        vc = vcs[self._inj_rr % len(vcs)]
        self._inj_rr += 1
        was_empty = not vc.queue
        vc.queue.extend(packet.make_flits())
        if was_empty and vc.state == VC_IDLE and not vc.queued:
            vc.queued = True
            self._pending.append(vc)
        self.network.activate_router(self)

    def receive_flit(self, port: int, vc_idx: int, flit: Flit, now: int) -> None:
        """A flit arrives from an upstream link into an input VC buffer."""
        vc = self.inputs[port].vcs[vc_idx]
        vc.queue.append(flit)
        if vc.state == VC_IDLE and not vc.queued and flit.is_head:
            vc.queued = True
            self._pending.append(vc)
        if self._telemetry.flit_recv is not None:
            self._telemetry.flit_recv(self, port, vc_idx, flit, now)
        self.network.activate_router(self)

    def credit_arrive(self, out_port: int, vc: int) -> None:
        """A downstream buffer slot was freed."""
        self.outputs[out_port].credits[vc] += 1
        self.network.activate_router(self)

    # -- per-cycle operation ------------------------------------------------
    def step(self, now: int) -> bool:
        """Run one cycle; return True if the router still holds work."""
        if self._pending:
            self._stage_rc_va(now)
        if self._active:
            self._stage_sa(now)
        return bool(self._pending or self._active)

    # Routing computation + VC allocation.
    def _stage_rc_va(self, now: int) -> None:
        route = self.routing_fn
        pending = self._pending
        self._pending = []
        keep = self._pending
        for ivc in pending:
            state = ivc.state
            if state == VC_IDLE:
                queue = ivc.queue
                if queue and queue[0].is_head:
                    packet = queue[0].packet
                    if packet.inject_cycle is None and ivc.port == self.INJECT_PORT:
                        packet.inject_cycle = now
                    ivc.candidates = route(self, packet)
                    if not ivc.candidates:
                        raise RuntimeError(
                            f"routing returned no candidates at node {self.node} "
                            f"for packet {packet!r}"
                        )
                    if self._telemetry.route_compute is not None:
                        self._telemetry.route_compute(
                            self, packet, ivc.port, ivc.index, now
                        )
                    # Speculative router: routing computation and VC
                    # allocation complete within one cycle at zero load
                    # (Sec 7.1); switch traversal happens the next cycle.
                    ivc.state = VC_VA
                    ivc.ready_cycle = now
                    state = VC_VA
                else:
                    ivc.queued = False  # stale entry
                    continue
            if state == VC_VA:
                if now >= ivc.ready_cycle and self._try_vc_allocate(ivc, now):
                    ivc.queued = True  # moves to the active list
                    self._active.append(ivc)
                else:
                    keep.append(ivc)
            else:  # pragma: no cover - defensive
                ivc.queued = False

    def _try_vc_allocate(self, ivc: InputVC, now: int) -> bool:
        """VC allocation: adaptive candidates first, escape as fallback.

        Among allocable adaptive candidates the one with most downstream
        credits wins (the "dynamic properties" selection of Sec 5.2).  If
        only the escape candidate is allocable while adaptive ones exist,
        the packet is marked ``adaptive_banned`` (livelock rule, Sec 6.2).
        """
        outputs = self.outputs
        packet = ivc.queue[0].packet
        needed = packet.length if self.vct else 1
        best: Optional[Candidate] = None
        best_credits = -1
        saw_adaptive = False
        escape_choice: Optional[Candidate] = None
        for cand in ivc.candidates:
            port_idx, vc_idx, is_escape = cand
            out = outputs[port_idx]
            if not is_escape:
                saw_adaptive = True
            if out.vc_owner[vc_idx] is not None or out.credits[vc_idx] < needed:
                continue
            if is_escape:
                if escape_choice is None:
                    escape_choice = cand
                continue
            credits = out.credits[vc_idx]
            if credits > best_credits:
                best_credits = credits
                best = cand
        if best is None and escape_choice is not None:
            best = escape_choice
            if saw_adaptive:
                packet.adaptive_banned = True
        if best is None:
            return False
        port_idx, vc_idx, _ = best
        outputs[port_idx].vc_owner[vc_idx] = ivc
        ivc.out_port = port_idx
        ivc.out_vc = vc_idx
        ivc.state = VC_ACTIVE
        ivc.ready_cycle = now + 1
        if self._telemetry.vc_alloc is not None:
            self._telemetry.vc_alloc(
                self, packet, ivc.port, ivc.index, port_idx, vc_idx, now
            )
        return True

    # Switch allocation + transmission.
    def _stage_sa(self, now: int) -> None:
        requesters: dict[int, list[InputVC]] = {}
        active = self._active
        self._active = []
        keep = self._active
        for ivc in active:
            if ivc.state != VC_ACTIVE:
                ivc.queued = False  # stale (tail already sent)
                continue
            keep.append(ivc)
            if ivc.queue and now >= ivc.ready_cycle:
                lst = requesters.get(ivc.out_port)
                if lst is None:
                    requesters[ivc.out_port] = [ivc]
                else:
                    lst.append(ivc)
        for out_idx, vcs in requesters.items():
            self._allocate_output(self.outputs[out_idx], vcs, now)

    def _allocate_output(self, out: OutputPort, vcs: list[InputVC], now: int) -> None:
        link = out.link
        if self._telemetry.credit_stall is not None and link is not None:
            # One event per (output VC, cycle) with a flit ready but no
            # downstream credit — the epoch collector's credit-stall metric.
            for ivc in vcs:
                if ivc.queue and out.credits[ivc.out_vc] <= 0:
                    self._telemetry.credit_stall(self, out.index, ivc.out_vc, now)
        budget = out.bandwidth if link is None else min(out.bandwidth, link.accept_budget(now))
        if budget <= 0:
            return
        # Rotate contenders for fairness, then grant greedily; one contender
        # may win several slots per cycle (multi-width FIFO read, Sec 7.3).
        if len(vcs) > 1:
            start = out.rr_next % len(vcs)
            vcs = vcs[start:] + vcs[:start]
            out.rr_next += 1
        credits = out.credits
        progressed = True
        while budget > 0 and progressed:
            progressed = False
            for ivc in vcs:
                if budget <= 0:
                    break
                if not ivc.queue or ivc.state != VC_ACTIVE:
                    continue
                if link is not None and credits[ivc.out_vc] <= 0:
                    continue
                self._send_flit(ivc, out, now)
                budget -= 1
                progressed = True

    def _send_flit(self, ivc: InputVC, out: OutputPort, now: int) -> None:
        flit = ivc.queue.popleft()
        in_port = self.inputs[ivc.port]
        if in_port.link is not None:
            in_port.link.return_credit(ivc.index, now)
        self._stats.note_router_flit()
        if self._telemetry.flit_send is not None:
            self._telemetry.flit_send(self, flit, out.index, ivc.out_vc, now)
        link = out.link
        if link is None:
            self._eject(flit, now)
        else:
            out.credits[ivc.out_vc] -= 1
            link.accept(flit, ivc.out_vc, now)
        if flit.is_tail:
            out.vc_owner[ivc.out_vc] = None
            ivc.reset_route()
            # The next packet in this buffer (if any) needs a fresh route.
            if ivc.queue and ivc.queue[0].is_head:
                ivc.queued = True
                self._pending.append(ivc)
            else:
                ivc.queued = False

    def _eject(self, flit: Flit, now: int) -> None:
        packet = flit.packet
        if packet.dst != self.node:
            raise RuntimeError(
                f"flit for node {packet.dst} ejected at node {self.node}"
            )
        packet.flits_delivered += 1
        if flit.is_tail:
            if packet.flits_delivered != packet.length:
                raise RuntimeError(f"packet {packet.pid} lost flits in flight")
            packet.arrive_cycle = now
            self.network.stats.note_packet_delivered(packet, now)
            if self._telemetry.packet_eject is not None:
                self._telemetry.packet_eject(self, packet, now)

    # -- introspection ------------------------------------------------------
    def buffered_flits(self) -> int:
        """Total flits currently buffered at this router's input ports."""
        return sum(len(vc.queue) for port in self.inputs for vc in port.vcs)

    def snapshot_state(self) -> dict:
        """Forensic snapshot: occupied input VCs plus the credit ledger.

        Consumed by the postmortem bundle (:mod:`repro.telemetry.forensics`);
        JSON-serializable, and side-effect free so it can be taken from an
        exception handler without perturbing the simulation.
        """
        state_names = ("idle", "va_wait", "active")
        inputs = []
        for port in self.inputs:
            vcs = []
            for ivc in port.vcs:
                if not ivc.queue and ivc.state == VC_IDLE:
                    continue
                head = ivc.queue[0] if ivc.queue else None
                entry: dict = {
                    "vc": ivc.index,
                    "occupancy": len(ivc.queue),
                    "state": state_names[ivc.state],
                }
                if head is not None:
                    entry["head"] = {
                        "pid": head.packet.pid,
                        "flit": head.index,
                        "is_head": head.is_head,
                        "dst": head.packet.dst,
                    }
                if ivc.state == VC_ACTIVE:
                    entry["out_port"] = ivc.out_port
                    entry["out_vc"] = ivc.out_vc
                vcs.append(entry)
            if vcs:
                inputs.append({
                    "port": port.index,
                    "link": None if port.link is None else port.link.index,
                    "vcs": vcs,
                })
        outputs = []
        for out in self.outputs:
            if out.link is None:
                continue  # ejection: effectively infinite credits
            outputs.append({
                "port": out.index,
                "link": out.link.index,
                "credits": list(out.credits),
                "vc_owner": [
                    None if owner is None else [owner.port, owner.index]
                    for owner in out.vc_owner
                ],
            })
        return {
            "node": self.node,
            "buffered": self.buffered_flits(),
            "inputs": inputs,
            "outputs": outputs,
        }

"""Link models.

Off-chip interfaces run at much higher signalling rates than the on-chip
clock, so the paper models them as behavioural digital circuits in the
on-chip clock domain: a *virtual pipeline* whose width equals the interface
bandwidth (flits/cycle) and whose depth equals the propagation delay in
on-chip cycles (Sec 7.1).  :class:`PipelinedLink` implements exactly that
model and also serves for on-chip wires (width = link bandwidth, depth = 1).

A link is *directed*.  Credit return travels the opposite way with the same
propagation delay; interface credits are sized so that the round-trip lag
does not throttle the link (the paper's "additional buffer", Sec 7.1).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.telemetry.bus import NULL_BUS, TelemetryBus

from .channel import KIND_IDS, ChannelKind, ChannelSpec
from .flit import FLIT_BITS, Flit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network
    from .router import Router

#: Latency-ledger stage charged for a tail flit's traversal of a link of
#: each kind.  Hetero-PHY links carry ``None``: their traversal is
#: attributed through the ``phy_dispatch`` / ``rob_insert`` /
#: ``rob_release`` events instead, split per PHY.  The names must stay in
#: sync with :data:`repro.telemetry.attribution.STAGES` (checked by
#: ``tests/test_attribution.py``).
TRAVERSAL_STAGES: dict[ChannelKind, Optional[str]] = {
    ChannelKind.ONCHIP: "link_onchip",
    ChannelKind.PARALLEL: "link_parallel",
    ChannelKind.SERIAL: "link_serial",
    ChannelKind.HETERO_PHY: None,
}


class Link:
    """Base class of all directed links.

    Subclasses implement :meth:`accept` (flit enters the link at the
    transmitter) and :meth:`step` (advance internal pipelines, deliver flits
    and credits).  The switch allocator consults :meth:`accept_budget`
    before granting flits to the link in the current cycle and never
    exceeds it.
    """

    def __init__(self, spec: ChannelSpec) -> None:
        self.spec = spec
        self.network: Optional["Network"] = None
        self.src_router: Optional["Router"] = None
        self.src_port: int = -1
        self.dst_router: Optional["Router"] = None
        self.dst_port: int = -1
        self._index = -1
        self._credit_queue: deque[tuple[int, int]] = deque()
        self._accept_cycle = -1
        self._accepted = 0
        #: Total flits this link has carried (utilization analysis).
        self.flits_carried = 0
        # Hot-path constants (bound at construction).
        self._kind_id = KIND_IDS[spec.kind]
        #: Ledger stage for tail-flit traversal (see TRAVERSAL_STAGES).
        self.traversal_stage = TRAVERSAL_STAGES[spec.kind]
        self._is_interface = spec.is_interface
        self._credit_delay = max(1, spec.min_delay)
        # Rebound to the network's bus at attach(); inert until then.
        self._telemetry: TelemetryBus = NULL_BUS

    # -- wiring -----------------------------------------------------------
    def attach(
        self,
        network: "Network",
        src_router: "Router",
        src_port: int,
        dst_router: "Router",
        dst_port: int,
    ) -> None:
        """Connect the link between two router ports."""
        self.network = network
        self.src_router = src_router
        self.src_port = src_port
        self.dst_router = dst_router
        self.dst_port = dst_port
        self._telemetry = network.telemetry

    @property
    def index(self) -> int:
        """Position of this link in its network's ``links`` list (-1 if unattached)."""
        return self._index

    # -- transmit side ----------------------------------------------------
    def accept_budget(self, now: int) -> int:
        """Flits the link can still accept in cycle ``now``."""
        raise NotImplementedError

    def accept(self, flit: Flit, vc: int, now: int) -> None:
        """Take one flit from the transmitting router's switch."""
        raise NotImplementedError

    def _note_accept(self, now: int) -> None:
        if now != self._accept_cycle:
            self._accept_cycle = now
            self._accepted = 0
        self._accepted += 1

    def _accepted_in(self, now: int) -> int:
        return self._accepted if now == self._accept_cycle else 0

    # -- receive side -----------------------------------------------------
    def step(self, now: int) -> bool:
        """Advance one cycle; return True while the link still holds state."""
        raise NotImplementedError

    def return_credit(self, vc: int, now: int) -> None:
        """Schedule a credit back to the transmitter for buffer slot ``vc``."""
        self._credit_queue.append((now + self._credit_delay, vc))
        if self._telemetry.credit_return is not None:
            self._telemetry.credit_return(self, vc, now)
        self.network.activate_link(self)

    @property
    def credit_delay(self) -> int:
        """Cycles for a credit to reach the transmitter."""
        return self._credit_delay

    def _deliver_credits(self, now: int) -> None:
        queue = self._credit_queue
        while queue and queue[0][0] <= now:
            _, vc = queue.popleft()
            self.src_router.credit_arrive(self.src_port, vc)

    # -- introspection (used by the invariant sanitizer) -------------------
    def pending_credits(self, vc: int) -> int:
        """Credits for ``vc`` scheduled but not yet delivered upstream."""
        return sum(1 for _, credit_vc in self._credit_queue if credit_vc == vc)

    def vc_flits(self, vc: int) -> int:
        """Flits of ``vc`` currently inside the link (pipelines, adapters)."""
        raise NotImplementedError

    def snapshot_state(self) -> dict:
        """Forensic snapshot: endpoints, occupancy and the credit ledger.

        Subclasses extend the dictionary with their internal queues; the
        postmortem bundle (:mod:`repro.telemetry.forensics`) serializes the
        result, so every value must be JSON-representable.
        """
        return {
            "index": self._index,
            "kind": self.spec.kind.value,
            "src": self.spec.src,
            "dst": self.spec.dst,
            "occupancy": getattr(self, "occupancy", 0),
            "pending_credits": [
                self.pending_credits(vc) for vc in range(self.spec.n_vcs)
            ],
        }

    # -- accounting -------------------------------------------------------
    def _account(self, flit: Flit, energy_pj: float) -> None:
        """Charge link-traversal energy and hop counts to the packet.

        ``energy_pj`` is the per-flit energy of the PHY that carried the
        flit (hetero-PHY links charge per dispatched PHY).
        """
        self.flits_carried += 1
        packet = flit.packet
        if self._is_interface:
            packet.energy_interface_pj += energy_pj
            if flit.is_head:
                packet.hops_interface += 1
        else:
            packet.energy_onchip_pj += energy_pj
            if flit.is_head:
                packet.hops_onchip += 1
        self.network.stats.note_link_flit(self._kind_id, energy_pj)


class PipelinedLink(Link):
    """A link modelled as a virtual pipeline of ``delay`` stages.

    Up to ``bandwidth`` flits enter per cycle and each emerges ``delay``
    cycles later.  This models on-chip wires (delay 1) as well as parallel
    and serial die-to-die interfaces (Table 2: parallel 2 flits/cy, 5 cy;
    serial 4 flits/cy, 20 cy).
    """

    def __init__(self, spec: ChannelSpec) -> None:
        super().__init__(spec)
        if spec.kind is ChannelKind.HETERO_PHY:
            raise ValueError("use HeteroPhyLink for HETERO_PHY channels")
        self._pipe: deque[tuple[int, Flit, int]] = deque()
        self._bandwidth = spec.phy.bandwidth
        self._delay = spec.phy.delay
        self._energy_per_flit = FLIT_BITS * spec.phy.energy_pj_per_bit

    def accept_budget(self, now: int) -> int:
        return self._bandwidth - self._accepted_in(now)

    def accept(self, flit: Flit, vc: int, now: int) -> None:
        self._note_accept(now)
        self._account(flit, self._energy_per_flit)
        self._pipe.append((now + self._delay, flit, vc))
        if self._telemetry.link_accept is not None:
            self._telemetry.link_accept(self, flit, vc, now)
        self.network.activate_link(self)

    def step(self, now: int) -> bool:
        pipe = self._pipe
        while pipe and pipe[0][0] <= now:
            _, flit, vc = pipe.popleft()
            self.dst_router.receive_flit(self.dst_port, vc, flit, now)
        self._deliver_credits(now)
        return bool(pipe or self._credit_queue)

    @property
    def occupancy(self) -> int:
        """Flits currently in flight on the link."""
        return len(self._pipe)

    def vc_flits(self, vc: int) -> int:
        return sum(1 for _, _, pipe_vc in self._pipe if pipe_vc == vc)

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["pipe"] = [
            {"due": due, "pid": flit.packet.pid, "flit": flit.index, "vc": vc}
            for due, flit, vc in self._pipe
        ]
        return state

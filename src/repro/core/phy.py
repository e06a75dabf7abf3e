"""Hetero-PHY link: one logical channel carried by two PHYs (Sec 3.1, 4.2).

The transmitter side models the adapter front-end (Fetch / Decode /
Dispatch / Issue): flits granted by the router's switch enter a TX FIFO;
each cycle the dispatch policy moves flits from the FIFO into the parallel
and/or serial PHY pipelines, assigning per-VC sequence numbers.  The
receiver side models the back-end: arriving flits pass through the
sequence-number reorder buffer, which releases them to the downstream
router strictly in per-VC transmit order (preserving wormhole semantics
across the two physical paths).

High-priority or unordered packets may use the *bypass* (Sec 4.2): their
flits jump the TX FIFO and dispatch on the parallel PHY ahead of queued
traffic.  Bypass is only allowed at the parallel interface; per-VC order
is still preserved because a packet is only admitted to the bypass queue
when no same-VC flits are queued behind it.

The adapter adds one pipeline cycle (FIFO traversal), matching the RTL
prototype's "reordering logic adds one extra cycle" (Sec 8.2).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.noc.channel import ChannelKind, ChannelSpec
from repro.noc.flit import FLIT_BITS, Flit
from repro.noc.link import Link
from .rob import ReorderBuffer, rob_capacity
from .scheduling import PARALLEL, SERIAL, DispatchPolicy


class HeteroPhyLink(Link):
    """A directed hetero-PHY channel with its transmit/receive adapters."""

    def __init__(
        self,
        spec: ChannelSpec,
        policy: DispatchPolicy,
        *,
        tx_fifo_depth: int = 16,
        rob_capacity_override: Optional[int] = None,
    ) -> None:
        if spec.kind is not ChannelKind.HETERO_PHY:
            raise ValueError("HeteroPhyLink requires a HETERO_PHY channel spec")
        super().__init__(spec)
        if tx_fifo_depth < 1:
            raise ValueError("tx_fifo_depth must be >= 1")
        self.policy = policy
        self.tx_fifo_depth = tx_fifo_depth
        self.parallel = spec.phy
        self.serial = spec.serial_phy
        capacity = (
            rob_capacity_override
            if rob_capacity_override is not None
            else rob_capacity(
                self.parallel.bandwidth, self.serial.delay, self.parallel.delay
            )
        )
        self.rob = ReorderBuffer(capacity)
        self._par_energy_per_flit = FLIT_BITS * self.parallel.energy_pj_per_bit
        self._ser_energy_per_flit = FLIT_BITS * self.serial.energy_pj_per_bit
        self._txq: deque[tuple[Flit, int]] = deque()
        self._bypassq: deque[tuple[Flit, int]] = deque()
        self._txq_vc_count: dict[int, int] = {}
        self._bypass_vcs: set[int] = set()
        self._next_sn: dict[int, int] = {}
        self._par_pipe: deque[tuple[int, Flit, int]] = deque()
        self._ser_pipe: deque[tuple[int, Flit, int]] = deque()
        # Per-PHY flit counters (for utilization / ablation studies).
        self.flits_parallel = 0
        self.flits_serial = 0
        self.flits_bypassed = 0

    # -- transmit side ------------------------------------------------------
    def accept_budget(self, now: int) -> int:
        total_bw = self.parallel.bandwidth + self.serial.bandwidth
        free = self.tx_fifo_depth - len(self._txq) - len(self._bypassq)
        return min(total_bw, free) - self._accepted_in(now)

    def accept(self, flit: Flit, vc: int, now: int) -> None:
        self._note_accept(now)
        if self._telemetry.link_accept is not None:
            self._telemetry.link_accept(self, flit, vc, now)
        if flit.is_head:
            self._decide_bypass(flit, vc)
        if vc in self._bypass_vcs:
            flit.bypassed = True
            self._bypassq.append((flit, vc))
            if flit.is_tail:
                self._bypass_vcs.discard(vc)
        else:
            self._txq.append((flit, vc))
            self._txq_vc_count[vc] = self._txq_vc_count.get(vc, 0) + 1
        self.network.activate_link(self)

    def _decide_bypass(self, flit: Flit, vc: int) -> None:
        """Admit a whole packet to the bypass queue if safe and eligible."""
        packet = flit.packet
        eligible = self.policy.bypass_enabled and (
            packet.priority > 0 or not packet.ordered
        )
        if eligible and self._txq_vc_count.get(vc, 0) == 0:
            self._bypass_vcs.add(vc)

    # -- per-cycle operation ---------------------------------------------------
    def step(self, now: int) -> bool:
        self._receive(now)
        self._dispatch(now)
        self._deliver_credits(now)
        return self._holds_state()

    def _holds_state(self) -> bool:
        """True while any queue, pipe, ROB slot or pending credit is live."""
        return bool(
            self._txq
            or self._bypassq
            or self._par_pipe
            or self._ser_pipe
            or self.rob.occupancy
            or self._credit_queue
        )

    def _dispatch(self, now: int) -> None:
        par_free = self.parallel.bandwidth
        ser_free = self.serial.bandwidth
        # Bypass first: parallel PHY only (Sec 4.2).
        while self._bypassq and par_free > 0:
            flit, vc = self._bypassq.popleft()
            self._issue(flit, vc, PARALLEL, now)
            par_free -= 1
            self.flits_bypassed += 1
        # Main dispatch queue: FIFO, policy chooses the PHY per flit.  The
        # queue length seen by the policy is the state at cycle start
        # (threshold logic samples the FIFO level, Sec 7.3).
        queue_len = len(self._txq)
        while self._txq and (par_free > 0 or ser_free > 0):
            flit, vc = self._txq[0]
            phy = self.policy.choose_phy(flit, queue_len, par_free, ser_free)
            if phy is None:
                break
            if phy == PARALLEL and par_free > 0:
                par_free -= 1
            elif phy == SERIAL and ser_free > 0:
                ser_free -= 1
            else:
                break
            self._txq.popleft()
            self._txq_vc_count[vc] -= 1
            self._issue(flit, vc, phy, now)

    def _issue(self, flit: Flit, vc: int, phy: str, now: int) -> None:
        sn = self._next_sn.get(vc, 0)
        self._next_sn[vc] = sn + 1
        flit.sn = sn
        if self._telemetry.phy_dispatch is not None:
            self._telemetry.phy_dispatch(self, flit, vc, phy, now)
        if phy == PARALLEL:
            self._account(flit, self._par_energy_per_flit)
            self._par_pipe.append((now + self.parallel.delay, flit, vc))
            self.flits_parallel += 1
        else:
            self._account(flit, self._ser_energy_per_flit)
            self._ser_pipe.append((now + self.serial.delay, flit, vc))
            self.flits_serial += 1

    # -- receive side --------------------------------------------------------------
    def _receive(self, now: int) -> None:
        # Event-ordering contract (the latency ledger depends on it): for a
        # flit arriving in cycle ``now``, ``rob_insert`` fires first, then —
        # in the same cycle, because the drain below is unbounded —
        # ``rob_release`` followed by the downstream router's ``flit_recv``.
        # A flit therefore never shows a hidden gap between ROB release and
        # input-buffer arrival; ROB reorder wait is exactly the
        # insert-to-release distance, which is zero unless the flit had to
        # wait for a predecessor on the slower PHY.
        rob = self.rob
        rob_insert = self._telemetry.rob_insert
        for pipe in (self._par_pipe, self._ser_pipe):
            while pipe and pipe[0][0] <= now:
                _, flit, vc = pipe.popleft()
                rob.insert(flit, vc)
                if rob_insert is not None:
                    rob_insert(self, flit, vc, now)
        if rob.occupancy == 0:
            return
        # The RX forwards every releasable flit in the cycle it becomes
        # in-order: the heterogeneous router's multi-port input buffer can
        # sink the full interface width (Sec 4.1), and credits guarantee
        # downstream space.  Unbounded draining keeps Eq (1) an exact
        # occupancy bound (see tests/test_phy_link.py).
        rob_release = self._telemetry.rob_release
        for flit, vc in rob.release(None):
            flit.sn = None
            if rob_release is not None:
                rob_release(self, flit, vc, now)
            self.dst_router.receive_flit(self.dst_port, vc, flit, now)

    # -- introspection ----------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Flits inside the adapter and PHY pipelines."""
        return (
            len(self._txq)
            + len(self._bypassq)
            + len(self._par_pipe)
            + len(self._ser_pipe)
            + self.rob.occupancy
        )

    @property
    def phy_split(self) -> tuple[int, int]:
        """(parallel, serial) flit counts transmitted so far."""
        return self.flits_parallel, self.flits_serial

    def vc_flits(self, vc: int) -> int:
        return (
            sum(1 for _f, q_vc in self._txq if q_vc == vc)
            + sum(1 for _f, q_vc in self._bypassq if q_vc == vc)
            + sum(1 for _d, _f, p_vc in self._par_pipe if p_vc == vc)
            + sum(1 for _d, _f, p_vc in self._ser_pipe if p_vc == vc)
            + self.rob.occupancy_of(vc)
        )

    def snapshot_state(self) -> dict:
        def queue(pairs: deque[tuple[Flit, int]]) -> list[dict]:
            return [
                {"pid": flit.packet.pid, "flit": flit.index, "vc": vc}
                for flit, vc in pairs
            ]

        def pipe(entries: deque[tuple[int, Flit, int]]) -> list[dict]:
            return [
                {"due": due, "pid": flit.packet.pid, "flit": flit.index, "vc": vc}
                for due, flit, vc in entries
            ]

        state = super().snapshot_state()
        state["tx_fifo"] = queue(self._txq)
        state["bypass"] = queue(self._bypassq)
        state["parallel_pipe"] = pipe(self._par_pipe)
        state["serial_pipe"] = pipe(self._ser_pipe)
        state["rob"] = self.rob.snapshot_state()
        return state


def hetero_phy_link_factory(
    policy_factory: Callable[[], DispatchPolicy],
    *,
    tx_fifo_depth: int = 16,
    rob_capacity_override: Optional[int] = None,
) -> Callable[[ChannelSpec], Link]:
    """A link factory for :meth:`Network.add_channel`.

    Non-hetero channels become plain pipelined links; each hetero-PHY
    channel gets its own policy instance from ``policy_factory``.
    """
    from repro.noc.link import PipelinedLink

    def factory(spec: ChannelSpec) -> Link:
        if spec.kind is ChannelKind.HETERO_PHY:
            return HeteroPhyLink(
                spec,
                policy_factory(),
                tx_fifo_depth=tx_fifo_depth,
                rob_capacity_override=rob_capacity_override,
            )
        return PipelinedLink(spec)

    return factory

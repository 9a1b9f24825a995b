"""Distance-vector route computation (RIP-style Bellman-Ford).

Each router periodically advertises its distance table to its
neighbors; receiving a table relaxes routes through the sender.
Split horizon with poisoned reverse bounds the classic count-to-
infinity pathology, and :data:`~repro.network.packets.DV_INFINITY`
(16, as in RIP) caps distances outright.
"""

from __future__ import annotations

from ..packets import Address, ControlPacket, DvUpdate, DV_INFINITY
from .base import RouteComputation


class DistanceVector(RouteComputation):
    """Bellman-Ford with periodic advertisements and poisoned reverse."""

    CONTROL_KINDS = ("dv",)
    name = "distance-vector"

    def __init__(self, address: Address, advertise_interval: float = 1.0):
        super().__init__(address)
        self.advertise_interval = advertise_interval

    def on_attach(self) -> None:
        super().on_attach()
        # distance table: dst -> (cost, next_hop); self at cost 0
        self.state.table = {self.address: (0, self.address)}
        self.state.neighbor_costs = {}

    def clone_fresh(self) -> DistanceVector:
        return type(self)(self.address, advertise_interval=self.advertise_interval)

    def start(self) -> None:
        if self._started:
            return
        super().start()
        self._tick()

    def _tick(self) -> None:
        self._advertise()
        self.clock.call_later(self.advertise_interval, self._tick)

    # ------------------------------------------------------------------
    def nf_neighbor_up(self, neighbor: Address, interface: int, cost: int) -> None:
        costs = dict(self.state.neighbor_costs)
        costs[neighbor] = cost
        self.state.neighbor_costs = costs
        table = dict(self.state.table)
        best = table.get(neighbor, (DV_INFINITY, neighbor))
        if cost < best[0]:
            table[neighbor] = (cost, neighbor)
            self.state.table = table
        self._recompute_routes()
        self._advertise()

    def nf_neighbor_down(self, neighbor: Address) -> None:
        costs = dict(self.state.neighbor_costs)
        costs.pop(neighbor, None)
        self.state.neighbor_costs = costs
        # Every route through the dead neighbor becomes unreachable.
        table = dict(self.state.table)
        for dst, (cost, hop) in list(table.items()):
            if hop == neighbor and dst != self.address:
                table[dst] = (DV_INFINITY, hop)
        self.state.table = table
        self._recompute_routes()
        self._advertise()

    # ------------------------------------------------------------------
    def on_control(self, packet: ControlPacket, from_neighbor: Address) -> None:
        if not isinstance(packet, DvUpdate):
            return
        self.count("updates_received")
        link_cost = self.state.neighbor_costs.get(from_neighbor)
        if link_cost is None:
            return  # not (yet) a live neighbor
        table = dict(self.state.table)
        changed = False
        for dst, their_cost in packet.distances.items():
            if dst == self.address:
                continue
            through = min(DV_INFINITY, their_cost + link_cost)
            current_cost, current_hop = table.get(dst, (DV_INFINITY, from_neighbor))
            if through < current_cost or (
                current_hop == from_neighbor and through != current_cost
            ):
                table[dst] = (through, from_neighbor)
                changed = True
        if changed:
            self.state.table = table
            self._recompute_routes()
            self._advertise()

    # ------------------------------------------------------------------
    def _advertise(self) -> None:
        table = self.state.table
        for neighbor in self.state.neighbor_costs:
            # Split horizon with poisoned reverse: routes learned via
            # this neighbor are advertised back as unreachable.
            distances = {
                dst: (DV_INFINITY if hop == neighbor and dst != self.address
                      else cost)
                for dst, (cost, hop) in table.items()
            }
            self.count("updates_sent")
            self.send_down(
                DvUpdate(src=self.address, distances=distances), neighbor=neighbor
            )

    def _recompute_routes(self) -> None:
        routes = {
            dst: hop
            for dst, (cost, hop) in self.state.table.items()
            if dst != self.address and cost < DV_INFINITY
        }
        self._publish(routes)

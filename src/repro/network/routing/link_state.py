"""Link-state route computation (OSPF-style flooding + Dijkstra).

Each router floods a sequence-numbered :class:`~repro.network.packets
.Lsp` describing its neighbor set whenever that set changes (plus a
periodic refresh); every router runs Dijkstra over its link-state
database.  Because an LSP claims only *one direction* of a link, the
shortest-path graph uses only bidirectionally-confirmed edges — the
standard two-way connectivity check.
"""

from __future__ import annotations

import heapq

from ..packets import Address, ControlPacket, Lsp
from .base import RouteComputation


class LinkState(RouteComputation):
    """Flooding LSPs plus Dijkstra over the resulting database."""

    CONTROL_KINDS = ("lsp",)
    name = "link-state"

    def __init__(self, address: Address, refresh_interval: float = 5.0):
        super().__init__(address)
        self.refresh_interval = refresh_interval

    def on_attach(self) -> None:
        super().on_attach()
        self.state.neighbor_costs = {}
        self.state.lsdb = {}   # origin -> Lsp
        self.state.seq = 0

    def clone_fresh(self) -> LinkState:
        return type(self)(self.address, refresh_interval=self.refresh_interval)

    def start(self) -> None:
        if self._started:
            return
        super().start()
        self._tick()

    def _tick(self) -> None:
        self._originate()
        self.clock.call_later(self.refresh_interval, self._tick)

    # ------------------------------------------------------------------
    def nf_neighbor_up(self, neighbor: Address, interface: int, cost: int) -> None:
        costs = dict(self.state.neighbor_costs)
        costs[neighbor] = cost
        self.state.neighbor_costs = costs
        self._originate()

    def nf_neighbor_down(self, neighbor: Address) -> None:
        costs = dict(self.state.neighbor_costs)
        costs.pop(neighbor, None)
        self.state.neighbor_costs = costs
        self._originate()

    def _originate(self) -> None:
        self.state.seq = self.state.seq + 1
        lsp = Lsp(
            origin=self.address,
            seq=self.state.seq,
            neighbors=dict(self.state.neighbor_costs),
        )
        self._accept(lsp, flood_from=None)

    # ------------------------------------------------------------------
    def on_control(self, packet: ControlPacket, from_neighbor: Address) -> None:
        if not isinstance(packet, Lsp):
            return
        self.count("updates_received")
        self._accept(packet, flood_from=from_neighbor)

    def _accept(self, lsp: Lsp, flood_from: Address | None) -> None:
        lsdb = dict(self.state.lsdb)
        existing = lsdb.get(lsp.origin)
        if existing is not None and existing.seq >= lsp.seq:
            return  # stale or duplicate: do not re-flood
        lsdb[lsp.origin] = lsp
        self.state.lsdb = lsdb
        for neighbor in self.state.neighbor_costs:
            if neighbor == flood_from:
                continue
            self.count("updates_sent")
            self.send_down(lsp, neighbor=neighbor)
        self._recompute_routes()

    # ------------------------------------------------------------------
    def _recompute_routes(self) -> None:
        graph = self._two_way_graph()
        distances: dict[Address, int] = {self.address: 0}
        first_hop: dict[Address, Address] = {}
        heap: list[tuple[int, Address, Address | None]] = [(0, self.address, None)]
        visited: set[Address] = set()
        while heap:
            dist, node, hop = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            if hop is not None:
                first_hop[node] = hop
            for peer, cost in graph.get(node, {}).items():
                if peer in visited:
                    continue
                candidate = dist + cost
                if candidate < distances.get(peer, float("inf")):
                    distances[peer] = candidate
                    next_hop = peer if node == self.address else hop
                    heapq.heappush(heap, (candidate, peer, next_hop))
        routes = {dst: hop for dst, hop in first_hop.items()}
        self._publish(routes)

    def _two_way_graph(self) -> dict[Address, dict[Address, int]]:
        """Edges confirmed by both endpoints' LSPs."""
        lsdb = self.state.lsdb
        graph: dict[Address, dict[Address, int]] = {}
        for origin, lsp in lsdb.items():
            for peer, cost in lsp.neighbors.items():
                reverse = lsdb.get(peer)
                if reverse is not None and origin in reverse.neighbors:
                    graph.setdefault(origin, {})[peer] = cost
        return graph

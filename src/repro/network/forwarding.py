"""Forwarding — the data-plane sublayer on top (Fig 3/4).

"The path of a data packet passes directly from forwarding to the next
hop Data Link.  However, the forwarding database is itself built using
routing."  The FIB here is exactly that database: route computation
pushes ``{destination: next_hop}`` maps in through the ``routes``
notification (:meth:`ForwardingSublayer.nf_routes`), and the
per-packet fast path reads only the FIB — never the routing tables,
never the neighbor state (T3).  Next-hop-to-interface resolution is
control information owned by neighbor determination; forwarding asks
for it through its port (``self.below.interface_for``), which route
computation's one-primitive service passes through, and hands the
packet down with ``interface=i`` in hop meta.
"""

from __future__ import annotations

from typing import Any

from ..core.sublayer import Sublayer
from .packets import Address, DataPacket

#: Metric aliases shared with the symbolic flow analyzer: the runtime
#: counter and the static drop kind carry the same name, so a
#: :class:`~repro.flow.reach.ReachResult` drop set and a
#: ``forwarding/<addr>/...`` counter are directly comparable.
TTL_EXPIRED = "ttl_expired"
NO_ROUTE = "no_route"


class ForwardingSublayer(Sublayer):
    """FIB lookup, TTL handling, local delivery."""

    def __init__(self, address: Address):
        super().__init__("forwarding")
        self.address = address

    def on_attach(self) -> None:
        self.state.fib = {}
        self.state.forwarded = 0
        self.state.delivered = 0
        self.state.dropped_no_route = 0
        self.state.dropped_ttl = 0
        self.state.dropped_no_interface = 0

    def clone_fresh(self) -> ForwardingSublayer:
        return type(self)(self.address)

    #: Drops that dual-count under the flow analyzer's drop-kind names.
    _ALIASES = {"dropped_ttl": TTL_EXPIRED, "dropped_no_route": NO_ROUTE}

    def count(self, field: str, by: int = 1) -> None:
        super().count(field, by)
        alias = self._ALIASES.get(field)
        if alias is not None:
            self.metrics.inc(alias, by)

    # ------------------------------------------------------------------
    def nf_routes(self, routes: dict[Address, Address]) -> None:
        """The narrow interface from route computation: a new FIB."""
        self.state.fib = dict(routes)

    def fib(self) -> dict[Address, Address]:
        return dict(self.state.fib)

    # ------------------------------------------------------------------
    # Data path: originate from the application, forward from below.
    # ------------------------------------------------------------------
    def from_above(self, packet: DataPacket, **meta: Any) -> None:
        self.originate(packet)

    def from_below(self, packet: DataPacket, **meta: Any) -> None:
        self.forward(packet)

    # ------------------------------------------------------------------
    def forward(self, packet: DataPacket, originated: bool = False) -> None:
        """The per-packet fast path; ``originated`` packets skip the TTL step."""
        if packet.dst == self.address:
            self.count("delivered")
            self.deliver_up(packet)
            return
        next_hop = self.state.fib.get(packet.dst)
        if next_hop is None:
            self.count("dropped_no_route")
            return
        if not originated and packet.ttl <= 1:
            self.count("dropped_ttl")
            return
        interface = self.below.interface_for(next_hop)
        if interface is None:
            self.count("dropped_no_interface")
            return
        self.count("forwarded")
        self.send_down(
            packet if originated else packet.decremented(), interface=interface
        )

    def originate(self, packet: DataPacket) -> None:
        """Send a locally-generated packet (no TTL decrement at source)."""
        self.forward(packet, originated=True)

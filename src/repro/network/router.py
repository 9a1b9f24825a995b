"""A router: the three network sublayers composed per Fig 4.

The router is one :class:`~repro.core.stack.Stack`, top to bottom
forwarding > routing > neighbor, so tiers, taps, spans and the litmus
checks come from the same engine as every other stack.  Information
flows along the figure's arrows: neighbor determination tells route
computation about neighbor up/down, route computation pushes
``{dst: next_hop}`` into the forwarding database (both notifications),
and forwarding moves data packets using only the FIB.  The interface
index rides in hop ``meta``: ``receive(pkt, interface=i)`` up from the
wire, ``on_transmit(pkt, interface=i)`` down to it.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.clock import Clock
from ..core.instrument import AccessLog
from ..core.interface import InterfaceLog
from ..core.metrics import scoped
from ..core.stack import Stack
from .forwarding import ForwardingSublayer
from .neighbor import NeighborSublayer
from .packets import Address, DataPacket, Packet
from .routing.base import RouteComputation
from .routing.link_state import LinkState


class Interface:
    """One attachment point of a router to a link."""

    def __init__(self, index: int):
        self.index = index
        self.send: Callable[[Packet], None] | None = None  # wired by topology

    def transmit(self, packet: Packet) -> None:
        if self.send is not None:
            self.send(packet)


class Router:
    """One network node running the Fig 4 sublayers."""

    def __init__(
        self,
        address: Address,
        clock: Clock,
        routing_cls: type[RouteComputation] = LinkState,
        hello_interval: float = 1.0,
        dead_interval: float = 3.5,
        access_log: AccessLog | None = None,
        metrics: Any | None = None,
        **routing_kwargs: Any,
    ):
        self.address = address
        self.interfaces: list[Interface] = []
        self._routing_cls = routing_cls

        self.neighbor = NeighborSublayer(
            address, hello_interval=hello_interval, dead_interval=dead_interval
        )
        self.routing = routing_cls(address, **routing_kwargs)
        self.forwarding = ForwardingSublayer(address)
        self.stack = Stack(
            f"router:{address}",
            [self.forwarding, self.routing, self.neighbor],
            clock=clock,
            access_log=access_log,
            metrics=metrics,
        )
        # Forwarding counts at forwarding/<addr>/ (the sim.link pattern),
        # so drop counters line up with the flow analyzer's drop kinds.
        self.forwarding.metrics = scoped(metrics, f"forwarding/{address}")
        self.stack.on_transmit = self._transmit
        self.stack.on_deliver = self._deliver_local
        self.on_deliver: Callable[[DataPacket], None] | None = None

    @property
    def access_log(self) -> AccessLog:
        """The stack's state-access log (a null log below ``full``)."""
        return self.stack.access_log

    @property
    def interface_log(self) -> InterfaceLog:
        """The stack's interface log (a null log below ``full``)."""
        return self.stack.interface_log

    # ------------------------------------------------------------------
    # Plumbing toward the links
    # ------------------------------------------------------------------
    def add_interface(self) -> Interface:
        interface = Interface(len(self.interfaces))
        self.interfaces.append(interface)
        self.neighbor.interface_count = len(self.interfaces)
        return interface

    def _transmit(self, packet: Packet, interface: int) -> None:
        self.interfaces[interface].transmit(packet)

    def _deliver_local(self, packet: DataPacket) -> None:
        if self.on_deliver is not None:
            self.on_deliver(packet)

    def receive(self, packet: Packet, interface: int) -> None:
        self.stack.receive(packet, interface=interface)

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.neighbor.start()
        self.routing.start()

    def send_data(self, dst: Address, payload: Any, **header: Any) -> None:
        self.stack.send(DataPacket.make(self.address, dst, payload, **header))

    def routes(self) -> dict[Address, Address]:
        return self.routing.routes()

    def __repr__(self) -> str:
        return (
            f"Router({self.address}, {self._routing_cls.__name__}, "
            f"{len(self.interfaces)} interfaces)"
        )

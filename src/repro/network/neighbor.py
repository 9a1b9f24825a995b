"""Neighbor determination — the lowest network sublayer (Fig 4).

"Neighbor determination is the lowest sublayer because route
computation needs a list of neighbors that is determined by handshake
messages sent directly on the data link."

Each router interface periodically emits a :class:`Hello`; hearing a
hello binds the peer's address to that interface, and silence past the
dead interval expires the binding.  Route computation consumes the
result through one narrow interface — the ``neighbor_up`` and
``neighbor_down`` notifications plus the two-primitive
``neighbor-service`` — and never sees a hello packet itself.

On the data path every packet travels with its interface index in hop
``meta``.  Upward, hellos stop here and everything else continues with
``interface=i``.  Downward, a packet arrives with ``interface=i``
(data, already resolved by forwarding) or with ``neighbor=addr``
(route computation's control packets), which is resolved here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.interface import Primitive, ServiceInterface
from ..core.sublayer import Sublayer
from .packets import Address, Hello, Packet


@dataclass
class NeighborEntry:
    address: Address
    interface: int
    last_heard: float
    cost: int = 1


class NeighborSublayer(Sublayer):
    """Per-router neighbor discovery and liveness tracking."""

    SERVICE = ServiceInterface(
        "neighbor-service",
        [
            Primitive("interface_for", "the interface a live neighbor is heard on"),
            Primitive("neighbor_on", "the live neighbor heard on an interface"),
        ],
    )
    NOTIFICATIONS = ("neighbor_up", "neighbor_down")

    def __init__(
        self,
        address: Address,
        interface_count: int = 0,
        hello_interval: float = 1.0,
        dead_interval: float = 3.5,
    ):
        super().__init__("neighbor")
        self.address = address
        #: Interfaces to send hellos on; the router raises it as
        #: interfaces attach.
        self.interface_count = interface_count
        self.hello_interval = hello_interval
        self.dead_interval = dead_interval
        self._started = False

    def on_attach(self) -> None:
        self.state.entries = {}  # address -> NeighborEntry
        self.state.hellos_sent = 0
        self.state.hellos_heard = 0

    def clone_fresh(self) -> NeighborSublayer:
        return type(self)(
            self.address,
            interface_count=self.interface_count,
            hello_interval=self.hello_interval,
            dead_interval=self.dead_interval,
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the hello/expiry duty cycle."""
        if self._started:
            return
        self._started = True
        self._tick()

    def _tick(self) -> None:
        for interface in range(self.interface_count):
            self.state.hellos_sent = self.state.hellos_sent + 1
            self.send_down(Hello(src=self.address), interface=interface)
        self._expire()
        self.clock.call_later(self.hello_interval, self._tick)

    def _expire(self) -> None:
        now = self.clock.now()
        entries = dict(self.state.entries)
        expired = [
            addr
            for addr, entry in entries.items()
            if now - entry.last_heard > self.dead_interval
        ]
        for addr in expired:
            del entries[addr]
        if expired:
            self.state.entries = entries
            for addr in expired:
                self.notify("neighbor_down", addr)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def from_below(self, packet: Packet, interface: int, **meta: Any) -> None:
        if packet.kind == "hello":
            self.on_hello(interface, packet)
        else:
            self.deliver_up(packet, interface=interface)

    def from_above(
        self,
        packet: Packet,
        interface: int | None = None,
        neighbor: Address | None = None,
        **meta: Any,
    ) -> None:
        if interface is None:
            interface = self.srv_interface_for(neighbor)
            if interface is None:
                return  # the neighbor is gone: nowhere to send
        self.send_down(packet, interface=interface)

    def on_hello(self, interface: int, hello: Hello) -> None:
        """A hello arrived on ``interface``."""
        self.state.hellos_heard = self.state.hellos_heard + 1
        entries = dict(self.state.entries)
        fresh = hello.src not in entries
        entries[hello.src] = NeighborEntry(
            address=hello.src,
            interface=interface,
            last_heard=self.clock.now(),
        )
        self.state.entries = entries
        if fresh:
            self.notify("neighbor_up", hello.src, interface, 1)

    # ------------------------------------------------------------------
    # The narrow interface route computation consumes (T2).
    # ------------------------------------------------------------------
    def neighbors(self) -> dict[Address, int]:
        """Live neighbors as {address: cost}."""
        return {addr: e.cost for addr, e in self.state.entries.items()}

    def srv_interface_for(self, neighbor: Address) -> int | None:
        entry = self.state.entries.get(neighbor)
        return entry.interface if entry is not None else None

    def srv_neighbor_on(self, interface: int) -> Address | None:
        for addr, entry in self.state.entries.items():
            if entry.interface == interface:
                return addr
        return None

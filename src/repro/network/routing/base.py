"""Route computation — the middle network sublayer (Fig 4).

"Route computation is below forwarding because route computation
builds the forwarding database", and "one can change say route
computation from distance vector to Link State without changing
forwarding" (Section 2.2).  :class:`RouteComputation` is the shape
both algorithms implement; its entire surface toward the rest of the
router is:

* downward: the ``nf_neighbor_up``/``nf_neighbor_down`` notifications
  in, control packets out with ``neighbor=addr`` hop meta and in with
  ``interface=i`` (the sender is named by the neighbor sublayer's
  ``neighbor_on`` primitive);
* upward: the ``routes`` notification — the full ``{destination:
  next_hop}`` map pushed into the forwarding database on every change
  — and the ``routing-service``, whose one primitive passes
  forwarding's next-hop-to-interface lookup through to the neighbor
  sublayer, so no interaction skips a sublayer.

Data packets pass through in both directions.  The F3 swap benchmark
replaces one subclass with the other and checks the forwarding
sublayer is bit-for-bit untouched.
"""

from __future__ import annotations

from typing import Any

from ...core.interface import Primitive, ServiceInterface
from ...core.sublayer import Sublayer
from ..packets import Address, ControlPacket, Packet


class RouteComputation(Sublayer):
    """Base class for routing algorithms."""

    SERVICE = ServiceInterface(
        "routing-service",
        [Primitive("interface_for", "the interface a next hop is reached on")],
    )
    NOTIFICATIONS = ("routes",)
    #: Which control-packet kinds this algorithm consumes (T3 check).
    CONTROL_KINDS: tuple[str, ...] = ()
    #: The algorithm's registry name; every instance is the stack's
    #: ``routing`` sublayer, whichever algorithm it runs.
    name = "abstract"

    def __init__(self, address: Address):
        super().__init__("routing")
        self.address = address
        self._started = False

    def on_attach(self) -> None:
        self.state.routes = {}
        self.state.updates_sent = 0
        self.state.updates_received = 0

    def clone_fresh(self) -> RouteComputation:
        return type(self)(self.address)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic duties (advertisements, refreshes)."""
        self._started = True

    def nf_neighbor_up(self, neighbor: Address, interface: int, cost: int) -> None:
        raise NotImplementedError

    def nf_neighbor_down(self, neighbor: Address) -> None:
        raise NotImplementedError

    def on_control(self, packet: ControlPacket, from_neighbor: Address) -> None:
        """A control packet of one of our CONTROL_KINDS arrived."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Data path: our own control packets stop here, data passes through.
    # ------------------------------------------------------------------
    def from_below(self, packet: Packet, interface: int, **meta: Any) -> None:
        if packet.kind in self.CONTROL_KINDS:
            sender = self.below.neighbor_on(interface)
            if sender is not None:  # else: not-yet-discovered neighbor
                self.on_control(packet, from_neighbor=sender)
        elif packet.kind == "data":
            self.deliver_up(packet)

    def srv_interface_for(self, next_hop: Address) -> int | None:
        return self.below.interface_for(next_hop)

    # ------------------------------------------------------------------
    def routes(self) -> dict[Address, Address]:
        """Current {destination: next_hop} (self excluded)."""
        return dict(self.state.routes)

    def _publish(self, routes: dict[Address, Address]) -> None:
        """Store and push routes up to forwarding (if changed)."""
        if routes == self.state.routes:
            return
        self.state.routes = routes
        self.notify("routes", dict(routes))

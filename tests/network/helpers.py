"""Shared helpers for driving network sublayers in isolation."""

from repro.core.interface import BoundPort
from repro.core.stack import Stack
from repro.network.forwarding import ForwardingSublayer
from repro.network.routing.base import RouteComputation


class FixedInterfaces:
    """Stands in for route computation's service: a fixed hop table."""

    def __init__(self, interfaces):
        self.interfaces = interfaces

    def srv_interface_for(self, hop):
        return self.interfaces.get(hop)


def forwarding_stack(address, interfaces, sent, delivered):
    """A ForwardingSublayer alone in a stack, its port on a fixed table."""
    fwd = ForwardingSublayer(address)
    stack = Stack(f"router:{address}", [fwd])
    stack.on_transmit = lambda p, interface: sent.append((interface, p))
    stack.on_deliver = delivered.append
    fwd.below = BoundPort(
        RouteComputation.SERVICE,
        FixedInterfaces(interfaces),
        "routing",
        "forwarding",
        stack.interface_log,
    )
    return fwd

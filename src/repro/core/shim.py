"""Shim sublayers: header translation for interoperability.

Section 3.1 of the paper answers the interoperability objection by
proposing "a shim sublayer that converts the sublayered header ... to a
standard TCP header".  A :class:`ShimSublayer` sits at the bottom of a
stack and rewrites the outgoing PDU into a foreign wire format (and the
reverse on receive), leaving every other sublayer untouched — which is
itself a demonstration of T3: interop is a one-sublayer concern.
"""

from __future__ import annotations

from typing import Any

from .sublayer import Sublayer


class ShimSublayer(Sublayer):
    """Bidirectional representation translator.

    Subclasses override :meth:`encode` (native PDU -> foreign wire
    object) and :meth:`decode` (foreign wire object -> native PDU).
    Either may return ``None`` to drop the unit (e.g. unparseable
    foreign input).
    """

    def encode(self, pdu: Any) -> Any:
        raise NotImplementedError

    def decode(self, wire: Any) -> Any:
        raise NotImplementedError

    def from_above(self, sdu: Any, **meta: Any) -> None:
        encoded = self.encode(sdu)
        if encoded is not None:
            self.send_down(encoded, **meta)

    def from_below(self, pdu: Any, **meta: Any) -> None:
        decoded = self.decode(pdu)
        if decoded is not None:
            self.deliver_up(decoded, **meta)


class IdentityShim(ShimSublayer):
    """A shim that changes nothing — the zero-cost baseline for C3."""

    def encode(self, pdu: Any) -> Any:
        return pdu

    def decode(self, wire: Any) -> Any:
        return wire

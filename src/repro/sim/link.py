"""Point-to-point simulated links with configurable impairments.

A :class:`Link` is a unidirectional channel: FIFO serialization at a
configurable rate, propagation delay, and independent random loss,
duplication, reordering jitter, and bit errors, each driven by its own
seeded stream.  :class:`DuplexLink` bundles two of them and wires a
pair of :class:`~repro.core.stack.Stack` endpoints together.

These impairments are the adversary every experiment runs against: the
ARQ sublayers fight bit errors and loss, RD fights loss/reorder/
duplication, OSR's rate control fights the serialization bottleneck.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from ..core.bits import Bits
from ..core.errors import ConfigurationError, SimulationError
from ..core.metrics import MetricsSink, scoped
from ..core.pdu import Pdu
from .engine import Simulator

DEFAULT_UNIT_BITS = 512  # size assumed for unsizeable python objects


@dataclass
class LinkConfig:
    """Impairment and capacity parameters for one link direction."""

    delay: float = 0.01
    rate_bps: float | None = None
    loss: float = 0.0
    duplicate: float = 0.0
    reorder_jitter: float = 0.0
    bit_error_rate: float = 0.0
    mtu_bits: int | None = None
    #: When set, units that queue behind the serializer for longer than
    #: this many seconds get their ECN congestion-experienced bit set
    #: (if they carry an OSR subheader) instead of waiting for loss to
    #: signal congestion — the router-side half of the paper's
    #: "explicit congestion control notifications like ECN are in the
    #: OSR subheader".
    ecn_threshold: float | None = None
    #: Drop-tail queue bound: units that would wait longer than this
    #: many seconds for the serializer are dropped (a finite router
    #: buffer).  None = unbounded queue.
    drop_tail_delay: float | None = None

    def __post_init__(self) -> None:
        for name in ("loss", "duplicate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be a probability, got {p}")
        if self.delay < 0 or self.reorder_jitter < 0:
            raise ConfigurationError("delays must be non-negative")
        if self.rate_bps is not None and self.rate_bps <= 0:
            raise ConfigurationError("rate_bps must be positive")
        if not 0.0 <= self.bit_error_rate <= 1.0:
            raise ConfigurationError("bit_error_rate must be a probability")


@dataclass
class LinkStats:
    sent: int = 0
    delivered: int = 0
    lost: int = 0
    duplicated: int = 0
    corrupted: int = 0
    dropped_mtu: int = 0
    bits_sent: int = 0
    ecn_marked: int = 0
    queue_dropped: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "lost": self.lost,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
            "dropped_mtu": self.dropped_mtu,
            "bits_sent": self.bits_sent,
            "ecn_marked": self.ecn_marked,
            "queue_dropped": self.queue_dropped,
        }


def unit_size_bits(unit: Any) -> int:
    """Best-effort wire size of a transmission unit."""
    if isinstance(unit, Bits):
        return len(unit)
    if isinstance(unit, (bytes, bytearray)):
        return 8 * len(unit)
    if isinstance(unit, Pdu):
        return unit.header_bits() + unit.payload_bits()
    return DEFAULT_UNIT_BITS


class Link:
    """One direction of a point-to-point channel."""

    def __init__(
        self,
        sim: Simulator,
        config: LinkConfig | None = None,
        rng: random.Random | None = None,
        name: str = "link",
        metrics: MetricsSink | None = None,
    ):
        self.sim = sim
        self.config = config or LinkConfig()
        self.rng = rng or random.Random(0)
        self.name = name
        self.stats = LinkStats()
        # Counters land under "link/<name>/..." in whatever registry the
        # caller passes; the default null sink keeps the hot path free.
        self.metrics: MetricsSink = scoped(metrics, f"link/{name}")
        self._sink: Callable[..., None] | None = None
        self._busy_until = 0.0

    def connect(self, sink: Callable[..., None]) -> None:
        """Set the receive callback: ``sink(unit, **meta)``."""
        self._sink = sink

    # ------------------------------------------------------------------
    def send(self, unit: Any, size_bits: int | None = None, **meta: Any) -> None:
        """Enqueue one unit for transmission."""
        if self._sink is None:
            raise ConfigurationError(f"link {self.name!r} has no receiver connected")
        size = size_bits if size_bits is not None else unit_size_bits(unit)
        self.stats.sent += 1
        if self.config.mtu_bits is not None and size > self.config.mtu_bits:
            self.stats.dropped_mtu += 1
            return
        self.stats.bits_sent += size

        start = max(self.sim.now, self._busy_until)
        if (
            self.config.drop_tail_delay is not None
            and start - self.sim.now > self.config.drop_tail_delay
        ):
            # Finite buffer: the queue is full, the unit is dropped.
            self.stats.queue_dropped += 1
            return
        tx_time = 0.0 if self.config.rate_bps is None else size / self.config.rate_bps
        self._busy_until = start + tx_time
        base_arrival = self._busy_until + self.config.delay

        # ECN: congestion-experienced marking on queueing delay.
        if (
            self.config.ecn_threshold is not None
            and start - self.sim.now > self.config.ecn_threshold
        ):
            unit = self._ecn_mark(unit)

        copies = 1
        if self.config.duplicate > 0 and self.rng.random() < self.config.duplicate:
            copies = 2
            self.stats.duplicated += 1
        for _ in range(copies):
            if self.config.loss > 0 and self.rng.random() < self.config.loss:
                self.stats.lost += 1
                continue
            jitter = (
                self.rng.uniform(0, self.config.reorder_jitter)
                if self.config.reorder_jitter > 0
                else 0.0
            )
            delivered = self._apply_bit_errors(unit)
            arrival = base_arrival + jitter
            self.sim.schedule_at(
                arrival, self._make_delivery(delivered, dict(meta))
            )

    def _ecn_mark(self, unit: Any) -> Any:
        """Set the congestion-experienced bit in an OSR subheader.

        Works on a clone: the sender may hold references to the same
        object for retransmission.  Units without an OSR subheader
        (handshakes, pure RD acks, foreign formats) pass unmarked —
        as with real ECN, only ECN-capable traffic is marked.
        """
        if not isinstance(unit, Pdu):
            return unit
        osr_node = unit.find("osr")
        if osr_node is None:
            return unit
        marked = unit.clone()
        node = marked.find("osr")
        node.header["ecn"] = node.header.get("ecn", 0) | 1
        self.stats.ecn_marked += 1
        return marked

    def _make_delivery(self, unit: Any, meta: dict) -> Callable[[], None]:
        def deliver() -> None:
            if self._sink is None:
                # The sink was detached between send and delivery; a
                # unit in flight now has nowhere to land.
                raise SimulationError(
                    f"link {self.name!r}: delivery fired with no "
                    f"connected sink"
                )
            self.stats.delivered += 1
            self._sink(unit, **meta)

        return deliver

    # ------------------------------------------------------------------
    def _apply_bit_errors(self, unit: Any) -> Any:
        ber = self.config.bit_error_rate
        if ber <= 0:
            return unit
        if isinstance(unit, Bits):
            flipped = list(unit)
            corrupted = False
            for i in range(len(flipped)):
                if self.rng.random() < ber:
                    flipped[i] ^= 1
                    corrupted = True
            if corrupted:
                self.stats.corrupted += 1
                self.metrics.inc("bit_errors")
                return Bits(flipped)
            return unit
        if isinstance(unit, (bytes, bytearray)):
            data = bytearray(unit)
            corrupted = False
            for i in range(len(data)):
                for bit in range(8):
                    if self.rng.random() < ber:
                        data[i] ^= 1 << bit
                        corrupted = True
            if corrupted:
                self.stats.corrupted += 1
                self.metrics.inc("bit_errors")
                return bytes(data)
            return bytes(data)
        # Structured units (Pdus) don't take bit errors; datalink
        # experiments serialize to Bits before hitting the wire.
        return unit

    def __repr__(self) -> str:
        return f"Link({self.name!r}, delay={self.config.delay}, loss={self.config.loss})"


class DuplexLink:
    """A bidirectional channel joining two stacks.

    ``attach(a, b)`` wires ``a.on_transmit`` into the a->b direction and
    delivers arrivals via ``b.receive`` (and symmetrically).
    """

    def __init__(
        self,
        sim: Simulator,
        config: LinkConfig | None = None,
        reverse_config: LinkConfig | None = None,
        rng_forward: random.Random | None = None,
        rng_reverse: random.Random | None = None,
        name: str = "duplex",
        metrics: MetricsSink | None = None,
    ):
        self.forward = Link(
            sim, config, rng_forward, name=f"{name}:fwd", metrics=metrics
        )
        self.reverse = Link(
            sim,
            reverse_config if reverse_config is not None else config,
            rng_reverse,
            name=f"{name}:rev",
            metrics=metrics,
        )

    def attach(self, a: Any, b: Any) -> None:
        """Join two Stack-like endpoints (on_transmit / receive)."""
        a.on_transmit = lambda unit, **meta: self.forward.send(unit, **meta)
        b.on_transmit = lambda unit, **meta: self.reverse.send(unit, **meta)
        self.forward.connect(lambda unit, **meta: b.receive(unit, **meta))
        self.reverse.connect(lambda unit, **meta: a.receive(unit, **meta))

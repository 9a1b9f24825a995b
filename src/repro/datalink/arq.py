"""The error-recovery sublayer (Fig 2): ARQ over detected-error frames.

"In the case of reliable delivery like HDLC and Fiberchannel, reliable
delivery adds a header with sequence numbers to guarantee delivery
using retransmissions, but depends on error detection."  Three classic
ARQ schemes are provided behind one sublayer shape — stop-and-wait,
go-back-N, and selective repeat — all using the same 3-byte header
(kind, seq, ack) and the same upward service (exactly-once, in-order
frame delivery), so any one can replace another without touching the
sublayers above or below (the F2 replace experiment).

The sublayer consumes the error-detection sublayer's narrow interface:
frames arrive with a ``corrupt`` flag; corrupt frames are counted and
treated as losses, which retransmission then repairs.

Sequence numbers are 8 bits on the wire; senders and receivers keep
unbounded counters internally and fold modulo 256 at the header, with
windows kept well under half the sequence space.
"""

from __future__ import annotations

from typing import Any

from ..core.bits import Bits
from ..core.clock import TimerHandle
from ..core.errors import ConfigurationError, FramingError
from ..core.header import Field, HeaderFormat
from ..core.sublayer import Sublayer

ARQ_HEADER = HeaderFormat(
    "arq",
    [
        Field("kind", 1),   # 0 = data, 1 = ack
        Field("seq", 8),
        Field("ack", 8),
        Field("pad", 7),
    ],
    owner="arq",
)

KIND_DATA = 0
KIND_ACK = 1

MOD = 256


def _fold(value: int) -> int:
    return value % MOD


def _unfold(reference: int, wire_value: int) -> int:
    """Map an 8-bit wire value to the unbounded counter nearest at or
    after ``reference``."""
    return reference + ((wire_value - _fold(reference)) % MOD)


class ArqSublayerBase(Sublayer):
    """Shared header handling, counters, and corrupt-frame policy."""

    HEADER = ARQ_HEADER

    def __init__(
        self,
        name: str = "arq",
        retransmit_timeout: float = 0.2,
        max_retries: int = 50,
    ):
        super().__init__(name)
        if retransmit_timeout <= 0:
            raise ConfigurationError("retransmit_timeout must be positive")
        self.retransmit_timeout = retransmit_timeout
        self.max_retries = max_retries

    def clone_fresh(self) -> "ArqSublayerBase":
        return type(self)(self.name, self.retransmit_timeout, self.max_retries)

    def on_attach(self) -> None:
        self.state.data_sent = 0
        self.state.data_retransmitted = 0
        self.state.acks_sent = 0
        self.state.corrupt_dropped = 0
        self.state.delivered = 0
        self.state.given_up = 0
        # Measurement-side bookkeeping (like the retransmit timers,
        # deliberately *not* protocol state): first-transmission time
        # per outstanding seq, and which seqs were ever retransmitted —
        # Karn's rule: an RTT sample is only taken from a frame that
        # went out exactly once, so retransmission ambiguity never
        # pollutes the distribution.
        self._sent_at: dict[int, float] = {}
        self._resent: set[int] = set()

    # ------------------------------------------------------------------
    # Latency observation (virtual time, so campaign histograms merge
    # deterministically across workers)
    # ------------------------------------------------------------------
    def _note_sent(self, seq: int) -> None:
        self._sent_at[seq] = self.clock.now()

    def _note_retransmit(self, seq: int) -> None:
        self._resent.add(seq)
        sent = self._sent_at.get(seq)
        if sent is not None:
            self.metrics.observe_hist(
                "retransmit_delay", self.clock.now() - sent
            )

    def _note_acked(self, seq: int) -> None:
        sent = self._sent_at.pop(seq, None)
        if sent is not None and seq not in self._resent:
            self.metrics.observe_hist("rtt", self.clock.now() - sent)
        self._resent.discard(seq)

    # ------------------------------------------------------------------
    def _encode(self, kind: int, seq: int, ack: int, payload: Bits) -> Bits:
        header = ARQ_HEADER.pack(
            {"kind": kind, "seq": _fold(seq), "ack": _fold(ack)}
        )
        return header + payload

    def _transmit_data(self, seq: int, payload: Bits) -> None:
        self.send_down(self._encode(KIND_DATA, seq, 0, payload))

    def _transmit_ack(self, ack: int) -> None:
        self.count("acks_sent")
        self.send_down(self._encode(KIND_ACK, 0, ack, Bits()))

    def from_below(self, frame: Any, corrupt: bool = False, **meta: Any) -> None:
        if corrupt:
            # The error-detection interface flagged this frame: treat
            # it as a loss; retransmission will repair it.
            self.count("corrupt_dropped")
            return
        if not isinstance(frame, Bits) or len(frame) < ARQ_HEADER.bit_width:
            self.count("corrupt_dropped")
            return
        header, payload = ARQ_HEADER.split(frame)
        if header["kind"] == KIND_ACK:
            self._on_ack(header["ack"])
        else:
            self._on_data(header["seq"], payload)

    # Scheme-specific hooks -------------------------------------------
    def from_above(self, sdu: Any, **meta: Any) -> None:
        raise NotImplementedError

    def _on_ack(self, wire_ack: int) -> None:
        raise NotImplementedError

    def _on_data(self, wire_seq: int, payload: Bits) -> None:
        raise NotImplementedError


class StopAndWaitArq(ArqSublayerBase):
    """One frame in flight; alternating sequence numbers."""

    def on_attach(self) -> None:
        super().on_attach()
        self.state.snd_seq = 0
        self.state.awaiting_ack = False
        self.state.pending = []        # queued payloads not yet sent
        self.state.inflight = None     # payload awaiting ack
        self.state.retries = 0
        self.state.rcv_expected = 0
        self._timer: TimerHandle | None = None

    def from_above(self, sdu: Any, **meta: Any) -> None:
        if not isinstance(sdu, Bits):
            raise FramingError("ARQ payload must be Bits")
        if self.state.awaiting_ack:
            self.state.pending = self.state.pending + [sdu]
            return
        self._send_frame(sdu)

    def _send_frame(self, payload: Bits) -> None:
        self.state.inflight = payload
        self.state.awaiting_ack = True
        self.state.retries = 0
        self.count("data_sent")
        self._note_sent(self.state.snd_seq)
        self._transmit_data(self.state.snd_seq, payload)
        self._arm_timer()

    def _arm_timer(self) -> None:
        self._timer = self.clock.call_later(self.retransmit_timeout, self._on_timeout)

    def _on_timeout(self) -> None:
        if not self.state.awaiting_ack:
            return
        if self.state.retries >= self.max_retries:
            self.count("given_up")
            self.state.awaiting_ack = False
            self.state.inflight = None
            self._drain_queue()
            return
        self.state.retries = self.state.retries + 1
        self.count("data_retransmitted")
        self._note_retransmit(self.state.snd_seq)
        self._transmit_data(self.state.snd_seq, self.state.inflight)
        self._arm_timer()

    def _on_ack(self, wire_ack: int) -> None:
        if not self.state.awaiting_ack or wire_ack != _fold(self.state.snd_seq):
            return  # stale ack
        if self._timer is not None:
            self._timer.cancel()
        self._note_acked(self.state.snd_seq)
        self.state.awaiting_ack = False
        self.state.inflight = None
        self.state.snd_seq = self.state.snd_seq + 1
        self._drain_queue()

    def _drain_queue(self) -> None:
        if self.state.pending and not self.state.awaiting_ack:
            queue = list(self.state.pending)
            head, rest = queue[0], queue[1:]
            self.state.pending = rest
            self._send_frame(head)

    def _on_data(self, wire_seq: int, payload: Bits) -> None:
        if wire_seq == _fold(self.state.rcv_expected):
            self.count("delivered")
            self.deliver_up(payload)
            self.state.rcv_expected = self.state.rcv_expected + 1
        # Ack the frame we just saw (re-ack duplicates).
        self._transmit_ack(wire_seq)


class GoBackNArq(ArqSublayerBase):
    """Sliding window with cumulative acks; receiver accepts in order."""

    def __init__(
        self,
        name: str = "arq",
        retransmit_timeout: float = 0.2,
        max_retries: int = 50,
        window: int = 8,
    ):
        super().__init__(name, retransmit_timeout, max_retries)
        if not 1 <= window <= 100:
            raise ConfigurationError("window must be in [1, 100]")
        self.window = window

    def clone_fresh(self) -> "GoBackNArq":
        return GoBackNArq(
            self.name, self.retransmit_timeout, self.max_retries, self.window
        )

    def on_attach(self) -> None:
        super().on_attach()
        self.state.base = 0
        self.state.next_seq = 0
        self.state.unacked = {}     # seq -> payload
        self.state.pending = []     # beyond the window
        self.state.retries = 0
        self.state.rcv_expected = 0
        self._timer: TimerHandle | None = None

    def from_above(self, sdu: Any, **meta: Any) -> None:
        if not isinstance(sdu, Bits):
            raise FramingError("ARQ payload must be Bits")
        self.state.pending = self.state.pending + [sdu]
        self._fill_window()

    def _fill_window(self) -> None:
        while self.state.pending and (
            self.state.next_seq - self.state.base < self.window
        ):
            queue = list(self.state.pending)
            payload, rest = queue[0], queue[1:]
            self.state.pending = rest
            seq = self.state.next_seq
            unacked = dict(self.state.unacked)
            unacked[seq] = payload
            self.state.unacked = unacked
            self.state.next_seq = seq + 1
            self.count("data_sent")
            self._note_sent(seq)
            self._transmit_data(seq, payload)
            if self._timer is None or self._timer.cancelled:
                self._arm_timer()

    def _arm_timer(self) -> None:
        self._timer = self.clock.call_later(self.retransmit_timeout, self._on_timeout)

    def _on_timeout(self) -> None:
        if self.state.base == self.state.next_seq:
            return  # nothing outstanding
        if self.state.retries >= self.max_retries:
            self.count("given_up")
            self.state.unacked = {}
            self.state.base = self.state.next_seq
            return
        self.state.retries = self.state.retries + 1
        unacked = self.state.unacked
        for seq in range(self.state.base, self.state.next_seq):
            self.count("data_retransmitted")
            self._note_retransmit(seq)
            self._transmit_data(seq, unacked[seq])
        self._arm_timer()

    def _on_ack(self, wire_ack: int) -> None:
        # Cumulative: wire_ack is the receiver's next expected seq.
        acked_through = _unfold(self.state.base, wire_ack)
        if acked_through > self.state.next_seq:
            return  # implausible: ignore
        if acked_through <= self.state.base:
            return  # duplicate ack
        unacked = dict(self.state.unacked)
        for seq in range(self.state.base, acked_through):
            unacked.pop(seq, None)
            self._note_acked(seq)
        self.state.unacked = unacked
        self.state.base = acked_through
        self.state.retries = 0
        if self._timer is not None:
            self._timer.cancel()
        if self.state.base < self.state.next_seq:
            self._arm_timer()
        self._fill_window()

    def _on_data(self, wire_seq: int, payload: Bits) -> None:
        if wire_seq == _fold(self.state.rcv_expected):
            self.count("delivered")
            self.deliver_up(payload)
            self.state.rcv_expected = self.state.rcv_expected + 1
        self._transmit_ack(self.state.rcv_expected)


class SelectiveRepeatArq(ArqSublayerBase):
    """Sliding window with individual acks and out-of-order buffering."""

    def __init__(
        self,
        name: str = "arq",
        retransmit_timeout: float = 0.2,
        max_retries: int = 50,
        window: int = 8,
    ):
        super().__init__(name, retransmit_timeout, max_retries)
        if not 1 <= window <= 100:
            raise ConfigurationError("window must be in [1, 100]")
        self.window = window

    def clone_fresh(self) -> "SelectiveRepeatArq":
        return SelectiveRepeatArq(
            self.name, self.retransmit_timeout, self.max_retries, self.window
        )

    def on_attach(self) -> None:
        super().on_attach()
        self.state.base = 0
        self.state.next_seq = 0
        self.state.unacked = {}      # seq -> payload
        self.state.retries = {}      # seq -> count
        self.state.pending = []
        self.state.rcv_expected = 0
        self.state.rcv_buffer = {}   # seq -> payload
        self._timers: dict[int, TimerHandle] = {}

    def from_above(self, sdu: Any, **meta: Any) -> None:
        if not isinstance(sdu, Bits):
            raise FramingError("ARQ payload must be Bits")
        self.state.pending = self.state.pending + [sdu]
        self._fill_window()

    def _fill_window(self) -> None:
        while self.state.pending and (
            self.state.next_seq - self.state.base < self.window
        ):
            queue = list(self.state.pending)
            payload, rest = queue[0], queue[1:]
            self.state.pending = rest
            seq = self.state.next_seq
            unacked = dict(self.state.unacked)
            unacked[seq] = payload
            self.state.unacked = unacked
            retries = dict(self.state.retries)
            retries[seq] = 0
            self.state.retries = retries
            self.state.next_seq = seq + 1
            self.count("data_sent")
            self._note_sent(seq)
            self._transmit_data(seq, payload)
            self._arm_timer(seq)

    def _arm_timer(self, seq: int) -> None:
        self._timers[seq] = self.clock.call_later(
            self.retransmit_timeout, lambda: self._on_timeout(seq)
        )

    def _on_timeout(self, seq: int) -> None:
        if seq not in self.state.unacked:
            return
        retries = dict(self.state.retries)
        if retries.get(seq, 0) >= self.max_retries:
            self.count("given_up")
            unacked = dict(self.state.unacked)
            unacked.pop(seq, None)
            self.state.unacked = unacked
            self._slide_base()
            return
        retries[seq] = retries.get(seq, 0) + 1
        self.state.retries = retries
        self.count("data_retransmitted")
        self._note_retransmit(seq)
        self._transmit_data(seq, self.state.unacked[seq])
        self._arm_timer(seq)

    def _on_ack(self, wire_ack: int) -> None:
        seq = _unfold(self.state.base, wire_ack)
        if seq not in self.state.unacked:
            return
        unacked = dict(self.state.unacked)
        unacked.pop(seq)
        self.state.unacked = unacked
        self._note_acked(seq)
        timer = self._timers.pop(seq, None)
        if timer is not None:
            timer.cancel()
        self._slide_base()
        self._fill_window()

    def _slide_base(self) -> None:
        base = self.state.base
        while base < self.state.next_seq and base not in self.state.unacked:
            base += 1
        self.state.base = base

    def _on_data(self, wire_seq: int, payload: Bits) -> None:
        seq = _unfold(self.state.rcv_expected, wire_seq)
        window_end = self.state.rcv_expected + self.window
        if self.state.rcv_expected <= seq < window_end:
            buffer = dict(self.state.rcv_buffer)
            buffer.setdefault(seq, payload)
            self.state.rcv_buffer = buffer
            self._deliver_in_order()
        # Ack whatever we saw (including old duplicates, so the sender
        # can slide past retransmissions whose acks were lost).
        self._transmit_ack(wire_seq)

    def _deliver_in_order(self) -> None:
        buffer = dict(self.state.rcv_buffer)
        expected = self.state.rcv_expected
        while expected in buffer:
            payload = buffer.pop(expected)
            self.count("delivered")
            self.deliver_up(payload)
            expected += 1
        self.state.rcv_expected = expected
        self.state.rcv_buffer = buffer


#: Registry for the F2 swap benchmark.
ARQ_SCHEMES = {
    "stop-and-wait": StopAndWaitArq,
    "go-back-n": GoBackNArq,
    "selective-repeat": SelectiveRepeatArq,
}

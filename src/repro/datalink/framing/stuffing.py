"""The stuffing sublayer's mechanisms: stuff and unstuff.

This is the *upper* half of the paper's nested framing sublayering
(Section 4.1): "the upper sublayer is a stuffing sublayer that does
stuffing (at the sender) and unstuffing (at the receiver)".  Both
directions act on every (possibly overlapping) trigger occurrence in
the *stuffed* stream, so sender and receiver make identical decisions
at identical stream positions — the invariant the round-trip lemma
rests on.

Occurrences are found with ``bytes.find`` on :attr:`Bits.raw`, one C
call per stuffed bit, instead of stepping the trigger's KMP automaton
bit by bit; the decisions and the :class:`FramingError` cases are the
automaton's, and the test suite checks the two exhaustively against
each other.
"""

from __future__ import annotations

from ...core.bits import Bits
from ...core.errors import FramingError
from .rules import StuffingRule


def stuff(data: Bits, rule: StuffingRule) -> Bits:
    """Insert ``rule.stuff_bit`` after every trigger occurrence.

    Occurrences are counted in the *output* stream (data plus stuffed
    bits), so a stuffed bit can participate in later trigger matches —
    exactly mirroring what the receiver sees.  Requires a progressive
    rule (otherwise a stuffed bit would immediately re-complete the
    trigger and stuffing would diverge).
    """
    if not rule.progressive:
        raise FramingError(f"rule is not progressive: {rule.label()}")
    trigger = rule.trigger.raw
    k = len(trigger)
    stuff_bit = bytes((rule.stuff_bit,))
    # Right after a stuffed bit the output ends with trigger[1:] + the
    # stuff bit (progressive: that is not the trigger), so the last k-1
    # output bits are known without looking back.
    resume = (trigger + stuff_bit)[2:]
    buf = data.raw
    chunks: list[bytes] = []
    pos = 0
    end = buf.find(trigger)
    if end != -1:
        end += k
    while end != -1:
        chunks.append(buf[pos:end])
        pos = end
        # The next occurrence either straddles the stuffed bit (it
        # starts in ``resume``) or lies wholly in the data still to come.
        hit = (resume + buf[pos:pos + k - 1]).find(trigger)
        if hit != -1:
            end = pos + hit + 1
        else:
            end = buf.find(trigger, pos)
            if end != -1:
                end += k
    chunks.append(buf[pos:])
    return Bits(stuff_bit.join(chunks))


def unstuff(stuffed: Bits, rule: StuffingRule) -> Bits:
    """Remove stuffed bits, the exact inverse of :func:`stuff`.

    Raises :class:`FramingError` if the input is not a valid stuffed
    stream for this rule — a trigger occurrence not followed by the
    stuff bit, or a stream ending where a stuff bit was mandatory.
    These are the receive-side errors a real data link surfaces as
    aborts.
    """
    trigger = rule.trigger.raw
    k = len(trigger)
    buf = stuffed.raw
    chunks: list[bytes] = []
    pos = 0
    start = buf.find(trigger)
    while start != -1:
        position = start + k  # where the stuff bit must be
        if position == len(buf):
            raise FramingError(
                f"stuffed stream ended where a stuff bit was mandatory "
                f"({rule.label()})"
            )
        if buf[position] != rule.stuff_bit:
            raise FramingError(
                f"expected stuff bit {rule.stuff_bit} at position "
                f"{position}, got {buf[position]} ({rule.label()})"
            )
        chunks.append(buf[pos:position])
        pos = position + 1
        start = buf.find(trigger, start + 1)
        if start + k == position + 1:
            raise FramingError(
                f"stuff bit completed trigger at position {position}"
            )
    chunks.append(buf[pos:])
    return Bits(b"".join(chunks))


def stuffed_overhead_bits(data: Bits, rule: StuffingRule) -> int:
    """How many bits stuffing added for this particular data."""
    return len(stuff(data, rule)) - len(data)

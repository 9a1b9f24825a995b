"""The find-based stuff/unstuff against a per-bit KMP automaton reference.

:mod:`repro.datalink.framing.stuffing` locates trigger occurrences with
``bytes.find``.  The reference below steps :class:`MatchAutomaton` one
bit at a time, the textbook formulation the round-trip lemma is stated
for.  Both must produce the same output, or raise the same
:class:`FramingError`, on every input.
"""

import functools
import random

import pytest

from repro.core.bits import Bits, all_bitstrings, all_bitstrings_up_to
from repro.core.errors import FramingError
from repro.datalink.framing import HDLC_RULE, LOW_OVERHEAD_RULE, StuffingRule
from repro.datalink.framing.automaton import MatchAutomaton
from repro.datalink.framing.stuffing import stuff, unstuff

FLAG = Bits.from_string("01111110")  # stuff/unstuff never read the flag

automaton = functools.lru_cache(maxsize=None)(MatchAutomaton)


def reference_stuff(data, rule):
    if not rule.progressive:
        raise FramingError(f"rule is not progressive: {rule.label()}")
    auto = automaton(rule.trigger)
    out = []
    state = 0
    for bit in data:
        out.append(bit)
        state, completed = auto.step(state, bit)
        if completed:
            out.append(rule.stuff_bit)
            state, again = auto.step(state, rule.stuff_bit)
            if again:
                raise FramingError(f"stuff bit re-completed trigger: {rule.label()}")
    return Bits(out)


def reference_unstuff(stuffed, rule):
    auto = automaton(rule.trigger)
    out = []
    state = 0
    expecting_stuff = False
    for position, bit in enumerate(stuffed):
        if expecting_stuff:
            if bit != rule.stuff_bit:
                raise FramingError(
                    f"expected stuff bit {rule.stuff_bit} at position "
                    f"{position}, got {bit} ({rule.label()})"
                )
            state, again = auto.step(state, bit)
            if again:
                raise FramingError(
                    f"stuff bit completed trigger at position {position}"
                )
            expecting_stuff = False
            continue
        out.append(bit)
        state, completed = auto.step(state, bit)
        if completed:
            expecting_stuff = True
    if expecting_stuff:
        raise FramingError(
            f"stuffed stream ended where a stuff bit was mandatory "
            f"({rule.label()})"
        )
    return Bits(out)


def outcome(fn, data, rule):
    """``("ok", bits)`` or ``("raise", message)``."""
    try:
        return "ok", fn(data, rule)
    except FramingError as exc:
        return "raise", str(exc)


def rules_with_trigger_length(k):
    return [
        StuffingRule(FLAG, trigger, stuff_bit)
        for trigger in all_bitstrings(k)
        for stuff_bit in (0, 1)
    ]


INPUTS = list(all_bitstrings_up_to(10))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_every_rule_and_input_up_to_10_bits(k):
    rules = rules_with_trigger_length(k)
    assert sum(rule.progressive for rule in rules) == 2 ** (k + 1) - 2
    for rule in rules:
        for data in INPUTS:
            assert outcome(stuff, data, rule) == outcome(
                reference_stuff, data, rule
            ), (rule, data)
            # Every bit string is an unstuff input, valid or not.
            assert outcome(unstuff, data, rule) == outcome(
                reference_unstuff, data, rule
            ), (rule, data)


@pytest.mark.parametrize("rule", [HDLC_RULE, LOW_OVERHEAD_RULE], ids=["hdlc", "low-overhead"])
def test_random_1000_byte_frames(rule):
    rng = random.Random(f"stuffing-equivalence/{rule.label()}")
    for _ in range(20):
        data = Bits.from_bytes(rng.randbytes(1000))
        stuffed = stuff(data, rule)
        assert stuffed == reference_stuff(data, rule)
        assert unstuff(stuffed, rule) == reference_unstuff(stuffed, rule) == data
        # A flipped bit makes most streams invalid; verdicts must agree.
        flip = rng.randrange(len(stuffed))
        damaged = Bits(
            stuffed.raw[:flip] + bytes((1 - stuffed[flip],)) + stuffed.raw[flip + 1:]
        )
        assert outcome(unstuff, damaged, rule) == outcome(
            reference_unstuff, damaged, rule
        )
        assert outcome(unstuff, data, rule) == outcome(reference_unstuff, data, rule)


def test_biased_streams_hit_back_to_back_stuffing():
    # Runs of the trigger's majority bit make stuffed bits straddle the
    # next occurrence, the case the find-based scan handles apart.
    rng = random.Random(5)
    for rule in (HDLC_RULE, LOW_OVERHEAD_RULE):
        majority = 1 if rule is HDLC_RULE else 0
        for _ in range(200):
            data = Bits(
                majority if rng.random() < 0.9 else 1 - majority
                for _ in range(rng.randrange(200))
            )
            stuffed = stuff(data, rule)
            assert stuffed == reference_stuff(data, rule)
            assert unstuff(stuffed, rule) == data

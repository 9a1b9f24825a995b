"""Preassembled data-link stacks (the two branches of Fig 2).

:func:`build_hdlc_stack` is the reliable point-to-point branch:
error recovery over error detection over framing (stuffing over flags)
over encoding.  :func:`build_wireless_station` is the broadcast
branch, which "dispenses with error recovery and does Media Access
Control": MAC over error detection over framing over encoding, bound
to a shared :class:`~repro.sim.medium.BroadcastMedium`.

Both assemblies instantiate :mod:`repro.compose` profiles ("hdlc" and
"wireless"): the sublayer order lives in the profile, every knob is a
profile parameter, and whole-slot swaps go through
``StackBuilder.with_replacement`` — the F2 benchmark exercises exactly
these swaps.
"""

from __future__ import annotations

import random
from typing import Any

from ..compose.builder import StackBuilder
from ..core.bits import Bits
from ..core.stack import Stack
from ..core.wiring import TIER_FULL
from ..phys.encodings import LineCode
from ..sim.engine import Simulator
from ..sim.link import DuplexLink, LinkConfig
from ..sim.medium import BroadcastMedium
from .errordetect import DetectionCode
from .framing.rules import HDLC_RULE, StuffingRule
from .mac import ChannelView


def build_hdlc_stack(
    name: str,
    clock: Any,
    rule: StuffingRule = HDLC_RULE,
    code: DetectionCode | None = None,
    arq: str = "go-back-n",
    line_code: LineCode | None = None,
    retransmit_timeout: float = 0.2,
    window: int = 8,
    framing: str = "bitstuff",
    tier: str = TIER_FULL,
    replacements: dict[str, Any] | None = None,
    insertions: list[tuple[str, str, Any]] | None = None,
    metrics: Any | None = None,
) -> Stack:
    """A reliable point-to-point data link (HDLC-like).

    ``framing`` selects the framing decomposition: ``"bitstuff"`` is
    the paper's nested pair (stuffing over flags); ``"cobs"`` replaces
    the pair with a single COBS sublayer — the re-partitioning swap.
    ``replacements`` maps profile slot names ("arq", "errordetect",
    "framing", "encoding") to ready sublayers or factories;
    ``insertions`` is a list of ``(slot, where, sublayer)`` extras
    spliced ``"before"``/``"after"`` a slot (fault injection enters
    here).
    """
    builder = StackBuilder(
        "hdlc", name=name, clock=clock, tier=tier, metrics=metrics
    )
    builder.with_params(
        rule=rule,
        code=code,
        arq=arq,
        line_code=line_code,
        retransmit_timeout=retransmit_timeout,
        window=window,
        framing=framing,
    )
    for slot, replacement in (replacements or {}).items():
        builder.with_replacement(slot, replacement)
    for slot, where, extra in insertions or []:
        builder.with_insertion(slot, extra, where=where)
    return builder.build()


def connect_hdlc_pair(
    sim: Simulator,
    link_config: LinkConfig | None = None,
    rng_seed: int = 0,
    **stack_kwargs: Any,
) -> tuple[Stack, Stack, DuplexLink]:
    """Two HDLC stacks joined by an (optionally impaired) duplex link."""
    a = build_hdlc_stack("dl-a", sim.clock(), **stack_kwargs)
    b = build_hdlc_stack("dl-b", sim.clock(), **stack_kwargs)
    duplex = DuplexLink(
        sim,
        link_config,
        rng_forward=random.Random(rng_seed),
        rng_reverse=random.Random(rng_seed + 1),
        name="hdlc",
    )
    duplex.attach(a, b)
    return a, b, duplex


def build_wireless_station(
    sim: Simulator,
    medium: BroadcastMedium,
    address: int,
    mac: str = "csma",
    rule: StuffingRule = HDLC_RULE,
    code: DetectionCode | None = None,
    line_code: LineCode | None = None,
    rng: random.Random | None = None,
    tier: str = TIER_FULL,
    replacements: dict[str, Any] | None = None,
    insertions: list[tuple[str, str, Any]] | None = None,
    metrics: Any | None = None,
) -> Stack:
    """One station of the broadcast branch, attached to a shared medium."""
    port = medium.attach(f"station-{address}")
    channel = ChannelView(port.carrier_sense)
    builder = StackBuilder(
        "wireless",
        name=f"wl-{address}",
        clock=sim.clock(),
        tier=tier,
        metrics=metrics,
    )
    builder.with_params(
        mac=mac,
        address=address,
        channel=channel,
        rng=rng,
        rule=rule,
        code=code,
        line_code=line_code,
    )
    for slot, replacement in (replacements or {}).items():
        builder.with_replacement(slot, replacement)
    for slot, where, extra in insertions or []:
        builder.with_insertion(slot, extra, where=where)
    stack = builder.build()
    stack.on_transmit = lambda bits, **meta: port.transmit(bits, len(bits))
    port.on_receive = lambda frame: stack.receive(frame)
    port.on_transmit_done = channel._transmit_done
    return stack


def send_bytes(stack: Stack, payload: bytes, **meta: Any) -> None:
    """Convenience: push application bytes into a data-link stack."""
    stack.send(Bits.from_bytes(payload), **meta)


def collect_bytes(stack: Stack) -> list[bytes]:
    """Attach a byte-collecting sink to a stack; returns the live list."""
    received: list[bytes] = []

    def on_deliver(bits: Bits, **meta: Any) -> None:
        received.append(bits.to_bytes())

    stack.on_deliver = on_deliver
    return received

"""Int-path header packing against a field-by-field ``Bits`` reference.

:class:`HeaderFormat` packs a header as one int with shifts and masks.
The reference below concatenates one ``Bits.from_int`` per field and
slices them back out, the layout as declared.  Both must agree on
every shipped format and on one format that is not byte aligned.
"""

import random

import pytest

from repro.core.bits import Bits
from repro.core.errors import HeaderError
from repro.core.header import Field, HeaderFormat
from repro.datalink.arq import ARQ_HEADER
from repro.datalink.mac import MAC_HEADER
from repro.network.packets import IP_HEADER
from repro.transport.quic.record import RECORD_HEADER
from repro.transport.rfc793 import TCP_HEADER
from repro.transport.sublayered.headers import (
    CM_HEADER,
    DM_HEADER,
    OSR_HEADER,
    RD_HEADER,
)

UNALIGNED = HeaderFormat(
    "unaligned",
    [Field("a", 3), Field("b", 11, default=5), Field("c", 1), Field("d", 6)],
    owner="test",
)

FORMATS = [
    ARQ_HEADER,
    MAC_HEADER,
    IP_HEADER,
    DM_HEADER,
    CM_HEADER,
    RD_HEADER,
    OSR_HEADER,
    RECORD_HEADER,
    TCP_HEADER,
    UNALIGNED,
]


def reference_pack(fmt, values):
    out = Bits()
    for field in fmt.fields:
        out = out + Bits.from_int(values.get(field.name, field.default), field.width)
    return out


def reference_unpack(fmt, bits):
    values, offset = {}, 0
    for field in fmt.fields:
        values[field.name] = bits[offset:offset + field.width].to_int()
        offset += field.width
    return values


def random_values(fmt, rng):
    # Some fields omitted (they take defaults), the rest at random,
    # with the all-ones and zero extremes over-represented.
    values = {}
    for field in fmt.fields:
        roll = rng.random()
        if roll < 0.2:
            continue
        if roll < 0.3:
            values[field.name] = field.max_value
        elif roll < 0.4:
            values[field.name] = 0
        else:
            values[field.name] = rng.randrange(field.max_value + 1)
    return values


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda fmt: fmt.name)
def test_pack_unpack_match_reference(fmt):
    rng = random.Random(f"header-equivalence/{fmt.name}")
    assert fmt.bit_width == sum(field.width for field in fmt.fields)
    for _ in range(200):
        values = random_values(fmt, rng)
        packed = fmt.pack(values)
        assert packed == reference_pack(fmt, values)
        trailer = Bits.from_int(rng.getrandbits(13), 13)
        assert fmt.unpack(packed) == reference_unpack(fmt, packed)
        assert fmt.unpack(packed + trailer) == reference_unpack(fmt, packed)
        header, rest = fmt.split(packed + trailer)
        assert header == reference_unpack(fmt, packed) and rest == trailer
        if fmt.bit_width % 8 == 0:
            data = fmt.pack_bytes(values)
            assert data == packed.to_bytes()
            assert fmt.unpack_bytes(data + b"\xa5\x5a") == reference_unpack(fmt, packed)
        else:
            with pytest.raises(ValueError):
                fmt.pack_bytes(values)
            # unpack_bytes reads the leading whole bytes that cover the
            # header and ignores the bits after it.
            padded = packed + Bits.zeros(-fmt.bit_width % 8)
            assert fmt.unpack_bytes(padded.to_bytes()) == reference_unpack(fmt, packed)


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda fmt: fmt.name)
def test_short_input_rejected(fmt):
    with pytest.raises(HeaderError, match=f"need {fmt.bit_width} bits"):
        fmt.unpack(Bits.zeros(fmt.bit_width - 1))
    short = (fmt.bit_width + 7) // 8 - 1
    with pytest.raises(HeaderError, match=f"got {8 * short}$"):
        fmt.unpack_bytes(bytes(short))


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda fmt: fmt.name)
def test_unknown_and_overflow_rejected(fmt):
    with pytest.raises(HeaderError, match="unknown fields"):
        fmt.pack({"no-such-field": 0})
    with pytest.raises(HeaderError, match="unknown fields"):
        fmt.pack_bytes({"no-such-field": 0})
    for field in fmt.fields:
        for bad in (field.max_value + 1, -1):
            with pytest.raises(HeaderError, match=f"does not fit field {field.name!r}"):
                fmt.pack({field.name: bad})

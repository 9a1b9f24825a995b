"""The table-driven CRC against the bitwise shift-register loop.

:meth:`CrcSpec.compute` folds in one byte per table lookup.  The
reference below shifts one bit at a time, the rocksoft model as
written; both must agree for every spec on every input.
"""

import random

import pytest

from repro.datalink.crc import CRC_SPECS, _reflect


def bitwise_crc(spec, data):
    mask = (1 << spec.width) - 1
    crc = spec.init
    if spec.reflect_in:
        poly = _reflect(spec.poly, spec.width)
        for byte in data:
            crc ^= byte
            for _ in range(8):
                crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
    else:
        top = 1 << (spec.width - 1)
        for byte in data:
            crc ^= byte << (spec.width - 8)
            for _ in range(8):
                crc = ((crc << 1) ^ spec.poly) if crc & top else crc << 1
            crc &= mask
    if spec.reflect_out != spec.reflect_in:
        crc = _reflect(crc, spec.width)
    return (crc ^ spec.xor_out) & mask


@pytest.mark.parametrize("name", sorted(CRC_SPECS))
def test_table_matches_bitwise_on_random_inputs(name):
    spec = CRC_SPECS[name]
    rng = random.Random(f"crc-table/{name}")
    lengths = [0, 1, 2, 1000] + [rng.randrange(1001) for _ in range(60)]
    for length in lengths:
        data = rng.randbytes(length)
        assert spec.compute(data) == bitwise_crc(spec, data), (name, length)


@pytest.mark.parametrize("name", sorted(CRC_SPECS))
def test_table_matches_bitwise_on_every_single_byte(name):
    spec = CRC_SPECS[name]
    for byte in range(256):
        assert spec.compute(bytes((byte,))) == bitwise_crc(spec, bytes((byte,)))


def test_buffer_inputs_agree():
    spec = CRC_SPECS["crc32"]
    data = bytes(range(256)) * 3
    expected = spec.compute(data)
    assert spec.compute(bytearray(data)) == expected
    assert spec.compute(memoryview(data)) == expected

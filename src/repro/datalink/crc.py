"""Cyclic redundancy checks, parameterized the rocksoft way.

The error-detection sublayer's point (Section 2.1) is that "the
sublayer can be changed (to go from say CRC-32 to CRC-64) without
changing other sublayers".  For that demonstration we need an actual
family of interchangeable codes: this module implements the generic
CRC algorithm (polynomial, init, reflection, xor-out) and instantiates
the standard parameter sets — CRC-8, CRC-16/CCITT, CRC-16/ARC, CRC-32
(the IEEE/HDLC one), and CRC-64/ECMA — each validated in the test
suite against its published check value for ``b"123456789"``.  The
register advances a byte at a time through a 256-entry table built on
first use for each spec; the test suite pins it to the bit-at-a-time
shift register.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


def _reflect(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


@dataclass(frozen=True)
class CrcSpec:
    """Rocksoft-model CRC parameters."""

    name: str
    width: int
    poly: int
    init: int
    reflect_in: bool
    reflect_out: bool
    xor_out: int

    @cached_property
    def _table(self) -> tuple[int, ...]:
        """The CRC register after shifting each byte value in (8 steps)."""
        mask = (1 << self.width) - 1
        table = []
        if self.reflect_in:
            # Reflected algorithm: process LSB-first with reversed poly.
            poly = _reflect(self.poly, self.width)
            for byte in range(256):
                crc = byte
                for _ in range(8):
                    crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
                table.append(crc)
        else:
            top = 1 << (self.width - 1)
            for byte in range(256):
                crc = byte << (self.width - 8)
                for _ in range(8):
                    crc = ((crc << 1) ^ self.poly) if crc & top else crc << 1
                table.append(crc & mask)
        return tuple(table)

    def compute(self, data: bytes) -> int:
        """The CRC of ``data`` as an unsigned ``width``-bit integer.

        ``data`` may be any buffer-protocol object (``bytes``,
        ``bytearray``, ``memoryview``); it is only ever iterated, never
        copied.  One table lookup per byte (the table is built on first
        use, per spec).
        """
        mask = (1 << self.width) - 1
        table = self._table
        crc = self.init
        if self.reflect_in:
            for byte in data:
                crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
        else:
            shift = self.width - 8
            for byte in data:
                crc = ((crc << 8) & mask) ^ table[((crc >> shift) ^ byte) & 0xFF]
        if self.reflect_out != self.reflect_in:
            crc = _reflect(crc, self.width)
        return (crc ^ self.xor_out) & mask

    def append(self, data: bytes) -> bytes:
        """``data`` with the big-endian CRC appended as a trailer.

        Accepts any buffer-protocol object without an intermediate
        ``bytes()`` copy of the payload (``join`` reads the buffer
        directly into the result).
        """
        return b"".join(
            (data, self.compute(data).to_bytes(self.width // 8, "big"))
        )

    def verify(self, framed: bytes) -> bool:
        """Check a trailer produced by :meth:`append`.

        A ``memoryview`` argument is sliced as a view, so verification
        never copies the frame body.
        """
        trailer_bytes = self.width // 8
        if len(framed) < trailer_bytes:
            return False
        data, trailer = framed[:-trailer_bytes], framed[-trailer_bytes:]
        return self.compute(data) == int.from_bytes(trailer, "big")


CRC8 = CrcSpec("crc8", 8, 0x07, 0x00, False, False, 0x00)
CRC16_CCITT = CrcSpec("crc16-ccitt", 16, 0x1021, 0xFFFF, False, False, 0x0000)
CRC16_ARC = CrcSpec("crc16-arc", 16, 0x8005, 0x0000, True, True, 0x0000)
CRC32 = CrcSpec("crc32", 32, 0x04C11DB7, 0xFFFFFFFF, True, True, 0xFFFFFFFF)
CRC64_ECMA = CrcSpec(
    "crc64-ecma", 64, 0x42F0E1EBA9EA3693, 0x0000000000000000, False, False, 0x0
)

#: Registry for swap experiments and configuration by name.
CRC_SPECS: dict[str, CrcSpec] = {
    spec.name: spec for spec in (CRC8, CRC16_CCITT, CRC16_ARC, CRC32, CRC64_ECMA)
}

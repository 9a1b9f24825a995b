"""Immutable bit strings.

The data-link sublayers of the paper (Section 2.1 and the verified
bit-stuffing experiment of Section 4.1) operate on *bit* sequences, not
bytes: stuffing inserts single bits, flags are 8-bit patterns that need
not be byte aligned after stuffing.  :class:`Bits` is a small immutable
sequence-of-{0,1} type with the handful of operations those sublayers
need: concatenation, slicing, pattern search, and byte conversion.

The representation is one immutable ``bytes`` holding one byte per bit
(``0x00`` or ``0x01``), exposed read-only as :attr:`Bits.raw`.  Every
operation is one or two C-level calls on that buffer: slicing, ``+``,
``find``, ``startswith``/``endswith`` and ``==`` are ``bytes``
operations, and the byte, int and string conversions go through
``int.from_bytes``, ``bin``/``int(..., 2)`` and ``bytes.translate``.
The constructor still checks that every value is 0 or 1, in C
(``buf.translate(None, b"\\x00\\x01")`` must be empty).

Equality and hashing agree with ``tuple`` of the same ints (``Bits(x)
== tuple(x)`` and ``hash(Bits(x)) == hash(tuple(x))``), because bit
strings key the stuffing-rule search and model-checker tables.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

_BIT_VALUES = b"\x00\x01"
_TO_ASCII = bytes.maketrans(_BIT_VALUES, b"01")
_FROM_ASCII = bytes.maketrans(b"01", _BIT_VALUES)


def _int_buffer(value: int, width: int) -> bytes:
    """``width`` bits of ``value`` (which must fit), MSB first.

    The sentinel bit above ``width`` keeps leading zeros in ``bin``.
    """
    return bin(value | (1 << width))[3:].encode("ascii").translate(_FROM_ASCII)


def _buffer(bits: Iterable[int]) -> bytes:
    """One byte per bit for anything :class:`Bits` accepts (unchecked)."""
    if isinstance(bits, Bits):
        return bits._buf
    if isinstance(bits, (bytes, bytearray, memoryview)):
        return bytes(bits)
    try:
        return bytes(map(int, bits))
    except ValueError:  # a value outside 0..255
        raise ValueError("bit values must be 0 or 1") from None


class Bits(Sequence[int]):
    """An immutable sequence of bits (each 0 or 1)."""

    __slots__ = ("_buf",)

    def __init__(self, bits: Iterable[int] = b""):
        buf = bits if type(bits) is bytes else _buffer(bits)
        bad = buf.translate(None, _BIT_VALUES)
        if bad:
            raise ValueError(f"bit values must be 0 or 1, got {bad[0]}")
        self._buf = buf

    @property
    def raw(self) -> bytes:
        """The bits as ``bytes``, one byte (``0x00``/``0x01``) per bit."""
        return self._buf

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_string(cls, text: str) -> "Bits":
        """Parse a bit string like ``"01111110"`` (spaces/underscores ignored)."""
        cleaned = text.replace(" ", "").replace("_", "")
        if cleaned.strip("01"):  # anything left is not a bit
            raise ValueError(f"not a bit string: {text!r}")
        return cls(cleaned.encode("ascii").translate(_FROM_ASCII))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bits":
        """Expand bytes to bits, most-significant bit first."""
        return cls(_int_buffer(int.from_bytes(data, "big"), 8 * len(data)))

    @classmethod
    def from_int(cls, value: int, width: int) -> "Bits":
        """Encode ``value`` as a fixed-width big-endian bit string."""
        if value < 0:
            raise ValueError("value must be non-negative")
        if width < 0:
            raise ValueError("width must be non-negative")
        if value >= (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        return cls(_int_buffer(value, width))

    @classmethod
    def zeros(cls, count: int) -> "Bits":
        return cls(bytes(count))

    @classmethod
    def ones(cls, count: int) -> "Bits":
        return cls(b"\x01" * count)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self) -> Iterator[int]:
        return iter(self._buf)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Bits(self._buf[index])
        return self._buf[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, Bits):
            return self._buf == other._buf
        if isinstance(other, (tuple, list)):
            return tuple(self._buf) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._buf))

    def __add__(self, other: "Bits | Iterable[int]") -> "Bits":
        return Bits(self._buf + _buffer(other))

    def __radd__(self, other: Iterable[int]) -> "Bits":
        return Bits(_buffer(other) + self._buf)

    def __mul__(self, count: int) -> "Bits":
        return Bits(self._buf * count)

    def __repr__(self) -> str:
        return f"Bits('{self.to_string()}')"

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_string(self) -> str:
        return self._buf.translate(_TO_ASCII).decode("ascii")

    def to_int(self) -> int:
        """Interpret the bits as a big-endian unsigned integer."""
        if not self._buf:
            return 0
        return int(self._buf.translate(_TO_ASCII), 2)

    def to_bytes(self) -> bytes:
        """Pack to bytes, MSB first.  Length must be a multiple of 8."""
        if len(self._buf) % 8 != 0:
            raise ValueError(
                f"bit length {len(self._buf)} is not a whole number of bytes"
            )
        return self.to_int().to_bytes(len(self._buf) // 8, "big")

    # ------------------------------------------------------------------
    # Pattern operations (used by framing)
    # ------------------------------------------------------------------
    def find(self, pattern: "Bits", start: int = 0) -> int:
        """Index of the first occurrence of ``pattern`` at or after ``start``.

        Returns -1 if the pattern does not occur.
        """
        return self._buf.find(pattern._buf, start)

    def count_overlapping(self, pattern: "Bits") -> int:
        """Number of (possibly overlapping) occurrences of ``pattern``."""
        count = 0
        index = self.find(pattern)
        while index != -1:
            count += 1
            index = self.find(pattern, index + 1)
        return count

    def contains(self, pattern: "Bits") -> bool:
        return pattern._buf in self._buf

    def startswith(self, pattern: "Bits") -> bool:
        return self._buf.startswith(pattern._buf)

    def endswith(self, pattern: "Bits") -> bool:
        return self._buf.endswith(pattern._buf)


def all_bitstrings(length: int) -> Iterator[Bits]:
    """Yield every bit string of exactly ``length`` bits.

    The bounded-exhaustive proof tactic (:mod:`repro.verify.lemma`)
    iterates this for every length up to its bound.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    for value in range(1 << length):
        yield Bits.from_int(value, length)


def all_bitstrings_up_to(max_length: int) -> Iterator[Bits]:
    """Yield every bit string of length 0..``max_length`` inclusive."""
    for length in range(max_length + 1):
        yield from all_bitstrings(length)

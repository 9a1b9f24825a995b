"""Declarative bit-level header formats with per-sublayer bit ownership.

Test **T3** of the paper requires that "each sublayer acts on separate
packet bits ... invisible to other sublayers".  To make that checkable
rather than aspirational, headers here are declared as ordered
:class:`Field` lists and every field records which sublayer *owns* it.
The litmus checker (:mod:`repro.core.litmus`) compares the owner tags
against which sublayer actually read or wrote each field at runtime.

A :class:`HeaderFormat` packs/unpacks a ``dict`` of field values to and
from :class:`~repro.core.bits.Bits` (and bytes when the total width is
byte aligned), so the same declaration serves the in-simulator object
representation and an on-the-wire byte encoding.  A format caches its
width and each field's shift and mask, and packs and unpacks with int
shifts: one ``Bits`` (or one ``int.to_bytes``) per header, not one per
field.  The Fig 6 sublayered TCP header and the RFC 793 header are both
declared this way, which is what lets :mod:`repro.analysis.headers`
check their isomorphism field by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .bits import Bits
from .errors import HeaderError


@dataclass(frozen=True)
class Field:
    """One fixed-width unsigned integer field in a header.

    Parameters
    ----------
    name:
        Field name, unique within its :class:`HeaderFormat`.
    width:
        Width in bits (>= 1).
    owner:
        Name of the sublayer that owns these bits.  ``None`` means the
        format has a single implicit owner (set by the format).
    default:
        Value used when the field is omitted at pack time.
    """

    name: str
    width: int
    owner: str | None = None
    default: int = 0

    def __post_init__(self) -> None:
        if self.width < 1:
            raise HeaderError(f"field {self.name!r} must be at least 1 bit wide")
        if not (0 <= self.default < (1 << self.width)):
            raise HeaderError(
                f"default {self.default} does not fit field {self.name!r} "
                f"({self.width} bits)"
            )

    @property
    def max_value(self) -> int:
        return (1 << self.width) - 1


class HeaderFormat:
    """An ordered sequence of :class:`Field` with pack/unpack."""

    def __init__(self, name: str, fields: list[Field], owner: str | None = None):
        seen: set[str] = set()
        resolved: list[Field] = []
        for field in fields:
            if field.name in seen:
                raise HeaderError(f"duplicate field {field.name!r} in {name!r}")
            seen.add(field.name)
            if field.owner is None and owner is not None:
                field = Field(field.name, field.width, owner, field.default)
            resolved.append(field)
        self.name = name
        self.fields: tuple[Field, ...] = tuple(resolved)
        self._by_name: dict[str, Field] = {f.name: f for f in self.fields}
        self._bit_width = sum(f.width for f in self.fields)
        # The packed header is one big-endian int of bit_width bits;
        # each field sits ``shift`` bits above its least significant bit.
        layout: list[tuple[str, int, int, int]] = []
        shift = self._bit_width
        for field in self.fields:
            shift -= field.width
            layout.append((field.name, shift, field.max_value, field.default))
        self._layout = tuple(layout)

    # ------------------------------------------------------------------
    @property
    def bit_width(self) -> int:
        """Total header width in bits."""
        return self._bit_width

    @property
    def byte_width(self) -> int:
        """Total header width in bytes; raises if not byte aligned."""
        if self.bit_width % 8 != 0:
            raise HeaderError(f"header {self.name!r} is not byte aligned")
        return self.bit_width // 8

    def field(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError:
            raise HeaderError(f"no field {name!r} in header {self.name!r}") from None

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def owners(self) -> set[str]:
        """The set of sublayers owning at least one field."""
        return {f.owner for f in self.fields if f.owner is not None}

    def fields_owned_by(self, owner: str) -> list[Field]:
        return [f for f in self.fields if f.owner == owner]

    def bit_ranges(self) -> dict[str, tuple[int, int]]:
        """Map field name -> (start_bit, end_bit_exclusive) in the packed layout."""
        ranges: dict[str, tuple[int, int]] = {}
        offset = 0
        for field in self.fields:
            ranges[field.name] = (offset, offset + field.width)
            offset += field.width
        return ranges

    # ------------------------------------------------------------------
    def _pack_int(self, values: Mapping[str, int] | None) -> int:
        """Field values as one big-endian int; missing fields take defaults."""
        values = values or {}
        unknown = values.keys() - self._by_name.keys()
        if unknown:
            raise HeaderError(
                f"unknown fields for header {self.name!r}: {sorted(unknown)}"
            )
        packed = 0
        get = values.get
        for name, shift, top, default in self._layout:
            value = int(get(name, default))
            if not 0 <= value <= top:
                raise HeaderError(
                    f"value {value} does not fit field {name!r} "
                    f"({top.bit_length()} bits) of header {self.name!r}"
                )
            packed |= value << shift
        return packed

    def _unpack_int(self, packed: int) -> dict[str, int]:
        return {
            name: (packed >> shift) & top for name, shift, top, _ in self._layout
        }

    def pack(self, values: Mapping[str, int] | None = None) -> Bits:
        """Encode field values to bits; missing fields take their default."""
        return Bits.from_int(self._pack_int(values), self._bit_width)

    def pack_bytes(self, values: Mapping[str, int] | None = None) -> bytes:
        packed = self._pack_int(values)
        if self._bit_width % 8 != 0:
            raise ValueError(
                f"bit length {self._bit_width} is not a whole number of bytes"
            )
        return packed.to_bytes(self._bit_width // 8, "big")

    def unpack(self, bits: Bits) -> dict[str, int]:
        """Decode exactly one header's worth of leading bits."""
        width = self._bit_width
        if len(bits) < width:
            raise HeaderError(
                f"need {width} bits for header {self.name!r}, got {len(bits)}"
            )
        if len(bits) > width:
            bits = bits[:width]
        return self._unpack_int(bits.to_int())

    def unpack_bytes(self, data: bytes) -> dict[str, int]:
        width = self._bit_width
        head = data[: (width + 7) // 8]
        if 8 * len(head) < width:
            raise HeaderError(
                f"need {width} bits for header {self.name!r}, "
                f"got {8 * len(head)}"
            )
        return self._unpack_int(
            int.from_bytes(head, "big") >> (8 * len(head) - width)
        )

    def split(self, bits: Bits) -> tuple[dict[str, int], Bits]:
        """Decode the leading header and return (values, remaining bits)."""
        return self.unpack(bits), bits[self._bit_width :]

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"HeaderFormat({self.name!r}, {self.bit_width} bits)"


def concat_formats(name: str, *formats: HeaderFormat) -> HeaderFormat:
    """Concatenate header formats into one, preserving field owners.

    This models the right-hand side of the paper's Fig 2/Fig 6: the full
    packet header is the concatenation of per-sublayer subheaders, each
    sublayer owning only its own region.  Field names are prefixed with
    the source format name to stay unique (``cm.isn``, ``rd.seq`` ...).
    """
    fields: list[Field] = []
    for fmt in formats:
        for field in fmt.fields:
            fields.append(
                Field(
                    name=f"{fmt.name}.{field.name}",
                    width=field.width,
                    owner=field.owner,
                    default=field.default,
                )
            )
    return HeaderFormat(name, fields)

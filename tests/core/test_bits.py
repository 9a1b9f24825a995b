"""Tests for repro.core.bits."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bits import Bits, all_bitstrings, all_bitstrings_up_to

bit_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=64)


class TestConstruction:
    def test_empty(self):
        assert len(Bits()) == 0
        assert Bits().to_string() == ""

    def test_from_iterable(self):
        assert list(Bits([1, 0, 1])) == [1, 0, 1]

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            Bits([0, 2])

    def test_from_string(self):
        assert Bits.from_string("0111 1110") == Bits([0, 1, 1, 1, 1, 1, 1, 0])

    def test_from_string_underscores(self):
        assert Bits.from_string("01_10") == Bits([0, 1, 1, 0])

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError):
            Bits.from_string("012")

    def test_from_bytes_msb_first(self):
        assert Bits.from_bytes(b"\x80") == Bits.from_string("10000000")
        assert Bits.from_bytes(b"\x01") == Bits.from_string("00000001")

    def test_from_int(self):
        assert Bits.from_int(5, 4) == Bits.from_string("0101")

    def test_from_int_zero_width(self):
        assert Bits.from_int(0, 0) == Bits()

    def test_from_int_overflow(self):
        with pytest.raises(ValueError):
            Bits.from_int(16, 4)

    def test_from_int_negative(self):
        with pytest.raises(ValueError):
            Bits.from_int(-1, 4)

    def test_zeros_ones(self):
        assert Bits.zeros(3) == Bits.from_string("000")
        assert Bits.ones(3) == Bits.from_string("111")


class TestSequence:
    def test_indexing(self):
        b = Bits.from_string("0110")
        assert b[0] == 0
        assert b[1] == 1
        assert b[-1] == 0

    def test_slicing_returns_bits(self):
        b = Bits.from_string("011010")
        assert isinstance(b[1:4], Bits)
        assert b[1:4] == Bits.from_string("110")

    def test_concat(self):
        assert Bits.from_string("01") + Bits.from_string("10") == Bits.from_string("0110")

    def test_concat_with_list(self):
        assert Bits.from_string("01") + [1, 1] == Bits.from_string("0111")

    def test_repeat(self):
        assert Bits.from_string("01") * 3 == Bits.from_string("010101")

    def test_hashable(self):
        assert {Bits.from_string("01"): 1}[Bits.from_string("01")] == 1

    def test_equality_with_tuple(self):
        assert Bits([1, 0]) == (1, 0)


class TestConversions:
    def test_to_int(self):
        assert Bits.from_string("0101").to_int() == 5

    def test_to_int_empty(self):
        assert Bits().to_int() == 0

    def test_to_bytes_roundtrip(self):
        data = b"\x00\xff\x7e\x42"
        assert Bits.from_bytes(data).to_bytes() == data

    def test_to_bytes_unaligned_raises(self):
        with pytest.raises(ValueError):
            Bits.from_string("0101010").to_bytes()

    @given(st.binary(max_size=32))
    def test_bytes_roundtrip_property(self, data):
        assert Bits.from_bytes(data).to_bytes() == data

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_int_roundtrip_property(self, value):
        assert Bits.from_int(value, 16).to_int() == value


class TestPatterns:
    def test_find_present(self):
        assert Bits.from_string("0011100").find(Bits.from_string("111")) == 2

    def test_find_absent(self):
        assert Bits.from_string("0000").find(Bits.from_string("1")) == -1

    def test_find_with_start(self):
        b = Bits.from_string("101101")
        assert b.find(Bits.from_string("1"), start=1) == 2

    def test_find_empty_pattern(self):
        assert Bits.from_string("01").find(Bits()) == 0

    def test_count_overlapping(self):
        assert Bits.from_string("1111").count_overlapping(Bits.from_string("11")) == 3

    def test_contains(self):
        assert Bits.from_string("0110").contains(Bits.from_string("11"))
        assert not Bits.from_string("0100").contains(Bits.from_string("11"))

    def test_startswith_endswith(self):
        b = Bits.from_string("0110")
        assert b.startswith(Bits.from_string("01"))
        assert b.endswith(Bits.from_string("10"))
        assert b.endswith(Bits())

    @given(bit_lists, bit_lists)
    def test_find_agrees_with_string_find(self, hay, needle):
        h, n = Bits(hay), Bits(needle)
        if len(n) == 0:
            return
        assert h.find(n) == h.to_string().find(n.to_string())


class TestContract:
    """What the rest of the program relies on, whatever the representation."""

    @given(bit_lists)
    def test_equal_and_hash_like_tuple(self, bits):
        value = Bits(bits)
        assert value == tuple(bits) and value == list(bits)
        assert value == Bits(bytes(bits)) == Bits(bytearray(bits))
        # Bits key the rule-search and model-checker tables, where they
        # must be interchangeable with the equal tuples.
        assert hash(value) == hash(tuple(bits))

    @pytest.mark.parametrize("bad", [2, -1])
    def test_rejects_non_bits_from_every_source(self, bad):
        with pytest.raises(ValueError):
            Bits([0, bad, 1])
        if bad >= 0:
            with pytest.raises(ValueError):
                Bits(bytes([0, bad]))
            with pytest.raises(ValueError):
                Bits(bytearray([bad]))

    def test_rejects_non_bits_in_concat(self):
        with pytest.raises(ValueError):
            Bits([1]) + [0, 2]
        with pytest.raises(ValueError):
            [3] + Bits([1])

    def test_empty_conversions(self):
        assert Bits.from_bytes(b"") == Bits() == ()
        assert Bits.from_int(0, 0) == Bits()
        assert Bits().to_bytes() == b""
        assert Bits.from_string("") == Bits()

    @given(bit_lists)
    def test_pickle_roundtrip(self, bits):
        value = Bits(bits)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(value, protocol))
            assert copy == value and hash(copy) == hash(value)
            assert isinstance(copy, Bits)

    def test_init_is_defined_on_the_class(self):
        # The benchmark tracer counts allocations by wrapping it.
        assert "__init__" in Bits.__dict__

    def test_raw_is_one_byte_per_bit(self):
        assert Bits.from_string("0110").raw == b"\x00\x01\x01\x00"

    @given(st.binary(max_size=16))
    def test_from_bytes_matches_per_bit_expansion(self, data):
        expected = [(byte >> shift) & 1 for byte in data for shift in range(7, -1, -1)]
        assert Bits.from_bytes(data) == expected
        assert Bits.from_bytes(data).to_int() == int.from_bytes(data, "big")


class TestEnumeration:
    def test_all_bitstrings_count(self):
        assert len(list(all_bitstrings(3))) == 8

    def test_all_bitstrings_zero_length(self):
        assert list(all_bitstrings(0)) == [Bits()]

    def test_all_bitstrings_unique(self):
        strings = list(all_bitstrings(4))
        assert len(set(strings)) == 16

    def test_all_bitstrings_up_to(self):
        # 1 + 2 + 4 + 8 = 15 strings of length <= 3
        assert len(list(all_bitstrings_up_to(3))) == 15

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            list(all_bitstrings(-1))

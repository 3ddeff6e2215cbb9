"""Tests for the CRC substrate."""

import binascii
import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crc import CRC, CRC8, CRC16_CCITT, CRC32, CrcSpec, crc_for
from repro.crc.engine import _native_kernel, _reflect, _table_crc
from repro.noc.config import describe_crc


ALL_CODECS = [CRC8, CRC16_CCITT, CRC32]


class TestCatalogueVectors:
    def test_crc8_check_value(self):
        assert CRC8.compute(b"123456789") == 0xF4

    def test_crc16_ccitt_check_value(self):
        assert CRC16_CCITT.compute(b"123456789") == 0x29B1

    def test_crc32_check_value(self):
        assert CRC32.compute(b"123456789") == 0xCBF43926

    def test_crc32_known_strings(self):
        # Standard IEEE 802.3 values.
        assert CRC32.compute(b"") == 0x00000000
        assert CRC32.compute(b"a") == 0xE8B7BE43
        assert CRC32.compute(b"abc") == 0x352441C2

    def test_lookup_by_name(self):
        assert crc_for("CRC-32").width == 32
        assert crc_for("CRC-8").width == 8

    def test_lookup_unknown_name(self):
        with pytest.raises(KeyError, match="unknown CRC"):
            crc_for("CRC-7/NOPE")


class TestSpecValidation:
    def test_rejects_narrow_width(self):
        with pytest.raises(ValueError, match="width"):
            CrcSpec("bad", 4, 0x3, 0, False, False, 0, 0)

    def test_rejects_non_byte_width(self):
        with pytest.raises(ValueError, match="width"):
            CrcSpec("bad", 12, 0x80F, 0, False, False, 0, 0)

    def test_rejects_oversized_polynomial(self):
        with pytest.raises(ValueError, match="polynomial"):
            CrcSpec("bad", 8, 0x1FF, 0, False, False, 0, 0)

    def test_rejects_wrong_check_value(self):
        spec = CrcSpec("bad-check", 8, 0x07, 0x00, False, False, 0x00, 0x00)
        with pytest.raises(ValueError, match="self-test failed"):
            CRC(spec)


class TestEncodeCheck:
    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.spec.name)
    def test_roundtrip(self, codec):
        data = b"the quick brown fox"
        codeword = codec.encode(data)
        assert codec.check(codeword)
        assert codec.extract(codeword) == data

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.spec.name)
    def test_codeword_length(self, codec):
        assert len(codec.encode(b"xyz")) == 3 + codec.n_check_bytes

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.spec.name)
    def test_single_bit_flip_detected_everywhere(self, codec):
        codeword = bytearray(codec.encode(b"payload!"))
        for byte_index in range(len(codeword)):
            for bit in range(8):
                corrupted = bytearray(codeword)
                corrupted[byte_index] ^= 1 << bit
                assert not codec.check(bytes(corrupted)), (
                    f"bit {bit} of byte {byte_index} escaped"
                )

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.spec.name)
    def test_burst_errors_shorter_than_width_detected(self, codec):
        codeword = codec.encode(b"burst error test payload")
        width = codec.width
        for start_bit in range(0, 8 * len(codeword) - width, 7):
            corrupted = bytearray(codeword)
            for offset in range(width):
                bit = start_bit + offset
                corrupted[bit // 8] ^= 1 << (7 - bit % 8)
            assert not codec.check(bytes(corrupted))

    def test_truncated_codeword_fails(self):
        assert not CRC32.check(b"\x01")
        assert not CRC32.check(b"")

    def test_extract_raises_on_corruption(self):
        codeword = bytearray(CRC16_CCITT.encode(b"data"))
        codeword[0] ^= 0xFF
        with pytest.raises(ValueError, match="corrupt"):
            CRC16_CCITT.extract(bytes(codeword))

    def test_random_scramble_escape_rate_matches_width(self):
        # A uniformly random scramble escapes with probability ~2^-16 for
        # CRC-16; over 3000 trials we should see (almost surely) zero.
        rng = np.random.default_rng(7)
        data = b"0123456789abcdef"
        escapes = 0
        for _ in range(3000):
            scrambled = rng.integers(
                0, 256, size=len(data) + 2, dtype=np.uint8
            ).tobytes()
            if CRC16_CCITT.check(scrambled):
                escapes += 1
        assert escapes <= 2


class TestReflection:
    def test_reflect_involution(self):
        for value in (0, 1, 0xA5, 0xFFFF, 0x12345678):
            assert _reflect(_reflect(value, 32), 32) == value

    def test_reflect_known(self):
        assert _reflect(0b0001, 4) == 0b1000
        assert _reflect(0x01, 8) == 0x80


@given(data=st.binary(min_size=0, max_size=256))
@settings(max_examples=100, deadline=None)
def test_property_roundtrip_crc32(data):
    assert CRC32.extract(CRC32.encode(data)) == data


@given(
    data=st.binary(min_size=1, max_size=64),
    bit=st.integers(min_value=0, max_value=8 * 64 + 31),
)
@settings(max_examples=150, deadline=None)
def test_property_any_single_flip_detected(data, bit):
    codeword = bytearray(CRC32.encode(data))
    bit %= 8 * len(codeword)
    codeword[bit // 8] ^= 1 << (bit % 8)
    assert not CRC32.check(bytes(codeword))


@given(data=st.binary(min_size=0, max_size=128))
@settings(max_examples=100, deadline=None)
def test_property_compute_deterministic(data):
    assert CRC16_CCITT.compute(data) == CRC16_CCITT.compute(data)


# -- stdlib C kernels vs the table-loop oracle -------------------------------

XMODEM = CrcSpec("CRC-16/XMODEM", 16, 0x1021, 0x0000, False, False, 0x0000, 0x31C3)
GENIBUS = CrcSpec("CRC-16/GENIBUS", 16, 0x1021, 0xFFFF, False, False, 0xFFFF, 0xD64E)
KERMIT = CrcSpec("CRC-16/KERMIT", 16, 0x1021, 0x0000, True, True, 0x0000, 0x2189)
# CRC-32 without the final XOR: same register as zlib.crc32, other output.
JAMCRC = CrcSpec(
    "CRC-32/JAMCRC", 32, 0x04C11DB7, 0xFFFFFFFF, True, True, 0x00000000, 0x340BC6D9
)

NATIVE_CODECS = [
    (CRC16_CCITT, binascii.crc_hqx),
    (CRC(XMODEM), binascii.crc_hqx),
    (CRC(GENIBUS), binascii.crc_hqx),
    (CRC32, zlib.crc32),
]
TABLE_CODECS = [CRC8, CRC(KERMIT), CRC(JAMCRC)]


def _codec_id(value):
    return value.spec.name if isinstance(value, CRC) else value.__name__


@pytest.mark.parametrize("codec, kernel", NATIVE_CODECS, ids=_codec_id)
def test_native_kernel_selected(codec, kernel):
    assert _native_kernel(codec.spec)[0] is kernel


@pytest.mark.parametrize("codec", TABLE_CODECS, ids=_codec_id)
def test_other_specs_stay_on_table_loop(codec):
    assert _native_kernel(codec.spec) is None
    assert codec.compute(b"123456789") == codec.spec.check


@given(data=st.binary(min_size=0, max_size=2048))
@settings(max_examples=200, deadline=None)
def test_property_native_matches_table_oracle(data):
    for codec in [c for c, _ in NATIVE_CODECS] + TABLE_CODECS:
        assert codec.compute(data) == _table_crc(codec.spec, data), codec.spec.name


@pytest.mark.parametrize(
    "codec", [CRC8, CRC16_CCITT, CRC32, CRC(KERMIT)], ids=_codec_id
)
def test_pickle_round_trip_computes_identically(codec):
    # CRC objects ride inside SimConfig / SimTask to pool workers.
    clone = pickle.loads(pickle.dumps(codec))
    assert describe_crc(clone) == describe_crc(codec)
    for data in (b"", b"123456789", bytes(range(256)) * 3):
        assert clone.compute(data) == codec.compute(data)
        assert clone.check(codec.encode(data))

"""A generic CRC engine with stdlib C kernels for the common codes.

The engine is parameterised by a :class:`CrcSpec` (width, polynomial,
initial value, reflection flags, final XOR), the same model used by the
"Rocksoft" CRC catalogue.  :meth:`CRC.compute` runs a stdlib C kernel when
one computes the spec exactly — ``binascii.crc_hqx`` for the MSB-first
0x1021 family (CCITT-FALSE, XMODEM, GENIBUS, ...) and ``zlib.crc32`` for
CRC-32 — and a byte-at-a-time table loop for everything else.  The table
loop also serves as the test oracle for the C kernels.  Three standard codes
are pre-registered:

* ``CRC8`` (SMBus: poly 0x07) — the 1-byte code a cheap NoC tile would use;
* ``CRC16_CCITT`` (poly 0x1021) — the thesis cites shift-register CRCs as the
  canonical on-chip error detector (§3.2.2);
* ``CRC32`` (IEEE 802.3) — for experiments on longer payloads.

All checks operate on :class:`bytes`; the fault injector flips bits in the
payload *and/or* the stored checksum, so detection behaves exactly like a
hardware decoder: any single burst shorter than the CRC width is caught, and
a random scramble escapes with probability ~2^-width.
"""

from __future__ import annotations

import binascii
import zlib
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class CrcSpec:
    """Parameters of a CRC in the Rocksoft model.

    Attributes:
        name: human-readable identifier (unique in the registry).
        width: register width in bits (8, 16, 32, ...).
        polynomial: generator polynomial, normal (MSB-first) representation
            without the implicit leading 1 term.
        init: initial shift-register contents.
        reflect_in: process input bytes least-significant-bit first.
        reflect_out: reflect the register before the final XOR.
        xor_out: value XOR-ed onto the register to produce the checksum.
        check: checksum of the ASCII bytes ``b"123456789"`` — the standard
            catalogue self-test vector.
    """

    name: str
    width: int
    polynomial: int
    init: int
    reflect_in: bool
    reflect_out: bool
    xor_out: int
    check: int

    def __post_init__(self) -> None:
        if self.width < 8 or self.width > 64 or self.width % 8:
            raise ValueError(
                f"unsupported CRC width {self.width}: the table-driven engine "
                "handles whole-byte widths between 8 and 64"
            )
        mask = (1 << self.width) - 1
        for field in ("polynomial", "init", "xor_out", "check"):
            value = getattr(self, field)
            if value & ~mask:
                raise ValueError(
                    f"{self.name}: {field}=0x{value:x} does not fit in "
                    f"{self.width} bits"
                )


def _reflect(value: int, width: int) -> int:
    """Reverse the lowest `width` bits of `value`."""
    result = 0
    for _ in range(width):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


@lru_cache(maxsize=None)
def _build_table(width: int, polynomial: int, reflect_in: bool) -> tuple[int, ...]:
    """Precompute the 256-entry byte-at-a-time lookup table."""
    mask = (1 << width) - 1
    top_bit = 1 << (width - 1)
    table = []
    for byte in range(256):
        if reflect_in:
            register = _reflect(byte, 8) << (width - 8)
        else:
            register = byte << (width - 8)
        for _ in range(8):
            if register & top_bit:
                register = ((register << 1) ^ polynomial) & mask
            else:
                register = (register << 1) & mask
        if reflect_in:
            register = _reflect(register, width)
        table.append(register)
    return tuple(table)


def _table_crc(spec: CrcSpec, data: bytes) -> int:
    """Checksum of `data` under `spec` by the byte-at-a-time table loop."""
    width = spec.width
    mask = (1 << width) - 1
    table = _build_table(width, spec.polynomial, spec.reflect_in)
    register = spec.init
    if spec.reflect_in:
        register = _reflect(register, width)
        for byte in data:
            register = (register >> 8) ^ table[(register ^ byte) & 0xFF]
    else:
        shift = width - 8
        for byte in data:
            index = ((register >> shift) ^ byte) & 0xFF
            register = ((register << 8) & mask) ^ table[index]
    if spec.reflect_out != spec.reflect_in:
        register = _reflect(register, width)
    return (register ^ spec.xor_out) & mask


def _native_kernel(spec: CrcSpec) -> tuple | None:
    """Return the stdlib C kernel that computes `spec` exactly, or None.

    The kernel comes as ``(kernel, start, xor)`` with
    ``kernel(data, start) ^ xor`` the checksum.  ``kernel`` is a builtin
    function, so the tuple pickles by reference.
    """
    if (spec.width, spec.polynomial) == (16, 0x1021):
        if not spec.reflect_in and not spec.reflect_out:
            # crc_hqx runs the MSB-first register from `start`, no final XOR.
            return binascii.crc_hqx, spec.init, spec.xor_out
    elif (spec.width, spec.polynomial, spec.init, spec.xor_out) == (
        32, 0x04C11DB7, 0xFFFFFFFF, 0xFFFFFFFF
    ):
        if spec.reflect_in and spec.reflect_out:
            return zlib.crc32, 0, 0
    return None


class CRC:
    """A concrete CRC calculator built from a :class:`CrcSpec`.

    >>> CRC16_CCITT.compute(b"123456789") == CRC16_CCITT.spec.check
    True
    """

    def __init__(self, spec: CrcSpec) -> None:
        self.spec = spec
        self._native = _native_kernel(spec)
        self._verify_check_value()

    def _verify_check_value(self) -> None:
        actual = self.compute(b"123456789")
        if actual != self.spec.check:
            raise ValueError(
                f"{self.spec.name}: self-test failed "
                f"(got 0x{actual:x}, expected 0x{self.spec.check:x})"
            )

    @property
    def width(self) -> int:
        return self.spec.width

    @property
    def n_check_bytes(self) -> int:
        """Bytes occupied by the checksum when appended to a packet."""
        return (self.spec.width + 7) // 8

    def compute(self, data: bytes) -> int:
        """Return the checksum of `data`."""
        native = self._native
        if native is None:
            return _table_crc(self.spec, data)
        kernel, start, xor = native
        return kernel(data, start) ^ xor

    def encode(self, data: bytes) -> bytes:
        """Append the big-endian checksum to `data` (a framed codeword)."""
        checksum = self.compute(data)
        return data + checksum.to_bytes(self.n_check_bytes, "big")

    def check(self, codeword: bytes) -> bool:
        """Return True when a codeword produced by :meth:`encode` is intact."""
        n = self.n_check_bytes
        if len(codeword) < n:
            return False
        data, trailer = codeword[:-n], codeword[-n:]
        return self.compute(data) == int.from_bytes(trailer, "big")

    def extract(self, codeword: bytes) -> bytes:
        """Strip the checksum trailer, returning the original payload.

        Raises:
            ValueError: if the codeword fails the CRC check.
        """
        if not self.check(codeword):
            raise ValueError(f"{self.spec.name}: corrupt codeword")
        return codeword[: -self.n_check_bytes]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CRC({self.spec.name})"


#: Catalogue entries with their standard check values.
_SPECS = [
    CrcSpec("CRC-8", 8, 0x07, 0x00, False, False, 0x00, 0xF4),
    CrcSpec("CRC-16/CCITT-FALSE", 16, 0x1021, 0xFFFF, False, False, 0x0000, 0x29B1),
    CrcSpec("CRC-32", 32, 0x04C11DB7, 0xFFFFFFFF, True, True, 0xFFFFFFFF, 0xCBF43926),
]

REGISTERED_SPECS: dict[str, CrcSpec] = {spec.name: spec for spec in _SPECS}

CRC8 = CRC(REGISTERED_SPECS["CRC-8"])
CRC16_CCITT = CRC(REGISTERED_SPECS["CRC-16/CCITT-FALSE"])
CRC32 = CRC(REGISTERED_SPECS["CRC-32"])


def crc_for(name: str) -> CRC:
    """Look up a pre-registered CRC by catalogue name.

    >>> crc_for("CRC-32").width
    32
    """
    try:
        spec = REGISTERED_SPECS[name]
    except KeyError:
        known = ", ".join(sorted(REGISTERED_SPECS))
        raise KeyError(f"unknown CRC {name!r}; known: {known}") from None
    return CRC(spec)

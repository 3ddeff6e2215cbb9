"""Cyclic redundancy codes.

The stochastic communication protocol never retransmits on request: a tile
detects a scrambled packet with a CRC and simply discards it, trusting the
gossip redundancy to deliver another copy (thesis §3.2.2).  This package
provides the CRC engine behind every tile's receive path: :meth:`CRC.compute`
runs a stdlib C kernel (``binascii.crc_hqx``, ``zlib.crc32``) for the specs
one computes exactly, and a table-driven loop for all others.
"""

from repro.crc.engine import (
    CRC,
    CRC8,
    CRC16_CCITT,
    CRC32,
    CrcSpec,
    REGISTERED_SPECS,
    crc_for,
)

__all__ = [
    "CRC",
    "CRC8",
    "CRC16_CCITT",
    "CRC32",
    "CrcSpec",
    "REGISTERED_SPECS",
    "crc_for",
]

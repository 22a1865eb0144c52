"""On-the-wire packet format.

Section 7.3: "The packets were additionally tagged with 12 bytes of
information (packet index, serial number and group number)".  We use the
same 12-byte header: three big-endian unsigned 32-bit fields.

* ``index``  — position of the payload within the erasure encoding
  (0 <= index < n); identifies *which* encoding packet this is.
* ``serial`` — monotonically increasing transmission serial number;
  distinguishes retransmissions of the same encoding packet across
  carousel cycles (and lets receivers estimate loss rates).
* ``group``  — multicast group / layer number for the layered protocol
  (always 0 on a single-layer carousel).

For a rateless (LT) stream the ``index`` field carries the *droplet id*
— unbounded, never repeating — instead of a position in a finite
encoding.  :class:`HeaderSequencer` owns the serial/group stamping all
fountain servers share.

Block-segmented transfers (:mod:`repro.transfer`) tag each packet with
the block it encodes via :class:`BlockHeader`, a 16-byte extension that
appends one uint32 ``block`` field directly after ``group``.  The first
12 bytes of a :class:`BlockHeader` are byte-identical to the legacy
header, and single-block streams keep emitting the plain 12-byte
:class:`PacketHeader`, so legacy receivers and block-aware receivers
agree whenever there is only one block.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ProtocolError

#: Size of the legacy packet header in bytes (three uint32 fields).
HEADER_SIZE = 12

#: Size of the block-aware header variant (legacy fields + uint32 block).
BLOCK_HEADER_SIZE = 16

#: Exclusive upper bound of every uint32 header field.
SERIAL_MODULUS = 2 ** 32

_HEADER_STRUCT = struct.Struct(">III")
_BLOCK_STRUCT = struct.Struct(">IIII")


def _check_uint32(name: str, value: int) -> None:
    if not 0 <= value < SERIAL_MODULUS:
        raise ProtocolError(
            f"header field {name}={value} outside uint32 range")


@dataclass(frozen=True)
class PacketHeader:
    """The legacy 12-byte header tag of every encoding packet."""

    index: int
    serial: int
    group: int = 0

    def __post_init__(self) -> None:
        for field in ("index", "serial", "group"):
            _check_uint32(field, getattr(self, field))

    @property
    def block(self) -> int:
        """Block id of a legacy header: always 0 (a single-block stream)."""
        return 0

    @property
    def header_size(self) -> int:
        return HEADER_SIZE

    def pack(self) -> bytes:
        """Serialise to the 12-byte wire format."""
        return _HEADER_STRUCT.pack(self.index, self.serial, self.group)

    @classmethod
    def unpack(cls, data: bytes) -> "PacketHeader":
        """Parse the leading 12 bytes of ``data``."""
        if len(data) < HEADER_SIZE:
            raise ProtocolError(
                f"header needs {HEADER_SIZE} bytes, got {len(data)}")
        index, serial, group = _HEADER_STRUCT.unpack(data[:HEADER_SIZE])
        return cls(index=index, serial=serial, group=group)


@dataclass(frozen=True)
class BlockHeader:
    """The 16-byte block-aware header variant.

    Identical to :class:`PacketHeader` for its first 12 bytes; the
    trailing uint32 carries the block id, so ``(block, index)`` names an
    encoding packet of a segmented object.  Multi-block streams must use
    this variant; single-block streams stay on the byte-compatible
    legacy header.
    """

    index: int
    serial: int
    group: int = 0
    block: int = 0

    def __post_init__(self) -> None:
        for field in ("index", "serial", "group", "block"):
            _check_uint32(field, getattr(self, field))

    @property
    def header_size(self) -> int:
        return BLOCK_HEADER_SIZE

    def pack(self) -> bytes:
        """Serialise to the 16-byte wire format (legacy prefix + block)."""
        return _BLOCK_STRUCT.pack(self.index, self.serial, self.group,
                                  self.block)

    @classmethod
    def unpack(cls, data: bytes) -> "BlockHeader":
        """Parse the leading 16 bytes of ``data``."""
        if len(data) < BLOCK_HEADER_SIZE:
            raise ProtocolError(
                f"block header needs {BLOCK_HEADER_SIZE} bytes, "
                f"got {len(data)}")
        index, serial, group, block = _BLOCK_STRUCT.unpack(
            data[:BLOCK_HEADER_SIZE])
        return cls(index=index, serial=serial, group=group, block=block)

    def legacy(self) -> PacketHeader:
        """The byte-compatible 12-byte view (drops the block id)."""
        return PacketHeader(index=self.index, serial=self.serial,
                            group=self.group)


class HeaderSequencer:
    """Stamps consecutive transmission serials into packet headers.

    The serial/group bookkeeping every fountain server needs is
    identical whether the stream cycles a finite encoding
    (:class:`~repro.fountain.carousel.CarouselServer`) or pours
    unbounded droplets
    (:class:`~repro.fountain.rateless.RatelessServer`): each emitted
    packet gets the next serial number and the server's group tag.
    Servers own *which* encoding index goes out next; this owns the
    header around it.

    One sequencer may be *shared* by several servers (the per-block
    sub-servers of a :class:`~repro.transfer.server.TransferServer`),
    which keeps serials strictly monotone across the whole striped
    stream.  Serials are transmission counters, not identifiers, so on
    reaching ``2**32`` they wrap to 0 — receivers use serial *gaps* to
    estimate loss and a once-per-4-billion-packets wrap never looks
    like loss at any plausible window size.
    """

    def __init__(self, group: int = 0, start_serial: int = 0):
        if not 0 <= group < SERIAL_MODULUS:
            raise ProtocolError(f"group {group} outside uint32 range")
        if not 0 <= start_serial < SERIAL_MODULUS:
            raise ProtocolError(
                f"start_serial {start_serial} outside uint32 range")
        self.group = group
        self._start_serial = start_serial
        self._serial = start_serial

    @property
    def serial(self) -> int:
        """The serial the next emitted packet will carry."""
        return self._serial

    def next_header(self, index: int, block: Optional[int] = None
                    ) -> "PacketHeader | BlockHeader":
        """The header for encoding packet ``index``; advances the serial.

        With ``block=None`` (single-block streams) this emits the legacy
        12-byte :class:`PacketHeader`; otherwise the 16-byte
        :class:`BlockHeader` stamped with the block id.
        """
        if block is None:
            header = PacketHeader(index=index, serial=self._serial,
                                  group=self.group)
        else:
            header = BlockHeader(index=index, serial=self._serial,
                                 group=self.group, block=block)
        self._serial = (self._serial + 1) % SERIAL_MODULUS
        return header

    def next_serials(self, count: int) -> np.ndarray:
        """The serials of the next ``count`` packets; advances past them.

        The batched twin of ``count`` :meth:`next_header` calls (serials
        wrap at ``2**32`` the same way), for callers that stamp headers
        in one vectorized pass.
        """
        serials = (self._serial + np.arange(count, dtype=np.int64)) \
            % SERIAL_MODULUS
        self._serial = (self._serial + int(count)) % SERIAL_MODULUS
        return serials

    def reset(self) -> None:
        """Rewind to the starting serial (a fresh session)."""
        self._serial = self._start_serial


@dataclass(frozen=True)
class EncodingPacket:
    """A header (legacy or block-aware) plus its fixed-length payload."""

    header: "PacketHeader | BlockHeader"
    payload: np.ndarray

    @property
    def index(self) -> int:
        return self.header.index

    @property
    def block(self) -> int:
        """Block id this packet encodes (0 on a legacy header)."""
        return self.header.block

    @property
    def wire_size(self) -> int:
        """Total bytes on the wire (header + payload)."""
        return self.header.header_size + int(np.asarray(self.payload).nbytes)

    def to_bytes(self) -> bytes:
        """Serialise header and payload."""
        return self.header.pack() + np.ascontiguousarray(
            self.payload).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes,
                   block_aware: bool = False) -> "EncodingPacket":
        """Parse a packet serialised by :meth:`to_bytes`.

        The wire format is not self-describing (the paper's header has
        no version field), so the caller must know whether the stream
        carries legacy 12-byte or block-aware 16-byte headers — the
        transfer manifest records which.
        """
        if block_aware:
            header: "PacketHeader | BlockHeader" = BlockHeader.unpack(data)
        else:
            header = PacketHeader.unpack(data)
        payload = np.frombuffer(data[header.header_size:],
                                dtype=np.uint8).copy()
        return cls(header=header, payload=payload)

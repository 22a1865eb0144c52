"""A true digital fountain: stream unbounded LT droplets.

Section 3's ideal — "a server would cast out a continuous stream of
encoding packets, and a client could reconstruct the source data from
*any* subset of them of sufficient size" — is exactly what
:class:`RatelessServer` provides.  Where
:class:`~repro.fountain.carousel.CarouselServer` cycles a fixed
``n``-packet encoding (the paper's carousel approximation, with its
stretch-factor ceiling and wrap-around duplicates), the rateless server
walks droplet ids ``start, start+1, start+2, ...``, XORing each
droplet's payload on demand; no two packets it emits are ever
duplicates, so the receiver's distinctness efficiency is always 1.

Both servers emit the same
:class:`~repro.fountain.packets.EncodingPacket` wire format through the
shared :class:`~repro.fountain.packets.HeaderSequencer` — for a rateless
stream the header's ``index`` field carries the droplet id.

Droplet-id ranges
-----------------

The header's ``index`` field is a uint32, so droplet ids live in
``[0, 2**32)`` even though the stream is conceptually endless.  Each
server owns an explicit contiguous *id range* ``[start, start +
id_range)``:

* Mirrors running the same code must use **disjoint ranges** (e.g.
  ``start=m * 2**24, id_range=2**24`` for mirror ``m``) so aggregated
  reception stays duplicate-free (Section 8).
* On exhausting its range a server **fails fast** with a
  :class:`~repro.errors.ProtocolError` by default — at one droplet per
  packet that takes 4 billion packets from a full-range server, but a
  narrow mirror slice can hit it — or, with ``wrap=True``, cycles back
  to ``start``; receivers then see repeats and distinctness efficiency
  drops below 1, exactly like a carousel.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.codes.lt.code import LTCode
from repro.errors import ParameterError, ProtocolError
from repro.fountain.packets import (
    SERIAL_MODULUS,
    EncodingPacket,
    HeaderSequencer,
)
from repro.fountain.source import SequencedPacketSource

#: droplets one batch draw synthesises at least (see
#: :meth:`RatelessServer.payload_batch`).
LOOKAHEAD = 64


class RatelessServer(SequencedPacketSource):
    """Pours an endless droplet stream for one source block.

    Parameters
    ----------
    code:
        The shared :class:`~repro.codes.lt.code.LTCode` (defines the
        droplet spec receivers will regenerate neighbours from).
    source:
        The ``(k, P)`` source packet block; omit for an *index-only*
        server that can only produce droplet-id streams for structural
        simulations.
    start:
        First droplet id to emit.  Give each mirror its own range.
    group:
        Group number stamped into packet headers (ignored when a shared
        ``sequencer`` is supplied — the sequencer's group wins).
    id_range:
        Number of droplet ids this server may use, i.e. ids
        ``[start, start + id_range)``.  Defaults to all remaining uint32
        headroom, ``2**32 - start``.
    wrap:
        What to do when the id range is exhausted: ``False`` (default)
        raises :class:`~repro.errors.ProtocolError` with a clear
        message; ``True`` wraps back to ``start`` and re-emits the same
        droplets (documented duplicate cost).
    sequencer:
        Optional shared :class:`HeaderSequencer` (see
        :class:`~repro.fountain.carousel.CarouselServer`).
    block:
        Block id for block-aware headers; ``None`` keeps the legacy
        12-byte header.
    """

    def __init__(self, code: LTCode,
                 source: Optional[np.ndarray] = None,
                 start: int = 0,
                 group: int = 0,
                 id_range: Optional[int] = None,
                 wrap: bool = False,
                 sequencer: Optional[HeaderSequencer] = None,
                 block: Optional[int] = None):
        super().__init__(group=group, sequencer=sequencer, block=block)
        if not 0 <= start < SERIAL_MODULUS:
            raise ParameterError(
                f"start droplet id {start} outside uint32 range")
        if id_range is None:
            id_range = SERIAL_MODULUS - start
        if id_range <= 0:
            raise ParameterError("id_range must be positive")
        if start + id_range > SERIAL_MODULUS:
            raise ParameterError(
                f"id range [{start}, {start + id_range}) overflows the "
                f"uint32 header index; keep start + id_range <= 2**32")
        self.code = code
        self.encoder = None if source is None else code.encoder(source)
        self.start = int(start)
        self.id_range = int(id_range)
        self.wrap = bool(wrap)
        self._emitted = 0
        #: look-ahead window of batch draws: (first emission, payloads).
        self._ahead: Optional[Tuple[int, np.ndarray]] = None

    @property
    def ids_remaining(self) -> int:
        """Droplet ids left before the range is exhausted (or wraps)."""
        if self.wrap:
            return self.id_range
        return max(0, self.id_range - self._emitted)

    @property
    def next_droplet_id(self) -> int:
        """The droplet id the next emitted packet will carry.

        Raises :class:`~repro.errors.ProtocolError` once a non-wrapping
        server has exhausted its id range.
        """
        if self._emitted >= self.id_range:
            if not self.wrap:
                raise ProtocolError(
                    f"droplet id range exhausted: server emitted all "
                    f"{self.id_range} ids in [{self.start}, "
                    f"{self.start + self.id_range}); give mirrors disjoint "
                    f"ranges with more headroom, or pass wrap=True to "
                    f"cycle (receivers will then see duplicate droplets)")
            return self.start + self._emitted % self.id_range
        return self.start + self._emitted

    def index_stream(self, count: int) -> np.ndarray:
        """The next ``count`` droplet ids (no packet objects).

        Stateless with respect to the emission counter: slot ``t``
        always carries droplet ``start + (t % id_range)``, so
        simulations can regenerate any window of the stream.  A
        non-wrapping server refuses windows longer than its id range.
        """
        if not self.wrap and count > self.id_range:
            raise ProtocolError(
                f"index stream of {count} exceeds the server's id range "
                f"of {self.id_range}; widen the range or pass wrap=True")
        return self.start + (np.arange(count, dtype=np.int64) % self.id_range)

    def packets(self, count: Optional[int] = None) -> Iterator[EncodingPacket]:
        """Yield the next ``count`` packets (infinite when ``None``)."""
        if self.encoder is None:
            raise ParameterError(
                "index-only rateless server cannot emit payload packets; "
                "construct with a source block")
        return super().packets(count)

    def payload_batch(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Droplet ids and payloads of the next ``count`` emissions.

        The batched twin of ``count`` :meth:`_next_packet` calls minus
        the header stamping, with the same exhaustion semantics: a
        non-wrapping server raises :class:`~repro.errors.ProtocolError`
        as soon as the batch would run past its id range.  Payloads
        derive in one :meth:`~repro.codes.lt.encoder.LTEncoder.payload_block`
        pass.
        """
        if self.encoder is None:
            raise ParameterError(
                "index-only rateless server cannot emit payload packets; "
                "construct with a source block")
        if not self.wrap and self._emitted + count > self.id_range:
            raise ProtocolError(
                f"droplet id range exhausted: server emitted all "
                f"{self.id_range} ids in [{self.start}, "
                f"{self.start + self.id_range}); give mirrors disjoint "
                f"ranges with more headroom, or pass wrap=True to "
                f"cycle (receivers will then see duplicate droplets)")
        first = self._emitted
        self._emitted += int(count)
        return self._ids(first, count), self._payloads(first, count)

    def _ids(self, first: int, count: int) -> np.ndarray:
        """Droplet ids of emissions ``first .. first + count - 1``."""
        return self.start + (first + np.arange(count, dtype=np.int64)) \
            % self.id_range

    def _payloads(self, first: int, count: int) -> np.ndarray:
        """Payloads of emissions ``first .. first + count - 1``.

        Synthesises at least :data:`LOOKAHEAD` droplets per encoder
        call (never past a non-wrapping id range) and keeps the surplus
        for the next draw, so a caller taking a few droplets at a time
        still pays one vectorized neighbour derivation per window.
        Payloads are a pure function of the droplet id, so synthesising
        ahead changes no byte of the stream.
        """
        window = self._ahead
        if window is not None:
            offset = first - window[0]
            if 0 <= offset and offset + count <= len(window[1]):
                return window[1][offset:offset + count]
        want = max(count, LOOKAHEAD)
        if not self.wrap:
            want = min(want, self.id_range - first)
        payloads = self.encoder.payload_block(self._ids(first, want))
        self._ahead = (first, payloads)
        return payloads[:count]

    def _next_packet(self) -> EncodingPacket:
        droplet_id = self.next_droplet_id
        header = self._sequencer.next_header(droplet_id, block=self.block)
        window = self._ahead
        offset = -1 if window is None else self._emitted - window[0]
        self._emitted += 1
        if 0 <= offset < len(window[1]):
            payload = window[1][offset]
        else:
            payload = self.encoder.droplet_payload(droplet_id)
        return EncodingPacket(header=header, payload=payload)

    def _rewind(self) -> None:
        self._emitted = 0
        self._ahead = None

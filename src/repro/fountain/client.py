"""Fountain client: receive packets until the source is reconstructed.

Section 7.2 describes two client decoding protocols:

* **incremental** — "the client performs preliminary decoding operations
  after each packet arrives"; completion is detected the instant enough
  packets are in.
* **statistical** — "the client waits until a fixed number of packets
  arrive from which it is likely that the source can be reconstructed.
  If the quantity of packets is insufficient, it acquires more packets";
  the paper chose this for its prototype as "simpler and sufficiently
  fast in practice".

Both are implemented on top of
:func:`repro.codes.registry.incremental_decoder`, which hands back the
native peeling decoders (Tornado's
:class:`~repro.codes.tornado.decoder.PeelingDecoder`, the LT
:class:`~repro.codes.lt.decoder.LTDecoder`) and adapts every other code
(Reed-Solomon, interleaved) through the registry's generic
:class:`~repro.codes.registry.SetDecoder` — so incremental completion
detection works for *any* registered family.  For a rateless code the
packet ``index`` is the droplet id; the client neither knows nor cares
that the stream has no end.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

import numpy as np

from repro.codes.base import ErasureCode
from repro.codes.registry import incremental_decoder
from repro.errors import DecodeFailure, ParameterError
from repro.fountain.metrics import ReceptionStats
from repro.fountain.packets import EncodingPacket


class ClientMode(enum.Enum):
    """Client decode strategies of paper Section 7.2."""

    INCREMENTAL = "incremental"
    STATISTICAL = "statistical"


class FountainClient:
    """Consumes encoding packets and reconstructs the source block.

    Parameters
    ----------
    code:
        The (shared) erasure code.
    mode:
        Decode strategy; see :class:`ClientMode`.
    statistical_margin:
        In statistical mode, the first decode attempt happens after
        ``(1 + margin) * k`` distinct packets; each failed attempt waits
        for ``retry_step`` more distinct packets.
    payload_size:
        Payload length; ``None`` for structural (index-only) runs.
    """

    def __init__(self, code: ErasureCode,
                 mode: ClientMode = ClientMode.INCREMENTAL,
                 statistical_margin: float = 0.05,
                 retry_step: int = 8,
                 payload_size: Optional[int] = None):
        if statistical_margin < 0:
            raise ParameterError("statistical_margin must be >= 0")
        self.code = code
        self.mode = mode
        self.statistical_margin = statistical_margin
        self.retry_step = max(1, retry_step)
        self.payload_size = payload_size
        self.total_received = 0
        self._seen: Dict[int, Optional[np.ndarray]] = {}
        self._decoded: Optional[np.ndarray] = None
        self._complete = False
        self._next_attempt = int(np.ceil((1 + statistical_margin) * code.k))
        self._decode_attempts = 0
        self._decoder_calls = 0
        # Staged intake (incremental mode): arrivals since the decoder's
        # last call, held until they could complete the block.
        self._held = 0
        self._held_ids: Optional[np.ndarray] = None
        self._held_payloads: Optional[np.ndarray] = None
        if mode is ClientMode.INCREMENTAL:
            self._decoder = incremental_decoder(code,
                                                payload_size=payload_size)
        else:
            self._decoder = None
        # When the decoder keeps payload state itself, the client stores
        # only the ids it has seen — retaining every payload array here
        # as well would double the receive path's memory footprint.
        self._retain_payloads = (
            self._decoder is None
            or getattr(self._decoder, "values", None) is None)

    # -- feeding ---------------------------------------------------------------

    def receive(self, packet: EncodingPacket) -> bool:
        """Ingest one packet; returns True once the source is decodable."""
        return self.receive_index(packet.index, packet.payload)

    def receive_index(self, index: int,
                      payload: Optional[np.ndarray] = None) -> bool:
        """Ingest by raw encoding index (simulation fast path)."""
        if self._complete:
            return True
        self.flush()
        self.total_received += 1
        if index not in self._seen:
            self._seen[index] = payload if self._retain_payloads else None
            if self._decoder is not None:
                # INCREMENTAL mode always has a decoder (the registry
                # adapts codes without a native one through SetDecoder).
                self._decoder_calls += 1
                self._decoder.add_packet(index, payload)
                if self._decoder.is_complete:
                    self._complete = True
        if (not self._complete and self.mode is ClientMode.STATISTICAL
                and len(self._seen) >= self._next_attempt):
            self._decode_attempts += 1
            if self.code.is_decodable(self._seen.keys()):
                self._complete = True
            else:
                self._next_attempt = len(self._seen) + self.retry_step
        return self._complete

    def receive_many(self, indices: np.ndarray,
                     payloads: Optional[np.ndarray] = None) -> bool:
        """Batch :meth:`receive_index` with identical accounting.

        Matches the sequential semantics exactly: packets arriving after
        completion are neither counted nor decoded, and the reception
        counters at the moment of completion equal what one-at-a-time
        feeding would have produced.

        Incremental mode stages intake.  Arrivals count toward
        :attr:`total_received` at once but are held back from the
        decoder until the held rows number the decoder's lower bound
        on the arrivals it still needs (``k`` minus the distinct ids
        seen, or the decoder's tighter bound).  The block cannot
        complete before that row, so the decoder takes exactly that
        many rows in one call and can only complete on the last of
        them, where sequential feeding would stop.  Small drains spread
        over many blocks therefore still reach each decoder as one
        large batch.

        Statistical mode keeps the per-packet loop (its decode-attempt
        schedule is defined per arrival and the work per packet is a set
        insert, so batching buys nothing).
        """
        if self._complete:
            return True
        if self.mode is not ClientMode.INCREMENTAL:
            for row, index in enumerate(indices):
                self.receive_index(
                    int(index), None if payloads is None else payloads[row])
            return self._complete
        indices = np.asarray(indices, dtype=np.int64)
        total = indices.size
        self.total_received += total
        pos = 0
        while not self._complete:
            need = self._bound() - self._held
            if total - pos < need:
                if pos < total:
                    self._stage(indices[pos:], None if payloads is None
                                else payloads[pos:])
                break
            end = pos + need
            ids = indices[pos:end]
            rows = None if payloads is None else payloads[pos:end]
            if self._held:
                self._stage(ids, rows)
                ids, rows = self._take_held()
            self._ingest(ids, rows)
            pos = end
        if self._complete:
            # Packets after the completing one were never received.
            self.total_received -= total - pos
        return self._complete

    def flush(self) -> None:
        """Hand the held rows to the decoder now.

        They number fewer than the bound, so they cannot complete the
        block; afterwards :attr:`min_additional` is the tightest bound
        the decoder can prove.
        """
        if self._held:
            self._ingest(*self._take_held())

    def _bound(self) -> int:
        """Arrivals the decoder needs at least, counted from its last call."""
        bound = self.code.k - len(self._seen)
        if self._decoder is not None:
            bound = max(bound, getattr(
                self._decoder, "min_additional_packets", 0))
        return max(1, bound)

    def _stage(self, ids: np.ndarray, rows: Optional[np.ndarray]) -> None:
        """Copy arrivals into the held buffer (sized to the bound)."""
        if self._held_ids is None:
            size = self._bound()
            self._held_ids = np.empty(size, dtype=np.int64)
            if rows is not None:
                self._held_payloads = np.empty(
                    (size,) + rows.shape[1:], dtype=rows.dtype)
        end = self._held + ids.size
        self._held_ids[self._held:end] = ids
        if rows is not None:
            self._held_payloads[self._held:end] = rows
        self._held = end

    def _take_held(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Hand back the held rows and empty the buffer."""
        held = self._held
        ids = self._held_ids[:held]
        rows = (None if self._held_payloads is None
                else self._held_payloads[:held])
        self._held, self._held_ids, self._held_payloads = 0, None, None
        return ids, rows

    def _ingest(self, ids: np.ndarray, rows: Optional[np.ndarray]) -> None:
        """Give the decoder the rows whose ids it has not seen."""
        fresh = []
        for row, index in enumerate(ids.tolist()):
            if index not in self._seen:
                self._seen[index] = (rows[row] if self._retain_payloads
                                     and rows is not None else None)
                fresh.append(row)
        if not fresh:
            return
        self._decoder_calls += 1
        if len(fresh) == 1:
            # One new id keeps the scalar ingest path (one neighbour
            # derivation, not a batch call for one row).
            row = fresh[0]
            self._decoder.add_packet(
                int(ids[row]), None if rows is None else rows[row])
        else:
            self._decoder.add_packets(
                ids[fresh], None if rows is None else rows[fresh])
        if self._decoder.is_complete:
            self._complete = True

    # -- results ---------------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        return self._complete

    @property
    def distinct_received(self) -> int:
        distinct = len(self._seen)
        if self._held:
            held = set(self._held_ids[:self._held].tolist())
            distinct += len(held.difference(self._seen))
        return distinct

    @property
    def min_additional(self) -> int:
        """Lower bound on further arrivals needed before completion.

        Always at least ``k`` minus the distinct packets seen (no code
        completes below ``k`` distinct); decoders that can prove a
        tighter bound (the LT decoder's rank deficit) raise it.  Rows
        held back by staged intake have already arrived, so they come
        off the bound.  Batch feeders — the serve loops' shadows and
        the simulation drivers — cap chunks at this value so no chunk
        can complete before its final packet, which is what keeps
        batched reception counters equal to sequential ones.
        """
        if self._complete:
            return 0
        return self._bound() - self._held

    @property
    def decoder_calls(self) -> int:
        """Times the incremental decoder was actually invoked.

        Duplicate ids are filtered out before they reach the decoder, so
        this stays bounded by the distinct-packet count no matter how
        many carousel revolutions or mirrored sources repeat an id.
        """
        return self._decoder_calls

    @property
    def decode_attempts(self) -> int:
        """Statistical-mode decode attempts made so far."""
        return self._decode_attempts

    def stats(self) -> ReceptionStats:
        """Reception-efficiency counters up to now."""
        return ReceptionStats(
            source_packets=self.code.k,
            distinct_received=self.distinct_received,
            total_received=self.total_received,
        )

    def source_data(self) -> np.ndarray:
        """The reconstructed ``(k, P)`` source block.

        Raises :class:`~repro.errors.DecodeFailure` when not yet complete
        or when the client ran structurally (no payloads retained).
        """
        if not self._complete:
            raise DecodeFailure("client has not received enough packets")
        if self._decoded is not None:
            return self._decoded
        if self._decoder is not None and self._decoder.values is not None:
            self._decoded = self._decoder.source_data()
            return self._decoded
        payloads = {i: p for i, p in self._seen.items() if p is not None}
        if len(payloads) < len(self._seen):
            raise DecodeFailure("client ran in structural mode; no payloads")
        self._decoded = self.code.decode(payloads)
        return self._decoded

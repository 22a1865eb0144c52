"""Receiving a block-segmented transfer: route, decode, reassemble.

The multi-block generalisation of
:class:`~repro.fountain.client.FountainClient`: a
:class:`TransferClient` keeps one per-block incremental decoder (a
``FountainClient`` over the block's code), routes each arriving packet
to its block by the header's block id, tracks per-block completion, and
once every block has decoded reassembles the *exact* original bytes —
the plan's length manifest strips the tail block's zero padding.

Packets for already-complete blocks are counted (they are real
receptions the paper's efficiency metrics must see) but do no decoding
work, so late duplicates and carousel wrap-arounds stay cheap.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import DecodeFailure, ProtocolError
from repro.fountain.client import ClientMode, FountainClient
from repro.fountain.metrics import ReceptionStats
from repro.fountain.packets import EncodingPacket
from repro.transfer.codec import ObjectCodec

#: sentinel for "use the plan's packet size" (None means structural).
_PLAN_PAYLOAD = object()


class TransferClient:
    """Consumes a striped packet stream until the whole object decodes.

    Parameters
    ----------
    codec:
        The per-block code binding shared with the sender (rebuilt from
        the manifest on the receiving side).
    mode:
        Per-block decode strategy (see
        :class:`~repro.fountain.client.ClientMode`).
    payload_size:
        Payload length handed to the per-block decoders.  Defaults to
        the plan's packet size; pass ``None`` explicitly for structural
        (index-only) simulation runs.
    """

    def __init__(self, codec: ObjectCodec,
                 mode: ClientMode = ClientMode.INCREMENTAL,
                 payload_size: object = _PLAN_PAYLOAD):
        if payload_size is _PLAN_PAYLOAD:
            payload_size = codec.plan.packet_size
        self.codec = codec
        self.mode = mode
        self.payload_size = payload_size
        self._clients: List[Optional[FountainClient]] = \
            [None] * codec.num_blocks
        self._incomplete = set(range(codec.num_blocks))
        self.total_received = 0

    def _client_for(self, block: int) -> FountainClient:
        client = self._clients[block]
        if client is None:
            if self.payload_size is not None:
                self.codec.check_wire_dtype(block)
            client = FountainClient(self.codec.code_for(block),
                                    mode=self.mode,
                                    payload_size=self.payload_size)
            self._clients[block] = client
        return client

    # -- feeding ---------------------------------------------------------------

    def receive(self, packet: EncodingPacket) -> bool:
        """Ingest one packet; returns True once every block is decodable."""
        return self.receive_index(packet.block, packet.index, packet.payload)

    def receive_index(self, block: int, index: int,
                      payload: Optional[np.ndarray] = None) -> bool:
        """Ingest by raw (block, index) pair (simulation fast path)."""
        if not 0 <= block < self.codec.num_blocks:
            raise ProtocolError(
                f"packet names block {block}, transfer has "
                f"{self.codec.num_blocks} blocks")
        self.total_received += 1
        if block in self._incomplete:
            if self._client_for(block).receive_index(index, payload):
                self._incomplete.discard(block)
        return self.is_complete

    def receive_many(self, block: int, indices: np.ndarray,
                     payloads: Optional[np.ndarray] = None) -> bool:
        """Batch :meth:`receive_index` for packets of one block.

        Every packet counts toward the transfer's reception total (they
        were all delivered); the block's client sees only the prefix up
        to its completion, exactly as sequential feeding would route.
        """
        if not 0 <= block < self.codec.num_blocks:
            raise ProtocolError(
                f"packet names block {block}, transfer has "
                f"{self.codec.num_blocks} blocks")
        count = len(indices)
        self.total_received += count
        if count and block in self._incomplete:
            if self._client_for(block).receive_many(indices, payloads):
                self._incomplete.discard(block)
        return self.is_complete

    def block_distinct(self, block: int) -> int:
        """Distinct packets the given block has received so far."""
        client = self._clients[block]
        return 0 if client is None else client.distinct_received

    def block_min_additional(self, block: int) -> int:
        """Lower bound on further packets ``block`` needs to complete.

        Zero once the block has decoded; before its first packet the
        bound is the block's ``k``.  Rows the block's client holds back
        (staged intake) have already arrived, so they come off the
        bound; after :meth:`flush` it is the tightest bound the decoder
        can prove, the value one-packet-at-a-time feeding would give.
        """
        if block not in self._incomplete:
            return 0
        client = self._clients[block]
        if client is None:
            return self.codec.plan.spec(block).k
        return client.min_additional

    def flush(self) -> None:
        """Hand every block's held rows to its decoder now.

        Held rows number fewer than their block's bound, so no block
        completes here; the counters do not move.
        """
        for client in self._clients:
            if client is not None:
                client.flush()

    @property
    def packet_deficit(self) -> int:
        """Lower bound on further packets the whole transfer needs.

        :meth:`block_min_additional` summed over the incomplete blocks
        (zero once complete): no run of fewer deliveries can complete
        the transfer, so batch drivers size their chunks with this — a
        batch of at most this many packets can only complete the
        transfer on its final packet.
        """
        return sum(self.block_min_additional(b) for b in self._incomplete)

    def receive_batch(self, blocks: np.ndarray, indices: np.ndarray,
                      payloads: Optional[np.ndarray] = None) -> int:
        """Ingest packets of any blocks in arrival order; stop at completion.

        Counter-exact versus one :meth:`receive_index` call per packet
        up to the first one that completes the transfer, and returns how
        many packets that is — all of them unless the transfer completed
        first.  Each block's packets go to its decoder in one
        :meth:`receive_many` call, which sees exactly the prefix up to
        the block's own completion.  The transfer completes where its
        last block does, and every block is complete by then, so no
        decoder sees a packet sequential feeding would have withheld.
        """
        total = len(indices)
        if self.is_complete or total == 0:
            return 0
        last = -1
        for block in np.unique(blocks).tolist():
            rows = np.flatnonzero(blocks == block)
            was_incomplete = block in self._incomplete
            client = self._clients[block] if was_incomplete else None
            before = 0 if client is None else client.total_received
            self.receive_many(block, indices[rows],
                              None if payloads is None else payloads[rows])
            if was_incomplete and block not in self._incomplete:
                used = self._clients[block].total_received - before
                last = max(last, int(rows[used - 1]))
        used = last + 1 if self.is_complete else total
        # receive_many counted every packet; the ones after completion
        # were never received.
        self.total_received -= total - used
        return used

    # -- progress --------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return self.codec.num_blocks

    @property
    def is_complete(self) -> bool:
        return not self._incomplete

    @property
    def blocks_complete(self) -> int:
        return self.codec.num_blocks - len(self._incomplete)

    @property
    def incomplete_blocks(self) -> List[int]:
        """Block ids still waiting for packets, ascending."""
        return sorted(self._incomplete)

    @property
    def bytes_complete(self) -> int:
        """Exact object bytes covered by the blocks decoded so far."""
        return sum(spec.byte_length for spec in self.codec.plan.blocks
                   if spec.block not in self._incomplete)

    @property
    def progress(self) -> float:
        """Fraction of the object's bytes whose blocks have decoded."""
        return self.bytes_complete / self.codec.plan.file_size

    @property
    def distinct_received(self) -> int:
        return sum(client.distinct_received
                   for client in self._clients if client is not None)

    # -- results ---------------------------------------------------------------

    def block_stats(self, block: int) -> Optional[ReceptionStats]:
        """Reception counters of one block (None before its first packet)."""
        client = self._clients[block]
        return None if client is None else client.stats()

    def stats(self) -> ReceptionStats:
        """Aggregate reception counters across all blocks."""
        return ReceptionStats(
            source_packets=self.codec.total_k,
            distinct_received=self.distinct_received,
            total_received=self.total_received,
        )

    def block_data(self, block: int) -> np.ndarray:
        """One decoded block's ``(k, P)`` source array."""
        client = self._clients[self.codec.plan.spec(block).block]
        if client is None or not client.is_complete:
            raise DecodeFailure(
                f"block {block} has not received enough packets")
        return client.source_data()

    def object_data(self) -> bytes:
        """The reconstructed object, byte-identical to the sender's input.

        Raises :class:`~repro.errors.DecodeFailure` while any block is
        still incomplete.
        """
        if not self.is_complete:
            raise DecodeFailure(
                f"{len(self._incomplete)} of {self.codec.num_blocks} "
                f"blocks still incomplete: {self.incomplete_blocks[:8]}")
        return self.codec.plan.reassemble(
            [self.block_data(b) for b in range(self.codec.num_blocks)])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TransferClient(blocks={self.blocks_complete}/"
                f"{self.num_blocks}, received={self.total_received})")

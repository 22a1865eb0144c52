"""Staged per-block decoder intake is counter- and byte-exact.

:class:`~repro.fountain.client.FountainClient` holds each block's
arriving rows back from its decoder until they number the provable
lower bound on the arrivals the block still needs.  Whatever the split
of a record stream into batches, and however scalar ``receive_record``
calls interleave with batched ``receive_records`` calls, a receiver must
end exactly where one-record-at-a-time feeding ends: the same
``packets_used``, the same per-block reception stats and the same bytes.
At every step the transfer's ``packet_deficit`` must stay a true lower
bound on the records it still needs, and the per-block bounds a
feedback report carries must equal the one-record-at-a-time ones.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import cycle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.codes.lt import LTCode
from repro.fountain.client import FountainClient
from repro.utils.rng import spawn_rng

FAMILIES = ["lt", "raptor", "tornado-b", "rs"]
LOSSES = [0.0, 0.1, 0.3]


@lru_cache(maxsize=None)
def _stream(code: str, loss: float, seed: int):
    """A lossy record stream of a 4-block session, and its sequential run.

    Returns the manifest, the surviving records, the input bytes and
    the one-record-at-a-time reference: packets used, every block's
    stats at completion and the transfer's stats.
    """
    packet_size = 32
    block_size = 64 * packet_size
    data = spawn_rng(seed, 0x57A6).bytes(4 * block_size - 21)
    session = api.SenderSession(data, code=code, packet_size=packet_size,
                                block_size=block_size, seed=seed)
    sent = [packet.to_bytes()
            for packet in session.packets(4 * session.total_k)]
    keep = spawn_rng(seed, 0x1055).random(len(sent)) >= loss
    records = tuple(rec for rec, kept in zip(sent, keep) if kept)
    manifest = session.manifest()
    reference = api.ReceiverSession(manifest)
    client = reference.client
    # The per-block bounds after each record, as feedback reports see them.
    deficits = []
    for record in records:
        deficits.append(tuple(client.block_min_additional(b)
                              for b in range(client.num_blocks)))
        if reference.receive_record(record):
            break
    assert reference.is_complete
    blocks = tuple(client.block_stats(b) for b in range(client.num_blocks))
    return (manifest, records, data, reference.packets_used, blocks,
            client.stats(), tuple(deficits))


@settings(max_examples=60, deadline=None)
@given(code=st.sampled_from(FAMILIES), loss=st.sampled_from(LOSSES),
       seed=st.integers(0, 2),
       steps=st.lists(st.tuples(st.integers(1, 600), st.booleans(),
                                st.booleans()),
                      min_size=1, max_size=12))
def test_any_batching_matches_one_record_at_a_time(code, loss, seed, steps):
    (manifest, records, data, used, blocks, stats,
     deficits) = _stream(code, loss, seed)
    session = api.ReceiverSession(manifest)
    client = session.client
    pos = 0

    def deficit_is_a_lower_bound() -> None:
        if not session.is_complete:
            assert client.packet_deficit <= used - session.packets_used

    for size, scalar, probe in cycle(steps):
        if session.is_complete or pos >= len(records):
            break
        batch = records[pos:pos + size]
        pos += len(batch)
        if scalar:
            for record in batch:
                if session.receive_record(record):
                    break
                deficit_is_a_lower_bound()
        else:
            session.receive_records(batch)
            deficit_is_a_lower_bound()
        if probe and not session.is_complete:
            # Held rows come off the bounds, so they never exceed the
            # one-record-at-a-time ones; a report flushes first, and
            # then they are equal.
            staged = tuple(client.block_min_additional(b)
                           for b in range(client.num_blocks))
            assert all(s <= d for s, d in zip(
                staged, deficits[session.packets_used]))
            session.feedback_report()
            assert tuple(client.block_min_additional(b)
                         for b in range(client.num_blocks)) \
                == deficits[session.packets_used]
    assert session.is_complete
    assert session.packets_used == used
    assert tuple(client.block_stats(b)
                 for b in range(client.num_blocks)) == blocks
    assert client.stats() == stats
    assert session.data() == data


def test_rows_are_held_until_they_could_complete_the_block():
    """Below the bound nothing reaches the decoder, yet the counters
    and the bound already account for the held rows."""
    code = LTCode(64, seed=3)
    source = np.arange(64 * 8, dtype=np.uint8).reshape(64, 8)
    encoder = code.encoder(source)
    client = FountainClient(code, payload_size=8)
    ids = np.arange(100, dtype=np.int64)
    payloads = encoder.payload_block(ids)
    for start in range(0, 63, 7):
        stop = min(start + 7, 63)
        client.receive_many(ids[start:stop], payloads[start:stop])
    assert client.decoder_calls == 0
    assert client.total_received == client.distinct_received == 63
    assert client.min_additional == 1
    # The 64th arrival could complete the block: all 64 rows go in as
    # one decoder call.
    client.receive_many(ids[63:64], payloads[63:64])
    assert client.decoder_calls == 1
    assert client.total_received == 64


def test_scalar_arrival_flushes_held_rows_first():
    code = LTCode(64, seed=3)
    source = np.arange(64 * 8, dtype=np.uint8).reshape(64, 8)
    payloads = code.encoder(source).payload_block(np.arange(11))
    client = FountainClient(code, payload_size=8)
    client.receive_many(np.arange(10), payloads[:10])
    assert client.decoder_calls == 0
    client.receive_index(10, payloads[10])
    # The held rows, then the scalar one: arrival order is kept.
    assert client.decoder_calls == 2
    assert client.total_received == client.distinct_received == 11
    assert client.min_additional == 64 - 11

"""The batched sender path: record batches and the chunked serve loop.

Two layers, each pinned against the per-packet path it replaced:

* :meth:`TransferServer.record_batch` must be the same stream as
  ``packets()`` — byte for byte, across serial wrap, id-range
  exhaustion, and any interleaving of packet draws, batch draws,
  ``reset()``, ``fork()`` and ``reweight()``.
* the memory and file serves (now one chunked loop) must leave exactly
  what the per-packet loops in ``tests/_oracles.py`` leave: the same
  ``stream.pkt``, the same subscriber records, the same feedback
  reports and the same emitted/delivered/dropped counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.codes.lt import LTCode
from repro.errors import ProtocolError
from repro.fountain.packets import SERIAL_MODULUS
from repro.fountain.rateless import RatelessServer
from repro.net.transport import FileTransport, MemoryTransport
from repro.protocol.adaptive import AdaptivePolicy
from repro.protocol.feedback import FeedbackReport
from repro.utils.rng import spawn_rng

from _oracles import file_serve_per_packet, memory_serve_per_packet

FAMILIES = ["tornado-b", "lt", "rs", "raptor"]


def _data(size: int, seed: int) -> bytes:
    return spawn_rng(seed, 0xB47C).bytes(size)


def _session(code: str, *, blocks: int = 4, seed: int = 5,
             packet_size: int = 64) -> api.SenderSession:
    """A small session: 16-packet blocks, ``blocks`` of them."""
    block_size = 16 * packet_size
    return api.SenderSession(_data(blocks * block_size - 37, seed),
                             code=code, packet_size=packet_size,
                             block_size=block_size, seed=seed)


def _packet_bytes(source, count: int) -> bytes:
    return b"".join(p.to_bytes() for p in source.packets(count))


def _batch_bytes(source, count: int) -> bytes:
    blocks, indices, records = source.record_batch(count)
    assert records.shape == (count, source.record_size)
    assert blocks.shape == indices.shape == (count,)
    return records.tobytes()


# -- the batch primitive -------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(code=st.sampled_from(FAMILIES),
       blocks=st.sampled_from([1, 3]),
       sizes=st.lists(st.integers(0, 90), min_size=1, max_size=5))
def test_batches_equal_the_packet_stream(code, blocks, sizes):
    """Carousel and rateless blocks, legacy and block headers alike."""
    reference = _session(code, blocks=blocks).source
    batched = _session(code, blocks=blocks).source
    expected = _packet_bytes(reference, sum(sizes))
    got = b"".join(_batch_bytes(batched, size) for size in sizes)
    assert got == expected
    header = 16 if blocks > 1 else 12
    assert batched.record_size == header + 64


def test_batch_reports_blocks_and_indices_in_emission_order():
    reference = _session("tornado-b", blocks=3).source
    blocks, indices, _ = _session("tornado-b", blocks=3).source \
        .record_batch(40)
    packets = list(reference.packets(40))
    assert blocks.tolist() == [p.block for p in packets]
    assert indices.tolist() == [p.index for p in packets]


@settings(max_examples=15, deadline=None)
@given(code=st.sampled_from(["tornado-b", "lt"]),
       blocks=st.sampled_from([1, 2]),
       start=st.integers(SERIAL_MODULUS - 40, SERIAL_MODULUS - 1),
       sizes=st.lists(st.integers(1, 30), min_size=1, max_size=4))
def test_serials_wrap_at_two_to_the_32(code, blocks, start, sizes):
    reference = _session(code, blocks=blocks).source
    batched = _session(code, blocks=blocks).source
    reference._sequencer._serial = batched._sequencer._serial = start
    total = sum(sizes)
    expected = _packet_bytes(reference, total)
    got = b"".join(_batch_bytes(batched, size) for size in sizes)
    assert got == expected
    assert batched._sequencer.serial == (start + total) % SERIAL_MODULUS


def _exhausting_stream(code: str, blocks: int, id_range: int):
    source = _session(code, blocks=blocks).source
    for block_source in source.block_sources:
        block_source.id_range = id_range
    return source


@settings(max_examples=20, deadline=None)
@given(blocks=st.sampled_from([1, 3]),
       id_range=st.integers(1, 40),
       sizes=st.lists(st.integers(1, 50), min_size=1, max_size=8))
def test_rateless_exhaustion_raises_on_the_same_emission(blocks, id_range,
                                                         sizes):
    """A batch raises exactly when it holds the emission that makes
    ``packets()`` raise, and everything before it matches."""
    reference = _exhausting_stream("lt", blocks, id_range)
    good = []
    with pytest.raises(ProtocolError, match="exhausted"):
        for packet in reference.packets():
            good.append(packet.to_bytes())
    batched = _exhausting_stream("lt", blocks, id_range)
    emitted = 0
    got = []
    for size in sizes:
        if emitted + size > len(good):
            with pytest.raises(ProtocolError, match="exhausted"):
                batched.record_batch(size)
            break
        got.append(_batch_bytes(batched, size))
        emitted += size
    assert b"".join(got) == b"".join(good[:emitted])


@settings(max_examples=25, deadline=None)
@given(wrap=st.booleans(), start=st.integers(0, 1000),
       id_range=st.integers(1, 150),
       draws=st.lists(st.tuples(st.booleans(), st.integers(0, 90)),
                      min_size=1, max_size=8))
def test_rateless_lookahead_is_invisible(wrap, start, id_range, draws):
    """``payload_batch`` synthesises droplets ahead; interleaved
    ``packets()`` draws, wrap-around and exhaustion never see it.
    (Serials are not compared: ``payload_batch`` stamps no headers.)"""
    code = LTCode(16, seed=3)
    source = spawn_rng(3, 1).integers(0, 256, size=(16, 24),
                                      dtype=np.uint8)
    reference = RatelessServer(code, source, start=start,
                               id_range=id_range, wrap=wrap)
    mixed = RatelessServer(code, source, start=start, id_range=id_range,
                           wrap=wrap)
    for batch, count in draws:
        if not wrap and reference.ids_remaining < count:
            with pytest.raises(ProtocolError, match="exhausted"):
                (mixed.payload_batch if batch
                 else lambda n: list(mixed.packets(n)))(count)
            return
        want = list(reference.packets(count))
        if batch:
            ids, payloads = mixed.payload_batch(count)
        else:
            got = list(mixed.packets(count))
            ids = np.array([p.index for p in got], dtype=np.int64)
            payloads = np.array([p.payload for p in got], dtype=np.uint8)
        assert ids.tolist() == [p.index for p in want]
        assert payloads.tobytes() == b"".join(
            p.payload.tobytes() for p in want)


_OPS = st.one_of(
    st.tuples(st.just("packets"), st.integers(0, 40)),
    st.tuples(st.just("batch"), st.integers(0, 40)),
    st.tuples(st.just("reset")),
    st.tuples(st.just("fork"), st.integers(0, 3)),
    st.tuples(st.just("reweight"),
              st.one_of(st.none(),
                        st.lists(st.floats(0.25, 4.0), min_size=3,
                                 max_size=3))),
)


@settings(max_examples=30, deadline=None)
@given(code=st.sampled_from(FAMILIES), ops=st.lists(_OPS, max_size=10))
def test_interleaved_draws_stay_one_sequence(code, ops):
    """Mixed ``packets()``/batch draws with ``reset()``, ``fork()`` and
    ``reweight()`` between them give the all-``packets()`` stream."""
    reference = _session(code, blocks=3).source
    mixed = _session(code, blocks=3).source
    expected, got = [], []
    for op in ops:
        if op[0] in ("packets", "batch"):
            expected.append(_packet_bytes(reference, op[1]))
            draw = _packet_bytes if op[0] == "packets" else _batch_bytes
            got.append(draw(mixed, op[1]))
        elif op[0] == "reset":
            reference.reset()
            mixed.reset()
        elif op[0] == "fork":
            reference = reference.fork(seed=op[1])
            mixed = mixed.fork(seed=op[1])
        else:
            reference.reweight(op[1])
            mixed.reweight(op[1])
    expected.append(_packet_bytes(reference, 25))
    got.append(_batch_bytes(mixed, 25))
    assert b"".join(got) == b"".join(expected)


# -- the chunked serve loop against the per-packet oracles ---------------------


_SERVE_MODES = {
    "auto": {},
    "count": {"count": 150},
    "extra": {"extra": 23},
}


def _queued_report() -> FeedbackReport:
    """A subscription report already waiting when the serve starts."""
    return FeedbackReport(receiver_id=99, loss=0.2, progress=0.1,
                          packets_used=7, blocks_total=4,
                          lagging=((2, 9), (0, 3)))


def _memory_run(code, loss, options, adaptive, chunked):
    session = _session(code, seed=31)
    transport = MemoryTransport(loss=loss, seed=17)
    subs = [transport.subscribe() for _ in range(3)]
    seen = []
    options = dict(options)
    if adaptive:
        subs[0].send_feedback(_queued_report())
        options.update(policy=AdaptivePolicy(nominal_loss=loss),
                       feedback=seen.append, report_every=32)
    if chunked:
        report = session.serve(transport, **options)
        counts = (report.emitted, report.delivered, report.dropped)
    else:
        counts = memory_serve_per_packet(transport, session, **options)
    records = [list(sub.records()) for sub in subs]
    return counts, records, [r.encode() for r in seen]


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("mode", sorted(_SERVE_MODES))
@pytest.mark.parametrize("loss", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("code", FAMILIES)
def test_memory_serve_matches_per_packet_oracle(code, loss, mode, adaptive):
    options = _SERVE_MODES[mode]
    counts, records, reports = _memory_run(code, loss, options, adaptive,
                                           chunked=True)
    want_counts, want_records, want_reports = _memory_run(
        code, loss, options, adaptive, chunked=False)
    assert counts == want_counts
    assert records == want_records
    assert reports == want_reports
    if adaptive:
        assert reports  # the comparison saw the control plane
    # One bytes object per record, shared by every subscriber holding it.
    ids = {}
    for sub_records in records:
        for record in sub_records:
            assert ids.setdefault(record, id(record)) == id(record)


@pytest.mark.parametrize("mode", sorted(_SERVE_MODES))
@pytest.mark.parametrize("loss", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("code", FAMILIES)
def test_file_serve_matches_per_packet_oracle(tmp_path, code, loss, mode):
    options = _SERVE_MODES[mode]
    report = _session(code, seed=37).serve(
        FileTransport(tmp_path / "chunked", loss=loss, seed=19), **options)
    want = file_serve_per_packet(tmp_path / "oracle", _session(code, seed=37),
                                 loss=loss, seed=19, **options)
    assert (report.emitted, report.delivered, report.dropped) == want
    assert ((tmp_path / "chunked" / "stream.pkt").read_bytes()
            == (tmp_path / "oracle" / "stream.pkt").read_bytes())

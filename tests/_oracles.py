"""Shared helpers for the backend differential tests.

The vectorized and reference backends must be *observationally
identical*: same spec + seed + loss realisation in, byte-identical
packets and recoveries out.  These helpers run one complete
encode -> lossy channel -> incremental decode round trip under a chosen
backend and capture everything an outside observer could see, so the
tests reduce to ``run_roundtrip("reference", ...) ==
run_roundtrip("vectorized", ...)``.

The loss realisation is drawn from its own rng, outside the backend
under test, so both backends face exactly the same erasures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.codes.backend import use_backend
from repro.codes.registry import REGISTRY, build_code, incremental_decoder

#: seed-mixing constant so the loss stream never collides with the
#: source-data stream derived from the same test seed.
_LOSS_SALT = 0x10555EED


@dataclass
class RoundTrip:
    """Everything observable about one encode/loss/decode run."""

    #: every packet the encoder produced, concatenated.
    encoded: bytes
    #: arrival positions (into the survivor stream) the decoder consumed.
    packets_fed: int
    #: whether the decoder completed on the survivors.
    complete: bool
    #: reconstructed source bytes, or None when incomplete.
    recovered: Optional[bytes]


def make_source(k: int, payload_size: int, seed: int) -> np.ndarray:
    """Deterministic random ``(k, P)`` uint8 source block."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(k, payload_size), dtype=np.uint8)


def loss_realisation(count: int, loss: float, seed: int) -> np.ndarray:
    """A fixed delivery mask over ``count`` emissions (True = delivered)."""
    rng = np.random.default_rng(seed ^ _LOSS_SALT)
    return rng.random(count) >= loss


def run_roundtrip(backend: str, spec: str, k: int, payload_size: int,
                  seed: int, loss: float = 0.3,
                  emissions: Optional[int] = None,
                  batch_size: Optional[int] = None) -> RoundTrip:
    """One full round trip under ``backend``; see :class:`RoundTrip`.

    Fixed-rate families emit their whole ``(n, P)`` encoding; rateless
    families mint ``emissions`` droplets (default ``3 * k``).  Survivors
    of the shared loss realisation feed the family's incremental decoder
    one packet at a time until it reports completion — or, with a
    ``batch_size``, through ``add_packets`` in chunks of that size (the
    batched intake path).  A batched run consumes whole chunks, so its
    ``packets_fed`` may overshoot the sequential completion point by up
    to ``batch_size - 1``; recovered bytes are identical either way.
    """
    source = make_source(k, payload_size, seed)
    rateless = REGISTRY.is_rateless(spec)
    if emissions is None:
        emissions = 3 * k if rateless else None
    with use_backend(backend):
        code = build_code(spec, k, seed=seed)
        if rateless:
            encoded = code.encode(source, emissions)
        else:
            encoded = code.encode(source)
        mask = loss_realisation(encoded.shape[0], loss, seed)
        decoder = incremental_decoder(code, payload_size=payload_size)
        fed = 0
        survivors = np.nonzero(mask)[0]
        if batch_size is None:
            for index in survivors:
                fed += 1
                # add_packet's return value means "was new" for some
                # decoders; is_complete is the portable completion signal.
                decoder.add_packet(int(index), encoded[index])
                if decoder.is_complete:
                    break
        else:
            for start in range(0, survivors.size, batch_size):
                chunk = survivors[start:start + batch_size]
                fed += int(chunk.size)
                decoder.add_packets(chunk.tolist(), encoded[chunk])
                if decoder.is_complete:
                    break
        complete = bool(decoder.is_complete)
        recovered = decoder.source_data().tobytes() if complete else None
    return RoundTrip(encoded=encoded.tobytes(), packets_fed=fed,
                     complete=complete, recovered=recovered)


def assert_backends_identical(spec: str, k: int, payload_size: int,
                              seed: int, loss: float = 0.3,
                              emissions: Optional[int] = None) -> RoundTrip:
    """Run both backends and assert observational identity.

    Returns the reference run so callers can make further assertions
    (e.g. that the recovery actually equals the source).
    """
    reference = run_roundtrip("reference", spec, k, payload_size, seed,
                              loss=loss, emissions=emissions)
    vectorized = run_roundtrip("vectorized", spec, k, payload_size, seed,
                               loss=loss, emissions=emissions)
    assert vectorized.encoded == reference.encoded, \
        f"{spec} k={k} P={payload_size} seed={seed}: encoded bytes differ"
    assert vectorized.complete == reference.complete, \
        f"{spec} k={k} P={payload_size} seed={seed}: decode outcome differs"
    assert vectorized.packets_fed == reference.packets_fed, \
        f"{spec} k={k} P={payload_size} seed={seed}: completion point differs"
    assert vectorized.recovered == reference.recovered, \
        f"{spec} k={k} P={payload_size} seed={seed}: recovered bytes differ"
    return reference


def assert_batched_identical(spec: str, k: int, payload_size: int,
                             seed: int, loss: float = 0.3,
                             batch_sizes: tuple = (1, 3, 17, 256),
                             emissions: Optional[int] = None) -> RoundTrip:
    """Batched intake recovers the exact bytes of one-at-a-time feeding.

    Runs the per-packet reference round trip once, then replays the
    same survivor stream through ``add_packets`` under both backends
    for every batch size: completion outcome and recovered bytes must
    match, and a batch can only overshoot the sequential completion
    point by the slack inside its final chunk.
    """
    sequential = run_roundtrip("reference", spec, k, payload_size, seed,
                               loss=loss, emissions=emissions)
    for backend in ("reference", "vectorized"):
        for batch_size in batch_sizes:
            batched = run_roundtrip(backend, spec, k, payload_size, seed,
                                    loss=loss, emissions=emissions,
                                    batch_size=batch_size)
            label = (f"{spec} k={k} seed={seed} backend={backend} "
                     f"batch={batch_size}")
            assert batched.complete == sequential.complete, \
                f"{label}: decode outcome differs from sequential"
            assert batched.recovered == sequential.recovered, \
                f"{label}: recovered bytes differ from sequential"
            if sequential.complete:
                slack = batch_size - 1
                assert (sequential.packets_fed <= batched.packets_fed
                        <= sequential.packets_fed + slack), \
                    f"{label}: completion point outside chunk slack"
    return sequential


def raptor_encode_pair(backend: str, k: int, payload_size: int,
                       seed: int, **params: float):
    """Raptor intermediates via the cached solve plan and the pre-solve.

    Builds one geometry (through the process-wide cache, so the test
    exercises the exact objects production encoders receive) and runs
    the same source block through both encode paths under ``backend``:
    the recorded-plan replay and the retired per-block peeling
    pre-solve, which stays in the tree precisely to serve as this
    oracle.  Returns ``(plan_bytes, presolve_bytes)``.
    """
    from repro.codes.raptor.cache import cached_raptor_assets
    from repro.codes.raptor.encoder import RaptorEncoder

    source = make_source(k, payload_size, seed)
    with use_backend(backend):
        assets = cached_raptor_assets(k, seed=seed, **params)
        fast = RaptorEncoder(assets.geometry, source,
                             plan=assets.encode_plan())
        slow = RaptorEncoder(assets.geometry, source)
    return fast.intermediates.tobytes(), slow.intermediates.tobytes()


def memory_serve_per_packet(transport, session, *, count=None, extra=0,
                            policy=None, feedback=None, report_every=128):
    """The per-packet memory serve loop, kept as the chunked loop's oracle.

    One ``packets()`` draw, one ``delivery_mask(1)`` per subscriber and
    one scalar shadow ingest per emission, exactly as
    :meth:`~repro.net.transport.memory.MemoryTransport.serve` ran before
    it moved onto :func:`~repro.net.transport.chunked.serve_chunked`.
    Returns ``(emitted, delivered, dropped)``.
    """
    from repro.errors import ReproError
    from repro.net.transport.base import EMISSION_LIMIT_FACTOR
    from repro.protocol.feedback import FeedbackReport, report_from_client
    from repro.transfer.client import TransferClient

    manifest = session.manifest()
    shadows = []
    for sub in transport.subscriptions:
        sub._manifest = manifest
        shadows.append(TransferClient(session.codec, payload_size=None))
    limit = (EMISSION_LIMIT_FACTOR * session.total_k
             if count is None else count)
    adaptive = policy is not None or feedback is not None
    reweight = session.source.reweight
    block_ks = session.codec.plan.block_ks
    emitted = delivered = dropped = 0
    extra_left = extra
    for packet in session.packets(limit):
        emitted += 1
        record = None
        for sub, shadow in zip(transport.subscriptions, shadows):
            if bool(sub.channel.delivery_mask(1)[0]):
                if record is None:
                    record = packet.to_bytes()
                sub._records.append(record)
                delivered += 1
                if not shadow.is_complete:
                    shadow.receive_index(packet.block, packet.index)
            else:
                dropped += 1
        if adaptive and emitted % max(1, report_every) == 0:
            for i, (sub, shadow) in enumerate(
                    zip(transport.subscriptions, shadows)):
                report = FeedbackReport.decode(report_from_client(
                    shadow, receiver_id=i,
                    loss=sub.channel.observed_loss_rate,
                    packets_used=shadow.total_received).encode())
                if policy is not None:
                    policy.observe(report, now=0.0)
                if feedback is not None:
                    feedback(report)
            transport.drain_feedback(policy, feedback, now=0.0)
            if policy is not None:
                decision = policy.decide(block_ks, now=0.0)
                if decision.weights:
                    reweight(list(decision.weights))
        if count is None and all(s.is_complete for s in shadows):
            if extra_left <= 0:
                break
            extra_left -= 1
    if count is None and not all(s.is_complete for s in shadows):
        raise ReproError("channel too lossy")
    return emitted, delivered, dropped


def file_serve_per_packet(directory, session, *, loss=0.0, seed=None,
                          count=None, extra=0):
    """The per-packet file serve loop, kept as the chunked loop's oracle.

    Writes ``stream.pkt`` one ``to_bytes()`` record per survivor of a
    one-draw-per-packet channel, stopping ``extra`` survivors after a
    structural shadow completes, as
    :meth:`~repro.net.transport.file.FileTransport.serve` did before it
    moved onto :func:`~repro.net.transport.chunked.serve_chunked`.
    Returns ``(emitted, delivered, dropped)``.
    """
    import pathlib

    from repro.errors import ReproError
    from repro.net.channel import LossyChannel
    from repro.net.loss import BernoulliLoss
    from repro.net.transport.base import EMISSION_LIMIT_FACTOR
    from repro.transfer.client import TransferClient

    channel = LossyChannel(BernoulliLoss(loss), rng=seed)
    shadow = TransferClient(session.codec, payload_size=None)
    limit = (EMISSION_LIMIT_FACTOR * session.total_k
             if count is None else count)
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    survivors = 0
    extra_left = extra
    with open(directory / "stream.pkt", "wb") as stream:
        for packet in channel.transmit(session.packets(limit)):
            stream.write(packet.to_bytes())
            survivors += 1
            if count is None and shadow.receive_index(packet.block,
                                                      packet.index):
                if extra_left <= 0:
                    break
                extra_left -= 1
    if count is None and not shadow.is_complete:
        raise ReproError("channel too lossy")
    return channel.sent, survivors, channel.sent - channel.delivered

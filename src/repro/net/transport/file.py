"""File transport: a ``stream.pkt`` + ``manifest.json`` directory.

The recorded-stream shape `repro send` / `repro recv` have always
spoken, promoted to the transport contract: ``serve`` streams the
session across a simulated lossy channel and records the survivors;
``subscribe`` replays a recorded directory.  A structural shadow
receiver tells the sender when the recorded survivors have become
decodable — mimicking a receiver-driven session without paying for a
second payload decode — after which ``extra`` more survivors are
recorded as safety margin.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Iterator, List, Optional, Union

import numpy as np

from repro.errors import ProtocolError, ReproError
from repro.fountain.packets import BLOCK_HEADER_SIZE, HEADER_SIZE
from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss
from repro.net.transport.base import (
    ServeReport,
    Subscription,
    Transport,
    register_transport,
)
from repro.net.transport.chunked import serve_chunked

__all__ = ["FileTransport", "FileSubscription",
           "MANIFEST_NAME", "STREAM_NAME",
           "manifest_block_aware", "record_size"]

MANIFEST_NAME = "manifest.json"
STREAM_NAME = "stream.pkt"


def manifest_block_aware(manifest: dict) -> bool:
    """Whether a manifest's stream carries 16-byte block-aware headers.

    The single home of the derivation every record parser needs:
    explicit ``block_header`` flag when present, multi-block geometry
    otherwise.
    """
    return bool(manifest.get("block_header",
                             manifest.get("num_blocks", 1) > 1))


def record_size(manifest: dict) -> int:
    """Bytes per on-wire packet record a manifest describes."""
    header = (BLOCK_HEADER_SIZE if manifest_block_aware(manifest)
              else HEADER_SIZE)
    return header + int(manifest["packet_size"])


class FileSubscription(Subscription):
    """Replays a recorded transfer directory as a record feed.

    The stream file is read once and cached — a recorded directory is
    immutable for the life of a subscription.
    """

    def __init__(self, directory: Union[str, pathlib.Path]):
        self.directory = pathlib.Path(directory)
        self._manifest: Optional[dict] = None
        self._raw: Optional[bytes] = None

    def manifest(self, timeout: Optional[float] = None) -> dict:
        if self._manifest is None:
            path = self.directory / MANIFEST_NAME
            if not path.exists():
                raise ProtocolError(f"no {MANIFEST_NAME} in {self.directory}")
            self._manifest = json.loads(path.read_text())
        return self._manifest

    def _stream_bytes(self) -> bytes:
        if self._raw is None:
            self._raw = (self.directory / STREAM_NAME).read_bytes()
        return self._raw

    @property
    def available(self) -> int:
        """Packet records present in the recorded stream."""
        return len(self._stream_bytes()) // record_size(self.manifest())

    def records(self, timeout: Optional[float] = None) -> Iterator[bytes]:
        size = record_size(self.manifest())
        raw = self._stream_bytes()
        if len(raw) % size:
            raise ReproError(
                f"stream is {len(raw)} bytes, not a multiple of the "
                f"{size}-byte packet record — truncated or wrong manifest?")
        for offset in range(0, len(raw), size):
            yield raw[offset:offset + size]

    def send_feedback(self, report: Any) -> bool:
        """The contract's documented no-op: a recording has no sender.

        Feedback from a receiver replaying ``stream.pkt`` is dropped on
        the floor (returning False) — the sender that wrote the
        directory is long gone, and the fountain decodes open-loop
        regardless.
        """
        return False


@register_transport
class FileTransport(Transport):
    """Record a stream's channel survivors into a directory.

    Parameters
    ----------
    directory:
        Where ``stream.pkt`` and ``manifest.json`` live.
    loss:
        Bernoulli loss rate of the simulated channel crossed while
        recording.
    seed:
        Channel RNG seed (``None`` draws fresh entropy).
    """

    name = "file"

    def __init__(self, directory: Union[str, pathlib.Path],
                 loss: float = 0.0, seed: Optional[int] = None):
        self.directory = pathlib.Path(directory)
        self.loss = float(loss)
        self.seed = seed

    def subscribe(self, **options: Any) -> FileSubscription:
        if options:
            raise ProtocolError(
                f"file subscriptions take no options, got {options}")
        return FileSubscription(self.directory)

    def serve(self, session: Any, *, count: Optional[int] = None,
              extra: int = 0, policy: Any = None, feedback: Any = None,
              **options: Any) -> ServeReport:
        """Record the stream's survivors; write the manifest on success.

        ``policy``/``feedback`` are accepted and ignored — the feedback
        no-op of the transport contract: a recorded stream has no
        receivers while it is being written, so there is nothing to
        adapt to and no report will ever arrive.

        Raises :class:`~repro.errors.ReproError` when the channel is
        too lossy to finish within the emission budget.
        """
        if options:
            raise ProtocolError(
                f"file serve takes count/extra/policy/feedback only, "
                f"got {options}")
        from repro.transfer.client import TransferClient

        channel = LossyChannel(BernoulliLoss(self.loss), rng=self.seed)
        # The structural shadow only matters for the automatic stop; an
        # explicit count skips its decode work too.
        shadow = (TransferClient(session.codec, payload_size=None)
                  if count is None else None)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Drop any stale manifest first: stream.pkt is rewritten below,
        # and a failed serve must not leave the new stream paired with
        # an old manifest's geometry.  The fresh manifest lands only on
        # success.
        (self.directory / MANIFEST_NAME).unlink(missing_ok=True)
        start = time.perf_counter()
        survivors = 0
        with open(self.directory / STREAM_NAME, "wb") as stream:

            def emit(records: np.ndarray, masks: List[np.ndarray]) -> None:
                nonlocal survivors
                kept = records[masks[0]]
                stream.write(kept)
                survivors += len(kept)

            # ``extra`` counts recorded survivors after the shadow
            # completes, not emissions.
            emitted = serve_chunked(
                session, [channel], emit,
                shadows=None if shadow is None else [shadow],
                count=count, extra=extra, extra_deliveries=True)
        if shadow is not None and not shadow.is_complete:
            raise ReproError(
                f"channel too lossy: {emitted} emissions were not enough "
                f"(blocks incomplete: {shadow.incomplete_blocks[:8]})")
        from repro import __version__

        manifest = session.manifest(
            version=__version__,
            loss=self.loss,
            packets_written=survivors,
        )
        (self.directory / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2))
        return ServeReport(
            transport=self.name,
            emitted=emitted,
            delivered=survivors,
            dropped=emitted - survivors,
            duration=time.perf_counter() - start,
        )

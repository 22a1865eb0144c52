"""The chunked serve loop the memory and file transports share.

Both transports push a session's stream across simulated lossy channels
and watch structural (payload-less) shadows of their receivers to know
when to stop.  Doing that one packet at a time costs a header stamp, a
loss draw per channel and a scalar shadow ingest per emission; this
loop does the same work a chunk at a time:

* the source hands out a chunk of wire records in one pass
  (:meth:`~repro.transfer.server.TransferServer.record_batch`);
* every channel draws the chunk's delivery mask in one call — the same
  rng stream one-draw-per-packet consumes;
* every incomplete shadow ingests its survivors through
  :meth:`~repro.transfer.client.TransferClient.receive_batch`.

Chunks hold at most :data:`SERVE_CHUNK` emissions.  The automatic stop
stays exact.  Before every shadow is complete, a
chunk is at most the *packet deficit* — the largest, over the shadows,
of :attr:`~repro.transfer.client.TransferClient.packet_deficit`, a
provable lower bound on the deliveries that shadow still needs.  A
shadow receives at most one delivery per emission, so the last shadow
can only complete on a chunk's final emission: exactly where a
per-packet loop would have stopped.  The ``extra`` tail is then counted
off in chunks no longer than what it still owes, so no emission, loss
draw or source position is ever spent beyond the per-packet stop.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.net.channel import LossyChannel
from repro.net.transport.base import EMISSION_LIMIT_FACTOR, FEED_BATCH

__all__ = ["SERVE_CHUNK", "serve_chunked"]

#: most emissions per chunk (2 MiB of 1 KiB records).  Eight ingest
#: batches, so that a shadow striped over a few dozen blocks still hands
#: each block's decoder dozens of rows per call: at one ingest batch per
#: chunk, 32 blocks get ~8 rows each, below the decoders' vector-intake
#: threshold, and on a 2-CPU x86 host a 2 MiB Raptor file serve took
#: 1.9 s instead of 0.7 s.
SERVE_CHUNK = 8 * FEED_BATCH


def serve_chunked(session: Any, channels: Sequence[LossyChannel],
                  emit: Callable[[np.ndarray, List[np.ndarray]], None], *,
                  shadows: Optional[Sequence[Any]] = None,
                  count: Optional[int] = None, extra: int = 0,
                  extra_deliveries: bool = False,
                  report_every: int = 0,
                  report: Optional[Callable[[], None]] = None) -> int:
    """Stream ``session`` across ``channels`` in chunks; returns emissions.

    ``emit(records, masks)`` receives each chunk's ``(chunk,
    record_size)`` record array and one delivery mask per channel.
    ``shadows`` (one structural client per channel) are fed the
    survivors until they complete.

    With ``count=None`` the serve stops once every shadow is complete,
    plus ``extra`` more emissions — or, with ``extra_deliveries``, once
    ``extra`` more records have crossed the (single) channel — and
    otherwise after ``EMISSION_LIMIT_FACTOR * total_k`` emissions; an
    explicit ``count`` emits exactly that many.  ``report`` runs after
    every ``report_every``-th emission.
    """
    source = getattr(session, "source", session)
    auto = count is None
    stop_at = EMISSION_LIMIT_FACTOR * session.total_k if auto else count
    complete = False
    #: deliveries still owed after completion (``extra_deliveries``).
    owed: Optional[int] = None
    emitted = 0
    while emitted < stop_at:
        chunk = min(SERVE_CHUNK, stop_at - emitted)
        if report is not None:
            chunk = min(chunk, report_every - emitted % report_every)
        if auto and not complete:
            chunk = min(chunk, max(s.packet_deficit for s in shadows))
        elif owed is not None:
            chunk = min(chunk, owed)
        blocks, indices, records = source.record_batch(chunk)
        masks = [channel.delivery_mask(chunk) for channel in channels]
        emitted += chunk
        if shadows is not None:
            for shadow, mask in zip(shadows, masks):
                if not shadow.is_complete:
                    shadow.receive_batch(blocks[mask], indices[mask])
        emit(records, masks)
        if report is not None and emitted % report_every == 0:
            report()
        if not auto:
            continue
        if owed is not None:
            owed -= int(masks[0].sum())
        elif not complete and all(s.is_complete for s in shadows):
            complete = True
            if extra_deliveries:
                owed = extra
            else:
                stop_at = min(stop_at, emitted + extra)
        if owed == 0:
            break
    return emitted

"""In-process transport: per-subscriber loss channels over queues.

The behavior every test and simulation used before transports existed —
a sender loop pushing packets through a
:class:`~repro.net.channel.LossyChannel` — promoted to the transport
contract.  Each subscriber owns an independent loss channel (one
receiver per channel, as in all of the paper's experiments), and the
serve loop shadows every subscriber with a structural (payload-less)
decoder so it knows when everyone has enough and can stop on its own —
the in-process stand-in for "the receiver walks away from the
fountain".

The feedback path is in-process too: subscriptions enqueue encoded
:class:`~repro.protocol.feedback.FeedbackReport` frames on the
transport (``send_feedback``), and an adaptive serve
(``serve(policy=...)``) both drains that queue and synthesises periodic
reports from its structural shadows — the memory-transport stand-in for
live receivers reporting mid-stream, since buffered subscribers only
consume after the serve returns.  Reports round-trip through the wire
encoding either way, so the memory path exercises the exact frames UDP
moves.
"""

from __future__ import annotations

import time
from itertools import compress
from typing import Any, Callable, Iterator, List, Optional

import numpy as np

from repro.errors import ProtocolError, ReproError
from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss
from repro.net.transport.base import (
    ServeReport,
    Subscription,
    Transport,
    register_transport,
)
from repro.net.transport.chunked import serve_chunked
from repro.protocol.adaptive import AdaptivePolicy
from repro.protocol.feedback import FeedbackReport, report_from_client
from repro.utils.rng import ensure_rng, spawn_rng

__all__ = ["MemoryTransport", "MemorySubscription"]


class MemorySubscription(Subscription):
    """One subscriber's buffered view of a memory-served stream."""

    def __init__(self, channel: LossyChannel,
                 transport: Optional["MemoryTransport"] = None):
        self.channel = channel
        self.transport = transport
        self._records: List[bytes] = []
        self._manifest: Optional[dict] = None

    @property
    def available(self) -> int:
        """Records buffered for this subscriber so far."""
        return len(self._records)

    def manifest(self, timeout: Optional[float] = None) -> dict:
        if self._manifest is None:
            raise ProtocolError(
                "no manifest yet: serve the session before consuming "
                "a memory subscription")
        return self._manifest

    def records(self, timeout: Optional[float] = None) -> Iterator[bytes]:
        yield from self._records

    def send_feedback(self, report: FeedbackReport) -> bool:
        """Enqueue an encoded report on the transport's feedback queue."""
        if self.transport is None:
            return False
        self.transport.feedback_queue.append(report.encode())
        return True


@register_transport
class MemoryTransport(Transport):
    """Deliver a stream to in-process subscribers across lossy channels.

    Parameters
    ----------
    loss:
        Bernoulli loss probability applied independently per subscriber.
    seed:
        Base RNG seed; subscriber ``i`` draws from ``spawn_rng(seed, i)``
        so a fixed seed makes every subscriber's loss process — and the
        whole delivery — deterministic.
    """

    name = "memory"

    def __init__(self, loss: float = 0.0, seed: Optional[int] = None):
        self.loss = float(loss)
        self.seed = seed
        self.subscriptions: List[MemorySubscription] = []
        #: encoded feedback frames awaiting the sender (FIFO).
        self.feedback_queue: List[bytes] = []

    def subscribe(self, **options: Any) -> MemorySubscription:
        if options:
            raise ProtocolError(
                f"memory subscriptions take no options, got {options}")
        rng = (ensure_rng(None) if self.seed is None
               else spawn_rng(self.seed, len(self.subscriptions)))
        sub = MemorySubscription(LossyChannel(BernoulliLoss(self.loss),
                                              rng=rng), transport=self)
        self.subscriptions.append(sub)
        return sub

    def drain_feedback(self, policy: Optional[AdaptivePolicy] = None,
                       feedback: Optional[Callable[[FeedbackReport], Any]]
                       = None, now: float = 0.0) -> List[FeedbackReport]:
        """Decode and hand out every queued feedback frame."""
        reports = []
        while self.feedback_queue:
            report = FeedbackReport.decode(self.feedback_queue.pop(0))
            reports.append(report)
            if policy is not None:
                policy.observe(report, now=now)
            if feedback is not None:
                feedback(report)
        return reports

    def serve(self, session: Any, *, count: Optional[int] = None,
              extra: int = 0,
              policy: Optional[AdaptivePolicy] = None,
              feedback: Optional[Callable[[FeedbackReport], Any]] = None,
              report_every: int = 128,
              **options: Any) -> ServeReport:
        """Pump packets to every subscriber until all could decode.

        With ``count=None`` the serve stops once a structural shadow of
        every subscriber is complete (plus ``extra`` more emissions);
        an explicit ``count`` emits exactly that many packets.

        With ``policy=`` the serve closes the loop: every
        ``report_every`` emissions each shadow receiver's state is
        encoded as a wire-faithful feedback report (loss from its
        channel's observed rate), folded into the policy alongside any
        queued subscription reports, and the policy's block-schedule
        decision is applied to the live source via ``reweight``.
        ``feedback`` sees every report either way.
        """
        if options:
            raise ProtocolError(
                f"memory serve takes count/extra/policy/feedback only, "
                f"got {options}")
        if not self.subscriptions:
            raise ProtocolError(
                "no subscribers: call subscribe() before serve()")
        from repro.transfer.client import TransferClient

        manifest = session.manifest()
        subs = self.subscriptions
        for sub in subs:
            sub._manifest = manifest
        adaptive = policy is not None or feedback is not None
        # The shadows drive the automatic stop and the adaptive reports;
        # a plain counted serve needs neither.
        shadows = ([TransferClient(session.codec, payload_size=None)
                    for _ in subs] if count is None or adaptive else None)
        reweight = getattr(getattr(session, "source", session),
                           "reweight", None)
        block_ks = session.codec.plan.block_ks
        start = time.perf_counter()
        delivered = dropped = 0

        def emit(records: np.ndarray, masks: List[np.ndarray]) -> None:
            nonlocal delivered, dropped
            # One bytes object per record any subscriber received,
            # shared by every subscriber that received it.
            anyone = np.logical_or.reduce(masks)
            shared = [records[row].tobytes()
                      for row in np.flatnonzero(anyone).tolist()]
            for sub, mask in zip(subs, masks):
                got = int(mask.sum())
                delivered += got
                dropped += mask.size - got
                sub._records.extend(compress(shared, mask[anyone]))

        def report() -> None:
            now = time.perf_counter() - start
            for i, (sub, shadow) in enumerate(zip(subs, shadows)):
                heard = FeedbackReport.decode(report_from_client(
                    shadow, receiver_id=i,
                    loss=sub.channel.observed_loss_rate,
                    packets_used=shadow.total_received).encode())
                if policy is not None:
                    policy.observe(heard, now=now)
                if feedback is not None:
                    feedback(heard)
            self.drain_feedback(policy, feedback, now=now)
            if policy is not None and reweight is not None:
                decision = policy.decide(block_ks, now=now)
                if decision.weights:
                    reweight(list(decision.weights))

        emitted = serve_chunked(
            session, [sub.channel for sub in subs], emit, shadows=shadows,
            count=count, extra=extra, report_every=max(1, report_every),
            report=report if adaptive else None)
        if count is None and not all(s.is_complete for s in shadows):
            incomplete = [i for i, s in enumerate(shadows)
                          if not s.is_complete]
            raise ReproError(
                f"channel too lossy: {emitted} emissions were not enough "
                f"for subscribers {incomplete[:8]}")
        return ServeReport(
            transport=self.name,
            emitted=emitted,
            delivered=delivered,
            dropped=dropped,
            duration=time.perf_counter() - start,
            destinations=len(subs),
        )

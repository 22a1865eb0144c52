"""Real asyncio UDP delivery: unicast and loopback multicast.

The paper's server "sprays" an unreliable datagram stream at
arbitrarily many heterogeneous receivers; this module does it with real
sockets.  The sender is an asyncio datagram endpoint pumping
length-prefixed frames (see :mod:`repro.net.transport.base`) to any
number of unicast destinations and/or multicast groups, with

* **token-bucket pacing** (``pace`` packets per second) so loopback
  buffers — and real links — are not flooded,
* **in-band manifests**: the JSON manifest is re-sent every
  ``manifest_interval`` data packets, so a receiver can join
  mid-stream, learn the object geometry, and start decoding, and
* **optional Bernoulli loss injection** (per packet, per destination,
  deterministic under a fixed seed) so tests exercise real lossy-path
  recovery without a lossy network.

The receiver side is a plain blocking socket behind the
:class:`~repro.net.transport.base.Subscription` contract — callable
from any thread, no event loop required — because a fountain receiver
has no feedback to *schedule*: it just drinks datagrams until its
decoder completes.  UDP drops packets the kernel's buffers cannot hold;
that is simply more erasure, which is the entire point of the codes
upstream.

The control plane runs the same sockets in reverse: the subscription
remembers the sender's source address and ``send_feedback`` fires
``FRAME_FEEDBACK`` frames straight back at it, the sender's datagram
endpoint collects them, and ``serve(policy=...)`` folds each decoded
:class:`~repro.protocol.feedback.FeedbackReport` into an
:class:`~repro.protocol.adaptive.AdaptivePolicy` — retargeting the
token bucket, reweighting the live block schedule, and stopping early
once every known receiver reports a finished decode.  Feedback frames
are as unreliable as everything else here; the sender merely becomes
open-loop again when they stop arriving.
"""

from __future__ import annotations

import asyncio
import ipaddress
import json
import socket
import time
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.errors import ParameterError, ProtocolError
from repro.net.loss import BernoulliLoss, LossModel
from repro.net.transport.base import (
    EMISSION_LIMIT_FACTOR,
    FRAME_DATA,
    FRAME_FEEDBACK,
    FRAME_MANIFEST,
    ServeReport,
    Subscription,
    Transport,
    iter_frames,
    pack_frame,
    register_transport,
)
from repro.net.transport.file import record_size
from repro.net.transport.pacing import TokenBucket
from repro.protocol.adaptive import AdaptivePolicy
from repro.protocol.feedback import FeedbackReport
from repro.utils.rng import ensure_rng, spawn_rng

__all__ = ["UdpTransport", "UdpSubscription", "parse_address",
           "is_multicast"]

Address = Tuple[str, int]

#: default receive-socket buffer: room for a few thousand packets.
DEFAULT_RCVBUF = 1 << 22

#: sender yields to the event loop at least this often when unpaced.
_YIELD_EVERY = 64

#: emissions an adaptive sender may run past what its slowest reporting
#: receiver has read (see :class:`_LeadGate`).
_MAX_LEAD = 384

#: seconds without a report after which a receiver stops holding the
#: sender back — it left, or its feedback is lost: serve open loop.
_LEAD_PATIENCE = 1.0

#: seconds between feedback polls while the lead gate holds.
_LEAD_POLL = 0.001


def parse_address(text: Union[str, Address]) -> Address:
    """``"host:port"`` (or an ``(host, port)`` pair) to a socket address."""
    if isinstance(text, tuple):
        host, port = text
        return str(host), int(port)
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ParameterError(
            f"address {text!r} is not host:port (e.g. 127.0.0.1:9000)")
    try:
        return host, int(port)
    except ValueError:
        raise ParameterError(f"bad port in address {text!r}") from None


def is_multicast(host: str) -> bool:
    """True when ``host`` is an IPv4 multicast group address."""
    try:
        return ipaddress.ip_address(host).is_multicast
    except ValueError:
        return False


def _stop_check(stop: Any) -> Callable[[], bool]:
    """Normalise a stop flag: callable, threading.Event, or None."""
    if stop is None:
        return lambda: False
    if callable(stop):
        return stop
    if hasattr(stop, "is_set"):
        return stop.is_set
    raise ParameterError(
        "stop must be a callable or an Event-like object with is_set()")


class UdpSubscription(Subscription):
    """A bound UDP socket yielding the data records it receives.

    Parameters
    ----------
    address:
        ``host:port`` to listen on.  A multicast group address joins
        the group (bound on the wildcard address); port 0 picks a free
        port — read :attr:`address` for the actual binding.
    interface:
        Interface IP for multicast membership (loopback by default).
    timeout:
        Default seconds of silence before :meth:`records` gives up.
    buffer_size:
        Requested ``SO_RCVBUF`` — sized for a paced fountain burst.
    """

    def __init__(self, address: Union[str, Address],
                 interface: str = "127.0.0.1",
                 timeout: float = 5.0,
                 buffer_size: int = DEFAULT_RCVBUF):
        host, port = parse_address(address)
        self.timeout = float(timeout)
        self._manifest: Optional[dict] = None
        self._pending: List[bytes] = []
        self._closed = False
        #: source address of the last well-formed datagram — where
        #: feedback replies go.
        self._sender: Optional[Address] = None
        #: feedback frames actually sent back up the control plane.
        self.feedback_sent = 0
        #: data frames whose framing failed to parse (foreign senders).
        self.malformed = 0
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM,
                             socket.IPPROTO_UDP)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF,
                            int(buffer_size))
            if is_multicast(host):
                # Several group members may share one port on this
                # host; unicast binds stay exclusive so a double fetch
                # fails loudly instead of starving silently.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind(("", port))
                sock.setsockopt(
                    socket.IPPROTO_IP, socket.IP_ADD_MEMBERSHIP,
                    socket.inet_aton(host) + socket.inet_aton(interface))
            else:
                sock.bind((host, port))
        except OSError:
            sock.close()
            raise
        self.socket = sock
        self._host = host

    @property
    def address(self) -> Address:
        """The address a sender should target to reach this subscription."""
        return self._host, self.socket.getsockname()[1]

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.socket.close()

    def _frames(self, timeout: Optional[float]
                ) -> Iterator[Tuple[int, bytes]]:
        """Parsed frames from arriving datagrams; times out on silence."""
        wait = self.timeout if timeout is None else float(timeout)
        self.socket.settimeout(wait)
        while True:
            try:
                datagram, addr = self.socket.recvfrom(65535)
            except socket.timeout:
                raise ProtocolError(
                    f"no datagrams on {self.address[0]}:"
                    f"{self.address[1]} within {wait:.1f}s — is the "
                    "sender running (and pointed here)?") from None
            except OSError:
                if self._closed:
                    return
                raise
            try:
                # Materialise first: a datagram either parses whole or
                # is discarded whole — no half-delivered prefixes.
                frames = list(iter_frames(datagram))
            except ProtocolError:
                self.malformed += 1
                continue
            self._sender = addr
            yield from frames

    @property
    def sender_address(self) -> Optional[Address]:
        """Source address of the last well-formed datagram, if any."""
        return self._sender

    def send_feedback(self, report: FeedbackReport) -> bool:
        """Fire one feedback frame back at the sender's source address.

        Best-effort like everything on this transport: False (not an
        error) before any datagram has revealed the sender, or when the
        socket refuses the send.
        """
        if self._sender is None or self._closed:
            return False
        frame = pack_frame(FRAME_FEEDBACK, report.encode())
        try:
            self.socket.sendto(frame, self._sender)
        except OSError:
            return False
        self.feedback_sent += 1
        return True

    def _learn_manifest(self, body: bytes) -> bool:
        """Adopt a manifest frame's body; False (and counted) if bogus."""
        try:
            self._manifest = json.loads(body.decode("utf-8"))
            return True
        except (UnicodeDecodeError, ValueError):
            self.malformed += 1
            return False

    def _record_bytes(self) -> Optional[int]:
        """Expected data-record size, once a manifest has been learned."""
        if self._manifest is None:
            return None
        try:
            return record_size(self._manifest)
        except (KeyError, TypeError, ValueError):
            return None

    def manifest(self, timeout: Optional[float] = None) -> dict:
        """Wait for a manifest frame (buffering data frames meanwhile)."""
        if self._manifest is None:
            for frame_type, body in self._frames(timeout):
                if (frame_type == FRAME_MANIFEST
                        and self._learn_manifest(body)):
                    break
                if frame_type == FRAME_DATA:
                    self._pending.append(body)
        if self._manifest is None:
            # _frames() only ends without a manifest when the socket was
            # closed from another thread mid-wait.
            raise ProtocolError(
                "subscription closed before a manifest frame arrived")
        return self._manifest

    def records(self, timeout: Optional[float] = None) -> Iterator[bytes]:
        """Data records as they arrive; replays any buffered backlog first.

        Once a manifest is known, records of any other size (foreign
        senders, a repro sender restarted with a different geometry) are
        counted in :attr:`malformed` and skipped, not handed to the
        decoder.
        """
        size = self._record_bytes()
        while self._pending:
            body = self._pending.pop(0)
            if size is not None and len(body) != size:
                self.malformed += 1
                continue
            yield body
        for frame_type, body in self._frames(timeout):
            if frame_type == FRAME_MANIFEST:
                if self._learn_manifest(body):
                    size = self._record_bytes()
            elif frame_type == FRAME_DATA:
                if size is not None and len(body) != size:
                    self.malformed += 1
                    continue
                yield body

    def _collect(self, datagram: bytes, batch: List[bytes],
                 addr: Optional[Address] = None) -> None:
        """Parse one datagram's frames into ``batch`` (data bodies only)."""
        try:
            frames = list(iter_frames(datagram))
        except ProtocolError:
            self.malformed += 1
            return
        if addr is not None:
            self._sender = addr
        for frame_type, body in frames:
            if frame_type == FRAME_MANIFEST:
                self._learn_manifest(body)
            elif frame_type == FRAME_DATA:
                size = self._record_bytes()
                if size is not None and len(body) != size:
                    self.malformed += 1
                    continue
                batch.append(body)

    def record_batches(self, timeout: Optional[float] = None
                       ) -> Iterator[List[bytes]]:
        """One batch per socket drain: everything queued when we poll.

        Blocks for the first datagram of a poll (honouring the silence
        timeout), then empties the kernel's receive queue without
        blocking — so a burst that arrived while the decoder was busy
        becomes a single ingest call instead of one wakeup per packet.
        Record order and the malformed/size filtering are identical to
        :meth:`records`.
        """
        wait = self.timeout if timeout is None else float(timeout)
        size = self._record_bytes()
        batch: List[bytes] = []
        while self._pending:
            body = self._pending.pop(0)
            if size is not None and len(body) != size:
                self.malformed += 1
                continue
            batch.append(body)
        if batch:
            yield batch
        while True:
            batch = []
            self.socket.settimeout(wait)
            try:
                datagram, addr = self.socket.recvfrom(65535)
            except socket.timeout:
                raise ProtocolError(
                    f"no datagrams on {self.address[0]}:"
                    f"{self.address[1]} within {wait:.1f}s — is the "
                    "sender running (and pointed here)?") from None
            except OSError:
                if self._closed:
                    return
                raise
            self._collect(datagram, batch, addr)
            # Drain whatever else already sits in the kernel queue.
            self.socket.settimeout(0.0)
            while True:
                try:
                    datagram, addr = self.socket.recvfrom(65535)
                except (BlockingIOError, socket.timeout):
                    break
                except OSError:
                    if self._closed:
                        break
                    raise
                self._collect(datagram, batch, addr)
            if batch:
                yield batch
            if self._closed:
                return


class _SenderProtocol(asyncio.DatagramProtocol):
    """Fire-and-forget sender; counts (but survives) socket errors.

    Also the sender's ear: receivers fire ``FRAME_FEEDBACK`` datagrams
    back at this endpoint's source port, and the bodies queue here for
    the serve loop to decode between sends.
    """

    def __init__(self) -> None:
        self.errors = 0
        self.last_error: Optional[Exception] = None
        #: undecoded feedback frame bodies, arrival order.
        self.feedback: List[bytes] = []
        #: datagrams that were not well-formed feedback (stray chatter).
        self.malformed = 0

    def error_received(self, exc: Exception) -> None:
        # ICMP port-unreachable chatter is normal when a unicast
        # receiver leaves early; a fountain sender shrugs, but the
        # count is reported so operators can see a dead destination.
        self.errors += 1
        self.last_error = exc

    def datagram_received(self, data: bytes, addr: Address) -> None:
        try:
            frames = list(iter_frames(data))
        except ProtocolError:
            self.malformed += 1
            return
        for frame_type, body in frames:
            if frame_type == FRAME_FEEDBACK:
                self.feedback.append(body)
            else:
                self.malformed += 1


class _LossStream:
    """Stateful per-destination loss draws from any loss model.

    Models like Gilbert-Elliott re-draw their hidden state from
    stationarity on every ``losses`` call, so asking for one packet at
    a time would flatten the bursts back into Bernoulli.  Drawing in
    chunks keeps the burst structure (mean bursts are far shorter than
    a chunk) while the serve loop still consumes one verdict per
    packet.
    """

    _CHUNK = 512

    def __init__(self, model: LossModel, rng: Any):
        self.model = model
        self.rng = rng
        self._mask: Any = None
        self._pos = 0

    def lost(self) -> bool:
        if self._mask is None or self._pos >= len(self._mask):
            self._mask = self.model.losses(self._CHUNK, self.rng)
            self._pos = 0
        verdict = bool(self._mask[self._pos])
        self._pos += 1
        return verdict


class _LeadGate:
    """Keeps an adaptive sender a bounded lead ahead of its receivers.

    Each report says how many packets its receiver has consumed;
    divided by the delivery rate its own loss estimate implies, that is
    how far into the stream the receiver has read.  The sender may run
    at most :data:`_MAX_LEAD` emissions past the slowest incomplete
    receiver, so a receiver that falls behind (a slow host decoding a
    large drain) cannot leave a stream's worth of surplus in the kernel
    queue by the time its complete-report stops the serve.  Until the
    first report arrives the sender waits as if for a receiver at the
    stream's start.  Receivers silent for :data:`_LEAD_PATIENCE`
    seconds no longer count; with no live reports the gate is open and
    the serve runs open loop.
    """

    def __init__(self) -> None:
        #: receiver id -> (emissions read through, time of its report);
        #: ``None`` stands in for the receivers not yet heard from.
        self._read: Dict[Optional[int], Tuple[float, float]] = {
            None: (0.0, 0.0)}

    def observe(self, report: FeedbackReport, now: float) -> None:
        self._read.pop(None, None)
        if report.complete:
            self._read.pop(report.receiver_id, None)
            return
        delivery = max(1.0 - report.loss, 0.05)
        self._read[report.receiver_id] = (report.packets_used / delivery,
                                          now)

    def holds(self, emitted: int, now: float) -> bool:
        """Whether emission ``emitted`` must wait for fresher reports."""
        live = [read for read, heard in self._read.values()
                if now - heard <= _LEAD_PATIENCE]
        return bool(live) and emitted - min(live) > _MAX_LEAD


@register_transport
class UdpTransport(Transport):
    """Spray a packet stream over real UDP sockets.

    Parameters
    ----------
    destinations:
        Addresses (``"host:port"`` strings or pairs) every data frame
        is sent to — unicast receivers and/or multicast groups.
    bind:
        Optional local ``host:port`` for the sending socket.
    pace:
        Token-bucket rate in packets per second (``None`` = unpaced,
        with periodic event-loop yields).
    loss:
        Injected Bernoulli loss probability, applied independently per
        packet per destination *before* the socket — test-channel
        erasure with real-socket delivery.
    loss_model:
        Any :class:`~repro.net.loss.LossModel` for the injected loss
        instead of the Bernoulli shorthand — e.g. ``GilbertElliottLoss``
        for bursty-channel acceptance runs.  Each destination gets an
        independent stateful draw stream.  Overrides ``loss``.
    seed:
        RNG seed for the injected loss (``None`` draws fresh entropy).
    manifest_interval:
        Data packets between in-band manifest frames.
    interface:
        Interface IP for multicast sends (loopback by default).
    ttl:
        Multicast TTL (1 = link-local, the loopback-safe default).
    """

    name = "udp"

    def __init__(self, destinations: Sequence[Union[str, Address]],
                 *,
                 bind: Optional[Union[str, Address]] = None,
                 pace: Optional[float] = None,
                 loss: float = 0.0,
                 loss_model: Optional[LossModel] = None,
                 seed: Optional[int] = None,
                 manifest_interval: int = 64,
                 interface: str = "127.0.0.1",
                 ttl: int = 1):
        self.destinations = [parse_address(dest) for dest in destinations]
        if not self.destinations:
            raise ParameterError("need at least one destination address")
        self.bind = None if bind is None else parse_address(bind)
        self.pace = pace
        self.loss = float(loss)
        self.loss_model = loss_model
        self.seed = seed
        self.manifest_interval = int(manifest_interval)
        if self.manifest_interval < 1:
            raise ParameterError("manifest_interval must be >= 1")
        self.interface = interface
        self.ttl = int(ttl)
        self._subscribed = 0

    def subscribe(self, address: Optional[Union[str, Address]] = None,
                  **options: Any) -> UdpSubscription:
        """Bind a receiver socket.

        With no ``address`` the next unclaimed destination is bound —
        the loopback convenience that lets tests and examples stand up
        sender and receivers from one transport object.  Pass an
        explicit ``address`` (e.g. from another process) otherwise.
        """
        if address is None:
            if self._subscribed >= len(self.destinations):
                raise ProtocolError(
                    f"all {len(self.destinations)} destinations already "
                    "have local subscriptions; pass address= explicitly")
            address = self.destinations[self._subscribed]
            self._subscribed += 1
        return UdpSubscription(address, interface=self.interface, **options)

    # -- sending ---------------------------------------------------------------

    def serve(self, session: Any, *, count: Optional[int] = None,
              **options: Any) -> ServeReport:
        """Synchronous wrapper: run :meth:`serve_async` to completion."""
        return asyncio.run(self.serve_async(session, count=count, **options))

    def _loss_streams(self) -> Optional[List[_LossStream]]:
        """One independent stateful loss stream per destination."""
        model = self.loss_model
        if model is None and self.loss > 0:
            model = BernoulliLoss(self.loss)
        if model is None:
            return None
        return [_LossStream(model,
                            ensure_rng(None) if self.seed is None
                            else spawn_rng(self.seed, i))
                for i in range(len(self.destinations))]

    async def serve_async(self, session: Any, *,
                          count: Optional[int] = None,
                          duration: Optional[float] = None,
                          stop: Any = None,
                          policy: Optional[AdaptivePolicy] = None,
                          feedback: Optional[
                              Callable[[FeedbackReport], Any]] = None,
                          adapt_every: int = 64) -> ServeReport:
        """Pump the session's stream into the sockets.

        Runs until ``count`` emissions, ``duration`` seconds, or the
        ``stop`` flag (callable or Event) — whichever comes first; with
        none given it serves forever, which is exactly what a fountain
        server does (interrupt it to stop).

        With ``policy=`` the endpoint listens for ``FRAME_FEEDBACK``
        replies, folds every report into the policy, and every
        ``adapt_every`` emissions applies its decision: the token
        bucket retargets to ``pace * rate_scale`` and lagging blocks get
        heavier schedule weight (via the source's ``reweight``).  The
        serve stops as soon as every known receiver reports a
        complete decode — the closed-loop path that lets an adaptive
        sender quit while an open-loop one is still provisioning for
        the worst case.  An adaptive serve with no explicit bound is
        additionally capped at the emission-budget limit so a fade that
        swallows all feedback cannot spin it forever.  ``feedback``
        (a callable) observes every decoded report.
        """
        should_stop = _stop_check(stop)
        adaptive = policy is not None
        if adaptive and count is None:
            count = EMISSION_LIMIT_FACTOR * session.total_k
        loop = asyncio.get_running_loop()
        transport, protocol = await loop.create_datagram_endpoint(
            _SenderProtocol,
            local_addr=self.bind or ("0.0.0.0", 0))
        sock = transport.get_extra_info("socket")
        if sock is not None and any(is_multicast(host)
                                    for host, _ in self.destinations):
            sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_TTL,
                            self.ttl)
            sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP, 1)
            sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_IF,
                            socket.inet_aton(self.interface))
        bucket = None if self.pace is None else TokenBucket(self.pace)
        streams = self._loss_streams()
        source = getattr(session, "source", session)
        reweight = getattr(source, "reweight", None)
        codec = getattr(session, "codec", None)
        block_ks = codec.plan.block_ks if codec is not None else [1]
        manifest_frame = pack_frame(
            FRAME_MANIFEST,
            json.dumps(session.manifest()).encode("utf-8"))
        start = time.perf_counter()
        deadline = None if duration is None else start + float(duration)
        emitted = delivered = dropped = manifest_frames = 0
        feedback_frames = 0
        # A complete-report arrived since the last completeness check.
        heard_complete = False
        gate = _LeadGate() if adaptive else None

        def hear() -> None:
            nonlocal feedback_frames, heard_complete
            if not protocol.feedback or not (adaptive
                                             or feedback is not None):
                return
            now = time.perf_counter() - start
            while protocol.feedback:
                body = protocol.feedback.pop(0)
                try:
                    report = FeedbackReport.decode(body)
                except ProtocolError:
                    protocol.malformed += 1
                    continue
                feedback_frames += 1
                heard_complete = heard_complete or report.complete
                if policy is not None:
                    policy.observe(report, now=now)
                if gate is not None:
                    gate.observe(report, now)
                if feedback is not None:
                    feedback(report)

        def ended() -> bool:
            return bool(should_stop()) or (
                deadline is not None and time.perf_counter() >= deadline)

        try:
            for packet in session.packets(count):
                while (gate is not None and not ended() and gate.holds(
                        emitted, time.perf_counter() - start)):
                    await asyncio.sleep(_LEAD_POLL)
                    hear()
                if ended():
                    break
                slept = 0.0
                if bucket is not None:
                    slept = await bucket.throttle()
                if slept == 0.0 and emitted % _YIELD_EVERY == 0:
                    # A CPU-bound serve below the pace rate never runs
                    # the bucket dry; yield anyway so the event loop
                    # polls the socket and feedback frames get read.
                    await asyncio.sleep(0)
                hear()
                if adaptive and heard_complete:
                    # A complete-report may finish the population: stop
                    # now, not at the next cadence boundary.
                    heard_complete = False
                    if policy.all_complete(time.perf_counter() - start):
                        break
                if adaptive and emitted and emitted % adapt_every == 0:
                    now = time.perf_counter() - start
                    decision = policy.decide(block_ks, now=now)
                    if decision.all_complete:
                        break
                    if bucket is not None and self.pace is not None:
                        bucket.set_rate(self.pace * decision.rate_scale)
                    if decision.weights and reweight is not None:
                        reweight(list(decision.weights))
                if emitted % self.manifest_interval == 0:
                    for dest in self.destinations:
                        transport.sendto(manifest_frame, dest)
                    manifest_frames += 1
                frame = pack_frame(FRAME_DATA, packet.to_bytes())
                for di, dest in enumerate(self.destinations):
                    if streams is not None and streams[di].lost():
                        dropped += 1
                        continue
                    transport.sendto(frame, dest)
                    delivered += 1
                emitted += 1
        finally:
            # One final manifest so late joiners of a finite serve still
            # learn the geometry, then let the endpoint flush and close.
            for dest in self.destinations:
                transport.sendto(manifest_frame, dest)
            manifest_frames += 1
            await asyncio.sleep(0)
            transport.close()
        return ServeReport(
            transport=self.name,
            emitted=emitted,
            delivered=delivered,
            dropped=dropped,
            duration=time.perf_counter() - start,
            destinations=len(self.destinations),
            manifest_frames=manifest_frames,
            socket_errors=protocol.errors,
            feedback_frames=feedback_frames,
        )

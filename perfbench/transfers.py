"""The three transfer workloads: UDP loopback, memory fan-out, file replay.

Closed loop: one transfer at a time, the next starts once the previous
one is verified.  Every transfer runs the shipped path,
``SenderSession.serve`` -> transport -> ``Subscription.feed`` ->
``ReceiverSession``, on bytes and seeds generated from the workload
seed, and compares the received ``data()`` with its input.

A traced transfer swaps in stand-ins that time calls into the public
API from outside (see :mod:`perfbench.tracer`); in a traced run every
other transfer stays untraced, so the two goodputs give the tracing
overhead.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import pathlib
import shutil
import sys
import tempfile
import threading
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.report import (
    MB,
    Metric,
    Outcome,
    end_to_end_metrics,
    interquartile_mean,
    layer_metrics,
    median,
    peak_rss_mb,
    tail_percentile,
)
from perfbench.hostspeed import HostSpeed
from perfbench.tracer import Tracer
from repro.api import ReceiverSession, SenderSession
from repro.codes.registry import collect_cache_stats
from repro.net.transport import FileTransport, MemoryTransport, UdpTransport
from repro.net.transport.udp import UdpSubscription

__all__ = ["WORKLOADS", "TransferWorkload", "run_workload"]

#: seconds of silence before a UDP receiver gives up.
RECV_TIMEOUT_S = 5.0

#: UDP emission cap, in multiples of the source packet count.
UDP_EMISSION_CAP = 20

#: transfers measured even when they overrun ``--seconds``.
MIN_TRANSFERS = 3

#: index of the untimed warm-up transfer's inputs.
WARMUP_INDEX = 1 << 20


@dataclass(frozen=True)
class TransferWorkload:
    name: str
    transport: str
    code: str
    object_bytes: int
    packet_size: int
    block_size: int
    loss: float = 0.1
    subscribers: int = 1


WORKLOADS: Dict[str, TransferWorkload] = {w.name: w for w in (
    TransferWorkload("udp-lt", "udp", "lt", 4 << 20, 1024, 256 << 10),
    TransferWorkload("mem-tornado-fanout", "memory", "tornado-b", 4 << 20,
                     1024, 256 << 10, subscribers=4),
    TransferWorkload("file-raptor-256", "file", "raptor:eps=0.05", 2 << 20,
                     256, 64 << 10),
)}


@dataclass(frozen=True)
class Inputs:
    data: bytes
    #: the sender session's seed (code graphs, carousel order).
    session_seed: int
    #: the injected-loss seed of the transport.
    loss_seed: int


def make_inputs(workload: TransferWorkload, seed: int, index: int) -> Inputs:
    """The bytes and seeds of transfer ``index``; a pure function of
    (workload, seed, index)."""
    tag = zlib.crc32(workload.name.encode())
    rng = np.random.default_rng([seed, tag, index])
    return Inputs(data=rng.bytes(workload.object_bytes),
                  session_seed=int(rng.integers(1, 1 << 31)),
                  loss_seed=int(rng.integers(1, 1 << 31)))


@dataclass
class TransferRecord:
    """Everything one transfer measured."""

    index: int
    traced: bool
    object_bytes: int
    receivers: int
    total_k: int = 0
    setup_s: float = 0.0
    sender_init_s: float = 0.0
    receiver_init_s: float = 0.0
    #: serve start to the last verified ``data()`` (receiver
    #: construction of the file replay excluded).
    transfer_s: float = 0.0
    cpu_s: float = 0.0
    verified: int = 0
    wrong_bytes: int = 0
    error: Optional[str] = None
    packets_used: List[int] = field(default_factory=list)
    #: every block's reception overhead at its decode, all receivers.
    block_overheads: List[float] = field(default_factory=list)
    report: Any = None
    cache_hits: int = 0
    cache_misses: int = 0
    malformed: int = 0
    rcvbuf_errors: int = 0

    @property
    def ok(self) -> bool:
        return (self.error is None and self.wrong_bytes == 0
                and self.verified == self.receivers)

    @property
    def goodput(self) -> float:
        return self.object_bytes / MB / self.transfer_s if self.ok else 0.0


# -- stand-ins that time the public API from outside ---------------------------


class TracedSender:
    """A sender session whose ``packets()`` times every packet drawn."""

    def __init__(self, session: SenderSession, tracer: Tracer):
        self._session = session
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._session, name)

    def packets(self, count: Optional[int] = None) -> Any:
        return self._tracer.wrap_iter("transfer.server.packets",
                                      self._session.packets(count))


class TracedReceiver:
    """A receiver session timing ingest, decoder intake and reassembly."""

    def __init__(self, session: ReceiverSession, tracer: Tracer):
        self._session = session
        client = session.client
        # Instance attribute: receive_records looks it up on the client.
        client.receive_many = tracer.wrap_call(
            "transfer.client.receive_many", client.receive_many,
            items=lambda args: len(args[1]))
        self.receive_records = tracer.wrap_call(
            "api.receive_records", session.receive_records,
            items=lambda args: len(args[0]))
        self.data = tracer.wrap_call("api.data", session.data)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._session, name)


def trace_subscription(subscription: Any, tracer: Tracer) -> None:
    """Time every batch ``feed`` pulls from the subscription."""
    batches = subscription.record_batches

    def timed(timeout: Optional[float] = None) -> Any:
        return tracer.wrap_iter("net.transport.record_batches",
                                batches(timeout=timeout), items=len)

    subscription.record_batches = timed


def _sender_target(sender: SenderSession, tracer: Optional[Tracer]) -> Any:
    return sender if tracer is None else TracedSender(sender, tracer)


def _receiver_target(receiver: ReceiverSession,
                     tracer: Optional[Tracer]) -> Any:
    return receiver if tracer is None else TracedReceiver(receiver, tracer)


def _serve(target: Any, transport: Any, **options: Any) -> Any:
    # The public entry point with the (possibly traced) session as self:
    # it forwards to transport.serve(target, ...).
    return SenderSession.serve(target, transport, **options)


def _feed(subscription: Any, target: Any, tracer: Optional[Tracer],
          timeout: Optional[float] = None) -> None:
    if tracer is not None:
        trace_subscription(subscription, tracer)
    if not subscription.feed(target, timeout=timeout):
        raise RuntimeError("the record stream ended before the decode "
                           "completed")


def _verify(rec: TransferRecord, target: Any, data: bytes) -> None:
    rec.packets_used.append(target.packets_used)
    client = target.client
    rec.block_overheads.extend(client.block_stats(b).reception_overhead
                               for b in range(client.num_blocks))
    if target.data() == data:
        rec.verified += 1
    else:
        rec.wrong_bytes += 1


def _new_sender(workload: TransferWorkload, inputs: Inputs) -> SenderSession:
    return SenderSession(inputs.data, code=workload.code,
                         packet_size=workload.packet_size,
                         block_size=workload.block_size,
                         seed=inputs.session_seed)


# -- one transfer per transport -----------------------------------------------


def _run_udp(workload: TransferWorkload, inputs: Inputs,
             rec: TransferRecord, tracer: Optional[Tracer],
             workdir: pathlib.Path, truncate: bool) -> None:
    t0 = time.perf_counter()
    sender = _new_sender(workload, inputs)
    t1 = time.perf_counter()
    subscription = UdpSubscription("127.0.0.1:0", timeout=RECV_TIMEOUT_S)
    try:
        transport = UdpTransport([subscription.address], loss=workload.loss,
                                 seed=inputs.loss_seed)
        t2 = time.perf_counter()
        receiver = ReceiverSession(sender.manifest())
        t3 = time.perf_counter()
        rec.total_k = sender.total_k
        rec.sender_init_s, rec.receiver_init_s = t1 - t0, t3 - t2
        rec.setup_s = t3 - t0
        target = _receiver_target(receiver, tracer)
        complete = threading.Event()
        outcome: Dict[str, Any] = {}

        def receive() -> None:
            try:
                _feed(subscription, target, tracer, timeout=RECV_TIMEOUT_S)
                complete.set()
                _verify(rec, target, inputs.data)
            except Exception as exc:  # reported by the sender thread
                outcome["error"] = exc
            finally:
                outcome["end"] = time.perf_counter()
                complete.set()

        thread = threading.Thread(target=receive, name="perfbench-receiver")
        cpu0 = time.process_time()
        start = time.perf_counter()
        thread.start()
        try:
            rec.report = _serve(_sender_target(sender, tracer), transport,
                                stop=complete,
                                count=UDP_EMISSION_CAP * sender.total_k)
        finally:
            thread.join(RECV_TIMEOUT_S + 10.0)
        if thread.is_alive():
            raise RuntimeError("receiver thread did not finish")
        rec.cpu_s = time.process_time() - cpu0
        rec.transfer_s = outcome["end"] - start
        rec.malformed = subscription.malformed
        if "error" in outcome:
            raise outcome["error"]
    finally:
        subscription.close()


def _run_memory(workload: TransferWorkload, inputs: Inputs,
                rec: TransferRecord, tracer: Optional[Tracer],
                workdir: pathlib.Path, truncate: bool) -> None:
    t0 = time.perf_counter()
    sender = _new_sender(workload, inputs)
    t1 = time.perf_counter()
    transport = MemoryTransport(loss=workload.loss, seed=inputs.loss_seed)
    subscriptions = [transport.subscribe()
                     for _ in range(workload.subscribers)]
    t2 = time.perf_counter()
    receivers = [ReceiverSession(sender.manifest())
                 for _ in subscriptions]
    t3 = time.perf_counter()
    rec.total_k = sender.total_k
    rec.sender_init_s, rec.receiver_init_s = t1 - t0, t3 - t2
    rec.setup_s = t3 - t0
    cpu0 = time.process_time()
    start = time.perf_counter()
    rec.report = _serve(_sender_target(sender, tracer), transport)
    for subscription, receiver in zip(subscriptions, receivers):
        target = _receiver_target(receiver, tracer)
        _feed(subscription, target, tracer)
        _verify(rec, target, inputs.data)
    rec.transfer_s = time.perf_counter() - start
    rec.cpu_s = time.process_time() - cpu0


def _run_file(workload: TransferWorkload, inputs: Inputs,
              rec: TransferRecord, tracer: Optional[Tracer],
              workdir: pathlib.Path, truncate: bool) -> None:
    directory = pathlib.Path(tempfile.mkdtemp(dir=workdir))
    try:
        t0 = time.perf_counter()
        sender = _new_sender(workload, inputs)
        t1 = time.perf_counter()
        rec.total_k = sender.total_k
        transport = FileTransport(directory, loss=workload.loss,
                                  seed=inputs.loss_seed)
        cpu0 = time.process_time()
        start = time.perf_counter()
        rec.report = _serve(_sender_target(sender, tracer), transport)
        served = time.perf_counter()
        cpu_served = time.process_time()
        if truncate:
            stream = directory / "stream.pkt"
            os.truncate(stream, stream.stat().st_size - 1)
        t2 = time.perf_counter()
        subscription = transport.subscribe()
        receiver = ReceiverSession.from_subscription(subscription)
        t3 = time.perf_counter()
        cpu_replay = time.process_time()
        rec.sender_init_s, rec.receiver_init_s = t1 - t0, t3 - t2
        rec.setup_s = rec.sender_init_s + rec.receiver_init_s
        target = _receiver_target(receiver, tracer)
        _feed(subscription, target, tracer)
        _verify(rec, target, inputs.data)
        rec.transfer_s = (served - start) + (time.perf_counter() - t3)
        rec.cpu_s = ((cpu_served - cpu0)
                     + (time.process_time() - cpu_replay))
    finally:
        shutil.rmtree(directory, ignore_errors=True)


_RUNNERS: Dict[str, Callable[..., None]] = {
    "udp": _run_udp, "memory": _run_memory, "file": _run_file}


def _raptor_cache() -> Tuple[int, int]:
    stats = collect_cache_stats().get("raptor-geometry-plan", {})
    return int(stats.get("hits", 0)), int(stats.get("misses", 0))


def udp_rcvbuf_errors() -> Optional[int]:
    """The host-wide ``Udp: RcvbufErrors`` counter, if the kernel has it."""
    try:
        with open("/proc/net/snmp") as snmp:
            rows = [line.split() for line in snmp if line.startswith("Udp:")]
    except OSError:
        return None
    if len(rows) < 2 or "RcvbufErrors" not in rows[0]:
        return None
    return int(rows[1][rows[0].index("RcvbufErrors")])


def run_transfer(workload: TransferWorkload, seed: int, index: int,
                 tracer: Optional[Tracer], workdir: pathlib.Path,
                 truncate: bool = False) -> TransferRecord:
    """One transfer; a failure is recorded in the result, never raised."""
    inputs = make_inputs(workload, seed, index)
    rec = TransferRecord(index=index, traced=tracer is not None,
                         object_bytes=len(inputs.data),
                         receivers=workload.subscribers)
    if tracer is not None:
        tracer.transfer = index
    hits0, misses0 = _raptor_cache()
    drops0 = udp_rcvbuf_errors() if tracer is not None else None
    try:
        _RUNNERS[workload.transport](workload, inputs, rec, tracer,
                                     workdir, truncate)
    except Exception as exc:  # the failure is a sample of the run
        rec.error = f"{type(exc).__name__}: {exc}"
        print(f"perfbench: transfer {index} failed: {rec.error}",
              file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    hits1, misses1 = _raptor_cache()
    rec.cache_hits, rec.cache_misses = hits1 - hits0, misses1 - misses0
    if drops0 is not None:
        drops1 = udp_rcvbuf_errors()
        rec.rcvbuf_errors = drops1 - drops0 if drops1 is not None else 0
    return rec


# -- the run -------------------------------------------------------------------


def _object_overheads(records: List[TransferRecord]) -> List[float]:
    return [used / rec.total_k - 1.0
            for rec in records if rec.ok for used in rec.packets_used]


def _end_to_end(records: List[TransferRecord],
                speed: HostSpeed) -> Dict[str, Metric]:
    """The gated figures; timings scaled to the reference host."""
    n = len(records)
    ok = [rec for rec in records if rec.ok]
    blocks = [value for rec in ok for value in rec.block_overheads]
    setup = [speed.seconds(rec.setup_s) for rec in records]
    return end_to_end_metrics({
        "goodput_MBps": Metric(speed.rate(median(
            [rec.goodput for rec in records])), n),
        "cpu_s_per_MB": Metric(speed.seconds(median([
            rec.cpu_s / (rec.object_bytes * rec.verified / MB)
            for rec in ok])), len(ok)),
        "reception_overhead": Metric(interquartile_mean(blocks),
                                     len(blocks)),
        "sent_per_used": Metric(median([
            rec.report.emitted * rec.report.destinations
            / sum(rec.packets_used) for rec in ok]), len(ok)),
        "setup_s": Metric(median(setup), n, tail=tail_percentile(setup)),
        "receivers_per_s": Metric(speed.rate(median([
            rec.verified / rec.transfer_s if rec.ok else 0.0
            for rec in records])), n),
        "completed_frac": Metric(len(ok) / n, n),
        "peak_rss_MB": Metric(peak_rss_mb(), 1),
    })


def _shown(records: List[TransferRecord],
           speed: HostSpeed) -> Dict[str, Metric]:
    """Table-only rows: raw timings, per-receiver object overheads."""
    n = len(records)
    objects = _object_overheads(records)
    transfer_s = [rec.transfer_s for rec in records if rec.ok]
    return {
        "failed_frac": Metric(sum(not rec.ok for rec in records) / n, n,
                              "ratio"),
        "object_overhead_p50": Metric(median(objects), len(objects),
                                      "ratio"),
        "overhead_p99": Metric(float(np.percentile(objects, 99))
                               if objects else 0.0, len(objects), "ratio"),
        "raw.goodput_MBps": Metric(median([rec.goodput for rec in records]),
                                   n, "MB/s"),
        "raw.setup_s": Metric(median([rec.setup_s for rec in records]), n,
                              "s"),
        "raw.transfer_s": Metric(median(transfer_s), len(transfer_s), "s",
                                 tail=tail_percentile(transfer_s)),
        "host.slowdown": Metric(speed.slowdown, len(speed.compute),
                                "ratio"),
    }


def _per_transfer_median(per: Dict[int, Tuple[float, int, int]],
                         records: List[TransferRecord], slot: int
                         ) -> Tuple[float, int]:
    values = [per.get(rec.index, (0.0, 0, 0))[slot] for rec in records]
    return median(values), len(values)


def _layers(workload: TransferWorkload, traced: List[TransferRecord],
            untraced: List[TransferRecord], tracer: Tracer
            ) -> Dict[str, Metric]:
    ok = [rec for rec in traced if rec.ok]
    n = len(traced)

    def med(values: List[float]) -> Tuple[float, int]:
        return median(values), len(values)

    def spans(name: str, slot: int, self_time: bool = False
              ) -> Tuple[float, int]:
        return _per_transfer_median(tracer.per_transfer(name, self_time),
                                    traced, slot)

    encode = tracer.per_transfer("transfer.server.packets")
    many = tracer.per_transfer("transfer.client.receive_many")
    batches = tracer.per_transfer("net.transport.record_batches")
    reports = [rec for rec in traced if rec.report is not None]
    encode_s = sum(row[0] for row in encode.values())
    packets = sum(row[2] for row in encode.values())
    many_calls = sum(row[1] for row in many.values())
    values: Dict[str, Tuple[float, int]] = {
        "api.sender_init_s": med([rec.sender_init_s for rec in traced]),
        "api.receiver_init_s": med([rec.receiver_init_s for rec in traced]),
        "api.receive_records_s": spans("api.receive_records", 0),
        "api.receive_records_calls": spans("api.receive_records", 1),
        "api.parse_self_s": spans("api.receive_records", 0, True),
        "api.data_s": spans("api.data", 0),
        "codes.raptor.cache_hits": med([rec.cache_hits for rec in traced]),
        "codes.raptor.cache_misses": med([rec.cache_misses
                                          for rec in traced]),
        "transfer.server.encode_s": spans("transfer.server.packets", 0),
        "transfer.server.packets": spans("transfer.server.packets", 2),
        "transfer.server.us_per_packet": (
            1e6 * encode_s / packets if packets else 0.0, packets),
        "transfer.client.receive_many_s": spans(
            "transfer.client.receive_many", 0),
        "transfer.client.records_per_call": (
            sum(row[2] for row in many.values()) / many_calls
            if many_calls else 0.0, many_calls),
        "net.transport.serve_self_s": med([
            rec.report.duration - encode.get(rec.index, (0.0,))[0]
            for rec in reports]),
        "net.transport.emitted": med([rec.report.emitted for rec in reports]),
        "net.transport.delivered": med([rec.report.delivered
                                        for rec in reports]),
        "net.transport.dropped_injected": med([rec.report.dropped
                                               for rec in reports]),
        "net.transport.manifest_frames": med([rec.report.manifest_frames
                                              for rec in reports]),
        "net.transport.socket_errors": med([rec.report.socket_errors
                                            for rec in reports]),
    }
    delivered = sum(rec.report.delivered for rec in ok)
    if delivered:
        values["net.transport.used_per_delivered"] = (
            sum(sum(rec.packets_used) for rec in ok) / delivered, len(ok))
    if workload.transport == "udp":
        drains = [size for size
                  in tracer.items_of("net.transport.record_batches") if size]
        values.update({
            "net.transport.udp.recv_wait_s": spans(
                "net.transport.record_batches", 0),
            "net.transport.udp.drains": spans(
                "net.transport.record_batches", 1),
            "net.transport.udp.drain_records_p50": med(drains),
            "net.transport.udp.records_seen": spans(
                "net.transport.record_batches", 2),
            "net.transport.udp.unread": med([
                rec.report.delivered
                - batches.get(rec.index, (0.0, 0, 0))[2]
                for rec in reports]),
            "net.transport.udp.rcvbuf_errors": med([rec.rcvbuf_errors
                                                    for rec in traced]),
            "net.transport.udp.malformed": med([rec.malformed
                                                for rec in traced]),
        })
    plain = median([rec.goodput for rec in untraced])
    if plain:
        values["trace.overhead_frac"] = (
            1.0 - median([rec.goodput for rec in traced]) / plain, n)
    return layer_metrics(values)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 fast: bool, workdir: pathlib.Path,
                 truncate_first: bool = False) -> Outcome:
    """Closed-loop transfers for ``seconds``; the run's metrics.

    ``fast`` shrinks the object 16x (the benchmark's own test);
    ``truncate_first`` cuts one byte off the first transfer's recorded
    stream, a fault the run must count as a failed transfer.
    """
    workload = WORKLOADS[name]
    if fast:
        workload = dataclasses.replace(
            workload, object_bytes=workload.object_bytes // 16)
    tracer = Tracer() if trace else None
    speed = HostSpeed()
    # Untimed warm-up: imports, first-call paths, socket set-up.
    run_transfer(workload, seed, WARMUP_INDEX, None, workdir)
    records: List[TransferRecord] = []
    minimum = 2 if fast else MIN_TRANSFERS
    start = time.perf_counter()
    while (len(records) < minimum
           or time.perf_counter() - start < seconds):
        index = len(records)
        traced = tracer is not None and index % 2 == 1
        # Start every transfer from a collected heap, outside its timing.
        gc.collect()
        speed.probe()
        records.append(run_transfer(
            workload, seed, index, tracer if traced else None, workdir,
            truncate=truncate_first and index == 0))
    failed = sum(not rec.ok for rec in records)
    outcome = Outcome(
        workload=name, gated={},
        correct=not any(rec.wrong_bytes for rec in records),
        attempted=len(records), failed=failed,
        notes=[f"{workload.code} over {workload.transport}, "
               f"{workload.object_bytes} B object, {workload.packet_size} "
               f"B packets, {workload.block_size} B blocks, "
               f"{workload.loss:.0%} injected loss, "
               f"{workload.subscribers} receiver(s); closed loop"])
    if workload.transport == "udp":
        outcome.notes.append("UDP crossed the loopback interface "
                             "(127.0.0.1), not a network link")
        if tracer is not None:
            outcome.notes.append("net.transport.udp.rcvbuf_errors is the "
                                 "host-wide /proc/net/snmp delta")
    if tracer is not None:
        traced = [rec for rec in records if rec.traced]
        untraced = [rec for rec in records if not rec.traced]
        outcome.gated = _layers(workload, traced, untraced, tracer)
    else:
        outcome.gated = _end_to_end(records, speed)
        outcome.shown = _shown(records, speed)
    outcome.tracer = tracer
    return outcome

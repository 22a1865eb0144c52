"""Summary statistics and the benchmark's printed result."""

from __future__ import annotations

import json
import math
import resource
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["E2E_UNITS", "LAYER_UNITS", "MB", "Metric", "Outcome",
           "end_to_end_metrics", "interquartile_mean", "layer_metrics",
           "median", "peak_rss_mb", "print_result", "tail_percentile"]

#: bytes per MB in every rate the benchmark prints (decimal, as in MB/s).
MB = 1e6

#: samples a tail percentile must leave beyond it.
TAIL_SAMPLES = 10

#: the end-to-end metrics of an untraced run, with their units.
E2E_UNITS = {
    "goodput_MBps": "MB/s",
    "cpu_s_per_MB": "s/MB",
    "reception_overhead": "ratio",
    "sent_per_used": "ratio",
    "setup_s": "s",
    "receivers_per_s": "rec/s",
    "completed_frac": "ratio",
    "peak_rss_MB": "MB",
}

#: the per-layer metrics of a traced run, with their units.  A layer a
#: workload does not run reports 0.
LAYER_UNITS = {
    "api.sender_init_s": "s",
    "api.receiver_init_s": "s",
    "api.receive_records_s": "s",
    "api.receive_records_calls": "count",
    "api.parse_self_s": "s",
    "api.data_s": "s",
    "codes.raptor.cache_hits": "count",
    "codes.raptor.cache_misses": "count",
    "transfer.server.encode_s": "s",
    "transfer.server.packets": "count",
    "transfer.server.us_per_packet": "us",
    "transfer.client.receive_many_s": "s",
    "transfer.client.records_per_call": "records",
    "net.transport.serve_self_s": "s",
    "net.transport.emitted": "count",
    "net.transport.delivered": "count",
    "net.transport.dropped_injected": "count",
    "net.transport.manifest_frames": "count",
    "net.transport.socket_errors": "count",
    "net.transport.used_per_delivered": "ratio",
    "net.transport.udp.recv_wait_s": "s",
    "net.transport.udp.drains": "count",
    "net.transport.udp.drain_records_p50": "records",
    "net.transport.udp.records_seen": "count",
    "net.transport.udp.unread": "count",
    "net.transport.udp.rcvbuf_errors": "count",
    "net.transport.udp.malformed": "count",
    "sim.swarm.advance_receivers_per_s": "rec/s",
    "sim.swarm.setup_share": "ratio",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Metric:
    """One printed figure: value, unit, sample count, optional tail."""

    value: float
    samples: int = 1
    unit: str = ""
    #: (percentile, value) of the highest percentile with >= 10
    #: samples beyond it; None when the run has too few samples.
    tail: Optional[Tuple[int, float]] = None

    def line(self, name: str) -> str:
        text = (f"  {name:<38} {self.value:14.6g} {self.unit:<8} "
                f"n={self.samples}")
        if self.tail is not None:
            pct, value = self.tail
            text += f"  p{pct}={value:.6g}"
        return text


@dataclass
class Outcome:
    """What one workload run measured."""

    workload: str
    #: the figures of the JSON result line (end-to-end or per-layer).
    gated: Dict[str, Metric]
    #: extra rows for the human-readable table only.
    shown: Dict[str, Metric] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    #: the run's spans (traced runs), written out when the run ends.
    tracer: Any = None


def end_to_end_metrics(values: Dict[str, Metric]) -> Dict[str, Metric]:
    """The end-to-end metrics in declared order, units stamped; a
    workload must supply exactly the declared set."""
    if set(values) != set(E2E_UNITS):
        raise KeyError(f"end-to-end metrics {sorted(values)} differ from "
                       f"the declared {sorted(E2E_UNITS)}")
    for name, metric in values.items():
        metric.unit = E2E_UNITS[name]
    return {name: values[name] for name in E2E_UNITS}


def layer_metrics(values: Dict[str, Tuple[float, int]]
                  ) -> Dict[str, Metric]:
    """Every per-layer metric from ``name -> (value, samples)``; the
    layers a workload does not exercise read 0 with 0 samples."""
    unknown = set(values) - set(LAYER_UNITS)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: Metric(*values.get(name, (0.0, 0)), unit=unit)
            for name, unit in LAYER_UNITS.items()}


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of the values (0.0 when there are none).

    Steadier than a median on values that sit on a coarse grid, such as
    per-block overheads in steps of 1/k, and unmoved by the few blocks
    that need far more packets than the rest.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return float(statistics.fmean(middle)) if middle else 0.0


def tail_percentile(values: Sequence[float]
                    ) -> Optional[Tuple[int, float]]:
    """(p, value) for the highest whole percentile with >= 10 samples
    beyond it, or None when there are too few samples for one."""
    n = len(values)
    pct = math.floor(100.0 * (1.0 - TAIL_SAMPLES / n)) if n else 0
    if pct <= 0:
        return None
    ordered = sorted(values)
    # Nearest rank: the value at or below which pct% of samples fall.
    rank = max(1, math.ceil(pct / 100.0 * n))
    return pct, float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def print_result(outcome: Outcome, trace: bool) -> None:
    """Human-readable table, then the one-line JSON result (last line)."""
    kind = "per-layer (traced run)" if trace else "end-to-end"
    print(f"perfbench {outcome.workload}: {kind} metrics")
    for note in outcome.notes:
        print(f"  note: {note}")
    for name, metric in {**outcome.gated, **outcome.shown}.items():
        print(metric.line(name))
    result: Dict[str, Any] = {
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": metric.value, "unit": metric.unit}
                    for name, metric in outcome.gated.items()},
    }
    print(json.dumps(result), flush=True)

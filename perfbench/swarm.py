"""The swarm workload: the committed flash crowd through ``SwarmSimulator``.

Each round runs the scenario scaled to 500 receivers (almost all of
its wall time is threshold-table building, so it measures set-up) and
then the full 100k-receiver population.  The scenario seed is replaced
by the workload seed.  Outside the timed region the run checks that
every full run produced identical per-receiver results and replays a
few sampled receivers through the exact transfer client
(``replay_receivers``), which must agree with the vectorised model.
"""

from __future__ import annotations

import dataclasses
import pathlib
import time
from typing import List, Optional, Tuple

import numpy as np

from perfbench.report import (
    MB,
    Metric,
    Outcome,
    end_to_end_metrics,
    layer_metrics,
    median,
    peak_rss_mb,
)
from perfbench.hostspeed import HostSpeed
from perfbench.tracer import Tracer
from repro.sim.swarm import (
    Scenario,
    SpotCheckResult,
    SwarmResult,
    SwarmSimulator,
    replay_receivers,
)

__all__ = ["run_workload"]

#: population of the set-up run.
SMALL_RECEIVERS = 500

#: receivers replayed exactly after the timed runs.
SPOT_CHECK = 12


def _timed_run(scenario: Scenario, tracer: Optional[Tracer], tag: int,
               speed: HostSpeed) -> Tuple[SwarmResult, float, float]:
    """(result, wall seconds, process CPU seconds) of one simulation."""
    speed.probe()
    simulator = SwarmSimulator(scenario)
    run = simulator.run
    if tracer is not None:
        tracer.transfer = tag
        run = tracer.wrap_call("sim.swarm.run", run,
                               items=lambda args: scenario.total_receivers)
    cpu0 = time.process_time()
    start = time.perf_counter()
    result = run()
    return (result, time.perf_counter() - start,
            time.process_time() - cpu0)


def _same(a: SwarmResult, b: SwarmResult) -> bool:
    return (np.array_equal(a.overhead, b.overhead, equal_nan=True)
            and np.array_equal(a.completed, b.completed))


def run_workload(seed: int, seconds: float, trace: bool, fast: bool,
                 scenario: pathlib.Path) -> Outcome:
    """Alternate set-up and full runs for ``seconds``; the run's metrics.

    ``fast`` shrinks the scenario to a 1 MiB object and 2000 receivers
    (the benchmark's own test).
    """
    full = dataclasses.replace(Scenario.load(scenario), seed=seed)
    small_receivers = SMALL_RECEIVERS
    if fast:
        full = dataclasses.replace(full.scaled(2000), file_size=1 << 20)
        small_receivers = 100
    small = full.scaled(small_receivers)
    tracer = Tracer() if trace else None
    speed = HostSpeed()
    setups: List[float] = []
    runs: List[Tuple[SwarmResult, float, float]] = []
    # A traced run needs an untraced and a traced full run to compare.
    min_runs = 2 if trace else 1
    start = time.perf_counter()

    def finished() -> bool:
        return (len(setups) >= 2 and len(runs) >= min_runs
                and time.perf_counter() - start >= seconds)

    while True:
        setups.append(_timed_run(small, tracer, -len(setups) - 1,
                                 speed)[1])
        if finished():
            break
        traced = tracer is not None and len(runs) % 2 == 1
        runs.append(_timed_run(full, tracer if traced else None,
                               len(runs), speed))
        if finished():
            break

    result = runs[0][0]
    n = full.total_receivers
    ids = np.random.default_rng([seed, 0x5907]).choice(
        n, size=min(SPOT_CHECK, n), replace=False)
    replay_oh, replay_done = replay_receivers(full, ids)
    spot = SpotCheckResult(receiver_ids=ids,
                           structural_overhead=result.overhead[ids],
                           replay_overhead=replay_oh,
                           replay_completed=replay_done)
    deterministic = all(_same(result, other) for other, _, _ in runs[1:])
    completed = int(result.completed.sum())
    summary = result.summary()
    outcome = Outcome(
        workload="swarm-flash", gated={},
        correct=deterministic and spot.agrees(),
        attempted=n, failed=n - completed,
        notes=[f"{full.name}: {n} receivers, {full.code}, "
               f"{full.file_size} B object; set-up run at "
               f"{small.total_receivers} receivers",
               f"spot check: {spot.to_dict()}",
               f"full runs identical: {deterministic}"])
    walls = [wall for _, wall, _ in runs]
    small_wall = median(setups)
    full_wall = median(walls)
    if tracer is not None:
        values = {
            "sim.swarm.advance_receivers_per_s": (
                (n - small.total_receivers) / (full_wall - small_wall)
                if full_wall > small_wall else 0.0, len(walls)),
            "sim.swarm.setup_share": (small_wall / full_wall, len(walls)),
        }
        traced = [wall for i, (_, wall, _) in enumerate(runs) if i % 2]
        plain = [wall for i, (_, wall, _) in enumerate(runs) if not i % 2]
        if traced:
            # Goodput is inverse wall time on identical runs.
            values["trace.overhead_frac"] = (
                1.0 - median(plain) / median(traced), len(runs))
        outcome.gated = layer_metrics(values)
        outcome.tracer = tracer
        return outcome
    delivered_mb = completed * full.file_size / MB
    done = result.completed
    cpu = sum(cpu for _, _, cpu in runs) / len(runs)
    outcome.gated = end_to_end_metrics({
        "goodput_MBps": Metric(speed.rate(delivered_mb / full_wall),
                               len(walls)),
        "cpu_s_per_MB": Metric(speed.seconds(cpu / delivered_mb),
                               len(runs)),
        "reception_overhead": Metric(summary["overhead_p50"], completed),
        "sent_per_used": Metric(float(result.completion_slot[done].max())
                                * n / float(result.received[done].sum()),
                                completed),
        "setup_s": Metric(speed.seconds(small_wall), len(setups)),
        "receivers_per_s": Metric(speed.rate(n / full_wall), len(walls)),
        "completed_frac": Metric(result.completion_rate, n),
        "peak_rss_MB": Metric(peak_rss_mb(), 1),
    })
    outcome.shown = {
        "failed_frac": Metric(1.0 - result.completion_rate, n, "ratio"),
        "overhead_p99": Metric(summary["overhead_p99"], completed, "ratio"),
        "raw.full_run_s": Metric(full_wall, len(walls), "s"),
        "raw.setup_s": Metric(small_wall, len(setups), "s"),
        "host.slowdown": Metric(speed.slowdown, len(speed.compute),
                                "ratio"),
    }
    return outcome

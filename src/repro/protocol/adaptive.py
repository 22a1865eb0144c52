"""The adaptive sender: aggregate feedback, retune the live stream.

:class:`AdaptivePolicy` closes the loop the paper deliberately left
open.  Receivers whisper :class:`~repro.protocol.feedback.
FeedbackReport` frames back up the transport; the policy aggregates
them — a robust quantile over the population so one pathological
receiver cannot hijack the stream, with staleness decay so a silent
receiver's last word fades — and drives three levers:

* **rate** — the token-bucket pacing rate scales like ``1/(1 - loss)``,
  normalised at :attr:`nominal_loss` so a clean population steps the
  rate *down* from the provisioned budget and a fading one steps it up
  (applied live via :meth:`~repro.net.transport.pacing.TokenBucket.
  set_rate`).
* **block schedule** — per-block deficits from the lagging lists are
  blended into deficit-round-robin weights
  (:func:`~repro.transfer.schedule.weighted_slots`) and swapped into
  the live :class:`~repro.transfer.server.TransferServer` via
  :meth:`~repro.transfer.server.TransferServer.reweight`; the
  encode-once payload cache and every ``fork()`` are untouched because
  only the schedule cursor changes.
* **code spec** — :meth:`recommend_spec` retunes rateless parameters
  (LT ``c``/``delta``, Raptor ``eps``) for the observed loss regime via
  the code registry.  Degree distributions are shared sender/receiver
  state derived from the spec, so this lever applies at stream-open or
  ``fork()`` boundaries only — retuning a live stream would desynchronise
  every receiver's droplet neighbourhoods.

All three levers are pure functions of the aggregated report state, so
the same policy object drives a real transport loop (memory, UDP) and
the :class:`~repro.sim.swarm.SwarmSimulator` closed-loop mode, where
per-sweep vectorized deficit aggregates stand in for individual report
frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.codes.registry import REGISTRY, CodeSpec
from repro.errors import ParameterError
from repro.protocol.feedback import FeedbackReport

__all__ = ["AdaptivePolicy", "PolicyDecision"]


@dataclass(frozen=True)
class PolicyDecision:
    """One policy step's output, ready to apply to a live stream."""

    #: robust loss quantile over the fresh reports (0.0 when none).
    loss: float
    #: multiplier on the provisioned pacing rate.
    rate_scale: float
    #: deficit-round-robin weights, one per block (empty = no change).
    weights: Tuple[float, ...]
    #: receivers the fresh reports speak for (count hints summed).
    active: int
    #: receivers already complete among the known population.
    complete: int

    @property
    def all_complete(self) -> bool:
        """Every known receiver reports a finished decode."""
        return self.active == 0 and self.complete > 0


class AdaptivePolicy:
    """Aggregates receiver feedback into rate/schedule/spec decisions.

    Parameters
    ----------
    quantile:
        Which receiver the sender provisions for: 0.5 tracks the median,
        0.9 (default) the worst decile — the p99-taming setting, since
        the stragglers *are* the tail.
    nominal_loss:
        The loss rate the open-loop sender was provisioned against; the
        rate scale is 1.0 exactly there, below 1 on cleaner populations.
    stale_after:
        Seconds (or sweeps, in simulation) after which a receiver's last
        report stops counting.
    schedule_gain:
        Blend between proportional striping (0.0) and pure
        deficit-chasing (1.0) for the block weights.
    rate_alpha:
        EWMA smoothing on the rate scale, so one noisy aggregate cannot
        slam the token bucket around.
    min_scale / max_scale:
        Clamp on the rate scale (a fountain must never stall, and a
        runaway boost would melt the socket buffers).
    """

    def __init__(self, *, quantile: float = 0.9,
                 nominal_loss: float = 0.1,
                 stale_after: float = 30.0,
                 schedule_gain: float = 0.5,
                 rate_alpha: float = 0.5,
                 min_scale: float = 0.25,
                 max_scale: float = 4.0):
        if not 0.0 <= quantile <= 1.0:
            raise ParameterError(f"quantile must be in [0, 1], got {quantile}")
        if not 0.0 <= nominal_loss < 1.0:
            raise ParameterError(
                f"nominal_loss must be in [0, 1), got {nominal_loss}")
        if not 0.0 <= schedule_gain <= 1.0:
            raise ParameterError(
                f"schedule_gain must be in [0, 1], got {schedule_gain}")
        if not 0.0 < rate_alpha <= 1.0:
            raise ParameterError(
                f"rate_alpha must be in (0, 1], got {rate_alpha}")
        if not 0.0 < min_scale <= 1.0 <= max_scale:
            raise ParameterError(
                "rate clamp must satisfy 0 < min_scale <= 1 <= max_scale")
        self.quantile = float(quantile)
        self.nominal_loss = float(nominal_loss)
        self.stale_after = float(stale_after)
        self.schedule_gain = float(schedule_gain)
        self.rate_alpha = float(rate_alpha)
        self.min_scale = float(min_scale)
        self.max_scale = float(max_scale)
        #: receiver_id -> (report, timestamp of arrival).
        self._reports: Dict[int, Tuple[FeedbackReport, float]] = {}
        self._rate_scale = 1.0
        self.reports_seen = 0

    # -- ingest ----------------------------------------------------------------

    def observe(self, report: FeedbackReport, now: float = 0.0) -> None:
        """Fold one receiver's report in (latest per receiver wins)."""
        self._reports[report.receiver_id] = (report, float(now))
        self.reports_seen += 1

    def _fresh(self, now: float) -> List[FeedbackReport]:
        cutoff = float(now) - self.stale_after
        return [report for report, seen in self._reports.values()
                if seen >= cutoff]

    # -- aggregates ------------------------------------------------------------

    def loss_estimate(self, now: float = 0.0) -> float:
        """Robust loss quantile over fresh, still-decoding receivers.

        Weighted by each report's ``receivers`` count hint, so a proxy
        speaking for a thousand receivers outweighs a lone straggler
        proportionally.
        """
        points = [(r.loss, r.receivers) for r in self._fresh(now)
                  if not r.complete]
        if not points:
            return 0.0
        points.sort()
        total = sum(weight for _, weight in points)
        target = self.quantile * total
        seen = 0.0
        for loss, weight in points:
            seen += weight
            if seen >= target:
                return loss
        return points[-1][0]

    def block_deficits(self, num_blocks: int,
                       now: float = 0.0) -> List[float]:
        """Aggregate per-block packet deficits from the lagging lists."""
        deficits = [0.0] * num_blocks
        for report in self._fresh(now):
            if report.complete:
                continue
            for block, deficit in report.lagging:
                if block < num_blocks:
                    deficits[block] += deficit * report.receivers
        return deficits

    def _population(self, now: float) -> Tuple[int, int]:
        """Receivers the fresh reports speak for: (decoding, complete)."""
        fresh = self._fresh(now)
        return (sum(r.receivers for r in fresh if not r.complete),
                sum(r.receivers for r in fresh if r.complete))

    def all_complete(self, now: float = 0.0) -> bool:
        """Every known receiver reports a finished decode.

        The same test as :attr:`PolicyDecision.all_complete`, but
        without a policy step: the rate smoothing does not advance.
        """
        active, complete = self._population(now)
        return active == 0 and complete > 0

    # -- levers ----------------------------------------------------------------

    def rate_scale(self, now: float = 0.0) -> float:
        """The (smoothed) multiplier on the provisioned pacing rate."""
        loss = min(self.loss_estimate(now), 0.95)
        raw = (1.0 - self.nominal_loss) / (1.0 - loss)
        raw = min(self.max_scale, max(self.min_scale, raw))
        self._rate_scale += self.rate_alpha * (raw - self._rate_scale)
        return self._rate_scale

    def block_shares(self, deficits: Sequence[float],
                     block_ks: Sequence[int]) -> List[float]:
        """Per-block emission shares: proportional base + deficit chase.

        A pure function (no report state), shared with the swarm
        simulator's vectorized closed loop: with gain ``g`` block ``b``
        gets ``(1-g) * k_b/sum(k) + g * d_b/sum(d)`` of the stream;
        zero total deficit degrades to plain proportional striping.
        """
        total_k = float(sum(block_ks))
        base = [k / total_k for k in block_ks]
        total_d = float(sum(deficits))
        if total_d <= 0.0 or self.schedule_gain == 0.0:
            return base
        g = self.schedule_gain
        return [(1.0 - g) * base[b] + g * deficits[b] / total_d
                for b in range(len(block_ks))]

    def schedule_weights(self, block_ks: Sequence[int],
                         now: float = 0.0) -> List[float]:
        """Deficit-round-robin weights for the live transfer server.

        The weighted schedule gives block ``b`` a ``k_b * w_b`` share,
        so the weight realising a target share is ``share / base_share``
        (floored so no block is ever starved).
        """
        deficits = self.block_deficits(len(block_ks), now)
        shares = self.block_shares(deficits, block_ks)
        total_k = float(sum(block_ks))
        return [max(0.05, shares[b] * total_k / block_ks[b])
                for b in range(len(block_ks))]

    def recommend_spec(self, spec: Union[str, CodeSpec],
                       now: float = 0.0) -> str:
        """Retune a rateless spec for the observed loss regime.

        Applies at stream-open / ``fork()`` boundaries only: the degree
        distribution is shared sender/receiver state derived from the
        spec, so a live stream must keep the spec it opened with.
        Following the loss-rate-based fountain idea, higher loss favours
        a heavier robust-soliton spike (larger ``c``, smaller ``delta``)
        for LT and more precode headroom (larger ``eps``) for Raptor;
        fixed-rate families pass through untouched.
        """
        parsed = REGISTRY.spec(spec)
        if not REGISTRY.is_rateless(parsed):
            return parsed.to_string()
        loss = min(self.loss_estimate(now), 0.95)
        boost = loss / max(1e-9, 1.0 - loss)
        params = dict(parsed.params)
        if parsed.family == "lt":
            c = float(params.get("c", 0.03))
            delta = float(params.get("delta", 0.5))
            params["c"] = round(min(0.5, c * (1.0 + boost)), 6)
            params["delta"] = round(max(0.01, delta * (1.0 - loss)), 6)
        elif parsed.family == "raptor":
            eps = float(params.get("eps", 0.1))
            params["eps"] = round(min(0.5, eps * (1.0 + boost)), 6)
        retuned = CodeSpec.make(parsed.family, **params)
        return REGISTRY.spec(retuned).to_string()

    # -- one combined step -----------------------------------------------------

    def decide(self, block_ks: Sequence[int],
               now: float = 0.0) -> PolicyDecision:
        """One policy step: every lever's value from the current state."""
        active, complete = self._population(now)
        deficits = self.block_deficits(len(block_ks), now)
        weights = (tuple(self.schedule_weights(block_ks, now))
                   if any(d > 0 for d in deficits) else ())
        return PolicyDecision(
            loss=self.loss_estimate(now),
            rate_scale=self.rate_scale(now),
            weights=weights,
            active=active,
            complete=complete,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"AdaptivePolicy(q={self.quantile}, "
                f"reports={len(self._reports)}, "
                f"loss={self.loss_estimate():.3f})")

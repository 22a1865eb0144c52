"""The adaptive control plane: feedback frames, policy, closed loops.

Covers the receiver→sender feedback wire format (property-tested round
trips), serial-gap loss estimation, the :class:`AdaptivePolicy` levers
(rate steps down on clean channels and up under fades), the live
schedule machinery (``weighted_slots`` / ``TransferServer.reweight`` /
``TokenBucket.set_rate``), the swarm simulator's vectorized closed
loop, and the UDP acceptance run where an adaptive sender finishes a
bursty transfer with fewer emissions than its open-loop provisioning.
"""

import dataclasses
import json
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.codes.backend import is_vectorized
from repro.errors import ParameterError, ProtocolError
from repro.net.loss import BernoulliLoss, GilbertElliottLoss
from repro.net.transport import (
    MemoryTransport,
    TokenBucket,
    UdpSubscription,
    UdpTransport,
)
from repro.protocol import (
    AdaptivePolicy,
    FeedbackReport,
    LossEstimator,
    report_from_client,
)
from repro.protocol.feedback import MAX_LAGGING_BLOCKS
from repro.transfer import BlockPlan, ObjectCodec, TransferClient, TransferServer
from repro.transfer.schedule import weighted_slots


def _random_bytes(n, seed):
    return bytes(np.random.default_rng(seed).integers(0, 256, n,
                                                      dtype=np.uint8))


def _udp_available():
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False


needs_udp = pytest.mark.skipif(
    not _udp_available(), reason="UDP loopback sockets unavailable")


# -- the wire frame ------------------------------------------------------------


reports = st.builds(
    FeedbackReport,
    receiver_id=st.integers(0, 0xFFFFFFFF),
    loss=st.floats(0.0, 1.0),
    progress=st.floats(0.0, 1.0),
    packets_used=st.integers(0, 0xFFFFFFFF),
    blocks_total=st.integers(1, 0xFFFF),
    complete=st.booleans(),
    receivers=st.integers(1, 0xFFFF),
    lagging=st.lists(
        st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)),
        max_size=MAX_LAGGING_BLOCKS).map(tuple),
)


class TestFeedbackFrame:
    @settings(max_examples=200, deadline=None)
    @given(report=reports)
    def test_round_trip(self, report):
        back = FeedbackReport.decode(report.encode())
        assert back.receiver_id == report.receiver_id
        assert back.packets_used == report.packets_used
        assert back.blocks_total == report.blocks_total
        assert back.complete == report.complete
        assert back.receivers == report.receivers
        assert back.lagging == report.lagging
        # fractions are quantised onto u16 — exact to half a step.
        assert abs(back.loss - report.loss) <= 0.5 / 0xFFFF
        assert abs(back.progress - report.progress) <= 0.5 / 0xFFFF

    @settings(max_examples=100, deadline=None)
    @given(report=reports, cut=st.integers(1, 12))
    def test_truncation_always_rejected(self, report, cut):
        body = report.encode()
        with pytest.raises(ProtocolError):
            FeedbackReport.decode(body[:-min(cut, len(body))])

    def test_too_many_lagging_blocks_rejected(self):
        pairs = tuple((b, 1) for b in range(MAX_LAGGING_BLOCKS + 1))
        with pytest.raises(ProtocolError, match="lagging"):
            FeedbackReport(receiver_id=1, lagging=pairs)

    def test_wrong_version_rejected(self):
        body = FeedbackReport(receiver_id=1).encode()
        with pytest.raises(ProtocolError, match="version"):
            FeedbackReport.decode(b"\x02" + body[1:])

    def test_trailing_garbage_rejected(self):
        body = FeedbackReport(receiver_id=1).encode()
        with pytest.raises(ProtocolError, match="trailing"):
            FeedbackReport.decode(body + b"\x00\x01")

    def test_report_from_client_names_worst_blocks_first(self):
        class FakeClient:
            progress = 0.5
            is_complete = False
            num_blocks = 4
            incomplete_blocks = [0, 2, 3]

            def block_min_additional(self, block):
                return {0: 3, 2: 9, 3: 1}[block]

            def flush(self):
                pass

        report = report_from_client(FakeClient(), receiver_id=7, loss=0.2)
        assert report.lagging == ((2, 9), (0, 3), (3, 1))
        assert report.blocks_total == 4
        assert not report.complete


# -- serial-gap loss estimation ------------------------------------------------


class TestLossEstimator:
    def _stream(self, loss, n=20_000, seed=3):
        rng = np.random.default_rng(seed)
        serials = np.arange(n)[rng.random(n) >= loss]
        return serials

    @pytest.mark.parametrize("loss", [0.05, 0.2, 0.4])
    def test_estimate_tracks_true_rate(self, loss):
        serials = self._stream(loss)
        est = LossEstimator()
        est.observe(serials.tolist())
        assert abs(est.loss - loss) < 0.05

    def test_chunking_does_not_bias(self):
        """Ratio-of-sums: tiny per-call batches and one big batch of
        the same stream must agree (per-batch ratio averaging fails
        this badly)."""
        serials = self._stream(0.2)
        # negligible forgetting, so the only difference is batching
        small, big = LossEstimator(alpha=1e-7), LossEstimator(alpha=1e-7)
        big.observe(serials.tolist())
        for start in range(0, len(serials), 7):
            small.observe(serials[start:start + 7].tolist())
        assert abs(small.loss - big.loss) < 0.01

    def test_forgetting_is_batch_invariant(self):
        """Every serial slot decays by its distance from the newest
        serial, so one call, 7-record calls and single-serial calls of
        the same in-order stream agree, forgetting included."""
        serials = self._stream(0.3, n=2000)
        whole, sevens, singles = (LossEstimator(), LossEstimator(),
                                  LossEstimator())
        whole.observe(serials.tolist())
        for start in range(0, len(serials), 7):
            sevens.observe(serials[start:start + 7].tolist())
        for serial in serials.tolist():
            singles.observe([serial])
        assert 0.2 < whole.loss < 0.45
        assert sevens.loss == pytest.approx(whole.loss, abs=1e-9)
        assert singles.loss == pytest.approx(whole.loss, abs=1e-9)

    def test_reordered_stragglers_ignored(self):
        est = LossEstimator()
        est.observe([0, 1, 2, 3, 9])
        before = est.loss
        est.observe([4, 5])  # arrived late, span already counted
        assert est.loss == before

    def test_empty_batch_is_a_noop(self):
        est = LossEstimator()
        assert est.observe([]) == 0.0

    def test_alpha_validated(self):
        with pytest.raises(ProtocolError):
            LossEstimator(alpha=1.5)


# -- the policy ----------------------------------------------------------------


class TestAdaptivePolicy:
    def _feed(self, policy, losses, now=0.0, complete=False):
        for i, loss in enumerate(losses):
            policy.observe(FeedbackReport(receiver_id=i, loss=loss,
                                          complete=complete), now=now)

    def test_rate_steps_down_on_clean_channels(self):
        """Convergence: a clean population walks the scale down to the
        clamp (the sender stops over-provisioning)."""
        policy = AdaptivePolicy(nominal_loss=0.2, rate_alpha=0.5)
        self._feed(policy, [0.0, 0.01, 0.0])
        scales = [policy.rate_scale() for _ in range(12)]
        assert scales[0] < 1.0
        assert scales[-1] == pytest.approx(0.8, abs=0.02)
        assert all(b <= a + 1e-9 for a, b in zip(scales, scales[1:]))

    def test_rate_steps_up_under_fades(self):
        policy = AdaptivePolicy(nominal_loss=0.1, rate_alpha=0.5)
        self._feed(policy, [0.4, 0.45, 0.5], now=0.0)
        scales = [policy.rate_scale(now=0.0) for _ in range(12)]
        assert scales[-1] > scales[0] > 1.0
        # converges to (1 - nominal) / (1 - quantile loss)
        assert scales[-1] == pytest.approx(0.9 / 0.5, rel=0.05)

    def test_rate_scale_clamped(self):
        policy = AdaptivePolicy(nominal_loss=0.0, max_scale=2.0)
        self._feed(policy, [0.95])
        for _ in range(20):
            scale = policy.rate_scale()
        assert scale <= 2.0

    def test_stale_reports_fade_out(self):
        policy = AdaptivePolicy(stale_after=10.0)
        self._feed(policy, [0.5], now=0.0)
        assert policy.loss_estimate(now=5.0) == pytest.approx(0.5)
        assert policy.loss_estimate(now=20.0) == 0.0

    def test_quantile_provisions_for_stragglers(self):
        policy = AdaptivePolicy(quantile=0.95)
        self._feed(policy, [0.05] * 9 + [0.5])
        assert policy.loss_estimate() == pytest.approx(0.5)
        median = AdaptivePolicy(quantile=0.5)
        self._feed(median, [0.05] * 9 + [0.5])
        assert median.loss_estimate() == pytest.approx(0.05)

    def test_receiver_count_hints_weight_the_quantile(self):
        policy = AdaptivePolicy(quantile=0.5)
        policy.observe(FeedbackReport(receiver_id=0, loss=0.01,
                                      receivers=1000))
        policy.observe(FeedbackReport(receiver_id=1, loss=0.5))
        assert policy.loss_estimate() == pytest.approx(0.01)

    def test_complete_receivers_leave_the_aggregate(self):
        policy = AdaptivePolicy()
        self._feed(policy, [0.4], complete=True)
        assert policy.loss_estimate() == 0.0
        decision = policy.decide([4, 4])
        assert decision.all_complete

    def test_completeness_check_takes_no_policy_step(self):
        """``all_complete`` answers what ``decide`` would, but leaves
        the rate smoothing where the last policy step put it."""
        policy = AdaptivePolicy(nominal_loss=0.1, rate_alpha=0.5)
        self._feed(policy, [0.5])
        assert not policy.all_complete()
        assert not policy.decide([4]).all_complete
        scale = policy._rate_scale
        policy.observe(FeedbackReport(receiver_id=0, loss=0.5,
                                      complete=True))
        assert policy.all_complete()
        assert policy._rate_scale == scale
        assert policy.decide([4]).all_complete

    def test_block_shares_blend(self):
        policy = AdaptivePolicy(schedule_gain=0.5)
        base = policy.block_shares([0.0, 0.0], [4, 4])
        assert base == [0.5, 0.5]
        chased = policy.block_shares([0.0, 10.0], [4, 4])
        assert chased == pytest.approx([0.25, 0.75])
        assert sum(chased) == pytest.approx(1.0)

    def test_schedule_weights_floor(self):
        policy = AdaptivePolicy(schedule_gain=1.0)
        policy.observe(FeedbackReport(receiver_id=0, loss=0.1,
                                      blocks_total=2, lagging=((1, 50),)))
        weights = policy.schedule_weights([4, 4])
        assert weights[0] == 0.05  # starved block keeps a floor share
        assert weights[1] > 1.0

    def test_recommend_spec_retunes_rateless_only(self):
        policy = AdaptivePolicy()
        self._feed(policy, [0.3, 0.3, 0.3])
        lt = policy.recommend_spec("lt:c=0.03,delta=0.5")
        params = dict(p.split("=") for p in lt.split(":")[1].split(","))
        assert float(params["c"]) > 0.03
        assert float(params["delta"]) < 0.5
        raptor = policy.recommend_spec("raptor:eps=0.1")
        assert float(raptor.split("eps=")[1]) > 0.1
        assert policy.recommend_spec("tornado-a") == "tornado-a"

    def test_parameters_validated(self):
        with pytest.raises(ParameterError):
            AdaptivePolicy(quantile=1.5)
        with pytest.raises(ParameterError):
            AdaptivePolicy(min_scale=0.0)
        with pytest.raises(ParameterError):
            AdaptivePolicy(schedule_gain=2.0)


# -- live schedule machinery ---------------------------------------------------


class TestWeightedSchedule:
    def test_all_ones_is_the_proportional_stripe(self):
        ks = [3, 5, 2]
        slots = weighted_slots(ks, [1.0, 1.0, 1.0])
        window = [next(slots) for _ in range(1000)]
        counts = np.bincount(window, minlength=3)
        for b, k in enumerate(ks):
            assert counts[b] == pytest.approx(1000 * k / sum(ks), abs=2)

    def test_weights_shift_the_mix(self):
        slots = weighted_slots([4, 4], [1.0, 3.0])
        window = [next(slots) for _ in range(800)]
        counts = np.bincount(window, minlength=2)
        assert counts[1] == pytest.approx(600, abs=4)

    def test_validation(self):
        with pytest.raises(ParameterError):
            weighted_slots([4, 4], [1.0])
        with pytest.raises(ParameterError):
            weighted_slots([4, 4], [1.0, 0.0])

    def test_server_reweight_mid_stream_stays_decodable(self):
        data = _random_bytes(40_000, seed=5)
        plan = BlockPlan(len(data), 512, 16)
        codec = ObjectCodec(plan, code="lt", seed=9)
        server = TransferServer(codec, data)
        client = TransferClient(codec)
        stream = server.packets()
        for _ in range(plan.total_packets // 2):
            client.receive(next(stream))
        server.reweight([2.0 if b % 2 else 0.5
                         for b in range(plan.num_blocks)])
        window = []
        while not client.is_complete:
            packet = next(stream)
            window.append(packet.block)
            client.receive(packet)
        assert client.object_data() == data
        counts = np.bincount(window, minlength=plan.num_blocks)
        assert counts[1] > counts[0]  # the reweight actually took

    def test_server_reweight_none_restores_configured_schedule(self):
        data = _random_bytes(8_000, seed=6)
        codec = ObjectCodec(BlockPlan(len(data), 512, 8), code="lt", seed=2)
        server = TransferServer(codec, data)
        server.reweight([9.0, 1.0])
        server.reweight(None)
        window = [next(server.packets()).block for _ in range(16)]
        assert sorted(set(window)) == [0, 1]
        assert np.bincount(window).tolist() == [8, 8]


class TestTokenBucketSetRate:
    def test_rate_change_takes_effect(self):
        bucket = TokenBucket(rate=100.0)
        bucket.set_rate(200.0)
        assert bucket.rate == 200.0

    def test_capacity_never_shrinks(self):
        bucket = TokenBucket(rate=10_000.0)
        cap = bucket.capacity
        bucket.set_rate(10.0)
        assert bucket.capacity >= cap

    def test_invalid_rate_rejected(self):
        bucket = TokenBucket(rate=100.0)
        with pytest.raises(ParameterError):
            bucket.set_rate(0.0)


# -- memory transport closed loop ----------------------------------------------


class TestMemoryAdaptive:
    def _session(self, seed=11):
        data = _random_bytes(40_000, seed=seed)
        return data, api.SenderSession(data, code="lt", seed=seed,
                                       block_size=16_384)

    def test_adaptive_serve_hears_shadow_reports(self):
        data, session = self._session()
        transport = MemoryTransport(loss=0.2, seed=7)
        subs = [transport.subscribe() for _ in range(3)]
        policy = AdaptivePolicy()
        seen = []
        report = session.serve(transport, policy=policy,
                               feedback=seen.append, report_every=64)
        assert report.emitted > 0
        assert policy.reports_seen >= len(seen) > 0
        assert {r.receiver_id for r in seen} == {0, 1, 2}
        for sub in subs:
            receiver = sub.receive()
            assert receiver.data() == data

    def test_reporting_receiver_enqueues_wire_frames(self):
        data, session = self._session(seed=13)
        transport = MemoryTransport(loss=0.1, seed=5)
        sub = transport.subscribe()
        session.serve(transport)
        receiver = api.ReceiverSession.from_subscription(
            sub, report=32, receiver_id=42)
        sub.feed(receiver)
        assert receiver.data() == data
        reports = transport.drain_feedback()
        assert reports, "reporting receiver never sent a frame"
        assert reports[-1].complete
        assert reports[-1].receiver_id == 42
        assert all(r.receiver_id == 42 for r in reports)

    def test_final_complete_report_sent_exactly_once(self):
        data, session = self._session(seed=17)
        transport = MemoryTransport(seed=3)
        sub = transport.subscribe()
        session.serve(transport)
        receiver = api.ReceiverSession.from_subscription(sub, report=True)
        sub.feed(receiver)
        complete = [r for r in transport.drain_feedback() if r.complete]
        assert len(complete) == 1
        assert receiver.maybe_report() is None  # already finalised

    def test_receiver_loss_estimate_rides_serials(self):
        data, session = self._session(seed=19)
        transport = MemoryTransport(loss=0.3, seed=29)
        sub = transport.subscribe()
        session.serve(transport)
        receiver = api.ReceiverSession.from_subscription(sub, report=True)
        sub.feed(receiver)
        assert receiver.is_complete
        assert abs(receiver.loss_estimate - 0.3) < 0.12


# -- the swarm closed loop -----------------------------------------------------


def _gilbert_scenario(code="lt:c=0.03,delta=0.5", receivers=600):
    from repro.sim.swarm import Scenario

    return Scenario(
        name="closed-loop-test",
        code=code,
        file_size=1 << 20,
        packet_size=1024,
        block_packets=128,
        seed=99,
        max_sweeps=40,
        threshold_trials=16,
        groups=(
            {"name": "steady", "count": receivers * 2 // 3,
             "loss": {"kind": "gilbert", "rate": [0.05, 0.15],
                      "burst": [4.0, 12.0]}},
            {"name": "fading", "count": receivers // 3,
             "loss": {"kind": "gilbert", "rate": [0.25, 0.4],
                      "burst": [12.0, 32.0]}},
        ),
    )


class TestSwarmClosedLoop:
    def test_closed_loop_beats_open_loop_tail(self):
        """The acceptance mechanism: deficit-driven slot reallocation
        cuts the p99 overhead on a bursty Gilbert population (rateless
        blocks have genuinely heterogeneous decode thresholds, so
        lagging blocks are population-wide and the schedule lever has
        something to chase)."""
        from repro.sim.swarm import SwarmSimulator

        scenario = _gilbert_scenario()
        open_loop = SwarmSimulator(scenario).run()
        closed = SwarmSimulator(scenario).run(policy=AdaptivePolicy())
        assert closed.completion_rate == 1.0
        assert (closed.overhead_percentile(99)
                < open_loop.overhead_percentile(99))
        assert (closed.overhead_percentile(50)
                <= open_loop.overhead_percentile(50) * 1.05)

    def test_closed_loop_deterministic(self):
        from repro.sim.swarm import SwarmSimulator

        scenario = _gilbert_scenario(receivers=200)
        a = SwarmSimulator(scenario).run(policy=AdaptivePolicy())
        b = SwarmSimulator(scenario).run(policy=AdaptivePolicy())
        np.testing.assert_array_equal(a.overhead, b.overhead)
        np.testing.assert_array_equal(a.completion_slot, b.completion_slot)

    def test_closed_loop_rejects_workers_and_spot_check(self):
        from repro.sim.swarm import SwarmSimulator

        scenario = _gilbert_scenario(receivers=60)
        with pytest.raises(ParameterError, match="single-process"):
            SwarmSimulator(scenario).run(workers=2, policy=AdaptivePolicy())
        with pytest.raises(ParameterError, match="spot_check"):
            SwarmSimulator(scenario).run(spot_check=5,
                                         policy=AdaptivePolicy())

    def test_degenerate_thresholds_stay_near_proportional(self):
        """With identical per-block thresholds (tornado-a decodes at
        exactly k here) the deficit aggregate is symmetric — the closed
        loop must not hurt the population it cannot help."""
        from repro.sim.swarm import SwarmSimulator

        scenario = _gilbert_scenario(code="tornado-a", receivers=300)
        open_loop = SwarmSimulator(scenario).run()
        closed = SwarmSimulator(scenario).run(policy=AdaptivePolicy())
        assert closed.completion_rate == 1.0
        assert (closed.overhead_percentile(99)
                <= open_loop.overhead_percentile(99) * 1.1)


class TestLossPresets:
    def test_preset_expands_to_gilbert_spec(self):
        from repro.sim.swarm import LOSS_PRESETS, LossSpec

        for name in LOSS_PRESETS:
            spec = LossSpec.preset(name)
            assert spec.kind == "gilbert"

    def test_unknown_preset_rejected(self):
        from repro.sim.swarm import LossSpec

        with pytest.raises(ParameterError, match="preset"):
            LossSpec.preset("lte-underground")

    def test_scenario_groups_accept_preset_strings(self):
        from repro.sim.swarm import Scenario

        scenario = Scenario(
            name="preset-str", groups=(
                {"name": "ped", "count": 10, "loss": "gprs-pedestrian"},))
        assert scenario.groups[0].loss.kind == "gilbert"
        # round-trips through JSON in expanded (self-contained) form
        again = Scenario.from_json(scenario.to_json())
        assert again.groups[0].loss == scenario.groups[0].loss

    def test_with_loss_overrides_every_group(self):
        scenario = _gilbert_scenario(receivers=30)
        swapped = scenario.with_loss("wireless-testbed")
        assert all(g.loss == swapped.groups[0].loss
                   for g in swapped.groups)
        assert scenario.groups[0].loss != swapped.groups[0].loss

    def test_committed_bursty_wireless_scenario_loads(self):
        from repro.sim.swarm import Scenario, SwarmSimulator

        scenario = Scenario.load(
            "examples/scenarios/bursty_wireless.json").scaled(200)
        result = SwarmSimulator(scenario).run()
        assert result.completion_rate == 1.0


class TestSwarmCli:
    def test_adaptive_and_preset_flags(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "summary.json"
        code = main(["swarm", "run", "examples/scenarios/bursty_wireless.json",
                     "--receivers", "200", "--adaptive",
                     "--loss-preset", "gprs-vehicular",
                     "--json", str(out)])
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["completion_rate"] == 1.0

    def test_unknown_preset_fails_loudly(self, capsys):
        from repro.cli import main

        code = main(["swarm", "run",
                     "examples/scenarios/bursty_wireless.json",
                     "--receivers", "50", "--loss-preset", "marsnet"])
        assert code == 2
        assert "preset" in capsys.readouterr().err

    def test_serve_adaptive_rejected_on_file_transport(self, tmp_path,
                                                       capsys):
        from repro.cli import main

        blob = tmp_path / "f.bin"
        blob.write_bytes(_random_bytes(2_000, seed=1))
        code = main(["serve", str(blob), str(tmp_path / "out"),
                     "--transport", "file", "--adaptive"])
        assert code == 2
        assert "--adaptive" in capsys.readouterr().err


# -- UDP closed loop -----------------------------------------------------------


@needs_udp
class TestUdpAdaptive:
    def _run(self, data, *, policy=None, report=None, count=None,
             loss_model=None, pace=None, seed=71, timeout=30.0):
        session = api.SenderSession(data, code="lt", seed=seed,
                                    block_size=128 * 1024,
                                    file_name="blob")
        sub = UdpSubscription("127.0.0.1:0", timeout=timeout)
        transport = UdpTransport([sub.address], pace=pace,
                                 loss_model=loss_model, seed=seed + 1,
                                 manifest_interval=32)
        holder = {}
        errors = []

        def drink():
            try:
                receiver = api.ReceiverSession.from_subscription(
                    sub, timeout=timeout, report=report)
                holder["receiver"] = receiver
                sub.feed(receiver, timeout=timeout)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=drink)
        thread.start()
        try:
            if policy is not None:
                serve_report = session.serve(transport, policy=policy)
            else:
                # open loop: no return path, so the whole provisioned
                # budget goes out regardless of receiver state.
                serve_report = session.serve(transport, count=count)
        finally:
            thread.join(timeout=timeout)
            sub.close()
        if errors:
            raise errors[0]
        return holder["receiver"], serve_report, session

    @pytest.mark.skipif(
        not is_vectorized(),
        reason="wall-clock economy claim: the scalar reference decoder "
               "cannot drain 1 MiB at pace, so the completion report "
               "lags the sender and the packet-count win is noise")
    def test_adaptive_beats_open_loop_provisioning(self):
        """Acceptance: >= 1 MiB across real UDP loopback at 20% bursty
        (Gilbert-Elliott) loss — the reporting receiver's complete
        frame stops the adaptive sender, while the open-loop sender
        must blindly emit its whole loss-provisioned budget."""
        data = _random_bytes(1_100_000, seed=37)
        bursty = GilbertElliottLoss.from_loss_and_burst(0.2, 8.0)
        policy = AdaptivePolicy(nominal_loss=0.2)
        receiver, adaptive_report, session = self._run(
            data, policy=policy, report=64, pace=25_000,
            loss_model=bursty)
        assert receiver.is_complete
        assert receiver.data() == data
        assert adaptive_report.feedback_frames > 0
        # Open loop: no return path, so the sender provisions for the
        # nominal loss plus rateless margin and emits all of it.
        budget = int(session.total_k * 1.6 / (1.0 - 0.2))
        open_receiver, open_report, _ = self._run(
            data, count=budget, loss_model=bursty, seed=71)
        assert open_receiver.is_complete
        assert open_receiver.data() == data
        assert adaptive_report.emitted < open_report.emitted

    def test_feedback_frames_ride_the_reply_socket(self):
        data = _random_bytes(150_000, seed=41)
        policy = AdaptivePolicy()
        seen = []
        session = api.SenderSession(data, code="lt", seed=43,
                                    block_size=64 * 1024,
                                    file_name="blob")
        sub = UdpSubscription("127.0.0.1:0", timeout=20.0)
        transport = UdpTransport([sub.address], pace=20_000,
                                 manifest_interval=32)
        holder = {}
        errors = []

        def drink():
            try:
                receiver = api.ReceiverSession.from_subscription(
                    sub, timeout=20.0, report=32)
                holder["receiver"] = receiver
                sub.feed(receiver, timeout=20.0)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=drink)
        thread.start()
        try:
            report = session.serve(transport, policy=policy,
                                   feedback=seen.append)
        finally:
            thread.join(timeout=20.0)
            sub.close()
        assert not errors, errors
        assert holder["receiver"].data() == data
        assert sub.feedback_sent > 0
        assert report.feedback_frames > 0
        assert seen and seen[-1].complete
        assert policy.reports_seen == report.feedback_frames

    def test_complete_report_stops_the_serve_at_once(self):
        """The serve steps its policy as soon as it hears a
        complete-report, so it stops at the emission where the report
        arrived, not at the next ``adapt_every`` boundary."""
        data = _random_bytes(150_000, seed=47)
        session = api.SenderSession(data, code="lt", seed=53,
                                    block_size=64 * 1024,
                                    file_name="blob")
        drawn = [0]
        packets = session.packets

        def counted(count=None):
            for packet in packets(count):
                drawn[0] += 1
                yield packet

        session.packets = counted
        heard_at = []

        def feedback(report):
            if report.complete:
                heard_at.append(drawn[0])

        sub = UdpSubscription("127.0.0.1:0", timeout=20.0)
        # Paced below the sender's speed: the bucket sleeps, so reports
        # are heard between cadence boundaries.
        transport = UdpTransport([sub.address], pace=3_000,
                                 manifest_interval=32)
        errors = []

        def drink():
            try:
                receiver = api.ReceiverSession.from_subscription(
                    sub, timeout=20.0, report=32)
                sub.feed(receiver, timeout=20.0)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=drink)
        thread.start()
        try:
            report = session.serve(transport, policy=AdaptivePolicy(),
                                   feedback=feedback, adapt_every=64)
        finally:
            thread.join(timeout=20.0)
            sub.close()
        assert not errors, errors
        assert heard_at, "the receiver's complete-report never arrived"
        # The packet drawn when the report was heard is not sent.
        assert report.emitted == heard_at[0] - 1


class TestLeadGate:
    """The adaptive UDP sender's bounded lead over its receivers."""

    def _gate(self):
        from repro.net.transport.udp import _LeadGate

        return _LeadGate()

    def test_waits_for_a_first_report_then_gives_up(self):
        from repro.net.transport.udp import _LEAD_PATIENCE, _MAX_LEAD

        gate = self._gate()
        assert not gate.holds(_MAX_LEAD, now=0.0)
        assert gate.holds(_MAX_LEAD + 1, now=0.0)
        # Nobody ever reports: after the patience the serve is open loop.
        assert not gate.holds(_MAX_LEAD + 1, now=_LEAD_PATIENCE + 0.1)

    def test_lead_is_measured_from_loss_adjusted_packets_used(self):
        from repro.net.transport.udp import _MAX_LEAD

        gate = self._gate()
        gate.observe(FeedbackReport(receiver_id=1, loss=0.5,
                                    packets_used=100), now=0.0)
        # 100 used at 50% loss: the receiver has read ~200 emissions.
        assert not gate.holds(200 + _MAX_LEAD, now=0.1)
        assert gate.holds(200 + _MAX_LEAD + 2, now=0.1)

    def test_slowest_live_incomplete_receiver_sets_the_pace(self):
        from repro.net.transport.udp import _LEAD_PATIENCE, _MAX_LEAD

        gate = self._gate()
        gate.observe(FeedbackReport(receiver_id=1, packets_used=50),
                     now=0.0)
        gate.observe(FeedbackReport(receiver_id=2, packets_used=900),
                     now=0.5)
        assert gate.holds(50 + _MAX_LEAD + 1, now=0.6)
        # Receiver 1 finishes: receiver 2 is the only one left.
        gate.observe(FeedbackReport(receiver_id=1, packets_used=60,
                                    complete=True), now=0.7)
        assert not gate.holds(900 + _MAX_LEAD, now=0.8)
        # Receiver 2 falls silent: the gate opens.
        assert not gate.holds(10 ** 6, now=0.5 + _LEAD_PATIENCE + 0.1)


@needs_udp
@pytest.mark.skipif(not is_vectorized(),
                    reason="wall-clock economy claim, as above")
def test_slow_receiver_does_not_let_the_adaptive_sender_run_away(
        monkeypatch):
    """A receiver that spends 0.15 s on every ingest batch still stops
    the adaptive sender within the open-loop budget: the sender waits
    for its reports instead of spraying at pace into the kernel queue."""
    ingest = api.ReceiverSession.receive_records

    def slow(self, records):
        time.sleep(0.15)
        return ingest(self, records)

    monkeypatch.setattr(api.ReceiverSession, "receive_records", slow)
    data = _random_bytes(1_100_000, seed=37)
    bursty = GilbertElliottLoss.from_loss_and_burst(0.2, 8.0)
    receiver, report, session = TestUdpAdaptive()._run(
        data, policy=AdaptivePolicy(nominal_loss=0.2), report=64,
        pace=25_000, loss_model=bursty)
    assert receiver.data() == data
    assert report.emitted < int(session.total_k * 1.6 / (1.0 - 0.2))

"""The serving step's hot path: one score pass, a price table, no dead frames.

* **Exit check.**  :meth:`InferenceEngine.step` scores every live row once
  and decides each row against its own threshold (live or stamped), so
  served ``(prediction, exit_timestep, score)`` must equal
  :meth:`DynamicTimestepInference.infer_from_logits` bitwise — including a
  row whose score equals the threshold exactly and batches that mix live
  and stamped thresholds and horizons.  The oracle reads the logits the
  engine's own forward produced for each row (the Tensor path under
  ``use_runtime=False``): a sample's logits differ in the last bits with
  the batch width it ran at, so a separate per-sample forward would
  compare scores across compositions, not the exit check.
* **Pricing.**  Each completion path prices an exit timestep once and reads
  the table afterwards; every result still equals ``price_request``.
* **Input stack.**  Under direct encoding a step whose aligned stem rows
  cover every slot neither stacks nor encodes inputs; the first step after
  ``invalidate_stem()`` or ``fail_active()`` encodes again.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DynamicTimestepInference
from repro.core.policies import (
    ConfidenceExitPolicy,
    EntropyExitPolicy,
    ExitPolicy,
    MarginExitPolicy,
)
from repro.serve import (
    AdmissionQueue,
    ContinuousBatcher,
    InferenceEngine,
    Request,
    Response,
    Server,
    ThresholdEpoch,
)
from repro.serve.batcher import price_request
from repro.snn import SpikingNetwork, spiking_vgg
from repro.snn.encoding import DirectEncoder
from repro.utils import seed_everything

TIMESTEPS = 4
NUM_CLASSES = 6
IMAGE_SIZE = 10
POLICIES = {
    "entropy": EntropyExitPolicy,
    "confidence": ConfidenceExitPolicy,
    "margin": MarginExitPolicy,
}


def _model(seed: int = 47) -> SpikingNetwork:
    seed_everything(seed)
    model = spiking_vgg(
        "tiny", num_classes=NUM_CLASSES, input_size=IMAGE_SIZE,
        default_timesteps=TIMESTEPS,
    ).eval()
    # Sharpen the head so exit timesteps spread across the horizon.
    for parameter in model.classifier.parameters():
        parameter.data = parameter.data * np.float32(25.0)
    return model


def _inputs(batch: int, seed: int = 31) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((batch, 3, IMAGE_SIZE, IMAGE_SIZE)).astype(np.float32)


def _mean_logits(per_timestep: np.ndarray) -> np.ndarray:
    """``(T, N, K)`` running means by the engine's rule: float32 running sum
    divided by ``t``."""
    steps = np.arange(1, per_timestep.shape[0] + 1, dtype=per_timestep.dtype)
    return np.cumsum(per_timestep, axis=0, dtype=per_timestep.dtype) / steps[:, None, None]


def _oracle(policy, cumulative, horizon=TIMESTEPS):
    """``(prediction, exit_timestep, score)`` per sample of ``cumulative``."""
    result = DynamicTimestepInference(
        policy=policy, max_timesteps=horizon
    ).infer_from_logits(cumulative[:horizon])
    return [
        (int(p), int(t), float(s))
        for p, t, s in zip(result.predictions, result.exit_timesteps, result.scores)
    ]


def _expected(policy_class, live, requests, cumulative):
    """Each request decided alone under its own threshold and horizon."""
    expected = {}
    for row, request in enumerate(requests):
        epoch = request.epoch
        threshold = live if epoch is None or epoch.threshold is None else epoch.threshold
        horizon = TIMESTEPS if epoch is None or epoch.horizon is None else epoch.horizon
        expected[request.request_id] = _oracle(
            policy_class(threshold), cumulative[:, row:row + 1], horizon)[0]
    return expected


def _serve(engine, requests, batch_width=3):
    """Serve ``requests`` through a continuous batcher (mid-horizon splices)."""
    queue = AdmissionQueue(capacity=len(requests))
    for request in requests:
        queue.put(request, Response())
    queue.close()
    batcher = ContinuousBatcher(engine, queue, batch_width=batch_width)
    results = []
    while not (engine.idle and queue.depth() == 0):
        results.extend(batcher.run_once())
    return {
        r.request_id: (r.prediction, r.exit_timestep, r.score) for r in results
    }


def _record_forward(engine):
    """Keep every row's logits as the engine's forward produced them."""
    rows = {}
    forward = engine._forward

    def recorded():
        logits = forward()
        for slot, row in zip(engine._slots, logits):
            rows.setdefault(slot.request.request_id, []).append(row.copy())
        return logits

    engine._forward = recorded
    return rows


def _recorded_mean(rows, request_id):
    """One request's ``(T, 1, K)`` running means from its recorded logits
    (zero-padded past its exit, where they cannot change the oracle's
    answer)."""
    logits = np.zeros((TIMESTEPS, 1, NUM_CLASSES), dtype=np.float32)
    recorded = np.stack(rows[request_id])
    logits[:len(recorded), 0] = recorded
    return _mean_logits(logits)


def _stamped_requests(inputs, stamped):
    """Rows cycle through the live knob, a stamped threshold, a stamped
    horizon, and both — so every step mixes live and stamped rows."""
    stamps = [
        None,
        ThresholdEpoch(epoch=1, threshold=stamped),
        ThresholdEpoch(epoch=2, threshold=None, horizon=2),
        ThresholdEpoch(epoch=3, threshold=stamped, horizon=3),
    ]
    return [
        Request(request_id=i, inputs=inputs[i], epoch=stamps[i % len(stamps)])
        for i in range(len(inputs))
    ]


class _CountingDirectEncoder(DirectEncoder):
    def __init__(self):
        self.calls = 0

    def __call__(self, x, timestep):
        self.calls += 1
        return super().__call__(x, timestep)


# --------------------------------------------------------------------------- #
class TestOneScorePass:
    @pytest.mark.parametrize("use_runtime", [True, False], ids=["runtime", "tensor"])
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_served_decisions_equal_the_oracle_bitwise(self, name, use_runtime):
        """Real model, mid-horizon splices, live and stamped rows mixed: the
        served triple equals infer_from_logits over the very logits the
        forward pass produced for that row."""
        model = _model()
        inputs = _inputs(12)
        policy_class = POLICIES[name]
        live, stamped = {"entropy": (0.5, 0.3), "confidence": (0.6, 0.8),
                         "margin": (0.4, 0.6)}[name]
        requests = _stamped_requests(inputs, stamped)
        engine = InferenceEngine(model, policy_class(live), max_timesteps=TIMESTEPS,
                                 use_runtime=use_runtime)
        rows = _record_forward(engine)
        served = _serve(engine, requests)
        assert len({exit_t for _, exit_t, _ in served.values()}) > 1
        for request in requests:
            assert served[request.request_id] == _expected(
                policy_class, live, [request],
                _recorded_mean(rows, request.request_id),
            )[request.request_id]

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_score_equal_to_threshold_does_not_exit(self, name):
        """Scripted logits make two rows' scores equal their thresholds
        exactly (one live, one stamped); the comparison is strict, so
        neither exits on that step, and every row matches the oracle."""
        policy_class = POLICIES[name]
        rng = np.random.default_rng(7)
        script = (3.0 * rng.standard_normal((TIMESTEPS, 8, NUM_CLASSES))).astype(np.float32)
        cumulative = _mean_logits(script)
        first_scores = policy_class(0.5).score(cumulative[0])
        live, stamped = float(first_scores[0]), float(first_scores[1])
        requests = _stamped_requests(_inputs(8), stamped)
        engine = InferenceEngine(_model(), policy_class(live), max_timesteps=TIMESTEPS)
        engine._forward = lambda: np.stack([
            script[slot.local_t, slot.request.request_id] for slot in engine._slots
        ])
        served = _serve(engine, requests, batch_width=8)
        assert served == _expected(policy_class, live, requests, cumulative)
        assert served[0][1] > 1 and served[1][1] > 1

    def test_policy_is_scored_once_per_step(self):
        class CountingEntropy(EntropyExitPolicy):
            score_calls = 0
            exit_calls = 0

            def score(self, cumulative_logits):
                CountingEntropy.score_calls += 1
                return super().score(cumulative_logits)

            def should_exit(self, cumulative_logits):
                CountingEntropy.exit_calls += 1
                return super().should_exit(cumulative_logits)

        model = _model()
        engine = InferenceEngine(model, CountingEntropy(0.5), max_timesteps=TIMESTEPS)
        inputs = _inputs(6)
        engine.admit_batch([
            (Request(request_id=i, inputs=inputs[i]), Response(), 0.0)
            for i in range(len(inputs))
        ])
        steps = 0
        while not engine.idle:
            engine.step()
            steps += 1
        assert CountingEntropy.score_calls == steps
        assert CountingEntropy.exit_calls == 0

    def test_policy_without_threshold_rule_still_serves(self):
        class LeaderIsClassZero(ExitPolicy):
            """Custom rule with no threshold (``exit_when`` stays None)."""

            name = "leader-zero"

            def should_exit(self, cumulative_logits):
                return np.argmax(cumulative_logits, axis=-1) == 0

            def score(self, cumulative_logits):
                return cumulative_logits.max(axis=-1)

        model = _model()
        inputs = _inputs(10)
        policy = LeaderIsClassZero()
        engine = InferenceEngine(model, policy, max_timesteps=TIMESTEPS)
        rows = _record_forward(engine)
        served = _serve(engine, [
            Request(request_id=i, inputs=inputs[i]) for i in range(len(inputs))
        ])
        assert len(served) == len(inputs)
        for request_id, outcome in served.items():
            assert outcome == _oracle(policy, _recorded_mean(rows, request_id))[0]


# --------------------------------------------------------------------------- #
class _CountingCostModel:
    """Linear cost model that counts how often it is priced."""

    def __init__(self):
        self.energy_calls = []
        self.latency_calls = []

    def energy(self, timesteps):
        self.energy_calls.append(timesteps)
        return 3.0 * timesteps + 0.25

    def latency(self, timesteps):
        self.latency_calls.append(timesteps)
        return 7.0 * timesteps


class TestPriceTable:
    @pytest.mark.parametrize("num_replicas", [0, 1], ids=["batcher", "collector"])
    def test_each_exit_timestep_is_priced_once(self, num_replicas):
        model = _model()
        inputs = _inputs(16)
        cost_model = _CountingCostModel()
        server = Server(
            model, EntropyExitPolicy(0.5), max_timesteps=TIMESTEPS,
            batch_width=3, queue_capacity=len(inputs), num_replicas=num_replicas,
            use_runtime=True, cost_model=cost_model,
        ).start()
        try:
            results = [
                future.result(timeout=60.0)
                for future in [server.submit(x) for x in inputs]
            ]
        finally:
            server.shutdown(drain=True)
        exits = {r.exit_timestep for r in results}
        assert len(exits) > 1  # the table is exercised on more than one key
        assert sorted(cost_model.energy_calls) == sorted(exits)
        assert sorted(cost_model.latency_calls) == sorted(exits)
        for result in results:
            assert (result.energy, result.edp) == price_request(
                cost_model, result.exit_timestep)


# --------------------------------------------------------------------------- #
class TestInputStack:
    """The compiled-plan engine against the Tensor-path engine under the same
    schedule of admissions, steps, ``invalidate_stem()`` and
    ``fail_active()``: identical compositions, so identical bits."""

    @staticmethod
    def _run(use_runtime, schedule):
        model = _model()
        encoder = _CountingDirectEncoder()
        model.encoder = encoder
        engine = InferenceEngine(model, EntropyExitPolicy(0.0),
                                 max_timesteps=TIMESTEPS, use_runtime=use_runtime)
        inputs = _inputs(8)
        outcomes, step_encodes = {}, []
        for action, argument in schedule:
            if action == "admit":
                engine.admit_batch([
                    (Request(request_id=i, inputs=inputs[i]), Response(), 0.0)
                    for i in argument
                ])
            elif action == "invalidate":
                engine.invalidate_stem()
            elif action == "fail":
                assert engine.fail_active(RuntimeError("abort")) == argument
            else:
                before = encoder.calls
                for sample in engine.step():
                    outcomes[sample.request.request_id] = (
                        sample.prediction, sample.exit_timestep, sample.score)
                step_encodes.append(encoder.calls - before)
        assert engine.idle
        return outcomes, step_encodes

    @pytest.mark.parametrize("schedule, encodes", [
        # First step after start encodes; invalidate_stem forces one more.
        ([("admit", range(4)), ("step", None), ("step", None),
          ("invalidate", None), ("step", None), ("step", None)],
         [1, 0, 1, 0]),
        # fail_active drops the stem: the next round's first step encodes.
        ([("admit", range(3)), ("step", None), ("fail", 3),
          ("admit", range(3, 6)), ("step", None), ("step", None),
          ("step", None), ("step", None)],
         [1, 1, 0, 0, 0]),
    ], ids=["invalidate_stem", "fail_active"])
    def test_only_cold_steps_encode(self, schedule, encodes):
        fast, fast_encodes = self._run(True, schedule)
        oracle, _ = self._run(False, schedule)
        assert fast_encodes == encodes
        assert fast == oracle

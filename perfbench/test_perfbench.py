"""Self-tests for the benchmark's own arithmetic (fast; no model is trained).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import client  # noqa: E402
import ledger  # noqa: E402
import traffic  # noqa: E402
from repro.serve import QueueFullError, RequestResult  # noqa: E402


# --------------------------------------------------------------------------- #
# Spans: self time, residual, nesting
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_direct_children_only():
    spans = [
        ["batcher", 0.0, 10.0, -1, 0],
        ["step", 1.0, 6.0, 0, 8],
        ["executor", 2.0, 5.0, 1, 8],
        ["exit", 7.0, 8.0, 0, 0],
    ]
    assert ledger.self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    totals = ledger.layer_totals(spans)
    assert totals["step"] == {"calls": 1, "busy": 5.0, "self": 2.0, "count": 8}
    assert sum(entry["self"] for entry in totals.values()) == 10.0


def test_nested_same_layer_counts_busy_once():
    spans = [["exit", 0.0, 4.0, -1, 0], ["exit", 1.0, 3.0, 0, 0]]
    totals = ledger.layer_totals(spans)["exit"]
    assert totals["calls"] == 2
    assert totals["busy"] == 4.0
    assert totals["self"] == 4.0


def test_unattributed_residual_clips_spans_to_the_window():
    spans = [
        ["poll", -1.0, 1.0, -1, 0],  # in flight when the window opened
        ["batcher", 2.0, 5.0, -1, 0],
        ["step", 3.0, 4.0, 1, 0],
        ["poll", 9.0, 12.0, -1, 0],  # in flight when it closed
    ]
    # Covered: [0, 1] + [2, 5] + [9, 10] = 5 of a 10 s window.
    assert ledger.unattributed(spans, 0.0, 10.0) == pytest.approx(5.0)


def test_childless_counts_parents_without_that_child():
    spans = [
        ["run_once", 0.0, 1.0, -1, 0],
        ["step", 0.2, 0.8, 0, 0],
        ["run_once", 1.0, 2.0, -1, 0],
        ["get", 1.1, 1.9, 2, 0],
    ]
    assert ledger.childless(spans, "run_once", "step") == 1


def test_merge_totals_adds_per_layer():
    a = {"x": {"calls": 1, "busy": 1.0, "self": 0.5, "count": 2}}
    b = {"x": {"calls": 2, "busy": 3.0, "self": 1.0, "count": 0},
         "y": {"calls": 1, "busy": 1.0, "self": 1.0, "count": 0}}
    merged = ledger.merge_totals([a, b])
    assert merged["x"] == {"calls": 3, "busy": 4.0, "self": 1.5, "count": 2}
    assert merged["y"]["calls"] == 1


def test_recorder_builds_parent_links_per_thread_and_counts_work():
    ticks = iter(range(100))
    recorder = ledger.SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap("inner", lambda rows: rows, count=lambda args, result: result)
    outer = recorder.wrap("outer", lambda: inner(3) + inner(4))
    assert outer() == 7
    other = threading.Thread(target=inner, args=(5,), name="other")
    other.start()
    other.join(timeout=5)
    assert not other.is_alive()
    main = next(spans for name, spans in recorder.threads.items() if name.startswith("MainThread"))
    assert [(s[0], s[3], s[4]) for s in main] == [("outer", -1, 0), ("inner", 0, 3), ("inner", 0, 4)]
    assert ledger.self_times(main)[0] == (main[0][2] - main[0][1]) - 2.0
    theirs = next(spans for name, spans in recorder.threads.items() if name.startswith("other"))
    assert [(s[0], s[3], s[4]) for s in theirs] == [("inner", -1, 5)]


def test_recorder_closes_the_span_when_the_call_raises():
    recorder = ledger.SpanRecorder()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        recorder.wrap("fail", fail)()
    (spans,) = recorder.threads.values()
    assert spans[0][2] >= spans[0][1] > 0.0
    assert recorder._local.stack == []


def test_patches_undo_restores_the_original_attribute():
    class Layer:
        def work(self):
            return 1

    original = Layer.__dict__["work"]
    patches = ledger.Patches()
    patches.wrap(ledger.SpanRecorder(), Layer, "work", "layer")
    assert Layer().work() == 1
    assert Layer.__dict__["work"] is not original
    patches.undo()
    assert Layer.__dict__["work"] is original


def test_op_shares_group_by_op_class():
    timings = [{"op": "LIFOp", "seconds": 1.0}, {"op": "LIFOp", "seconds": 1.0},
               {"op": "LinearOp", "seconds": 2.0}]
    assert ledger.op_shares(timings) == {"LIFOp": 0.5, "LinearOp": 0.5}
    assert ledger.op_shares(None) == {}


# --------------------------------------------------------------------------- #
# Open-loop timing
# --------------------------------------------------------------------------- #
def test_latency_counts_from_due_time_and_lateness_is_clamped():
    due = np.array([0.0, 1.0, 2.0])
    sent = np.array([0.0, 1.5, 1.9])  # the last one went out early
    done = np.array([0.25, 2.0, np.nan])
    timings = traffic.open_loop_timings(due, sent, done)
    np.testing.assert_allclose(timings["latency"][:2], [0.25, 1.0])
    assert np.isnan(timings["latency"][2])
    np.testing.assert_allclose(timings["late"], [0.0, 0.5, 0.0])


def test_poisson_schedule_is_seeded_and_has_the_rate():
    first = traffic.poisson_offsets(7, 500.0, 20.0)
    again = traffic.poisson_offsets(7, 500.0, 20.0)
    np.testing.assert_array_equal(first, again)
    assert not np.array_equal(first[:100], traffic.poisson_offsets(8, 500.0, 20.0)[:100])
    assert not np.array_equal(first[:100], traffic.poisson_offsets(7, 500.0, 20.0, part=1)[:100])
    assert np.all(np.diff(first) > 0) and first[-1] < 20.0
    assert first.size == pytest.approx(10_000, rel=0.05)
    gaps = np.diff(first)
    # Exponential gaps: standard deviation equals the mean.
    assert gaps.std() == pytest.approx(gaps.mean(), rel=0.05)


def test_poisson_schedule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        traffic.poisson_offsets(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        traffic.poisson_offsets(1, 10.0, -1.0)


def test_slice_rates_and_percentiles():
    done = np.array([0.5, 1.0, 1.5, 2.5, 3.0, 3.5, 3.9])
    assert traffic.slice_rates(done, 0.0, 4.0, 2) == [1.5, 2.0]
    # The window's end falls in the last slice.
    assert traffic.slice_rates(done, 0.0, 3.9, 3) == pytest.approx([2 / 1.3, 2 / 1.3, 3 / 1.3])
    due = np.arange(8.0)
    latency = np.array([1.0, 3.0, np.nan, 5.0, 2.0, 2.0, 9.0, 1.0])
    assert traffic.slice_percentiles(due, latency, 50, 0.0, 8.0, 2) == [3.0, 2.0]


def test_supported_percentile_needs_ten_samples_beyond():
    assert traffic.supported_percentile(19) == 0.0
    assert traffic.supported_percentile(20) == 50.0
    assert traffic.supported_percentile(999) == 90.0
    assert traffic.supported_percentile(1000) == 99.0
    assert traffic.supported_percentile(10_000) == 99.9


# --------------------------------------------------------------------------- #
# Event-stream replay mix
# --------------------------------------------------------------------------- #
def _clips(count=12):
    rng = np.random.default_rng(0)
    clips = (rng.random((count, 6, 2, 4, 4)) < 0.2).astype(np.float32)
    return clips, np.arange(count) % 3


def test_replay_mix_share_and_determinism():
    clips, labels = _clips()
    mix = traffic.EventClipMix(3, clips, labels)
    served = [mix.next() for _ in range(4000)]
    assert mix.replay_share() == pytest.approx(traffic.REPLAY_SHARE, abs=0.03)
    again = traffic.EventClipMix(3, clips, labels)
    for clip, label in served[:200]:
        other_clip, other_label = again.next()
        np.testing.assert_array_equal(clip, other_clip)
        assert label == other_label
    # Replays stay inside the recent window.
    ids = np.array(mix.requests)
    newest = np.maximum.accumulate(ids)
    assert np.all(newest - ids < traffic.REPLAY_WINDOW)
    # Fresh clips take every test clip in turn, so none is drawn more than
    # once ahead of another.
    bases = np.bincount(mix._fresh_bases, minlength=len(clips))
    assert bases.max() - bases.min() <= 1


def test_replays_repeat_bytes_and_fresh_clips_only_add_events():
    clips, labels = _clips()
    mix = traffic.EventClipMix(5, clips, labels)
    served = [mix.next() for _ in range(300)]
    first_seen = {}
    for clip_id, (clip, label) in zip(mix.requests, served):
        if clip_id in first_seen:
            np.testing.assert_array_equal(clip, first_seen[clip_id])
            continue
        first_seen[clip_id] = clip
        base = clips[mix._fresh_bases[clip_id]]
        assert label == labels[mix._fresh_bases[clip_id]]
        assert np.all(clip >= base) and set(np.unique(clip)) <= {0.0, 1.0}
    added = sum(int((clip != clips[mix._fresh_bases[i]]).sum()) for i, clip in first_seen.items())
    assert added > 0
    assert mix.fresh_count == len(first_seen)


# --------------------------------------------------------------------------- #
# Client bookkeeping
# --------------------------------------------------------------------------- #
class _FakeServer:
    """Resolves every submission at once, refusing every third one."""

    def __init__(self):
        self.calls = 0

    def submit(self, inputs, label, block=True, timeout=None):
        self.calls += 1
        response = client.StampedResponse()
        if self.calls % 3 == 0:
            raise QueueFullError("full")
        response.set_result(RequestResult(
            request_id=self.calls, prediction=label, exit_timestep=2, score=0.1,
            arrival_time=1.0, start_time=1.25, finish_time=2.0, edp=3.0))
        return response


def test_window_records_each_outcome_in_its_slot():
    window = client.Window(6)
    server = _FakeServer()
    for index in range(6):
        window.submit(server, None, index, key=10 + index, due=float(index), block=False)
    window.collect()
    assert window.counts(client.SERVED) == 4
    assert window.counts(client.REFUSED) == 2
    np.testing.assert_array_equal(window.view("key"), 10 + np.arange(6))
    served = window.view("state") == client.SERVED
    np.testing.assert_array_equal(window.view("prediction")[served], [0, 1, 3, 4])
    np.testing.assert_allclose(window.view("queue_wait")[served], 0.25)
    assert np.all(np.isnan(window.view("done")[~served]))
    assert window.end == window.view("done")[served].max()

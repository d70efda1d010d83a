"""Seeded traffic for the serving benchmark, and its timing arithmetic.

Everything here is a pure function of the workload seed, so the same seed
gives byte-identical inputs in the same order and the same arrival
schedule, however fast the server under test runs.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Tuple

import numpy as np

# Independent generator streams derived from one workload seed.
_ORDER, _ARRIVALS, _MIX, _NOISE = range(4)

# Share of event-stream requests that replay an earlier clip.
REPLAY_SHARE = 0.5
# Replays pick among the most recent fresh clips.  The six frames of each of
# those 64 clips (384 entries) stay inside the stem memo's default
# 1024-entry LRU, so a replay finds its rows unless the memo misbehaves.
REPLAY_WINDOW = 64
# Probability that a silent pixel of a fresh clip gains a noise event.
NOISE_EVENT_RATE = 0.01


def generator(seed: int, *stream: int) -> np.random.Generator:
    """The generator of one named stream (and sub-stream) of a seed."""
    return np.random.default_rng([int(seed), *stream])


def clip_order(seed: int, size: int, part: int = 0) -> Iterator[int]:
    """Endless stream of test-set indices: seeded permutations back to back.

    ``part`` numbers independent streams drawn from one seed.
    """
    rng = generator(seed, _ORDER, int(part))
    while True:
        yield from (int(index) for index in rng.permutation(size))


def poisson_offsets(seed: int, rate: float, duration: float, part: int = 0) -> np.ndarray:
    """Due times (seconds from the start) of a Poisson arrival process.

    ``part`` numbers independent schedules drawn from one seed.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = generator(seed, _ARRIVALS, int(part))
    expected = rate * duration
    count = int(expected + 6.0 * math.sqrt(expected) + 16)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    if offsets[-1] < duration:  # pragma: no cover - six sigma short
        raise RuntimeError("Poisson schedule came up short; widen the block")
    return offsets[offsets < duration]


class EventClipMix:
    """Event-stream traffic where about half the requests replay a clip.

    Request ``i`` is either a replay of one of the last
    :data:`REPLAY_WINDOW` fresh clips, or a fresh clip: the next test clip
    of :func:`clip_order` with extra noise events drawn from the seed.
    Noise only adds events where the clip had none, so the label stays valid
    while the bytes are new.  Taking test clips in permutation order rather
    than at random keeps a run's accuracy from depending on which clips its
    seed happened to draw more often.  Fresh clip ``k`` is rebuilt on demand
    from ``(seed, part, k)`` alone, which lets the correctness check
    regenerate the served inputs after the run.  ``part`` numbers independent
    mixes drawn from one seed.
    """

    def __init__(self, seed: int, clips: np.ndarray, labels: np.ndarray, part: int = 0):
        self.seed = int(seed)
        self.part = int(part)
        self.clips = clips
        self.labels = labels
        self._mix = generator(seed, _MIX, self.part)
        self._order = clip_order(seed, len(clips), self.part)
        self._fresh_bases: List[int] = []
        self.requests: List[int] = []  # fresh-clip id served by each request

    def fresh_clip(self, clip_id: int) -> np.ndarray:
        base = self._fresh_bases[clip_id]
        rng = generator(self.seed, _NOISE, self.part, clip_id)
        clip = self.clips[base]
        noise = rng.random(clip.shape) < NOISE_EVENT_RATE
        return np.where(noise & (clip == 0.0), np.float32(1.0), clip)

    def next(self) -> Tuple[np.ndarray, int]:
        """The next request's ``(clip, label)``."""
        fresh = len(self._fresh_bases)
        replay = fresh > 0 and self._mix.random() < REPLAY_SHARE
        if replay:
            window = min(fresh, REPLAY_WINDOW)
            clip_id = fresh - 1 - int(self._mix.integers(window))
        else:
            clip_id = fresh
            self._fresh_bases.append(next(self._order))
        self.requests.append(clip_id)
        return self.fresh_clip(clip_id), int(self.labels[self._fresh_bases[clip_id]])

    @property
    def fresh_count(self) -> int:
        return len(self._fresh_bases)

    def replay_share(self) -> float:
        """Measured share of requests that replayed an earlier clip."""
        if not self.requests:
            return 0.0
        return 1.0 - self.fresh_count / len(self.requests)


def open_loop_timings(due: np.ndarray, sent: np.ndarray, done: np.ndarray) -> Dict[str, np.ndarray]:
    """Latency from each request's due time, and how late it was sent.

    ``due`` is the scheduled send time, ``sent`` when the generator actually
    called ``submit`` and ``done`` when the future resolved (NaN for
    requests that never completed).  Timing from ``due`` charges a
    generator stall to every request it delayed, which timing from
    ``sent`` would hide.
    """
    due = np.asarray(due, dtype=np.float64)
    return {
        "latency": np.asarray(done, dtype=np.float64) - due,
        "late": np.maximum(0.0, np.asarray(sent, dtype=np.float64) - due),
    }


def slice_index(times: np.ndarray, start: float, end: float, slices: int) -> np.ndarray:
    """Which of ``slices`` equal slices of ``[start, end]`` each time falls in."""
    times = np.asarray(times, dtype=np.float64)
    index = np.floor((times - start) * (slices / (end - start))).astype(np.int64)
    return np.clip(index, 0, slices - 1)


def slice_percentiles(due: np.ndarray, latency: np.ndarray, q: float, start: float,
                      end: float, slices: int) -> List[float]:
    """The ``q``-th latency percentile of each slice, by due time.

    A percentile over a whole run swings with where a few stalls land;
    reporting the median over slices gives the typical slice instead.  NaN
    latencies (requests never served) are left out.
    """
    latency = np.asarray(latency, dtype=np.float64)
    index = slice_index(due, start, end, slices)
    tails = []
    for number in range(slices):
        values = latency[(index == number) & np.isfinite(latency)]
        if values.size:
            tails.append(float(np.percentile(values, q)))
    return tails


def slice_rates(done: np.ndarray, start: float, end: float, slices: int) -> List[float]:
    """Completions per second in each slice, by completion time."""
    counts = np.bincount(slice_index(done, start, end, slices), minlength=slices)
    return (counts * (slices / (end - start))).tolist()


PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def supported_percentile(count: int, beyond: int = 10) -> float:
    """Highest of :data:`PERCENTILES` with at least ``beyond`` samples above it
    (0.0 when not even the median is supported)."""
    best = 0.0
    for percentile in PERCENTILES:
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary floating point.
        if round(count * (100.0 - percentile) / 100.0, 6) >= beyond:
            best = percentile
    return best

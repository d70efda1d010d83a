"""Continuous batching: keep the SNN forward pass at full occupancy.

A static batcher waits for a whole batch, runs it to completion, then starts
the next one — every early exit leaves a dead slot for the rest of the
horizon.  The :class:`ContinuousBatcher` instead treats the timestep loop as
the scheduling quantum: after every engine step it refills the slots freed by
early-exiting samples from the admission queue, splicing new requests in
*mid-horizon* with fresh membrane state.  The effect is that the compute the
exit policy saves is immediately reinvested in queued traffic, which is how
DT-SNN's average-timestep reduction turns into requests/second.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from ..core.accounting import InferenceCostModel
from .controller import AdaptiveThresholdController
from .engine import AdmissionRejectedError, InferenceEngine
from .request import AdmissionQueue, RequestResult
from .storm import DeadlineExceededError
from .telemetry import Telemetry

__all__ = ["ContinuousBatcher", "finalize_result", "price_request"]


def price_request(
    cost_model: Optional[InferenceCostModel], exit_timestep: int
) -> tuple:
    """Energy / EDP for one completed request (``(None, None)`` without a
    cost model) — the single pricing rule for every completion path (thread
    batcher and replica collector)."""
    if cost_model is None:
        return None, None
    energy = float(cost_model.energy(exit_timestep))
    return energy, energy * float(cost_model.latency(exit_timestep))


def finalize_result(
    result: RequestResult,
    response,
    telemetry: Telemetry,
    controller: Optional[AdaptiveThresholdController],
) -> None:
    """Record, steer, then resolve — shared by every completion path.

    The future is resolved LAST so a waiting client observes telemetry that
    already includes its own request; keep that ordering here, in one
    place, rather than re-deriving it per path.
    """
    telemetry.record_completion(result)
    if controller is not None:
        controller.on_completion(result, telemetry)
    response.set_result(result)


class ContinuousBatcher:
    """Runs one engine at a fixed maximum width against an admission queue.

    Parameters
    ----------
    engine:
        The slot-based inference engine (owns the model and exit policy).
    queue:
        Bounded admission queue shared with the server front-end.
    batch_width:
        Maximum number of concurrently active slots.
    telemetry:
        Metric sink; one is created when omitted.
    cost_model:
        Optional per-inference cost model (e.g. :class:`repro.imc.IMCChip`);
        when present every completed request is priced at its own exit
        timestep, exactly like :func:`repro.core.account_result`.
    controller:
        Optional SLA threshold controller, consulted after completions.
    trace:
        Optional :class:`repro.serve.trace.TraceRecorder`; every completed
        request is appended to the WAL just before its future resolves.
    spans:
        Optional :class:`repro.serve.obs.SpanTracker`; each completion
        stamps the request's lifecycle stages in one call.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        queue: AdmissionQueue,
        batch_width: int = 8,
        telemetry: Optional[Telemetry] = None,
        cost_model: Optional[InferenceCostModel] = None,
        controller: Optional[AdaptiveThresholdController] = None,
        clock: Callable[[], float] = time.monotonic,
        trace=None,
        spans=None,
    ):
        if batch_width < 1:
            raise ValueError("batch_width must be >= 1")
        self.engine = engine
        self.queue = queue
        self.batch_width = int(batch_width)
        self.telemetry = telemetry or Telemetry()
        self.cost_model = cost_model
        self.controller = controller
        self.clock = clock
        self.trace = trace
        self.spans = spans
        # Admission rounds rejected by engine validation (e.g. a malformed
        # request co-drained with the round); their futures were failed but
        # the worker kept serving.
        self.rejected_rounds = 0
        # exit timestep -> (energy, edp), priced on first use: the cost model
        # is a pure function of the exit timestep while the server runs.
        self._prices: Dict[int, tuple] = {}

    # ------------------------------------------------------------------ #
    def _fill_slots(self, wait_timeout: Optional[float] = None) -> int:
        """Splice queued requests into free slots; returns admissions.

        The whole round is drained from the queue first and admitted through
        :meth:`InferenceEngine.admit_batch` in one go, so a burst of B
        arrivals costs one state extension and (under direct encoding) one
        batched stem GEMM instead of B of each — admission work per request
        stays flat in the burst size.
        """
        admissions = []
        free = self.batch_width - self.engine.active_count
        while len(admissions) < free:
            if not admissions and self.engine.idle and wait_timeout:
                item = self.queue.get(timeout=wait_timeout)
            else:
                item = self.queue.get_nowait()
            if item is None:
                break
            request, response = item
            # Deadline enforcement happens here, at dispatch: a request that
            # waited out its deadline in the queue is dropped before it can
            # occupy an engine slot — spending timesteps on an answer whose
            # client already gave up only deepens the backlog.
            if request.deadline is not None and self.clock() > request.deadline:
                error = DeadlineExceededError(
                    f"request {request.request_id} missed its deadline "
                    f"before dispatch"
                )
                now = self.clock()
                self.telemetry.record_deadline_drop(request.priority)
                if self.trace is not None:
                    self.trace.record_rejection(request, now, reason="deadline")
                if self.spans is not None:
                    self.spans.record_failure(request.request_id, now, error)
                response.set_exception(error)
                continue
            admissions.append((request, response, self.clock()))
        try:
            self.engine.admit_batch(admissions)
        except AdmissionRejectedError as error:
            # The engine rejected the round before mutating any state and
            # already resolved every future in it with the error, so one
            # malformed request costs its own round — not the worker, the
            # in-flight neighbours, or the server's admission queue.
            self.rejected_rounds += 1
            # Every rejection must still be ACCOUNTED: request conservation
            # (submitted == completed + rejected + shed + deadline_drops)
            # holds only if each failed future lands in exactly one counter,
            # and the WAL/span record is what lets a trace consumer see the
            # rejection at all.
            now = self.clock()
            for request, _, _ in admissions:
                self.telemetry.record_rejection()
                if self.trace is not None:
                    self.trace.record_rejection(request, now)
                if self.spans is not None:
                    self.spans.record_failure(request.request_id, now, error)
            return 0
        return len(admissions)

    def _complete(self, finished) -> List[RequestResult]:
        now = self.clock()
        results: List[RequestResult] = []
        prices = self._prices
        for sample in finished:
            price = prices.get(sample.exit_timestep)
            if price is None:
                price = prices[sample.exit_timestep] = price_request(
                    self.cost_model, sample.exit_timestep)
            energy, edp = price
            result = RequestResult(
                request_id=sample.request.request_id,
                prediction=sample.prediction,
                exit_timestep=sample.exit_timestep,
                score=sample.score,
                label=sample.request.label,
                threshold=sample.threshold,
                arrival_time=sample.request.arrival_time,
                start_time=sample.start_time,
                finish_time=now,
                energy=energy,
                edp=edp,
                epoch=sample.epoch,
                brownout=sample.brownout,
                horizon=sample.horizon,
            )
            results.append(result)
            # Observability first, future last: a trace/span consumer that
            # reacts to the resolved future must already see this request.
            # The fresh clock read makes the span's completion stage cover
            # pricing, the WAL write and the hand-off since the exit.
            if self.trace is not None:
                self.trace.record_request(sample.request, result)
            if self.spans is not None:
                self.spans.record_result(result, self.clock())
            finalize_result(result, sample.response, self.telemetry, self.controller)
        return results

    # ------------------------------------------------------------------ #
    def run_once(self, wait_timeout: Optional[float] = None) -> List[RequestResult]:
        """Refill slots, advance one timestep, resolve completions."""
        self._fill_slots(wait_timeout=wait_timeout)
        if self.engine.idle:
            # Idle poll: nothing admitted, nothing to step — don't let gauge
            # samples accumulate (or skew toward idle periods) while waiting.
            return []
        self.telemetry.record_queue_depth(self.queue.depth())
        self.telemetry.record_occupancy(self.engine.active_count, self.batch_width)
        return self._complete(self.engine.step())

    def run_until_drained(self, wait_timeout: float = 0.05) -> int:
        """Serve until the queue is closed-and-empty and all slots finished.

        This is the graceful-drain loop: with the queue still open it keeps
        waiting for traffic; once :meth:`AdmissionQueue.close` is called it
        finishes the backlog and every in-flight sample, then returns the
        number of requests completed.
        """
        completed = 0
        while True:
            completed += len(self.run_once(wait_timeout=wait_timeout))
            if self.engine.idle and self.queue.depth() == 0 and self.queue.closed:
                return completed

"""Exit policies deciding when the SNN may stop adding timesteps.

The paper's DT-SNN uses the normalized-entropy threshold rule of Eq. 8.  Two
alternative confidence signals (max softmax probability and top-1/top-2
margin) and a static policy (always run T timesteps) are provided for the
ablation study called out in DESIGN.md.  All policies share one interface::

    should_exit(logits) -> boolean array over the batch

where ``logits`` are the *cumulative* (running-mean) classifier outputs after
the current timestep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.registry import Registry
from .entropy import (
    normalized_entropy,
    prediction_confidence,
    prediction_margin,
    softmax_probabilities,
)

__all__ = [
    "ExitPolicy",
    "EntropyExitPolicy",
    "ConfidenceExitPolicy",
    "MarginExitPolicy",
    "StaticExitPolicy",
    "EXIT_POLICIES",
    "build_policy",
]

EXIT_POLICIES = Registry("exit policy")


class ExitPolicy:
    """Base class for timestep-exit decisions."""

    name = "base"
    #: Direction of the threshold comparison in ``should_exit``: "below"
    #: (exit when score < θ), "above" (exit when score > θ), or None (no
    #: threshold — static).  Lets the serving engine decide every row from
    #: one ``score()`` pass against a per-row threshold (the live knob or a
    #: request's stamped one), bitwise-identically to ``should_exit`` and
    #: without mutating the shared policy object (docs/ARCHITECTURE.md).
    exit_when = None

    def should_exit(self, cumulative_logits: np.ndarray) -> np.ndarray:
        """Return a boolean array: True where inference may terminate."""
        raise NotImplementedError

    def score(self, cumulative_logits: np.ndarray) -> np.ndarray:
        """Return the underlying confidence score (useful for diagnostics)."""
        raise NotImplementedError


@EXIT_POLICIES.register("entropy")
@dataclass
class EntropyExitPolicy(ExitPolicy):
    """Exit when the normalized entropy drops below ``threshold`` (Eq. 8)."""

    threshold: float = 0.1
    name: str = "entropy"
    exit_when = "below"

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("entropy threshold must be in [0, 1] (entropy is normalized)")

    def score(self, cumulative_logits: np.ndarray) -> np.ndarray:
        return normalized_entropy(softmax_probabilities(cumulative_logits))

    def should_exit(self, cumulative_logits: np.ndarray) -> np.ndarray:
        return self.score(cumulative_logits) < self.threshold


@EXIT_POLICIES.register("confidence")
@dataclass
class ConfidenceExitPolicy(ExitPolicy):
    """Exit when the maximum softmax probability exceeds ``threshold``."""

    threshold: float = 0.9
    name: str = "confidence"
    exit_when = "above"

    def __post_init__(self):
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("confidence threshold must be in (0, 1]")

    def score(self, cumulative_logits: np.ndarray) -> np.ndarray:
        return prediction_confidence(softmax_probabilities(cumulative_logits))

    def should_exit(self, cumulative_logits: np.ndarray) -> np.ndarray:
        return self.score(cumulative_logits) > self.threshold


@EXIT_POLICIES.register("margin")
@dataclass
class MarginExitPolicy(ExitPolicy):
    """Exit when the top-1/top-2 probability margin exceeds ``threshold``."""

    threshold: float = 0.5
    name: str = "margin"
    exit_when = "above"

    def __post_init__(self):
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("margin threshold must be in (0, 1]")

    def score(self, cumulative_logits: np.ndarray) -> np.ndarray:
        return prediction_margin(softmax_probabilities(cumulative_logits))

    def should_exit(self, cumulative_logits: np.ndarray) -> np.ndarray:
        return self.score(cumulative_logits) > self.threshold


@EXIT_POLICIES.register("static")
@dataclass
class StaticExitPolicy(ExitPolicy):
    """Never exit early: the static-SNN baseline expressed as a policy."""

    name: str = "static"

    def score(self, cumulative_logits: np.ndarray) -> np.ndarray:
        return np.full(cumulative_logits.shape[0], np.inf)

    def should_exit(self, cumulative_logits: np.ndarray) -> np.ndarray:
        return np.zeros(cumulative_logits.shape[0], dtype=bool)


def build_policy(name: str, **kwargs) -> ExitPolicy:
    """Instantiate an exit policy by registry name."""
    return EXIT_POLICIES.create(name, **kwargs)

"""Weighted particle populations representing a multi-target intensity.

The sum of the weights approximates the expected number of targets, so
weights are non-negative but do not sum to one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .models import STATE_DIM, _as_state


def round_half_up(value: float) -> int:
    """Round to nearest integer, ties away from zero toward +inf (2.5 -> 3)."""
    if value < 0:
        raise ValueError("round_half_up expects a non-negative value")
    return int(math.floor(value + 0.5))


@dataclass
class ParticleSet:
    """States (n, 4), weights (n,), and the resampling ancestry.

    `ancestry` holds, for a freshly resampled set, the index of each
    particle's source in the pre-resampling population; None otherwise.
    """

    states: np.ndarray
    weights: np.ndarray
    ancestry: np.ndarray | None = None

    def __post_init__(self):
        self.states = _as_state(self.states)
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if self.weights.shape[0] != self.states.shape[0]:
            raise ValueError("weights length must match number of states")
        # An array method rather than np.all, whose Python wrapper costs as
        # much as the check; this runs several times a step.  A NaN weight
        # fails both comparisons.
        if not ((self.weights >= 0) & (self.weights < math.inf)).all():
            raise ValueError("particle weights must be finite and >= 0")
        if self.ancestry is not None:
            self.ancestry = np.asarray(self.ancestry, dtype=np.intp).ravel()
            if self.ancestry.shape[0] != self.weights.shape[0]:
                raise ValueError("ancestry length must match number of particles")

    def __len__(self) -> int:
        return self.states.shape[0]

    def total_weight(self) -> float:
        """Exact (compensated) sum of the weights."""
        return math.fsum(self.weights.tolist())


def empty_set() -> ParticleSet:
    return ParticleSet(states=np.empty((0, STATE_DIM)), weights=np.empty(0))

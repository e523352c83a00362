"""Deterministic random-stream derivation.

Every stochastic component draws from its own named stream, derived from
(master_seed, trial_index, purpose).  Because a stream's seed never depends
on which filter variants are enabled, toggling a feature (e.g. roughening)
cannot shift the draws seen by any other component, which makes ablations
bitwise comparable.
"""

import operator

import numpy as np

# Stable purpose codes; never renumber, only append.
_PURPOSES = {
    "truth": 0,
    "detection": 1,
    "measurement": 2,
    "clutter": 3,
    "shuffle": 4,
    "prediction": 5,
    "resampling": 6,
    "roughening": 7,
    "extraction": 8,
}


def stream(master_seed: int, trial: int, purpose: str) -> np.random.Generator:
    """Generator for one (master seed, trial, purpose) triple.

    Repeated calls with the same arguments return independent generator
    objects positioned at the same initial state.
    """
    code = _PURPOSES.get(purpose)
    if code is None:
        raise ValueError(f"unknown rng purpose {purpose!r}")
    seq = np.random.SeedSequence([operator.index(master_seed), operator.index(trial), code])
    return np.random.default_rng(seq)


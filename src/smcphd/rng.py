"""Deterministic random-stream derivation.

Every stochastic component draws from its own named stream, derived from
(master_seed, trial_index, purpose).  Because a stream's seed never depends
on which filter variants are enabled, toggling a feature (e.g. roughening)
cannot shift the draws seen by any other component, which makes ablations
bitwise comparable.
"""

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
    seq = np.random.SeedSequence([int(master_seed), int(trial), code])
    return np.random.default_rng(seq)


class TrialStreams:
    """Named random streams for one trial.

    `get(purpose)` creates the generator lazily on first use and then keeps
    consuming from it, so a purpose's draws form one sequence per
    instance.  Construct a fresh instance per (trial, variant) run.
    """

    def __init__(self, master_seed: int, trial: int):
        self.master_seed = int(master_seed)
        self.trial = int(trial)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, purpose: str) -> np.random.Generator:
        gen = self._streams.get(purpose)
        if gen is None:
            gen = stream(self.master_seed, self.trial, purpose)
            self._streams[purpose] = gen
        return gen

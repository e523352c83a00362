"""Ground-truth and measurement generation for multi-target trials.

Targets appear and disappear on a scripted schedule; their initial states
are drawn from the birth density unless fixed, and they move under the
process-noise dynamics.  Scans contain the detected targets' noisy
positions plus uniform Poisson clutter, shuffled so origin is not
recoverable from order.
"""

from dataclasses import dataclass, field

import numpy as np

from .models import ModelSet, birth_sample, check_numbers, clutter_sample, measure, propagate


@dataclass
class TargetScript:
    """One target's lifetime; alive on steps birth_step..death_step inclusive."""

    birth_step: int
    death_step: int
    initial_state: tuple | None = None  # 4 floats (px, vx, py, vy), or None to sample at birth

    def __post_init__(self):
        if self.initial_state is not None:
            self.initial_state = check_numbers("scenario.targets", self.initial_state, 4)


def benchmark_targets() -> list[TargetScript]:
    """Stock four-target schedule: staggered births, one early death."""
    return [
        TargetScript(1, 40),
        TargetScript(1, 28),
        TargetScript(8, 40),
        TargetScript(15, 40),
    ]


@dataclass
class ScenarioConfig:
    steps: int = 40
    targets: list[TargetScript] = field(default_factory=benchmark_targets)
    models: ModelSet = field(default_factory=ModelSet)

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"scenario.steps must be >= 1, got {self.steps}")
        for t in self.targets:
            if not (1 <= t.birth_step <= t.death_step <= self.steps):
                raise ValueError(
                    f"scenario.targets: schedule {t.birth_step}..{t.death_step} "
                    f"outside 1..{self.steps}"
                )


@dataclass
class GroundTruth:
    """Realized trajectories: per step, the alive (target id, state) pairs."""

    steps: int
    tracks: dict  # target id -> (birth_step, states array (lifetime, 4))

    def alive(self, step: int) -> list:
        out = []
        for tid, (birth, states) in self.tracks.items():
            offset = step - birth
            if 0 <= offset < len(states):
                out.append((tid, states[offset]))
        return out

    def states_at(self, step: int) -> np.ndarray:
        pairs = self.alive(step)
        if not pairs:
            return np.empty((0, 4))
        return np.vstack([s for _, s in pairs])


@dataclass
class ScanData:
    """Measurement sets per step; scans[k-1] belongs to step k."""

    scans: list

    def at(self, step: int) -> np.ndarray:
        return self.scans[step - 1]


def generate_truth(config: ScenarioConfig, rng: np.random.Generator) -> GroundTruth:
    """Realize all target trajectories.

    Deaths are scripted, not sampled: the survival probability belongs to
    the filter's model, while the scenario keeps the true cardinality
    deterministic given the schedule.
    """
    models = config.models
    tracks = {}
    for tid, script in enumerate(config.targets, start=1):
        if script.initial_state is not None:
            state = np.array([script.initial_state])
        else:
            state = birth_sample(models.birth, rng, 1)
        states = [state]
        for _ in range(script.birth_step, script.death_step):
            state = propagate(state, models.motion, rng)
            states.append(state)
        tracks[tid] = (script.birth_step, np.vstack(states))
    return GroundTruth(steps=config.steps, tracks=tracks)


def simulate_scans(
    truth: GroundTruth,
    config: ScenarioConfig,
    detection_rng: np.random.Generator,
    measurement_rng: np.random.Generator,
    clutter_rng: np.random.Generator,
    shuffle_rng: np.random.Generator,
) -> ScanData:
    """Scans for every step, with one named stream per noise source so that
    changing e.g. the clutter rate cannot shift the detection coins."""
    models = config.models
    scans = []
    for step in range(1, truth.steps + 1):
        states = truth.states_at(step)
        detected = detection_rng.random(len(states)) < models.detection.p_detect
        scan = np.vstack(
            [
                measure(states[detected], models.measurement, measurement_rng),
                clutter_sample(models.clutter, clutter_rng),
            ]
        )
        scans.append(scan[shuffle_rng.permutation(len(scan))])
    return ScanData(scans=scans)


def write_truth(truth: GroundTruth, fileobj) -> None:
    """Column text export: step id px vx py vy."""
    for step in range(1, truth.steps + 1):
        for tid, state in truth.alive(step):
            fileobj.write(
                f"{step}\t{tid}\t{state[0]:.6g}\t{state[1]:.6g}"
                f"\t{state[2]:.6g}\t{state[3]:.6g}\n"
            )


def write_scans(scans: ScanData, fileobj) -> None:
    """Column text export: step zx zy."""
    for step in range(1, len(scans.scans) + 1):
        for z in scans.at(step):
            fileobj.write(f"{step}\t{z[0]:.6g}\t{z[1]:.6g}\n")

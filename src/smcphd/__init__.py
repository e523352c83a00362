"""Particle PHD filter for multi-target tracking, with roughening.

Core pieces: single-target models, the particle intensity recursion
(predict/update), budgeted resampling, separate and direct roughening,
weighted k-means state extraction, the OSPA miss distance, and a Monte
Carlo benchmark harness with deterministic named random streams.
"""

from .config import RunConfig, VariantSpec, load_preset, load_run_config, benchmark_preset
from .extraction import extract_states
from .filter import FilterConfig, estimate_cardinality, predict, update
from .harness import RunSummary, SweepResult, TrialResult, run, run_trial, sweep
from .metrics import OspaParams, gain_ratio, ospa, ospa_bruteforce
from .models import (
    BirthModel,
    ClutterModel,
    DetectionModel,
    MeasurementModel,
    ModelSet,
    MotionModel,
)
from .particles import ParticleSet, empty_set
from .resampling import resample, target_count
from .roughening import (
    GordonConfig,
    RougheningConfig,
    direct_motion,
    gordon_std,
    separate_roughen,
    velocity_jitter,
)
from .scenario import ScanData, ScenarioConfig, TargetScript, generate_truth

__version__ = "0.1.0"

__all__ = [
    "BirthModel",
    "ClutterModel",
    "DetectionModel",
    "FilterConfig",
    "GordonConfig",
    "MeasurementModel",
    "ModelSet",
    "MotionModel",
    "OspaParams",
    "ParticleSet",
    "RougheningConfig",
    "RunConfig",
    "RunSummary",
    "ScanData",
    "ScenarioConfig",
    "SweepResult",
    "TargetScript",
    "TrialResult",
    "VariantSpec",
    "direct_motion",
    "empty_set",
    "estimate_cardinality",
    "extract_states",
    "gain_ratio",
    "generate_truth",
    "gordon_std",
    "load_preset",
    "load_run_config",
    "ospa",
    "ospa_bruteforce",
    "benchmark_preset",
    "predict",
    "resample",
    "run",
    "run_trial",
    "separate_roughen",
    "sweep",
    "target_count",
    "update",
    "velocity_jitter",
]

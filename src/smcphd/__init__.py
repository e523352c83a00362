"""Particle PHD filter for multi-target tracking, with roughening.

Core pieces: single-target models, the particle intensity recursion
(predict/update), budgeted resampling, separate and direct roughening,
weighted k-means state extraction, the OSPA miss distance, and a Monte
Carlo benchmark harness with deterministic named random streams.
"""

from .config import benchmark_preset

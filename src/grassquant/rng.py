"""Seed-derivation helpers.

All randomness in the library flows through explicitly injected
``numpy.random.Generator`` streams.  Experiment sweeps derive one child
stream per row from ``(master_seed, row_key)`` so that results are
reproducible per row and independent of scheduling order.
"""

from __future__ import annotations

import numpy as np


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Child generator for stream ``key`` of ``seed``; stable across runs."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))

"""Seed-derivation helpers.

All randomness in the library flows through explicitly injected
``numpy.random.Generator`` streams.  Experiment sweeps derive one child
stream per row from ``(master_seed, row_key)`` so that results are
reproducible per row and independent of scheduling order.  A seed is a
non-negative Python ``int``.
"""

from __future__ import annotations

import numpy as np

from .manifold import _check_int


def _check_seed(seed: int) -> None:
    """Raise :class:`DomainError` unless ``seed`` is a non-negative Python ``int``."""
    _check_int("seed", seed, 0)


def _seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """The seed sequence of stream ``key`` of ``seed``, after checking the seed."""
    _check_seed(seed)
    return np.random.SeedSequence(seed, spawn_key=tuple(key))


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Child generator for stream ``key`` of ``seed``; stable across runs."""
    return np.random.default_rng(_seed_sequence(seed, *key))

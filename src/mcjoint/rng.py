"""Seed derivation for reproducible serial/parallel Monte Carlo runs.

Every stochastic task derives its generator from a master seed plus an
index path, so results never depend on scheduling order.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def seed_path(seed, *indices: int) -> tuple:
    """``seed`` (an int or a tuple of ints) and then ``indices``, as one tuple
    of ints; a negative element anywhere raises ValidationError."""
    path = tuple(int(v) for v in (seed if isinstance(seed, (tuple, list)) else (seed,)))
    path += tuple(int(i) for i in indices)
    if min(path) < 0:
        raise ValidationError(f"seeds must be >= 0, got seed path {path}")
    return path


def task_rng(master_seed, *indices: int) -> np.random.Generator:
    """Return a generator for the substream addressed by ``indices``.

    The same (master_seed, indices) pair always yields the same stream,
    whether the task runs serially, in a thread, or in another process.
    ``master_seed`` may itself be a tuple of ints (a seed path).  A negative
    element anywhere in the path raises ValidationError.
    """
    return np.random.default_rng(np.random.SeedSequence(seed_path(master_seed, *indices)))

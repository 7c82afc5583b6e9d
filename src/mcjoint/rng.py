"""Seed derivation for reproducible serial/parallel Monte Carlo runs.

Every stochastic task derives its generator from a master seed plus an
index path, so results never depend on scheduling order.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def task_rng(master_seed, *indices: int) -> np.random.Generator:
    """Return a generator for the substream addressed by ``indices``.

    The same (master_seed, indices) pair always yields the same stream,
    whether the task runs serially, in a thread, or in another process.
    ``master_seed`` may itself be a tuple of ints (a seed path).  A negative
    element anywhere in the path raises ValidationError.
    """
    if isinstance(master_seed, (tuple, list)):
        path = [int(v) for v in master_seed]
    else:
        path = [int(master_seed)]
    path.extend(int(i) for i in indices)
    if min(path) < 0:
        raise ValidationError(f"seeds must be >= 0, got seed path {tuple(path)}")
    return np.random.default_rng(np.random.SeedSequence(path))

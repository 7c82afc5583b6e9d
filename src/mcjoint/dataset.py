"""Paired-measurement data model, CSV ingestion, and synthetic generators.

The generators mimic laboratory practice: uniform true levels on a chosen
range, additive or level-proportional Gaussian errors on both axes, a
detection cutoff that maps sub-limit readings to half the limit, and
optional rounding to a fixed number of significant digits.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ValidationError
from .rng import task_rng

# Default error SD, sized for the short range of levels 3-8.
SIGMA_SHORT = 0.12

ERROR_MODELS = ("additive", "mixed", "multiplicative")
PRECISION_CHOICES = (2, 3, 4)


@dataclass(frozen=True)
class PairedSample:
    """n paired measurements of the same specimens by two methods."""

    x: np.ndarray
    y: np.ndarray
    label: str = ""

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
            raise ValidationError("x and y must be 1-d vectors of equal length")
        if len(x) < 3:
            raise ValidationError("need at least 3 pairs")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValidationError("all values must be finite")
        x.setflags(write=False)
        y.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic paired sample."""

    xmin: float
    xmax: float
    n: int = 40
    slope: float = 1.0
    intercept: float = 0.0
    sigmax: float = SIGMA_SHORT
    sigmay: float = SIGMA_SHORT
    error_model: str = "additive"
    precision_x: Optional[int] = None
    precision_y: Optional[int] = None
    detmin: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("xmin", "xmax", "slope", "intercept", "sigmax", "sigmay", "detmin"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.xmin <= self.xmax:
            raise ValidationError(f"xmin {self.xmin} must be <= xmax {self.xmax}")
        if self.n < 3:
            raise ValidationError("n must be >= 3")
        if self.sigmax <= 0 or self.sigmay <= 0:
            raise ValidationError("sigmax and sigmay must be > 0")
        if self.detmin <= 0:
            raise ValidationError("detmin must be > 0")
        if self.error_model not in ERROR_MODELS:
            raise ValidationError(f"error_model must be one of {ERROR_MODELS}")
        for name in ("precision_x", "precision_y"):
            p = getattr(self, name)
            if p is not None and p not in PRECISION_CHOICES:
                raise ValidationError(f"{name} must be in {PRECISION_CHOICES} or None")


def round_significant(values: np.ndarray, digits: int) -> np.ndarray:
    """Round to ``digits`` significant digits, half to even on the mantissa.

    Zero passes through unchanged (its magnitude is undefined).
    """
    values = np.asarray(values, dtype=float)
    out = values.copy()
    nz = values != 0.0
    mag = np.floor(np.log10(np.abs(values[nz])))
    scale = 10.0 ** (digits - 1 - mag)
    out[nz] = np.round(values[nz] * scale) / scale
    return out


def _error_terms(model: str, true_levels: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Scale raw N(0, sigma) draws according to the error model.

    additive keeps the draws; multiplicative scales them by
    level/mean(level); mixed averages the two so that half of the error
    is proportional.  All three coincide at the center of the data.
    """
    if model == "additive":
        return raw
    rel = true_levels / np.mean(true_levels)
    if model == "multiplicative":
        return rel * raw
    return rel * raw / 2.0 + raw / 2.0


def generate(spec: GeneratorSpec) -> PairedSample:
    """Draw one paired sample according to ``spec``.

    Deterministic for a fixed seed: the draw order is x levels, then x
    errors, then y errors.  Values at or below the detection limit are
    stored as detmin/2; significant-digit rounding (when requested)
    applies only to values above the limit.
    """
    rng = task_rng(spec.seed)
    xr = rng.uniform(spec.xmin, spec.xmax, spec.n)
    yr = spec.slope * xr + spec.intercept
    xe = _error_terms(spec.error_model, xr, rng.normal(0.0, spec.sigmax, spec.n))
    ye = _error_terms(spec.error_model, yr, rng.normal(0.0, spec.sigmay, spec.n))

    def censor(values: np.ndarray, precision: Optional[int]) -> np.ndarray:
        kept = values if precision is None else round_significant(values, precision)
        return np.where(values > spec.detmin, kept, spec.detmin / 2.0)

    x = censor(xr + xe, spec.precision_x)
    y = censor(yr + ye, spec.precision_y)
    label = f"synthetic[{spec.error_model}] seed={spec.seed}"
    return PairedSample(x=x, y=y, label=label)


def read_csv(path) -> PairedSample:
    """Read a two-column numeric CSV (header row names the methods).

    Column 1 is the reference method (x), column 2 the test method (y).
    Blank lines are ignored.  Parse failures report the offending row and
    column; a file that cannot be opened or decoded raises ValidationError.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    except (OSError, UnicodeDecodeError) as err:
        raise ValidationError(f"{path}: unreadable: {type(err).__name__}: {err}") from None
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = rows[0]
    if len(header) < 2:
        raise ValidationError(f"{path}: need two columns, got {len(header)}")
    xs, ys = [], []
    for ridx, row in enumerate(rows[1:], start=2):
        if len(row) < 2:
            raise ValidationError(f"{path}: row {ridx}: missing column 2")
        for cidx, (cell, values) in enumerate(zip(row, (xs, ys)), start=1):
            try:
                values.append(float(cell))
            except ValueError:
                raise ValidationError(
                    f"{path}: row {ridx}, column {cidx}: non-numeric value {cell!r}"
                ) from None
    if len(xs) < 3:
        raise ValidationError(f"{path}: need at least 3 pairs, got {len(xs)}")
    label = f"{header[0].strip()} vs {header[1].strip()}"
    return PairedSample(x=np.array(xs), y=np.array(ys), label=label)


def hemoglobin_path() -> Path:
    """Path of the bundled glycated-hemoglobin sample."""
    return Path(__file__).parent / "data" / "hemoglobin.csv"


def load_hemoglobin() -> PairedSample:
    return read_csv(hemoglobin_path())

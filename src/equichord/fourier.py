"""Finite trigonometric polynomials with exact derivatives.

Periodic data everywhere in this package (radius-of-curvature profiles,
latitude perturbations, deformation modes) is stored as a constant plus a
finite list of harmonics ``amp * cos(k t + phase)``.  Derivatives are taken
by coefficient manipulation, never numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRange

__all__ = ["Harmonic", "TrigPolynomial"]


@dataclass(frozen=True)
class Harmonic:
    k: int
    amp: float
    phase: float = 0.0

    def __post_init__(self):
        if not (0 <= self.k < 2**53 and float(self.k).is_integer()):
            raise OutOfRange(f"harmonic order must be an integer in [0, 2^53), got {self.k}")
        if not (math.isfinite(self.amp) and math.isfinite(self.phase)):
            raise OutOfRange(f"harmonic amplitude and phase must be finite, got {self.amp}, {self.phase}")


@dataclass(frozen=True)
class TrigPolynomial:
    """``f(t) = c0 + sum_j amp_j cos(k_j t + phase_j)``."""

    c0: float = 0.0
    harmonics: tuple[Harmonic, ...] = field(default_factory=tuple)

    def __call__(self, t):
        """f at t, a number or an array; a constant is a double of t's shape."""
        if not self.harmonics:
            return np.full(np.shape(t), self.c0 + 0.0)[()]
        out = self.c0 + 0.0  # rounds as a zero array plus c0 does, -0.0 included
        for h in self.harmonics:
            out = out + h.amp * np.cos(h.k * t + h.phase)
        return out

    def derivative(self, order: int = 1) -> "TrigPolynomial":
        """Exact derivative, again a trigonometric polynomial.

        d/dt cos(kt + p) = k cos(kt + p + pi/2).
        """
        if order == 0:
            return self
        hs = tuple(
            Harmonic(h.k, h.amp * float(h.k) ** order, h.phase + order * np.pi / 2)
            for h in self.harmonics
            if h.k > 0
        )
        return TrigPolynomial(0.0, hs)

    @property
    def orders(self) -> set[int]:
        return {h.k for h in self.harmonics if h.amp != 0.0}

    def lipschitz_bound(self) -> float:
        """Upper bound on |f'|."""
        return float(sum(abs(h.amp) * h.k for h in self.harmonics))

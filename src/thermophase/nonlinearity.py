"""Convex potential family and Lipschitz coupling family.

The phase equation carries a monotone nonlinearity gamma, the derivative of a
convex potential gamma_hat with gamma_hat(0) = 0, plus a globally Lipschitz
coupling pi whose primitive pi_hat is normalised to pi_hat(0) = 0.

Closed forms:

  regular:              gamma_hat(r) = r^4 / 4                      on all of R
  logarithmic (kappa):  gamma_hat(r) = (kappa/2) [(1+r) ln(1+r)
                                       + (1-r) ln(1-r)]             on (-1, 1)
  obstacle_penalized:   gamma_hat(r) = dist(r, [-1, 1])^2 / (2 eps) on all of R

The penalized obstacle is the Moreau-Yosida envelope of the hard constraint
|r| <= 1 with parameter eps_pen; it is flagged experimental because it changes
the model rather than approximating it at a known rate.

Logarithmic evaluations never clamp: arguments at or beyond +-1 minus the
configured interior margin, and NaN, raise DomainViolation, so a separation
failure in a run is loud instead of silently saturated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DomainViolation

REGULAR = "regular"
LOGARITHMIC = "logarithmic"
OBSTACLE_PENALIZED = "obstacle_penalized"
POTENTIAL_KINDS = (REGULAR, LOGARITHMIC, OBSTACLE_PENALIZED)

AFFINE = "affine"
BOUNDED_SMOOTH = "bounded_smooth"
COUPLING_KINDS = (AFFINE, BOUNDED_SMOOTH)


@dataclass(frozen=True)
class Potential:
    """Convex potential gamma_hat with derivatives gamma, gamma', gamma''."""

    kind: str = REGULAR
    kappa: float = 1.0
    eps_pen: float = 0.1
    interior_margin: float = 1e-9

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise BadParameter(f"A2: unknown potential kind {self.kind!r}")
        if self.kind == LOGARITHMIC and not self.kappa > 0.0:
            raise BadParameter(f"A2: logarithmic potential needs kappa > 0, got {self.kappa}")
        if self.kind == OBSTACLE_PENALIZED and not self.eps_pen > 0.0:
            raise BadParameter(f"A2: penalized obstacle needs eps_pen > 0, got {self.eps_pen}")
        if not 0.0 < self.interior_margin < 1.0:
            raise BadParameter(
                f"A2: interior_margin must be in (0, 1), got {self.interior_margin}")

    @property
    def r_minus(self) -> float:
        return -1.0 if self.kind == LOGARITHMIC else -math.inf

    @property
    def r_plus(self) -> float:
        return 1.0 if self.kind == LOGARITHMIC else math.inf

    @property
    def bounded_domain(self) -> bool:
        return self.kind == LOGARITHMIC

    def contains(self, r) -> bool:
        """True if every entry is inside (r_minus + m, r_plus - m), m = interior_margin.

        min and max propagate NaN, so an array holding NaN is never inside."""
        if not self.bounded_domain:
            return bool(np.all(np.isfinite(r)))
        m = self.interior_margin
        r = np.asarray(r, dtype=float)
        return bool(np.min(r) > self.r_minus + m and np.max(r) < self.r_plus - m)

    def _require_interior(self, r):
        if self.bounded_domain and not self.contains(r):
            m = self.interior_margin
            raise DomainViolation(
                f"argument range [{float(np.min(r)):.12g}, {float(np.max(r)):.12g}] leaves "
                f"({self.r_minus + m:.12g}, {self.r_plus - m:.12g})"
            )

    # The quartic family uses products, not r**3 or r**4: numpy's pow takes a
    # slow path for negative bases.
    def gamma_hat(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == REGULAR:
            return 0.25 * (r * r) * (r * r)
        if self.kind == LOGARITHMIC:
            self._require_interior(r)
            return 0.5 * self.kappa * ((1.0 + r) * np.log1p(r) + (1.0 - r) * np.log1p(-r))
        excess = np.maximum(np.abs(r) - 1.0, 0.0)
        return excess**2 / (2.0 * self.eps_pen)

    def gamma(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == REGULAR:
            return r * r * r
        if self.kind == LOGARITHMIC:
            self._require_interior(r)
            return 0.5 * self.kappa * (np.log1p(r) - np.log1p(-r))
        return np.sign(r) * np.maximum(np.abs(r) - 1.0, 0.0) / self.eps_pen

    def dgamma(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == REGULAR:
            return 3.0 * r**2
        if self.kind == LOGARITHMIC:
            self._require_interior(r)
            return self.kappa / ((1.0 + r) * (1.0 - r))
        return np.where(np.abs(r) > 1.0, 1.0 / self.eps_pen, 0.0)

    def d2gamma(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == REGULAR:
            return 6.0 * r
        if self.kind == LOGARITHMIC:
            self._require_interior(r)
            return self.kappa * 2.0 * r / ((1.0 + r) * (1.0 - r)) ** 2
        return np.zeros_like(r)


def _log_cosh(r):
    # |r| + log((1 + exp(-2|r|)) / 2), stable for large arguments
    a = np.abs(r)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


@dataclass(frozen=True)
class Coupling:
    """Lipschitz coupling pi with primitive pi_hat, pi_hat(0) = 0.

    affine:         pi(r) = a r + b
    bounded_smooth: pi(r) = c tanh(r)
    """

    kind: str = AFFINE
    a: float = -1.0
    b: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in COUPLING_KINDS:
            raise BadParameter(f"A3: unknown coupling kind {self.kind!r}")
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise BadParameter(f"A3: coupling parameter {name} must be finite")

    @property
    def lipschitz(self) -> float:
        return abs(self.a) if self.kind == AFFINE else abs(self.c)

    def pi_hat(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == AFFINE:
            return 0.5 * self.a * r**2 + self.b * r
        return self.c * _log_cosh(r)

    def pi(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == AFFINE:
            return self.a * r + self.b
        return self.c * np.tanh(r)

    def dpi(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == AFFINE:
            return np.full_like(r, self.a)
        return self.c / np.cosh(r) ** 2

    def d2pi(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == AFFINE:
            return np.zeros_like(r)
        t = np.tanh(r)
        return -2.0 * self.c * t * (1.0 - t**2)

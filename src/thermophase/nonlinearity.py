"""Convex potential family and Lipschitz coupling family.

The phase equation carries a monotone nonlinearity gamma, the derivative of a
convex potential gamma_hat with gamma_hat(0) = 0, plus a globally Lipschitz
coupling pi whose primitive pi_hat is normalised to pi_hat(0) = 0.  The
scheme and its sensitivities evaluate gamma, gamma', pi_hat, pi and pi'; no
second derivative is needed (the optimizer is Gauss-Newton), and gamma_hat
appears only in the closed forms below.

Closed forms:

  regular:              gamma_hat(r) = r^4 / 4                      on all of R
  logarithmic (kappa):  gamma_hat(r) = (kappa/2) [(1+r) ln(1+r)
                                       + (1-r) ln(1-r)]             on (-1, 1),
                        gamma(r) = kappa artanh(r)
  obstacle_penalized:   gamma_hat(r) = dist(r, [-1, 1])^2 / (2 eps) on all of R

The penalized obstacle is the Moreau-Yosida envelope of the hard constraint
|r| <= 1 with parameter eps_pen; it is flagged experimental because it changes
the model rather than approximating it at a known rate.

Logarithmic evaluations never clamp: arguments at or beyond +-1 minus the
interior margin ``INTERIOR_MARGIN`` (1e-9), and NaN, raise DomainViolation,
so a separation failure in a run is loud instead of silently saturated.  The
one exception is the phase Newton loop, which checks each trial point once
with ``contains`` and then evaluates gamma and gamma' there without a second
check.
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
INTERIOR_MARGIN = 1e-9  # distance from the ends of a bounded domain that ``contains`` keeps

AFFINE = "affine"
BOUNDED_SMOOTH = "bounded_smooth"
COUPLING_KINDS = (AFFINE, BOUNDED_SMOOTH)


@dataclass(frozen=True)
class Potential:
    """Convex potential gamma_hat, evaluated through its derivatives gamma and gamma'."""

    kind: str = REGULAR
    kappa: float = 1.0
    eps_pen: float = 0.1

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise BadParameter(f"A2: unknown potential kind {self.kind!r}")
        if self.kind == LOGARITHMIC and not self.kappa > 0.0:
            raise BadParameter(f"A2: logarithmic potential needs kappa > 0, got {self.kappa}")
        if self.kind == OBSTACLE_PENALIZED and not self.eps_pen > 0.0:
            raise BadParameter(f"A2: penalized obstacle needs eps_pen > 0, got {self.eps_pen}")

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
        """True if every entry is inside (r_minus + m, r_plus - m), m = INTERIOR_MARGIN.

        The bounded domain (-1, 1) is symmetric, so this is max|r| < 1 - m; max
        propagates NaN, so an array holding NaN is never inside."""
        if not self.bounded_domain:
            return bool(np.isfinite(r).all())
        return bool(np.abs(np.asarray(r, dtype=float)).max() < self.r_plus - INTERIOR_MARGIN)

    def _require_interior(self, r):
        if self.bounded_domain and not self.contains(r):
            m = INTERIOR_MARGIN
            raise DomainViolation(
                f"argument range [{float(np.min(r)):.12g}, {float(np.max(r)):.12g}] leaves "
                f"({self.r_minus + m:.12g}, {self.r_plus - m:.12g})"
            )

    def gamma(self, r):
        r = np.asarray(r, dtype=float)
        self._require_interior(r)
        return self._gamma(r)

    def dgamma(self, r):
        r = np.asarray(r, dtype=float)
        self._require_interior(r)
        return self._dgamma(r)

    # Unchecked gamma and gamma' on a float array that the caller has found
    # inside the domain (``contains``): the Newton loop of ``state.phi_step``
    # checks each trial once and then evaluates here.  The cube is a product,
    # not r**3: numpy's pow takes a slow path for negative bases.
    def _gamma(self, r):
        if self.kind == REGULAR:
            return r * r * r
        if self.kind == LOGARITHMIC:
            return self.kappa * np.arctanh(r)
        return np.sign(r) * np.maximum(np.abs(r) - 1.0, 0.0) / self.eps_pen

    def _dgamma(self, r):
        if self.kind == REGULAR:
            return 3.0 * r**2
        if self.kind == LOGARITHMIC:
            return self.kappa / ((1.0 + r) * (1.0 - r))
        return np.where(np.abs(r) > 1.0, 1.0 / self.eps_pen, 0.0)


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

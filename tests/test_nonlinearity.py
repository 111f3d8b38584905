import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermophase.errors import BadParameter, DomainViolation
from thermophase.nonlinearity import INTERIOR_MARGIN, Coupling, Potential


def test_regular_closed_forms():
    pot = Potential("regular")
    assert pot.gamma(2.0) == pytest.approx(8.0)
    assert pot.dgamma(2.0) == pytest.approx(12.0)


def test_logarithmic_closed_forms():
    pot = Potential("logarithmic", kappa=1.0)
    assert pot.gamma(0.0) == 0.0
    assert pot.gamma(0.5) == pytest.approx(0.5 * math.log(3.0))
    assert pot.dgamma(0.0) == pytest.approx(1.0)


def test_obstacle_penalized_envelope():
    pot = Potential("obstacle_penalized", eps_pen=0.1)
    assert pot.gamma(0.7) == 0.0
    assert pot.gamma(1.1) == pytest.approx(1.0)
    assert pot.gamma(-1.1) == pytest.approx(-1.0)


def test_bad_parameters():
    with pytest.raises(BadParameter):
        Potential("logarithmic", kappa=-1.0)
    with pytest.raises(BadParameter):
        Potential("obstacle_penalized", eps_pen=0.0)
    with pytest.raises(BadParameter):
        Potential("nope")
    with pytest.raises(BadParameter):
        Coupling("affine", a=math.inf)


def test_logarithmic_domain_violation_is_loud():
    pot = Potential("logarithmic", kappa=1.0)
    with pytest.raises(DomainViolation):
        pot.gamma(1.0)
    with pytest.raises(DomainViolation):
        pot.gamma(np.array([0.0, -1.0 + 1e-12]))


@pytest.mark.parametrize("kappa", [1.0, 0.7])
def test_logarithmic_gamma_matches_log1p_form(rng, kappa):
    # gamma = kappa artanh(r) in one pass; the two-log1p form agrees to 2 ulp,
    # also within 1e-9 of the singularities
    pot = Potential("logarithmic", kappa=kappa)
    gap = np.logspace(-8.9, -0.01, 5000)
    r = np.concatenate([rng.uniform(-1.0, 1.0, 20_000), 1.0 - gap, gap - 1.0])
    ref = 0.5 * kappa * (np.log1p(r) - np.log1p(-r))
    assert np.all(np.abs(pot.gamma(r) - ref) <= 2 * np.spacing(np.abs(ref)))
    edge = 1.0 - INTERIOR_MARGIN
    for bad in (edge, -edge, np.nan):
        with pytest.raises(DomainViolation):
            pot.gamma(np.array([0.0, bad]))


@pytest.mark.parametrize("method", ["gamma", "dgamma"])
def test_logarithmic_rejects_nan(method):
    pot = Potential("logarithmic")
    with pytest.raises(DomainViolation, match="leaves"):
        getattr(pot, method)(np.array([0.1, np.nan]))


def test_affine_coupling_values():
    cpl = Coupling("affine", a=-1.0, b=0.0)
    assert cpl.pi_hat(2.0) == pytest.approx(-2.0)
    assert cpl.dpi(123.4) == pytest.approx(-1.0)
    r = np.linspace(-5.0, 5.0, 101)
    slopes = np.diff(cpl.pi(r)) / np.diff(r)
    assert np.max(np.abs(slopes)) == pytest.approx(abs(cpl.a), rel=1e-12)


def test_bounded_smooth_coupling_values():
    cpl = Coupling("bounded_smooth", c=1.0)
    assert cpl.pi(0.0) == 0.0
    assert cpl.dpi(0.0) == pytest.approx(1.0)
    assert cpl.pi_hat(0.0) == pytest.approx(0.0, abs=1e-15)
    # stable for large arguments
    assert np.isfinite(cpl.pi_hat(500.0))


def test_regular_products_match_pow(rng):
    # gamma is evaluated as a product; it agrees with pow to rounding
    pot = Potential("regular")
    r = np.concatenate([rng.uniform(-3.0, 3.0, 2000), -np.logspace(-6, 3, 50),
                        np.logspace(-6, 3, 50)])
    assert np.any(r < 0) and np.any(r > 0)
    assert np.max(np.abs(pot.gamma(r) - r**3) / np.abs(r**3)) <= 5e-16


_CASES = [
    (Potential("regular"), (-1.5, 1.5)),
    (Potential("logarithmic", kappa=0.7), (-0.9, 0.9)),
    (Coupling("affine", a=-1.0, b=0.2), (-2.0, 2.0)),
    (Coupling("bounded_smooth", c=1.3), (-2.0, 2.0)),
]


def _gamma_hat(pot, r):
    # the potential's closed form, as the nonlinearity module documents it
    if pot.kind == "regular":
        return r**4 / 4
    return 0.5 * pot.kappa * ((1 + r) * np.log1p(r) + (1 - r) * np.log1p(-r))


@pytest.mark.parametrize("spec,interval", _CASES)
@pytest.mark.parametrize("orders", [("hat", "d0"), ("d0", "d1")])
def test_finite_difference_consistency(spec, interval, orders):
    # the primitive, the function and its derivative, in the order hat, d0, d1
    chain = ((lambda r: _gamma_hat(spec, r), spec.gamma, spec.dgamma)
             if isinstance(spec, Potential) else (spec.pi_hat, spec.pi, spec.dpi))
    low, high = (chain[("hat", "d0", "d1").index(o)] for o in orders)
    rs = np.linspace(interval[0], interval[1], 7)
    errs = []
    for h in (1e-3, 5e-4):
        fd = (low(rs + h) - low(rs - h)) / (2 * h)
        errs.append(np.max(np.abs(fd - high(rs))))
    if errs[0] < 1e-12:  # exact derivative (affine cases); nothing to rate
        assert errs[1] < 1e-12
    else:
        order = math.log2(errs[0] / errs[1]) / math.log2(2.0)
        assert order >= 1.9


@settings(max_examples=200, deadline=None)
@given(r=st.floats(-0.99, 0.99), s=st.floats(-0.99, 0.99))
def test_gamma_monotone_logarithmic(r, s):
    pot = Potential("logarithmic", kappa=1.0)
    lo, hi = min(r, s), max(r, s)
    assert pot.gamma(lo) <= pot.gamma(hi) + 1e-15


def test_gamma_monotone_sampled(rng):
    for pot, box in ((Potential("regular"), 3.0),
                     (Potential("obstacle_penalized", eps_pen=0.05), 3.0)):
        r = np.sort(rng.uniform(-box, box, 10_000))
        g = pot.gamma(r)
        assert np.all(np.diff(g) >= -1e-14)


def test_gamma_hat_nonnegative_and_zero_at_origin(rng):
    # gamma_hat(r) is the integral of gamma from 0 to r, so it is >= 0 with its
    # minimum 0 at the origin exactly when gamma(0) = 0 and r gamma(r) >= 0
    for pot, box in ((Potential("regular"), 3.0),
                     (Potential("logarithmic", kappa=1.0), 0.999),
                     (Potential("obstacle_penalized", eps_pen=0.1), 3.0)):
        r = rng.uniform(-box, box, 10_000)
        assert np.all(r * pot.gamma(r) >= 0.0)
        assert pot.gamma(0.0) == 0.0


def test_yosida_pointwise_limit():
    # inside [-1, 1] the envelope dist^2/(2 eps) is flat; outside its slope is
    # the signed distance over eps
    for eps in (1e-1, 1e-2, 1e-3):
        pot = Potential("obstacle_penalized", eps_pen=eps)
        assert pot.gamma(0.8) == 0.0
        assert pot.gamma(-1.0) == 0.0
        assert pot.gamma(1.5) * eps == pytest.approx(0.5)
        assert pot.gamma(-1.5) * eps == pytest.approx(-0.5)


def test_pi_hat_normalization_and_relation(rng):
    for cpl in (Coupling("affine", a=-1.0, b=0.3),
                Coupling("bounded_smooth", c=2.0)):
        assert cpl.pi_hat(0.0) == pytest.approx(0.0, abs=1e-15)
        r = rng.uniform(-2, 2, 50)
        h = 1e-6
        fd = (cpl.pi_hat(r + h) - cpl.pi_hat(r - h)) / (2 * h)
        assert np.max(np.abs(fd - cpl.pi(r))) <= 1e-8

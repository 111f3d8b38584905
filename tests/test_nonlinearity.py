import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermophase.errors import BadParameter, DomainViolation
from thermophase.nonlinearity import Coupling, Potential


def test_regular_closed_forms():
    pot = Potential("regular")
    assert pot.gamma_hat(2.0) == pytest.approx(4.0)
    assert pot.gamma(2.0) == pytest.approx(8.0)
    assert pot.dgamma(2.0) == pytest.approx(12.0)
    assert pot.d2gamma(2.0) == pytest.approx(12.0)


def test_logarithmic_closed_forms():
    pot = Potential("logarithmic", kappa=1.0)
    assert pot.gamma_hat(0.0) == 0.0
    assert pot.gamma(0.5) == pytest.approx(0.5 * math.log(3.0))
    assert pot.dgamma(0.0) == pytest.approx(1.0)


def test_obstacle_penalized_envelope():
    pot = Potential("obstacle_penalized", eps_pen=0.1)
    assert pot.gamma_hat(1.1) == pytest.approx(0.05)
    assert pot.gamma_hat(0.7) == 0.0
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


@pytest.mark.parametrize("method", ["gamma_hat", "gamma", "dgamma", "d2gamma"])
def test_logarithmic_rejects_nan(method):
    pot = Potential("logarithmic")
    with pytest.raises(DomainViolation, match="leaves"):
        getattr(pot, method)(np.array([0.1, np.nan]))


def test_affine_coupling_values():
    cpl = Coupling("affine", a=-1.0, b=0.0)
    assert cpl.pi_hat(2.0) == pytest.approx(-2.0)
    assert cpl.dpi(123.4) == pytest.approx(-1.0)
    assert cpl.lipschitz == 1.0


def test_bounded_smooth_coupling_values():
    cpl = Coupling("bounded_smooth", c=1.0)
    assert cpl.pi(0.0) == 0.0
    assert cpl.dpi(0.0) == pytest.approx(1.0)
    assert cpl.pi_hat(0.0) == pytest.approx(0.0, abs=1e-15)
    # stable for large arguments
    assert np.isfinite(cpl.pi_hat(500.0))


def test_regular_products_match_pow(rng):
    # gamma and gamma_hat are evaluated as products; they agree with pow to rounding
    pot = Potential("regular")
    r = np.concatenate([rng.uniform(-3.0, 3.0, 2000), -np.logspace(-6, 3, 50),
                        np.logspace(-6, 3, 50)])
    assert np.any(r < 0) and np.any(r > 0)
    assert np.max(np.abs(pot.gamma(r) - r**3) / np.abs(r**3)) <= 5e-16
    assert np.max(np.abs(pot.gamma_hat(r) - 0.25 * r**4) / (0.25 * r**4)) <= 5e-16


_CASES = [
    (Potential("regular"), (-1.5, 1.5)),
    (Potential("logarithmic", kappa=0.7), (-0.9, 0.9)),
    (Coupling("affine", a=-1.0, b=0.2), (-2.0, 2.0)),
    (Coupling("bounded_smooth", c=1.3), (-2.0, 2.0)),
]


@pytest.mark.parametrize("spec,interval", _CASES)
@pytest.mark.parametrize("orders", [("hat", "d0"), ("d0", "d1"), ("d1", "d2")])
def test_finite_difference_consistency(spec, interval, orders):
    # the function and its derivatives, in the order hat, d0, d1, d2
    chain = ((spec.gamma_hat, spec.gamma, spec.dgamma, spec.d2gamma)
             if isinstance(spec, Potential) else (spec.pi_hat, spec.pi, spec.dpi, spec.d2pi))
    low, high = (chain[("hat", "d0", "d1", "d2").index(o)] for o in orders)
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
    for pot, box in ((Potential("regular"), 3.0),
                     (Potential("logarithmic", kappa=1.0), 0.999),
                     (Potential("obstacle_penalized", eps_pen=0.1), 3.0)):
        r = rng.uniform(-box, box, 10_000)
        assert np.all(pot.gamma_hat(r) >= 0.0)
        assert pot.gamma_hat(0.0) == 0.0


def test_yosida_pointwise_limit():
    # inside [-1, 1] the envelope vanishes; outside it scales like dist^2/(2 eps)
    for eps in (1e-1, 1e-2, 1e-3):
        pot = Potential("obstacle_penalized", eps_pen=eps)
        assert pot.gamma_hat(0.8) == 0.0
        assert pot.gamma_hat(-1.0) == 0.0
        assert pot.gamma_hat(1.5) * (2 * eps) == pytest.approx(0.25)


def test_pi_hat_normalization_and_relation(rng):
    for cpl in (Coupling("affine", a=-1.0, b=0.3),
                Coupling("bounded_smooth", c=2.0)):
        assert cpl.pi_hat(0.0) == pytest.approx(0.0, abs=1e-15)
        r = rng.uniform(-2, 2, 50)
        h = 1e-6
        fd = (cpl.pi_hat(r + h) - cpl.pi_hat(r - h)) / (2 * h)
        assert np.max(np.abs(fd - cpl.pi(r))) <= 1e-8

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cell_centers, laplacian_strided

from thermophase import state
from thermophase.errors import AnisotropicCells, DegenerateGrid, NoConvergence, ShapeMismatch
from thermophase.grid import (_from_cosine, _inverse_symbol, _to_cosine, build_grid, cg_solve,
                              cosine_solve, inner, laplacian_neumann, norm, riesz_v)


def test_build_grid_arithmetic():
    g = build_grid(1, 1, 4, 4)
    assert g.hx == 0.25 and g.hy == 0.25 and g.shape == (4, 4)
    g = build_grid(1, 2, 8, 16)
    assert g.hx == 0.125 and g.hy == 0.125 and g.shape == (16, 8)


def test_build_grid_rejects_degenerate_and_anisotropic():
    with pytest.raises(DegenerateGrid):
        build_grid(1, 1, 2, 2)
    with pytest.raises(DegenerateGrid, match="edge lengths lx, ly"):
        build_grid(-1, 1, 4, 4)
    with pytest.raises(AnisotropicCells, match="lx/nx = 0.125, ly/ny = 0.25"):
        build_grid(1, 2, 8, 8)


def test_laplacian_annihilates_constants():
    g = build_grid(1, 1, 8, 8)
    assert np.all(laplacian_neumann(g, np.full(g.shape, 3.7)) == 0.0)


def test_laplacian_neumann_eigenfunction_128():
    g = build_grid(1, 1, 128, 128)
    x, _ = cell_centers(g)
    f = np.cos(np.pi * x / g.lx)
    err = np.max(np.abs(laplacian_neumann(g, f) + (np.pi / g.lx) ** 2 * f))
    assert err <= 1e-3


def test_laplacian_mean_zero_random(rng):
    g = build_grid(1, 1, 16, 16)
    f = rng.uniform(-1, 1, g.shape)
    mean = g.cell_volume * math.fsum(laplacian_neumann(g, f).ravel().tolist())
    assert abs(mean) <= 1e-13 * norm(g, f)


@pytest.mark.parametrize("nx,ny", [(3, 5), (7, 4), (64, 64)])
def test_laplacian_matches_strided_stencil_bitwise(rng, nx, ny):
    g = build_grid(nx / ny, 1, nx, ny)
    f = rng.standard_normal(g.shape)
    out = laplacian_neumann(g, f)
    assert out.shape == g.shape
    assert np.array_equal(out, laplacian_strided(g, f))
    # a non-contiguous view of the same values gives the same bits
    wide = np.repeat(f, 2, axis=1)
    assert np.array_equal(laplacian_neumann(g, wide[:, ::2]), out)


def test_laplacian_shape_mismatch():
    g = build_grid(1, 1, 8, 8)
    with pytest.raises(ShapeMismatch):
        laplacian_neumann(g, np.zeros((4, 4)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_laplacian_symmetry_property(seed):
    g = build_grid(1, 1, 12, 12)
    r = np.random.default_rng(seed)
    a = r.standard_normal(g.shape)
    b = r.standard_normal(g.shape)
    s1 = inner(g, laplacian_neumann(g, a), b)
    s2 = inner(g, a, laplacian_neumann(g, b))
    assert abs(s1 - s2) <= 1e-12 * max(abs(s1), 1.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_laplacian_matches_stiffness_form(seed):
    g = build_grid(1, 1, 12, 12)
    r = np.random.default_rng(seed)
    a = r.standard_normal(g.shape)
    b = r.standard_normal(g.shape)
    s = inner(g, laplacian_neumann(g, a), b)
    stiff = inner(g, a, b, "v") - inner(g, a, b, "l2")
    assert abs(s + stiff) <= 1e-12 * max(abs(s), 1.0)


def test_inner_unit_measure_and_constant_v():
    g = build_grid(1, 1, 16, 16)
    ones = np.full(g.shape, 1.0)
    assert inner(g, ones, ones) == pytest.approx(1.0, abs=1e-14)
    c = np.full(g.shape, 2.5)
    assert inner(g, c, c, "v") == pytest.approx(2.5**2 * g.lx * g.ly, abs=1e-12)


def test_inner_v_cosine_analytic():
    g = build_grid(1, 1, 128, 128)
    x, _ = cell_centers(g)
    a = np.cos(np.pi * x)
    assert abs(inner(g, a, a, "v") - (0.5 + np.pi**2 / 2)) <= 1e-3


def test_cg_identity_one_iteration():
    g = build_grid(1, 1, 8, 8)
    rhs = np.arange(64, dtype=float).reshape(g.shape)
    res = cg_solve(g, lambda z: z, rhs, tol=1e-12, maxit=state.CG_MAXIT, precond=lambda r: r)
    assert res.iterations == 1
    assert np.allclose(res.x, rhs, rtol=0, atol=1e-13)


def test_cg_leaves_rhs_unchanged(rng):
    # x, r and p are updated in place; r starts as a copy of rhs
    g = build_grid(1, 1, 16, 16)
    rhs = rng.standard_normal(g.shape)
    kept = rhs.copy()
    res = cg_solve(g, lambda z: z - 0.01 * laplacian_neumann(g, z), rhs, tol=1e-12,
                   maxit=state.CG_MAXIT, precond=lambda r: r)
    assert res.iterations > 1
    assert np.array_equal(rhs, kept)


def test_cg_roundtrip_recovers_truth(rng):
    g = build_grid(1, 1, 32, 32)
    tau = 0.01
    x_true = rng.standard_normal(g.shape)

    def apply(z):
        return z - tau * laplacian_neumann(g, z)

    res = cg_solve(g, apply, apply(x_true), tol=1e-12, maxit=state.CG_MAXIT,
                   precond=lambda r: r)
    assert norm(g, res.x - x_true) <= 1e-10 * norm(g, x_true)


def test_cg_cap_at_the_needed_iteration_count_returns(rng):
    # the maxit-th iterate is tested against the target before NoConvergence
    g = build_grid(1, 1, 16, 16)
    tau = 0.01

    def apply(z):
        return z - tau * laplacian_neumann(g, z)

    rhs = rng.standard_normal(g.shape)
    needed = cg_solve(g, apply, rhs, tol=1e-12, maxit=state.CG_MAXIT,
                      precond=lambda r: r).iterations
    capped = cg_solve(g, apply, rhs, tol=1e-12, maxit=needed, precond=lambda r: r)
    assert capped.iterations == needed
    assert np.linalg.norm(apply(capped.x) - rhs) <= 1e-12 * np.linalg.norm(rhs)
    with pytest.raises(NoConvergence):
        cg_solve(g, apply, rhs, tol=1e-12, maxit=needed - 1, precond=lambda r: r)


def test_cg_singular_neumann_inconsistent_rhs(rng):
    g = build_grid(1, 1, 16, 16)
    rhs = rng.standard_normal(g.shape)
    rhs += 1.0 - rhs.mean()  # force a nonzero mean, incompatible with the kernel
    with pytest.raises(NoConvergence) as info:
        cg_solve(g, lambda z: -laplacian_neumann(g, z), rhs, tol=1e-12, maxit=400,
                 precond=lambda r: r)
    assert info.value.residual is not None and info.value.residual > 0


def test_cg_error_monotone_in_operator_norm(rng):
    g = build_grid(1, 1, 16, 16)
    tau = 0.01
    x_true = rng.standard_normal(g.shape)

    def apply(z):
        return z - tau * laplacian_neumann(g, z)

    rhs = apply(x_true)
    errors = []
    x = g.zeros()
    r = rhs.copy()
    p = r.copy()
    rs = float(np.sum(r * r))
    for _ in range(30):
        e = x - x_true
        errors.append(math.sqrt(float(np.sum(e * apply(e)))))
        ap = apply(p)
        alpha = rs / float(np.sum(p * ap))
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(np.sum(r * r))
        p = r + (rs_new / rs) * p
        rs = rs_new
    drops = [errors[i + 1] <= errors[i] * (1 + 1e-12) for i in range(len(errors) - 1)]
    assert all(drops)


def test_cg_residual_history_monotone_up_to_rounding(rng):
    g = build_grid(1, 1, 16, 16)
    tau = 0.01
    x_true = rng.standard_normal(g.shape)

    def apply(z):
        return z - tau * laplacian_neumann(g, z)

    # the residual a solve capped at k iterations reports, for k = 0 .. needed - 1
    rhs = apply(x_true)
    hist = []
    needed = cg_solve(g, apply, rhs, tol=1e-12, maxit=state.CG_MAXIT,
                      precond=lambda r: r).iterations
    for cap in range(needed):
        with pytest.raises(NoConvergence) as info:
            cg_solve(g, apply, rhs, tol=1e-12, maxit=cap, precond=lambda r: r)
        hist.append(info.value.residual)
    assert len(hist) > 5
    assert all(hist[i + 1] <= hist[i] * (1 + 1e-6) for i in range(len(hist) - 1))


def test_cg_diagonal_preconditioner_matches_plain(rng):
    g = build_grid(1, 1, 16, 16)
    tau = 0.02
    weight = 1.0 + rng.random(g.shape)  # SPD diagonal term

    def apply(z):
        return weight * z - tau * laplacian_neumann(g, z)

    rhs = rng.standard_normal(g.shape)
    plain = cg_solve(g, apply, rhs, tol=1e-12, maxit=state.CG_MAXIT, precond=lambda r: r)
    jacobi = cg_solve(g, apply, rhs, tol=1e-12, maxit=state.CG_MAXIT,
                      precond=lambda r: r / (weight + 4 * tau / g.hx**2))
    assert jacobi.iterations <= plain.iterations
    assert norm(g, plain.x - jacobi.x) <= 1e-10 * norm(g, plain.x)


@pytest.mark.parametrize("c,tol,steps", [(0.3, 0.1, 1), (0.2, 1e-2, 2), (0.01, 1e-11, 5)])
def test_cg_solve_contraction_takes_the_certified_fixed_point_steps(rng, c, tol, steps):
    # apply = diag(w), w in [1 - c, 1 + c], with the identity preconditioner:
    # ||I - apply|| = c, and j corrections leave the residual (1 - w)^(j+1) rhs
    g = build_grid(1, 1, 16, 16)
    w = 1.0 + c * rng.uniform(-1, 1, g.shape)
    w.flat[0] = 1.0 - c
    rhs = rng.standard_normal(g.shape)
    kept = rhs.copy()
    res = cg_solve(g, lambda z: w * z, rhs, tol=tol, maxit=steps, precond=lambda r: r,
                   splitting=(c, lambda z: (w - 1) * z))
    assert res.iterations == steps
    assert np.linalg.norm(w * res.x - rhs) <= c ** (steps + 1) * (1 + 1e-12) * np.linalg.norm(rhs)
    assert np.array_equal(rhs, kept)
    # one correction short of j: the bound no longer certifies the iterate
    with pytest.raises(NoConvergence, match="^CG did not reach tol") as info:
        cg_solve(g, lambda z: w * z, rhs, tol=tol, maxit=steps - 1, precond=lambda r: r,
                 splitting=(c, lambda z: (w - 1) * z))
    assert info.value.iterations == steps - 1
    assert info.value.residual == pytest.approx(np.linalg.norm((1 - w) ** steps * rhs))


@pytest.mark.parametrize("contraction", [0.9, 1.0, 1.5, math.nan])
def test_cg_solve_contraction_outside_the_rule_runs_cg(rng, contraction):
    # 0.9 at tol 1e-12 fails c <= 2^(1-j); >= 1 and NaN certify nothing
    g = build_grid(1, 1, 16, 16)

    def apply(z):
        return z - 0.01 * laplacian_neumann(g, z)

    rhs = rng.standard_normal(g.shape)
    plain = cg_solve(g, apply, rhs, tol=1e-12, maxit=state.CG_MAXIT, precond=lambda r: r)
    res = cg_solve(g, apply, rhs, tol=1e-12, maxit=state.CG_MAXIT, precond=lambda r: r,
                   splitting=(contraction, lambda z: -0.01 * laplacian_neumann(g, z)))
    assert plain.iterations > 1 and res.iterations == plain.iterations
    assert np.array_equal(res.x, plain.x)


@pytest.mark.parametrize("c,tol,steps", [(0.05, 0.1, 0), (0.3, 0.1, 1), (0.01, 1e-11, 5)])
def test_cg_solve_splitting_applies_only_the_remainder(rng, c, tol, steps):
    # apply = P^-1 + N with P = diag(1/d), N = diag(n), |n| <= c d: the certified
    # solve calls N once per correction, P once more, and never apply
    g = build_grid(1, 1, 16, 16)
    d = 1.0 + rng.random(g.shape)
    n = c * d * rng.uniform(-1, 1, g.shape)
    calls = {"apply": 0, "precond": 0, "remainder": 0}

    def counted(name, f):
        def wrapped(z):
            calls[name] += 1
            return f(z)
        return wrapped

    rhs = rng.standard_normal(g.shape)
    kept = rhs.copy()
    res = cg_solve(g, counted("apply", lambda z: (d + n) * z), rhs, tol=tol, maxit=steps,
                   precond=counted("precond", lambda r: r / d),
                   splitting=(c, counted("remainder", lambda z: n * z)))
    assert res.iterations == steps
    assert calls == {"apply": 0, "precond": steps + 1, "remainder": steps}
    assert np.linalg.norm((d + n) * res.x - rhs) <= c ** (steps + 1) * (1 + 1e-12) * np.linalg.norm(rhs)
    assert np.array_equal(rhs, kept) and not np.shares_memory(res.x, rhs)
    # with the identity preconditioner and no correction the result is still a copy
    ident = cg_solve(g, lambda z: z, rhs, tol=0.5, maxit=0, precond=lambda r: r,
                     splitting=(0.1, lambda z: 0.0 * z))
    assert ident.iterations == 0 and np.array_equal(ident.x, rhs)
    assert not np.shares_memory(ident.x, rhs)


@pytest.mark.parametrize("shift,coef", [(1.0, 1.0), (1e4, 1.3), (3.0, 1e-3), (1e8, 2.0)])
def test_cosine_solve_residual_non_square(rng, shift, coef):
    # nx != ny and lx != ly: a swapped axis would leave an O(1) residual
    g = build_grid(2, 1, 24, 12)
    rhs = rng.standard_normal(g.shape) + 3.0
    x = cosine_solve(g, rhs, shift, coef)
    res = shift * x - coef * laplacian_neumann(g, x) - rhs
    assert norm(g, res) <= 1e-13 * norm(g, rhs)


def test_cosine_solve_symmetric(rng):
    g = build_grid(2, 1, 24, 12)
    a = rng.standard_normal(g.shape)
    b = rng.standard_normal(g.shape)
    s1 = inner(g, cosine_solve(g, a, 2.0, 0.7), b)
    s2 = inner(g, a, cosine_solve(g, b, 2.0, 0.7))
    assert abs(s1 - s2) <= 1e-14 * norm(g, a) * norm(g, b)


def test_cosine_solve_preserves_mean_and_constants(rng):
    g = build_grid(2, 1, 24, 12)
    shift = 7.0
    rhs = rng.standard_normal(g.shape) + 0.4
    x = cosine_solve(g, rhs, shift, 1.5)
    assert abs(math.fsum((shift * x).ravel()) - math.fsum(rhs.ravel())) <= 1e-13 * rhs.size
    for c in (0.1, 1.7, -3.3e5):
        assert np.all(cosine_solve(g, np.full(g.shape, c), shift, 1.5) == c / shift)


def test_cosine_transforms_are_orthonormal_inverses(rng):
    g = build_grid(1.5, 1, 24, 16)
    f = rng.standard_normal(g.shape)
    c = _to_cosine(g, f)
    assert abs(np.linalg.norm(c) - np.linalg.norm(f)) <= 1e-14 * np.linalg.norm(f)
    assert np.max(np.abs(_from_cosine(g, c) - f)) <= 1e-14 * np.max(np.abs(f))


def test_cosine_eigenbasis_is_built_once_and_read_only():
    g = build_grid(1.5, 1, 24, 16)
    bases = g.cosine_eigenbasis
    assert g.cosine_eigenbasis is bases
    assert build_grid(1.5, 1, 24, 16).cosine_eigenbasis is not bases
    for a in bases:
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    # the right factor of the forward transform, stored contiguous
    assert bases[3].flags.c_contiguous and np.array_equal(bases[3], bases[1].T)


def test_inverse_symbol_is_built_once_per_key_and_read_only():
    g = build_grid(1.5, 1, 24, 16)
    inv = _inverse_symbol(g, 3.0, 0.5)
    assert _inverse_symbol(g, 3.0, 0.5) is inv
    assert _inverse_symbol(g, 3.0, 0.25) is not inv
    with pytest.raises(ValueError):
        inv[1, 1] = 1.0
    assert inv[0, 0] == 0.0
    assert np.array_equal(inv.ravel()[1:], (1.0 / (3.0 + 0.5 * g.cosine_eigenbasis[2])).ravel()[1:])


@pytest.mark.parametrize("tau", [1.0, 1e-2, 1e-5])
def test_cosine_coefficient_operator_is_shifted_stencil(rng, tau):
    # C^T((1/tau + eig) C z) = z/tau - lap z on a non-square grid: a swapped axis
    # or eigenvalue table would leave an O(1) error
    g = build_grid(1.5, 1, 24, 16)
    eig = g.cosine_eigenbasis[2]
    z = rng.standard_normal(g.shape) + 2.0
    want = z / tau - laplacian_neumann(g, z)
    got = _from_cosine(g, (1.0 / tau + eig) * _to_cosine(g, z))
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_riesz_constant_and_eigenfunction():
    g = build_grid(1, 1, 128, 128)
    c = np.full(g.shape, 1.7)
    assert np.max(np.abs(riesz_v(g, c) - c)) <= 1e-11
    x, _ = cell_centers(g)
    f = (1 + np.pi**2) * np.cos(np.pi * x)
    z = riesz_v(g, f)
    assert np.max(np.abs(z - np.cos(np.pi * x))) <= 1e-3


def test_riesz_defining_identity(rng):
    g = build_grid(1, 1, 24, 24)
    f = rng.standard_normal(g.shape)
    h = rng.standard_normal(g.shape)
    z = riesz_v(g, f)
    lhs = inner(g, z, h, "v")
    rhs = inner(g, f, h)
    assert abs(lhs - rhs) <= 1e-10 * norm(g, f) * norm(g, h)


def test_laplacian_self_convergence_order():
    errs = []
    for nx in (32, 64, 128):
        g = build_grid(1, 1, nx, nx)
        x, y = cell_centers(g)
        f = np.cos(np.pi * x) * np.cos(np.pi * y)
        errs.append(norm(g, laplacian_neumann(g, f) + 2 * np.pi**2 * f))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9

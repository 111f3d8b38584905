"""Independent oracles used to pin expected values.

The scalar ones avoid the package's solver path: roots come from bisection,
and the 0-D recursions below implement the same time-stepping formulas with
plain floats, so spatially homogeneous runs of the field solver must agree
with them to solver tolerance.  ``laplacian_strided`` is the five-point
stencil taken on 2-D slices, the reference that the flattened
``grid.laplacian_neumann`` must match bit for bit.  ``cell_centers`` gives the
coordinate arrays of the cell centers, from which the tests write their fields
and the full-grid cosine formula that ``GridSpec.cosine_mode`` must match bit for bit.
"""

import numpy as np


def bisect(f, lo, hi, tol=1e-15, maxit=500):
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(maxit):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) < tol:
            return mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def cell_centers(grid):
    """Coordinate arrays X, Y of shape (ny, nx)."""
    x = (np.arange(grid.nx) + 0.5) * grid.hx
    y = (np.arange(grid.ny) + 0.5) * grid.hy
    return np.meshgrid(x, y)


def laplacian_strided(grid, f):
    """Zero-flux five-point Laplacian from row and column differences of the (ny, nx) field."""
    dx = f[:, 1:] - f[:, :-1]
    out = np.empty_like(f)
    out[:, :-1] = dx
    out[:, -1] = 0.0
    out[:, 1:] -= dx
    dy = f[1:, :] - f[:-1, :]
    out[:-1, :] += dy
    out[1:, :] -= dy
    out /= grid.hx * grid.hy
    return out


def scalar_phi_step(potential, coupling, params, phi_n, v_n, tau):
    """Root of x/tau + gamma(x) = b by bisection (monotone left-hand side)."""
    thc = params.theta_c
    pi_n = float(coupling.pi(phi_n))
    b = phi_n / tau - (2.0 / thc) * pi_n + v_n * pi_n / thc**2

    def g(x):
        return x / tau + float(potential.gamma(x)) - b

    lo, hi = phi_n - 1.0, phi_n + 1.0
    if potential.bounded_domain:
        m = 10.0 * potential.interior_margin
        lo = max(lo, potential.r_minus + m)
        hi = min(hi, potential.r_plus - m)
    for _ in range(200):
        if g(lo) < 0.0 < g(hi):
            break
        if g(lo) > 0.0:
            lo = lo - (hi - lo) if not potential.bounded_domain else lo
        if g(hi) < 0.0:
            hi = hi + (hi - lo) if not potential.bounded_domain else hi
        if potential.bounded_domain:
            break
    return bisect(g, lo, hi)


def scalar_forward(potential, coupling, params, phi0, w0, v0, u_seq, tau):
    """0-D recursion with the same update formulas as the field solver."""
    phis, ws, vs = [phi0], [w0], [v0]
    for u in u_seq:
        phi_new = scalar_phi_step(potential, coupling, params, phis[-1], vs[-1], tau)
        pi_diff = float(coupling.pi_hat(phi_new)) - float(coupling.pi_hat(phis[-1]))
        v_new = vs[-1] + tau * u - pi_diff
        w_new = ws[-1] + tau * v_new
        phis.append(phi_new)
        ws.append(w_new)
        vs.append(v_new)
    return phis, ws, vs


def scalar_adjoint_backward(potential, coupling, params, phis, ws, vs, cost_scalars, tau):
    """0-D version of the backward semi-implicit adjoint march.

    cost_scalars: dict with k1..k6 and scalar targets phi_q (list per node),
    w_q, wprime_q (lists), phi_omega, w_omega, wprime_omega (scalars).
    """
    thc = params.theta_c
    nt = len(phis) - 1
    k = cost_scalars
    conv_w = [0.0] * (nt + 1)
    for n in range(nt - 1, -1, -1):
        conv_w[n] = conv_w[n + 1] + tau * (ws[n + 1] - k["w_q"][n + 1])
    f_q = [k["k3"] * conv_w[n] + k["k5"] * (vs[n] - k["wprime_q"][n])
           + k["k4"] * (ws[nt] - k["w_omega"]) for n in range(nt + 1)]
    p = [0.0] * (nt + 1)
    q = [0.0] * (nt + 1)
    vt_err = vs[nt] - k["wprime_omega"]
    p[nt] = k["k2"] * (phis[nt] - k["phi_omega"]) - k["k6"] * float(coupling.pi(phis[nt])) * vt_err
    q[nt] = k["k6"] * vt_err
    for n in range(nt - 1, -1, -1):
        pi_n = float(coupling.pi(phis[n]))
        dpi_n = float(coupling.dpi(phis[n]))
        q[n] = tau * (q[n + 1] / tau + pi_n * p[n + 1] / thc**2 + f_q[n])
        rhs_p = (p[n + 1] / tau + pi_n * (q[n + 1] - q[n]) / tau
                 - (2.0 / thc) * dpi_n * p[n + 1]
                 + vs[n] * dpi_n * p[n + 1] / thc**2
                 + k["k1"] * (phis[n] - k["phi_q"][n]))
        p[n] = rhs_p / (1.0 / tau + float(potential.dgamma(phis[n])))
    return p, q

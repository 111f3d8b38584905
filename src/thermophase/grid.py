"""Cell-centered grid, zero-flux Laplacian, inner products, cosine solve and CG.

Fields live at the cell centers of a uniform nx-by-ny grid over
[0, lx] x [0, ly] and are stored as numpy arrays of shape (ny, nx), row-major
over cell centers: entry [j, i] belongs to the center ((i+0.5) hx, (j+0.5) hy).
``GridSpec.cosine_mode`` forms a product cosine there from its two 1-D factors.

The Laplacian is the finite-volume five-point stencil with zero-flux closure
at boundary faces.  By construction it is exactly symmetric with respect to
the lumped L2 inner product, negative semi-definite, and annihilates constant
fields, so its cell sum telescopes to zero up to rounding.  The V inner
product is the L2 part plus the face-difference stiffness form; with square
cells in 2-D the h factors cancel, so each interior face contributes
(difference of a) * (difference of b).

The orthonormal 2-D DCT-II (``_to_cosine``, inverse ``_from_cosine``) diagonalises
the stencil; the exact ``cosine_solve``, the thermal steps and the phase-Jacobian
solve in ``state`` and ``sensitivity`` all run through these two transforms.
The inverse symbols of shift I + coef (-lap) are built once per (grid, shift,
coef): ``_inverse_symbol`` with the mean mode zeroed, for a caller that keeps
the mean apart (``_mean_free_cosine``), and ``_solve_symbol`` on every mode.
``cg_solve`` (CG, or the fixed-point iteration of a splitting whose caller
proves its contraction) returns the solution and its iteration count; a solve
that misses its target raises ``NoConvergence`` carrying the last residual
norm, the only residual any caller reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import AnisotropicCells, DegenerateGrid, NoConvergence, ShapeMismatch

Field = np.ndarray

_SPACING_RTOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid over the rectangle [0, lx] x [0, ly].

    Requires nx, ny >= 3 and square cells (hx == hy up to 1e-12 relative).
    """

    lx: float
    ly: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise DegenerateGrid(f"need nx, ny >= 3, got {self.nx} x {self.ny}")
        if not (self.lx > 0.0 and self.ly > 0.0):
            raise DegenerateGrid(f"need positive edge lengths lx, ly, got {self.lx} x {self.ly}")
        hx, hy = self.lx / self.nx, self.ly / self.ny
        if abs(hx - hy) > _SPACING_RTOL * max(hx, hy):
            raise AnisotropicCells(f"cells must be square: lx/nx = {hx!r}, ly/ny = {hy!r}")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.ny, self.nx)

    @cached_property
    def cell_volume(self) -> float:
        return self.hx * self.hy

    @cached_property
    def cosine_eigenbasis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only orthonormal DCT-II bases along y and x (row k is mode k), eigenvalues of -lap,
        and a contiguous copy of the x basis's transpose, the right factor of ``_to_cosine``.

        Per axis 4 sin^2(pi k / 2n) / h^2: unlike (2 - 2 cos) / h^2 it does not cancel at small k.
        Built on first use and kept on the instance.
        """
        bases, eigs = [], []
        for n, h in ((self.ny, self.hy), (self.nx, self.hx)):
            k = np.arange(n)
            bases.append(math.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k, k + 0.5) / n))
            bases[-1][0] = 1.0 / math.sqrt(n)
            eigs.append((2.0 * np.sin(0.5 * np.pi * k / n) / h) ** 2)
        out = (*bases, eigs[0][:, None] + eigs[1][None, :], np.ascontiguousarray(bases[1].T))
        for a in out:
            a.flags.writeable = False
        return out

    def zeros(self) -> Field:
        return np.zeros(self.shape)

    def check_field(self, f: Field, name: str = "field", nodes: int | None = None) -> Field:
        """``f`` as a float array of shape (ny, nx), or (nodes, ny, nx) when ``nodes`` is given."""
        f = np.asarray(f, dtype=float)
        shape = self.shape if nodes is None else (nodes, *self.shape)
        if f.shape != shape:
            raise ShapeMismatch(f"{name} has shape {f.shape}, grid needs {shape}")
        return f

    def cosine_mode(self, kx: float, ky: float) -> Field:
        """cos(kx pi x / lx) cos(ky pi y / ly) at the cell centers, an outer product."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.multiply.outer(np.cos(ky * np.pi * y / self.ly),
                                 np.cos(kx * np.pi * x / self.lx))


def build_grid(lx: float, ly: float, nx: int, ny: int) -> GridSpec:
    """Validated GridSpec with derived spacings."""
    return GridSpec(float(lx), float(ly), int(nx), int(ny))


def laplacian_neumann(grid: GridSpec, f: Field) -> Field:
    """Five-point cell-centered Laplacian with zero flux through boundary faces.

    Works on the flattened row-major field, where the x-neighbours are 1 apart
    and the y-neighbours nx apart, so every pass is contiguous; the x-differences
    that wrap from the end of one row to the start of the next are zeroed.
    """
    f = grid.check_field(f)
    nx = grid.nx
    flat = f.ravel()
    dx = flat[1:] - flat[:-1]
    dx[nx - 1::nx] = 0.0
    out = np.empty_like(flat)
    out[:-1] = dx
    out[-1] = 0.0
    out[1:] -= dx
    dy = flat[nx:] - flat[:-nx]
    out[:-nx] += dy
    out[nx:] -= dy
    out /= grid.hx * grid.hy
    return out.reshape(f.shape)


def _to_cosine(grid: GridSpec, f: Field) -> Field:
    """Orthonormal DCT-II coefficients C f; entry [ky, kx] belongs to eigenvalue eig[ky, kx]."""
    cy, _, _, cx_t = grid.cosine_eigenbasis
    return cy.dot(f).dot(cx_t)


def _from_cosine(grid: GridSpec, c: Field) -> Field:
    """Field C^T c with cosine coefficients c: the inverse, and transpose, of ``_to_cosine``."""
    cy, cx, _, _ = grid.cosine_eigenbasis
    return cy.T.dot(c).dot(cx)


@lru_cache(maxsize=32)
def _inverse_symbol(grid: GridSpec, shift: float, coef: float) -> np.ndarray:
    """Read-only 1 / (shift + coef eig) with the k = 0 entry zeroed, for a caller that
    keeps the mean apart; built once per key."""
    inv = 1.0 / (shift + coef * grid.cosine_eigenbasis[2])
    inv[0, 0] = 0.0
    inv.flags.writeable = False
    return inv


@lru_cache(maxsize=32)
def _solve_symbol(grid: GridSpec, shift: float, coef: float) -> np.ndarray:
    """Read-only ``_inverse_symbol`` with its k = 0 entry 1 / shift: the inverse of
    shift I + coef (-lap) on every mode of the cosine coefficients, built once per key."""
    inv = _inverse_symbol(grid, shift, coef).copy()
    inv[0, 0] = 1.0 / shift
    inv.flags.writeable = False
    return inv


def _mean_free_cosine(grid: GridSpec, f: Field) -> tuple[Field, float]:
    """Cosine coefficients of f's mean-free part, and f's mean.

    The mean is formed as first value plus mean deviation, so a constant f
    gives exact zeros and its own value.
    """
    dev = f - f.flat[0]
    dev_mean = float(dev.sum()) / dev.size
    dev -= dev_mean
    return _to_cosine(grid, dev), f.flat[0] + dev_mean


def cosine_solve(grid: GridSpec, rhs: Field, shift: float, coef: float = 1.0) -> Field:
    """Exact solution x of (shift I + coef (-lap)) x = rhs in the stencil's cosine eigenbasis.

    Needs shift > 0, coef >= 0.  The mean (k = 0 mode) is taken out by
    ``_mean_free_cosine``, divided by shift and added back, so the cell sums
    of shift x and rhs agree to rounding and a constant c gives c/shift exactly.
    The other modes are multiplied by ``_inverse_symbol``, whose k = 0 entry is 0.
    """
    rhs = grid.check_field(rhs, "rhs")
    coeffs, mean = _mean_free_cosine(grid, rhs)
    return _from_cosine(grid, coeffs * _inverse_symbol(grid, shift, coef)) + mean / shift


def _stiffness(a: Field, b: Field) -> float:
    sx = float(np.sum((a[:, 1:] - a[:, :-1]) * (b[:, 1:] - b[:, :-1])))
    sy = float(np.sum((a[1:, :] - a[:-1, :]) * (b[1:, :] - b[:-1, :])))
    return sx + sy


def inner(grid: GridSpec, a: Field, b: Field, metric: str = "l2") -> float:
    """Lumped L2 inner product, or the V inner product (L2 plus stiffness)."""
    a = grid.check_field(a, "a")
    b = grid.check_field(b, "b")
    l2 = grid.cell_volume * float(np.dot(a.ravel(), b.ravel()))
    if metric == "l2":
        return l2
    if metric == "v":
        return l2 + _stiffness(a, b)
    raise ValueError(f"unknown metric {metric!r}")


def norm(grid: GridSpec, a: Field, metric: str = "l2") -> float:
    return float(np.sqrt(max(inner(grid, a, a, metric), 0.0)))


@dataclass
class CGResult:
    """Solution and iteration count of one linear solve (``cg_solve``)."""

    x: Field
    iterations: int


def _fixed_point_steps(contraction, tol) -> int | None:
    """Fewest corrections j with contraction^(j+1) <= tol, or None where CG is the better bet.

    At the cost of j corrections CG's Chebyshev bound is about 2 (c/2)^j; the
    fixed-point bound c^(j+1) is no weaker exactly when c <= 2^(1-j).  No
    bound, a bound >= 1 and a NaN one also give None.
    """
    if contraction is None or not 0.0 <= contraction < 1.0:
        return None
    steps, bound = 0, contraction
    while bound > tol:
        steps += 1
        if contraction > 2.0 ** (1 - steps):
            return None
        bound *= contraction
    return steps


def _not_reached(tol, maxit, rnorm, target) -> NoConvergence:
    return NoConvergence(
        f"CG did not reach tol {tol:g} in {maxit} iterations "
        f"(residual {rnorm:.3e}, target {target:.3e})",
        residual=rnorm,
        iterations=maxit,
    )


def cg_solve(grid, apply, rhs, tol, maxit, precond, splitting=None) -> CGResult:
    """Matrix-free solve of an SPD system: conjugate gradients, or the fixed-point
    iteration of a splitting whose step count a contraction bound fixes in advance.

    `apply` must be symmetric positive definite with respect to the L2 inner
    product on the grid, and `precond` applies an SPD approximation of its
    inverse.  CG stops once ||apply(x) - rhs||_L2 <= tol * ||rhs||_L2;
    ``iterations`` counts its iterations.

    ``splitting``, when given, is a pair (c, remainder) with apply =
    precond^-1 + remainder, remainder symmetric, and c a proven bound on the
    2-norm of remainder(precond(.)), that is of I - apply(precond(.)).  Then
    x = precond(rhs) followed by j corrections x = precond(rhs - remainder(x))
    has relative residual at most c^(j+1), and when the j with c^(j+1) <= tol
    satisfies c <= 2^(1-j) (where this bound is no weaker than CG's at the same
    cost) exactly those j corrections are taken: ``apply`` is not called, no
    residual norm or inner product is formed, and ``iterations`` counts the
    corrections.  The map rhs -> x is then a fixed polynomial in the
    operator, so it is symmetric like the operator.  Any other bound, None,
    >= 1 or NaN, runs CG.  A non-finite fixed-point result raises
    NoConvergence.  The result never aliases ``rhs``.

    Either mode takes at most ``maxit`` iterations and raises NoConvergence
    carrying the residual of the ``maxit``-th iterate: CG when that iterate
    still misses the target, the fixed-point mode whenever j > ``maxit``, since
    its bound no longer certifies the iterate.  That residual costs the
    fixed-point mode its one apply, on this failure path only.
    """
    rhs = grid.check_field(rhs, "rhs")
    maxit = int(maxit)
    steps = None if splitting is None else _fixed_point_steps(splitting[0], tol)
    if steps is not None:
        remainder = splitting[1]
        x = precond(rhs)
        for _ in range(min(steps, maxit)):
            x = precond(rhs - remainder(x))
        if not np.isfinite(x).all():
            raise NoConvergence("fixed-point iterate is not finite", residual=math.nan,
                                iterations=min(steps, maxit))
        if steps <= maxit:
            return CGResult(x=x if steps else np.array(x), iterations=steps)
        raise _not_reached(tol, maxit, float(np.linalg.norm(rhs - apply(x))),
                           tol * float(np.linalg.norm(rhs)))

    rnorm = float(np.sqrt(np.dot(rhs.ravel(), rhs.ravel())))
    if rnorm == 0.0:
        return CGResult(x=np.zeros_like(rhs), iterations=0)
    x, r = grid.zeros(), rhs.copy()
    target = tol * rnorm
    z = precond(r)
    p = z.copy()
    rz = float(np.dot(r.ravel(), z.ravel()))
    for k in range(maxit):
        if rnorm <= target:
            return CGResult(x=x, iterations=k)
        ap = apply(p)
        pap = float(np.dot(p.ravel(), ap.ravel()))
        if not np.isfinite(pap) or pap <= 0.0:
            raise NoConvergence(
                f"operator not positive definite along search direction (p.Ap={pap})",
                residual=rnorm,
                iterations=k,
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rnorm = float(np.sqrt(np.dot(r.ravel(), r.ravel())))
        z = precond(r)
        rz_new = float(np.dot(r.ravel(), z.ravel()))
        p *= rz_new / rz
        p += z
        rz = rz_new
    if rnorm <= target:
        return CGResult(x=x, iterations=maxit)
    raise _not_reached(tol, maxit, rnorm, target)


def riesz_v(grid: GridSpec, f: Field) -> Field:
    """V-Riesz representative: solve z - lap(z) = f with the zero-flux stencil.

    The solution satisfies <z, h>_V = <f, h>_L2 for every discrete field h,
    up to rounding.
    """
    return cosine_solve(grid, f, 1.0)

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
the stencil; the exact ``cosine_solve`` and the phase-Jacobian CG in ``state``
both run through these two transforms.  ``cg_solve`` returns the solution and
its iteration count; a solve that misses its target raises ``NoConvergence``
carrying the last residual norm, the only residual any caller reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
            raise DegenerateGrid(f"need positive edge lengths, got {self.lx} x {self.ly}")
        hx, hy = self.lx / self.nx, self.ly / self.ny
        if abs(hx - hy) > _SPACING_RTOL * max(hx, hy):
            raise AnisotropicCells(f"cells must be square: hx={hx!r}, hy={hy!r}")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.ny, self.nx)

    @property
    def cell_volume(self) -> float:
        return self.hx * self.hy

    @cached_property
    def cosine_eigenbasis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only orthonormal DCT-II bases along y and x (row k is mode k), eigenvalues of -lap.

        Per axis 4 sin^2(pi k / 2n) / h^2: unlike (2 - 2 cos) / h^2 it does not cancel at small k.
        Built on first use and kept on the instance.
        """
        bases, eigs = [], []
        for n, h in ((self.ny, self.hy), (self.nx, self.hx)):
            k = np.arange(n)
            bases.append(math.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k, k + 0.5) / n))
            bases[-1][0] = 1.0 / math.sqrt(n)
            eigs.append((2.0 * np.sin(0.5 * np.pi * k / n) / h) ** 2)
        out = (*bases, eigs[0][:, None] + eigs[1][None, :])
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
    cy, cx, _ = grid.cosine_eigenbasis
    return cy @ f @ cx.T


def _from_cosine(grid: GridSpec, c: Field) -> Field:
    """Field C^T c with cosine coefficients c: the inverse, and transpose, of ``_to_cosine``."""
    cy, cx, _ = grid.cosine_eigenbasis
    return cy.T @ c @ cx


def cosine_solve(grid: GridSpec, rhs: Field, shift: float, coef: float = 1.0) -> Field:
    """Exact solution x of (shift I + coef (-lap)) x = rhs in the stencil's cosine eigenbasis.

    Needs shift > 0, coef >= 0.  The mean (k = 0 mode), formed as first value
    plus mean deviation, is taken out, divided by shift and added back, so the
    cell sums of shift x and rhs agree to rounding and a constant c gives c/shift exactly.
    """
    rhs = grid.check_field(rhs, "rhs")
    dev = rhs - rhs.flat[0]
    dev_mean = float(dev.sum()) / dev.size
    dev -= dev_mean
    coeffs = _to_cosine(grid, dev) / (shift + coef * grid.cosine_eigenbasis[2])
    coeffs[0, 0] = 0.0
    return _from_cosine(grid, coeffs) + (rhs.flat[0] + dev_mean) / shift


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
    """Solution and iteration count of one conjugate-gradient solve."""

    x: Field
    iterations: int


def cg_solve(grid, apply, rhs, tol=1e-12, maxit=50000, precond=None) -> CGResult:
    """Matrix-free conjugate gradients for an SPD operator.

    `apply` must be symmetric positive definite with respect to the L2 inner
    product on the grid.  Stops once ||apply(x) - rhs||_L2 <= tol * ||rhs||_L2
    and raises NoConvergence (carrying the residual) when the ``maxit``-th
    iterate still misses that target.
    `precond`, if given, applies an SPD approximation of the inverse.
    """
    rhs = grid.check_field(rhs, "rhs")
    rnorm = float(np.sqrt(np.dot(rhs.ravel(), rhs.ravel())))
    if rnorm == 0.0:
        return CGResult(x=np.zeros_like(rhs), iterations=0)
    x, r = grid.zeros(), rhs.copy()
    target = tol * rnorm
    z = precond(r) if precond is not None else r
    p = z.copy()
    rz = float(np.dot(r.ravel(), z.ravel()))
    for k in range(int(maxit)):
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
        z = precond(r) if precond is not None else r
        rz_new = float(np.dot(r.ravel(), z.ravel()))
        p *= rz_new / rz
        p += z
        rz = rz_new
    if rnorm <= target:
        return CGResult(x=x, iterations=int(maxit))
    raise NoConvergence(
        f"CG did not reach tol {tol:g} in {maxit} iterations "
        f"(residual {rnorm:.3e}, target {target:.3e})",
        residual=rnorm,
        iterations=int(maxit),
    )


def riesz_v(grid: GridSpec, f: Field) -> Field:
    """V-Riesz representative: solve z - lap(z) = f with the zero-flux stencil.

    The solution satisfies <z, h>_V = <f, h>_L2 for every discrete field h,
    up to rounding.
    """
    return cosine_solve(grid, f, 1.0)

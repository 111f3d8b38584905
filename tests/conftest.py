import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from oracles import cell_centers
from thermophase.control import ControlPair, CostSpec
from thermophase.grid import build_grid
from thermophase.nonlinearity import Coupling, Potential
from thermophase.state import InitialData, PhysParams, Problem, TimeGrid

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def small_problem(nx=16, nt=12, t_final=0.15, potential_kind="regular",
                  coupling_kind="affine", phi_amp=0.3):
    """Compact nonhomogeneous problem used across the sensitivity tests."""
    grid = build_grid(1.0, 1.0, nx, nx)
    tg = TimeGrid(t_final=t_final, nt=nt)
    params = PhysParams()
    potential = Potential(potential_kind)
    coupling = (Coupling("affine", a=-1.0, b=0.0) if coupling_kind == "affine"
                else Coupling("bounded_smooth", c=1.0))
    x, y = cell_centers(grid)
    phi0 = phi_amp * np.cos(np.pi * x) * np.cos(np.pi * y)
    w0 = 0.1 * np.cos(np.pi * x)
    return Problem(grid, tg, params, potential, coupling, InitialData(phi0, w0))


def smooth_control(problem, u_amp=0.5, v0_amp=0.3):
    grid, tg = problem.grid, problem.time
    x, y = cell_centers(grid)
    t = np.arange(1, tg.nt + 1) * tg.tau
    u = u_amp * (np.cos(np.pi * x) * np.cos(np.pi * y))[None, :, :] * (1.0 + t)[:, None, None]
    v0 = v0_amp * np.cos(np.pi * y)
    return ControlPair(u, v0)


def zero_target_cost(grid, nt, **weights):
    """CostSpec with the given weights and every tracking target zero."""
    st = np.zeros((nt + 1, grid.ny, grid.nx))
    return CostSpec(phi_q=st.copy(), w_q=st.copy(), wprime_q=st.copy(),
                    phi_omega=grid.zeros(), w_omega=grid.zeros(), wprime_omega=grid.zeros(),
                    **weights)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

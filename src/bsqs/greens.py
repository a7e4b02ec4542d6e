"""Closed-form vertical lifting maps per lateral mode and the fluid pressure
reconstruction built from them.

For a mode with lateral wavenumber magnitude kappa the fluid pressure is
harmonic in the mode sense (phi'' = kappa^2 phi on (-1, 0)), so it is a sum
of three explicit liftings:

  dirichlet_extension: phi'' = kappa^2 phi, phi(0) = h,  phi'(-1) = 0
  neumann_extension:   phi'' = kappa^2 phi, phi(0) = 0,  phi'(-1) = g

The reconstruction combines the interface pore-pressure trace, the normal
viscous stress at the interface, and the residual Neumann datum at the
bottom wall.
"""

from __future__ import annotations

import numpy as np

from .fem1d import evaluate, evaluate_derivative
from .spectral import SpectralField, interface_trace, mode_table, wavenumber


def dirichlet_extension(kappa: float, h, x3):
    """phi(x3) = h * cosh(kappa (x3 + 1)) / cosh(kappa) on [-1, 0]
    (phi = h for kappa = 0).  Stable against overflow for large kappa."""
    x3 = np.asarray(x3, dtype=float)
    if kappa == 0.0:
        return h * np.ones_like(x3)
    # cosh(k(x+1))/cosh(k) = (e^{k x} + e^{-k(x+2)}) / (1 + e^{-2k})
    ekx = np.exp(kappa * x3)
    return h * (ekx + np.exp(-kappa * (x3 + 2.0))) / (1.0 + np.exp(-2.0 * kappa))


def neumann_extension(kappa: float, g, x3):
    """phi(x3) = g * sinh(kappa x3) / (kappa cosh(kappa)) on [-1, 0]
    (phi = g * x3 for kappa = 0)."""
    x3 = np.asarray(x3, dtype=float)
    if kappa == 0.0:
        return g * x3
    # sinh(kx)/(k cosh k) = (e^{k(x-1)} - e^{-k(x+1)}) / (k (1 + e^{-2k}))
    num = np.exp(kappa * (x3 - 1.0)) - np.exp(-kappa * (x3 + 1.0))
    return g * num / (kappa * (1.0 + np.exp(-2.0 * kappa)))


def reconstruct_fluid_pressure(p_b: SpectralField, v: SpectralField,
                               nu: float, x3) -> np.ndarray:
    """Mode-wise fluid pressure profile from the coupled solution.

    Returns complex samples of shape (n1//2+1, n2, len(x3)): the Dirichlet
    lifting of the interface datum  p_b(0) + 2 nu d3 v3(0)  (the normal
    stress balance solved for the fluid pressure) plus the Neumann lifting
    of the bottom residual  nu (v3'' - kappa^2 v3)(-1).
    """
    x3 = np.atleast_1d(np.asarray(x3, dtype=float))
    n1, n2 = p_b.lateral_shape
    mesh = v.mesh
    out = np.zeros((n1 // 2 + 1, n2, x3.size), dtype=complex)
    p_tr = interface_trace(p_b)[:, :, 0]
    modes = mode_table(n1, n2)
    for idx, m in enumerate(modes):
        k1i, j = divmod(idx, n2)
        kap = wavenumber(m)
        v3 = v.data[k1i, j, 2]
        dv3_if = evaluate_derivative(mesh, v.degree, v3, 0.0)
        h = p_tr[k1i, j] + 2.0 * nu * dv3_if
        d2v3_bot = evaluate_derivative(mesh, v.degree, v3, -1.0, order=2)
        v3_bot = evaluate(mesh, v.degree, v3, -1.0)
        g = nu * (d2v3_bot - kap * kap * v3_bot)
        out[k1i, j] = dirichlet_extension(kap, h, x3) \
            + neumann_extension(kap, g, x3)
    return out


def bvp_oracle(kappa: float, h: float, g: float, npts: int = 1000):
    """Finite-difference solve of phi'' = kappa^2 phi on (-1, 0) with
    phi(0) = h and phi'(-1) = g, on an npts-point uniform grid.  Returns
    (grid, phi).  Independent check of the closed forms (test use only).

    The 3-point scheme is exponentially fitted (phi_{i-1} - 2 cosh(kappa dx)
    phi_i + phi_{i+1} = 0), which reproduces the two-sided exponential basis
    of this constant-coefficient ODE on the grid; a plain second-order
    stencil cannot reach tight tolerances at large kappa with 1000 points.
    """
    grid = np.linspace(-1.0, 0.0, npts)
    dx = grid[1] - grid[0]
    c = np.cosh(kappa * dx)
    s_over_k = np.sinh(kappa * dx) / kappa if kappa else dx
    A = np.zeros((npts, npts))
    rhs = np.zeros(npts)
    for i in range(1, npts - 1):
        A[i, i - 1] = 1.0
        A[i, i] = -2.0 * c
        A[i, i + 1] = 1.0
    # ghost-point Neumann closure at x3 = -1, fitted to the same basis:
    # phi_1 - phi_{-1} = 2 g sinh(kappa dx) / kappa
    A[0, 0] = -2.0 * c
    A[0, 1] = 2.0
    rhs[0] = 2.0 * g * s_over_k
    A[-1, -1] = 1.0
    rhs[-1] = h
    phi = np.linalg.solve(A, rhs)
    return grid, phi

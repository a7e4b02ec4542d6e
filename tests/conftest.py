"""Shared fixtures and helpers for the test suite."""

import os

# one BLAS thread, set before numpy loads BLAS: the dense 143x143 svd, eigh
# and solve calls of the generator certificate thrash with two threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from bsqs.config import Discretization, PhysicalParams, RunConfig
from bsqs.energy import _trace_norm_sq
from bsqs.fem1d import evaluate_derivative
from bsqs.mode_assembly import _mats
from bsqs.spectral import mode_table


def dense_mats(mesh):
    """Dense copies of the vertical operators mode_assembly._mats(mesh)."""
    return {k: A.toarray() for k, A in _mats(mesh).items()}


def make_params(**overrides):
    """A fully non-degenerate parameter set; override freely."""
    base = dict(lam=1.0, mu=1.0, alpha=1.0, c0=1.0, k_perm=1.0,
                nu=1.0, beta=1.0, rho_b=1.0, rho_f=1.0, delta=0.5)
    base.update(overrides)
    return PhysicalParams(**base)


def make_config(params=None, **disc_overrides):
    disc_kwargs = dict(n1=4, n2=4, nb=4, nf=4, dt=1 / 16, t_end=4 / 16)
    disc_kwargs.update(disc_overrides)
    return RunConfig(params=params or make_params(),
                     disc=Discretization(**disc_kwargs))


def smooth_initial_callables(a=0.1, b=0.05, c=0.2, alpha=1.0):
    """Smooth admissible initial data with d0 = alpha * div u0 in closed form,
    so the same data works in every storage regime.

    u0 = (a cos(2 pi x1)(1-x3), b sin(2 pi x2)(1-x3), c (1-x3)^2)
    div u0 = -2 pi a sin(2 pi x1)(1-x3) + 2 pi b cos(2 pi x2)(1-x3)
             - 2 c (1-x3)
    v0 = divergence-free single-mode field vanishing at x3 = -1.
    """
    tp = 2 * np.pi
    u0 = (lambda x1, x2, x3, t: a * np.cos(tp * x1) * (1 - x3),
          lambda x1, x2, x3, t: b * np.sin(tp * x2) * (1 - x3),
          lambda x1, x2, x3, t: c * np.cos(tp * x1) * (1 - x3) ** 2)
    # div of the u0 above (third component depends on x1, fine for d0)
    d0 = lambda x1, x2, x3, t: alpha * (
        -tp * a * np.sin(tp * x1) * (1 - x3)
        + tp * b * np.cos(tp * x2) * (1 - x3)
        - 2 * c * np.cos(tp * x1) * (1 - x3))
    u1 = (lambda x1, x2, x3, t: 0.3 * np.sin(tp * x2) * (1 - x3) ** 2,
          lambda x1, x2, x3, t: 0.1 * np.cos(tp * x1) * (1 - x3),
          lambda x1, x2, x3, t: 0.2 * np.cos(tp * x2) * (1 - x3))
    # v = (-sin(2 pi x1) f'(x3)/(2 pi), 0, cos(2 pi x1) f(x3)), f = (1+x3)^2
    v0 = (lambda x1, x2, x3, t: -np.sin(tp * x1) * 2 * (1 + x3) / tp,
          lambda x1, x2, x3, t: np.zeros(np.broadcast_shapes(
              np.shape(x1), np.shape(x2), np.shape(x3))),
          lambda x1, x2, x3, t: np.cos(tp * x1) * (1 + x3) ** 2)
    return {"u0": u0, "u1": u1, "d0": d0, "v0": v0}


def drop_nyquist(samples):
    """Zero the lateral Nyquist modes of real sample arrays (axes 0, 1).

    Band-limited data keeps real-space comparisons between the mode pipeline
    and dense lateral operators exact: at the Nyquist columns a one-signed
    wavenumber convention is used, where differentiation of real samples is
    not closed over real fields.
    """
    spec = np.fft.fft2(samples, axes=(0, 1))
    n1, n2 = samples.shape[:2]
    spec[n1 // 2] = 0.0
    spec[:, n2 // 2] = 0.0
    return np.fft.ifft2(spec, axes=(0, 1)).real


def every_mode_live(state):
    """`state` with a nonzero prior displacement in every stored mode, so a
    Simulator step builds and solves the right-hand side of every mode."""
    state.u.data[:] = 1.0
    return state


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def frame_rotation(lay, mode):
    """The rotation Q on a mode's free DOFs with A(k1, k2) = Q A(|k|, 0) Q^T:
    x = Q y turns the (u1, u2) and (v1, v2) pairs of each node from the frame
    of the wave vector back, u1 = c y_L - s y_T and u2 = s y_L + c y_T with
    (c, s) = k / |k|.  Built from the layout's slot offsets alone."""
    r = np.hypot(*mode)
    c, s = (mode[0] / r, mode[1] / r) if r > 0 else (1.0, 0.0)
    sizes = lay.full_sizes
    offs = lay.full_offsets()
    R = np.eye(sum(sizes))
    for first, second in ((0, 1), (4, 5)):
        i = offs[first] + np.arange(sizes[first])
        j = offs[second] + np.arange(sizes[second])
        R[i, i], R[i, j], R[j, i], R[j, j] = c, -s, s, c
    free = lay.free_indices()
    return R[np.ix_(free, free)]


def interface_residuals(s_prev, s_next, p: PhysicalParams, dt):
    """L2(interface) norms of the pointwise residuals of the kinematic,
    tangential-slip, and normal-stress coupling conditions on solver output.

    Returns dict with keys "kinematic", "slip", "normal_stress".
    """
    mb, mf = s_next.u.mesh, s_next.v.mesh
    n1, n2 = s_next.u.lateral_shape
    iu = mb.interface_node(2)
    iv = mf.interface_node(2)
    ipb = mb.interface_node(1)
    ipf = mf.interface_node(1)
    n1h = n1 // 2 + 1
    # traces (n1h, n2, ncomp), as _trace_norm_sq takes them
    r1 = np.zeros((n1h, n2, 1), dtype=complex)
    r2 = np.zeros((n1h, n2, 2), dtype=complex)
    r4 = np.zeros((n1h, n2, 1), dtype=complex)
    dtu = (s_next.u.data - s_prev.u.data) / dt
    for idx, m in enumerate(mode_table(n1, n2)):
        k1i, j = divmod(idx, n2)
        kap = (2 * np.pi * m.k1, 2 * np.pi * m.k2)
        pb = s_next.p_b.data[k1i, j, 0]
        v = s_next.v.data[k1i, j]
        # second-order one-sided stencil so the probe's own truncation error
        # does not dominate the interface mismatch being measured
        h = 1.0 / mb.ncells
        dpb = (-3.0 * pb[ipb] + 4.0 * pb[ipb + 1] - pb[ipb + 2]) / (2.0 * h)
        dv = [evaluate_derivative(mf, 2, v[a], 0.0) for a in range(3)]
        slip = [v[a][iv] - dtu[k1i, j, a, iu] for a in range(2)]
        r1[k1i, j] = -p.k_perm * dpb - (v[2][iv] - dtu[k1i, j, 2, iu])
        for a in range(2):
            r2[k1i, j, a] = p.beta * slip[a] \
                + p.nu * (dv[a] + 1j * kap[a] * v[2][iv])
        r4[k1i, j] = pb[ipb] - s_next.p_f.data[k1i, j, 0, ipf] \
            + 2.0 * p.nu * dv[2]
    return {
        "kinematic": float(np.sqrt(_trace_norm_sq(r1))),
        "slip": float(np.sqrt(_trace_norm_sq(r2))),
        "normal_stress": float(np.sqrt(_trace_norm_sq(r4))),
    }

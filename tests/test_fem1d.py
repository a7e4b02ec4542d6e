"""Vertical 1D finite elements: exactness of the element matrices, node
bookkeeping, and point evaluation."""

import numpy as np
import pytest

from bsqs.fem1d import (VerticalMesh, d_trial, evaluate, evaluate_derivative,
                        load_matrix, mass, mixed_div, mixed_mass,
                        quadrature_points, stiffness)


@pytest.fixture(params=["biot", "fluid"])
def mesh(request):
    return VerticalMesh(request.param, 4)


def nodal(mesh, degree, f):
    return f(mesh.nodes(degree))


def test_mesh_geometry():
    mb = VerticalMesh("biot", 4)
    mf = VerticalMesh("fluid", 4)
    assert mb.span == (0.0, 1.0)
    assert mf.span == (-1.0, 0.0)
    assert mb.h == pytest.approx(0.25)
    # interface x3 = 0 is the first Biot node and the last fluid node
    assert mb.nodes(2)[mb.interface_node(2)] == 0.0
    assert mf.nodes(2)[mf.interface_node(2)] == 0.0
    # essential boundary: Biot top, fluid bottom
    assert mb.nodes(1)[mb.clamped_node(1)] == 1.0
    assert mf.nodes(2)[mf.clamped_node(2)] == -1.0
    assert mb.free_mask(2).sum() == mb.n_nodes(2) - 1


def test_bad_mesh_args():
    with pytest.raises(ValueError):
        VerticalMesh("ocean", 4)
    with pytest.raises(ValueError):
        VerticalMesh("biot", 1)


@pytest.mark.parametrize("degree", [1, 2])
def test_mass_integrates_polynomials_exactly(mesh, degree):
    # integral of f*g over the span for f, g in the FE space
    M = mass(mesh, degree).toarray()
    ones = np.ones(mesh.n_nodes(degree))
    assert ones @ M @ ones == pytest.approx(1.0)          # span length
    x = nodal(mesh, degree, lambda s: s)
    lo, hi = mesh.span
    assert x @ M @ x == pytest.approx((hi**3 - lo**3) / 3)
    assert np.allclose(M, M.T)


@pytest.mark.parametrize("degree", [1, 2])
def test_stiffness_annihilates_constants(mesh, degree):
    K = stiffness(mesh, degree)
    ones = np.ones(mesh.n_nodes(degree))
    assert np.abs(K @ ones).max() < 1e-13
    x = nodal(mesh, degree, lambda s: s)
    assert x @ K @ x == pytest.approx(1.0)                 # integral of 1


def test_quadratic_exact_in_p2(mesh):
    K = mass(mesh, 2)
    q = nodal(mesh, 2, lambda s: s * s)
    lo, hi = mesh.span
    assert q @ K @ q == pytest.approx((hi**5 - lo**5) / 5)
    S = stiffness(mesh, 2)
    assert q @ S @ q == pytest.approx(4 * (hi**3 - lo**3) / 3)


def test_d_trial_is_derivative_pairing(mesh):
    # integral( x' * x ) = [x^2/2]
    C = d_trial(mesh, 2).toarray()
    x = nodal(mesh, 2, lambda s: s)
    lo, hi = mesh.span
    assert x @ C @ x == pytest.approx((hi**2 - lo**2) / 2)
    # integration by parts: C + C^T = boundary terms only
    B = C + C.T
    interior = B.copy()
    interior[0, :] = interior[-1, :] = 0
    interior[:, 0] = interior[:, -1] = 0
    assert np.abs(interior).max() < 1e-13


def test_mixed_pairings(mesh):
    # (P2 trial, P1 test): integral( f g ) and integral( f' g )
    Mm = mixed_mass(mesh)
    Cm = mixed_div(mesh)
    f = nodal(mesh, 2, lambda s: s * s)
    g = nodal(mesh, 1, lambda s: s)
    lo, hi = mesh.span
    assert g @ Mm @ f == pytest.approx((hi**4 - lo**4) / 4)
    assert g @ Cm @ f == pytest.approx(2 * (hi**3 - lo**3) / 3)


def test_load_matrix_exact_for_cubics(mesh):
    # integral( f phi_i ) exact when f is cubic per cell
    Q = load_matrix(mesh, 2)
    xq = quadrature_points(mesh)
    load = Q @ xq**3
    # compare against mass-matrix action on the exact interpolant of x^3?
    # x^3 is not in P2, so integrate directly: rows of Q sum the shape fns
    # against f; check the total integral (sum over i of load_i = integral f)
    lo, hi = mesh.span
    assert load.sum() == pytest.approx((hi**4 - lo**4) / 4)
    # and for f in the P2 space the load equals M @ f exactly
    f2 = xq**2
    coeffs = nodal(mesh, 2, lambda s: s * s)
    assert np.allclose(Q @ f2, mass(mesh, 2) @ coeffs, atol=1e-14)


def test_quadrature_points_cover_cells(mesh):
    xq = quadrature_points(mesh)
    assert xq.shape == (mesh.ncells * 3,)
    lo, hi = mesh.span
    assert lo < xq.min() and xq.max() < hi
    assert np.all(np.diff(xq) > 0)


def test_evaluate_reproduces_p2_functions(mesh):
    coeffs = nodal(mesh, 2, lambda s: 1 + 2 * s + 3 * s * s)
    pts = np.linspace(*mesh.span, 17)
    vals = evaluate(mesh, 2, coeffs, pts)
    assert np.allclose(vals, 1 + 2 * pts + 3 * pts**2, atol=1e-13)
    # scalar point returns a scalar
    v = evaluate(mesh, 2, coeffs, mesh.span[0])
    assert np.ndim(v) == 0


def test_evaluate_derivative_orders(mesh):
    coeffs = nodal(mesh, 2, lambda s: 1 + 2 * s + 3 * s * s)
    pts = np.linspace(*mesh.span, 9)
    d1 = evaluate_derivative(mesh, 2, coeffs, pts)
    assert np.allclose(d1, 2 + 6 * pts, atol=1e-12)
    d2 = evaluate_derivative(mesh, 2, coeffs, pts, order=2)
    assert np.allclose(d2, 6.0, atol=1e-11)
    with pytest.raises(ValueError):
        evaluate_derivative(mesh, 1, coeffs[: mesh.n_nodes(1)], pts, order=2)
    with pytest.raises(ValueError):
        evaluate_derivative(mesh, 2, coeffs, pts, order=3)


def test_complex_coefficients_supported(mesh):
    coeffs = nodal(mesh, 2, lambda s: s) * (1.0 + 2.0j)
    v = evaluate(mesh, 2, coeffs, 0.5 * sum(mesh.span))
    assert v == pytest.approx((1 + 2j) * 0.5 * sum(mesh.span))

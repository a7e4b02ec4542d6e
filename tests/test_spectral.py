"""Lateral spectral transforms: round trips, Hermitian symmetry, Parseval
sums, and mode bookkeeping.  Property tests use hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsqs.errors import DimensionMismatch
from bsqs.fem1d import VerticalMesh, mass
from bsqs.spectral import (ModeIndex, SpectralField, enforce_hermitian,
                           forward_transform, interface_trace,
                           inverse_transform, lateral_grid, lateral_l2_norm_sq,
                           mode_table, mode_weights, parseval_weights_grid,
                           sample_function, signed_k2, wavenumber, zero_field)

MESH = VerticalMesh("biot", 2)


def random_samples(rng, n1=4, n2=4, ncomp=2):
    return rng.standard_normal((n1, n2, ncomp, MESH.n_nodes(2)))


def test_wavenumber_and_signed_k2():
    assert wavenumber(ModeIndex(0, 0)) == 0.0
    assert wavenumber(ModeIndex(3, 4)) == pytest.approx(10 * np.pi)
    assert signed_k2(0, 8) == 0
    assert signed_k2(4, 8) == 4      # Nyquist kept positive
    assert signed_k2(5, 8) == -3
    assert signed_k2(7, 8) == -1


def test_mode_table_layout():
    modes = mode_table(4, 4)
    assert len(modes) == (4 // 2 + 1) * 4
    assert modes[0] == ModeIndex(0, 0)
    assert modes[2] == ModeIndex(0, 2)    # k2 Nyquist positive
    assert modes[3] == ModeIndex(0, -1)
    assert modes[-1] == ModeIndex(2, -1)  # k1 Nyquist stored last block


def test_mode_weights():
    w = mode_weights(8, 8)
    assert w[0] == 1.0 and w[-1] == 1.0
    assert np.all(w[1:-1] == 2.0)
    assert parseval_weights_grid(8, 8).shape == (5, 1)


def test_round_trip_exact(rng):
    samples = random_samples(rng)
    fld = forward_transform(samples, MESH, 2)
    back = inverse_transform(fld)
    assert np.allclose(back, samples, atol=1e-13)


def hermitian_inverse(fld):
    """enforce_hermitian, then the full spectrum from Hermitian symmetry and
    a complex ifft2: the reference for inverse_transform's real FFT."""
    sym = enforce_hermitian(fld)
    n1, n2 = sym.lateral_shape
    full = np.empty((n1, n2) + sym.data.shape[2:], dtype=complex)
    full[: n1 // 2 + 1] = sym.data
    for k1 in range(n1 // 2 + 1, n1):
        full[k1] = np.conj(sym.data[n1 - k1, (-np.arange(n2)) % n2])
    return (np.fft.ifft2(full, axes=(0, 1)) * (n1 * n2)).real


@pytest.mark.parametrize("n1, n2", [(4, 4), (6, 4), (8, 6)])
def test_inverse_transform_projects_like_enforce_hermitian(rng, n1, n2):
    """On random half spectra that are not Hermitian on the self-conjugate
    columns and carry Nyquist content, the real inverse FFT equals the
    projection followed by a complex inverse FFT."""
    shape = (n1 // 2 + 1, n2, 3, MESH.n_nodes(2))
    fld = SpectralField(MESH, 2, rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape))
    want = hermitian_inverse(fld)
    got = inverse_transform(fld)
    assert got.shape == (n1, n2, 3, MESH.n_nodes(2))
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-14 * np.abs(want).max())


def test_forward_scalar_promotes_component_axis(rng):
    samples = rng.standard_normal((4, 4, MESH.n_nodes(1)))
    fld = forward_transform(samples, MESH, 1)
    assert fld.ncomp == 1
    assert fld.data[0, 0, 0, 0] == pytest.approx(samples.mean(axis=(0, 1))[0])


def test_forward_rejects_bad_shapes(rng):
    with pytest.raises(DimensionMismatch):
        forward_transform(np.zeros((3, 4, 1, MESH.n_nodes(2))), MESH, 2)
    with pytest.raises(DimensionMismatch):
        forward_transform(np.zeros((4, 4, 1, 3)), MESH, 2)
    with pytest.raises(DimensionMismatch):
        forward_transform(np.zeros((4,)), MESH, 2)


def test_enforce_hermitian_idempotent_and_noop_on_real_spectra(rng):
    fld = forward_transform(random_samples(rng), MESH, 2)
    sym = enforce_hermitian(fld)
    assert np.allclose(sym.data, fld.data, atol=1e-14)
    # idempotent on arbitrary complex data
    noisy = fld.copy()
    noisy.data += 1j * rng.standard_normal(noisy.data.shape)
    once = enforce_hermitian(noisy)
    twice = enforce_hermitian(once)
    assert np.allclose(once.data, twice.data, atol=1e-14)


def test_parseval_matches_direct_quadrature(rng):
    samples = random_samples(rng)
    fld = forward_transform(samples, MESH, 2)
    gram = mass(MESH, 2)
    spectral = lateral_l2_norm_sq(fld, gram)
    direct = np.einsum("ijcn,nm,ijcm->", samples, gram, samples) / (4 * 4)
    assert spectral == pytest.approx(direct, rel=1e-12)


def test_sample_function_and_interface_trace():
    fn = (lambda x1, x2, x3, t: np.cos(2 * np.pi * x1) * (1 - x3),
          None,
          lambda x1, x2, x3, t: x3 + t)
    samples = sample_function(fn, 4, 4, MESH, 2, t=2.0)
    assert samples.shape == (4, 4, 3, MESH.n_nodes(2))
    assert np.all(samples[:, :, 1, :] == 0.0)
    x1, _ = lateral_grid(4, 4)
    assert samples[1, 0, 0, 0] == pytest.approx(np.cos(2 * np.pi * x1[1]))
    fld = forward_transform(samples, MESH, 2)
    tr = interface_trace(fld)                 # x3 = 0 is the first Biot node
    assert tr.shape == (3, 4, 3)
    # mode (1, 0) of cos(2 pi x1) has coefficient 1/2
    assert tr[1, 0, 0] == pytest.approx(0.5)
    assert tr[0, 0, 2] == pytest.approx(2.0)  # mean of x3 + t at x3 = 0


def test_zero_field_and_lateral_shape():
    fld = zero_field(MESH, 1, 6, 4, 1)
    assert fld.data.shape == (4, 4, 1, MESH.n_nodes(1))
    assert fld.lateral_shape == (6, 4)
    assert fld.zeros_like().data.shape == fld.data.shape
    assert fld.mode(0, 0).shape == (1, MESH.n_nodes(1))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([4, 6]), st.sampled_from([4, 8]))
def test_property_round_trip(seed, n1, n2):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n1, n2, 1, MESH.n_nodes(2)))
    fld = forward_transform(samples, MESH, 2)
    assert np.allclose(inverse_transform(fld), samples, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_parseval(seed):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((4, 8, 1, MESH.n_nodes(1)))
    fld = forward_transform(samples, MESH, 1)
    gram = mass(MESH, 1)
    direct = np.einsum("ijcn,nm,ijcm->", samples, gram, samples) / (4 * 8)
    assert lateral_l2_norm_sq(fld, gram) == pytest.approx(direct, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_hermitian_projection_gives_real_samples(seed):
    rng = np.random.default_rng(seed)
    data = (rng.standard_normal((3, 4, 1, MESH.n_nodes(1)))
            + 1j * rng.standard_normal((3, 4, 1, MESH.n_nodes(1))))
    fld = SpectralField(MESH, 1, data)
    samples = inverse_transform(fld)          # projects, then synthesizes
    back = forward_transform(samples, MESH, 1)
    assert np.allclose(inverse_transform(back), samples, atol=1e-12)

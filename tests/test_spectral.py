"""Lateral spectral transforms: round trips, Hermitian symmetry, Parseval
sums, and mode bookkeeping.  Property tests use hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsqs import energy as en
from bsqs.errors import DimensionMismatch
from bsqs.fem1d import VerticalMesh, mass
from bsqs.spectral import (ModeIndex, SpectralField, forward_transform,
                           interface_trace, inverse_transform, lateral_grid,
                           mode_table, mode_weights, roundoff_floor,
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


def test_round_trip_exact(rng):
    samples = random_samples(rng)
    fld = forward_transform(samples, MESH, 2)
    back = inverse_transform(fld)
    assert np.allclose(back, samples, atol=1e-13)


def enforce_hermitian(field: SpectralField) -> SpectralField:
    """Project the self-conjugate k1 columns onto Hermitian symmetry in k2
    (idempotent; a no-op for spectra of real samples)."""
    data = field.data.copy()
    n2 = data.shape[1]
    for col in (0, data.shape[0] - 1):
        flipped = np.conj(data[col, (-np.arange(n2)) % n2])
        data[col] = 0.5 * (data[col] + flipped)
    return SpectralField(field.mesh, field.degree, data)


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


def _x1_profile(n1, n2, shape):
    """shape(x1) * (1 - x3)^2 on the lateral grid x the P2 Biot nodes, as one
    scalar component: (n1, n2, 1, n_nodes)."""
    x1, _ = lateral_grid(n1, n2)
    x3 = MESH.nodes(2)
    prof = shape(x1)[:, None, None] * (1 - x3)[None, None, :] ** 2
    return np.broadcast_to(prof, (n1, n2, len(x3)))[:, :, None, :].copy()


def _live_modes(fld):
    """The stored modes with a nonzero coefficient, in storage order."""
    n1, n2 = fld.lateral_shape
    rows = fld.data.reshape(-1, fld.data[0, 0].size).any(axis=1)
    return [mode_table(n1, n2)[i] for i in np.flatnonzero(rows)]


@pytest.mark.parametrize("n1, n2", [(8, 8), (16, 16), (6, 4)])
def test_single_trig_mode_transforms_to_one_stored_mode(n1, n2):
    """cos 2 pi x1 (1 - x3)^2 has one stored mode, (1, 0); the FFT's roundoff
    in every other mode is chopped to exact zeros."""
    samples = _x1_profile(n1, n2, lambda x1: np.cos(2 * np.pi * x1))
    fld = forward_transform(samples, MESH, 2)
    assert _live_modes(fld) == [ModeIndex(1, 0)]
    nodes = MESH.nodes(2)
    np.testing.assert_allclose(fld.data[1, 0, 0], 0.5 * (1 - nodes) ** 2,
                               rtol=1e-14, atol=1e-15)


def test_content_above_the_roundoff_floor_survives():
    """A second mode at 1e-10 of its profile's maximum is far above the floor
    (about 3.5e-14 at 8 x 8) and is kept with its value."""
    assert 1e-14 < roundoff_floor(8, 8) < 1e-13
    samples = _x1_profile(8, 8, lambda x1: np.cos(2 * np.pi * x1)
                          + 1e-10 * np.cos(4 * np.pi * x1))
    fld = forward_transform(samples, MESH, 2)
    ratio = np.abs(fld.data[2, 0, 0, :-1]) / np.abs(fld.data[1, 0, 0, :-1])
    np.testing.assert_allclose(ratio, 1e-10, rtol=1e-4)
    assert _live_modes(fld) == [ModeIndex(1, 0), ModeIndex(2, 0)]


def test_zero_profile_stays_zero():
    """All-zero samples, and a zero component and node inside live data (the
    clamped node x3 = 1, the second component), transform to exact zeros
    with no 0/0."""
    fld = forward_transform(np.zeros((8, 8, 3, MESH.n_nodes(2))), MESH, 2)
    assert not fld.data.any()
    samples = np.zeros((8, 8, 3, MESH.n_nodes(2)))
    samples[:, :, :1] = _x1_profile(8, 8, lambda x1: np.sin(2 * np.pi * x1))
    fld = forward_transform(samples, MESH, 2)
    assert not fld.data[:, :, 1:].any()
    assert not fld.data[..., MESH.clamped_node(2)].any()
    assert fld.data[1, 0, 0, 0] == pytest.approx(-0.5j)


def test_zero_components_are_not_transformed(monkeypatch, rng):
    """A component with no nonzero sample costs no FFT: only the filled
    components reach rfftn, and their coefficients are the bits of a
    transform of every component.  All-zero samples call no rfftn."""
    samples = np.zeros((8, 8, 3, MESH.n_nodes(2)))
    samples[:, :, 1] = rng.standard_normal((8, 8, MESH.n_nodes(2)))
    full = np.fft.rfftn(samples, axes=(1, 0)) / 64
    shapes = []
    rfftn = np.fft.rfftn

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return rfftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", counted)
    fld = forward_transform(samples, MESH, 2)
    assert shapes == [(8, 8, 1, MESH.n_nodes(2))]
    assert not fld.data[:, :, [0, 2]].any()
    mag = np.abs(full[:, :, 1])
    kept = mag > roundoff_floor(8, 8) * mag.max(axis=(0, 1))
    assert np.array_equal(fld.data[:, :, 1], np.where(kept, full[:, :, 1], 0))
    shapes.clear()
    assert not forward_transform(np.zeros_like(samples), MESH, 2).data.any()
    assert shapes == []


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
    gram = mass(MESH, 2).toarray()
    spectral = en.l2_norm_sq(fld)
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
    gram = mass(MESH, 1).toarray()
    direct = np.einsum("ijcn,nm,ijcm->", samples, gram, samples) / (4 * 8)
    assert en.l2_norm_sq(fld) == pytest.approx(direct, rel=1e-10)


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

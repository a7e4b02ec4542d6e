"""Lateral Fourier transforms, mode bookkeeping, traces, and Parseval weights.

Fields are periodic in x1 and x2 with period 1.  The forward transform
carries the 1/(n1*n2) weight, so the (0,0) coefficient is the lateral mean
and squared lateral L2 norms are weighted sums of squared coefficients.

Storage is the half-spectrum k1 in [0, n1/2] (Hermitian symmetry recovers
k1 < 0); k2 runs over the full signed range [-n2/2+1, n2/2].  The Nyquist
wavenumbers are represented with the positive sign, matching wavenumber().
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, ParseError
from .exprs import Expression
from .fem1d import VerticalMesh


class ModeIndex(NamedTuple):
    k1: int
    k2: int


def wavenumber(m: ModeIndex) -> float:
    """Magnitude of the lateral wave vector: 2*pi*sqrt(k1^2 + k2^2)."""
    return 2.0 * np.pi * float(np.hypot(m.k1, m.k2))


def signed_k2(j: int, n2: int) -> int:
    """Map a storage row index j in [0, n2) to the signed wavenumber."""
    return j if j <= n2 // 2 else j - n2


@lru_cache(maxsize=None)
def mode_table(n1: int, n2: int):
    """All stored modes as a list of ModeIndex, in storage order
    (k1 major, storage row j minor)."""
    return tuple(ModeIndex(k1, signed_k2(j, n2))
                 for k1 in range(n1 // 2 + 1) for j in range(n2))


@lru_cache(maxsize=None)
def mode_weights(n1: int, n2: int) -> np.ndarray:
    """Parseval weight per stored k1 column: 1 for the self-conjugate columns
    k1 = 0 and k1 = n1/2, else 2."""
    w = np.full(n1 // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    return w


@dataclass
class SpectralField:
    """Half-spectrum coefficients of one field.

    data has shape (n1//2 + 1, n2, ncomp, n_nodes): mode coefficients of the
    vertical nodal profile per component.  Scalar fields use ncomp = 1.  The
    energy norms also accept leading axes (..., n1//2 + 1, n2, ncomp,
    n_nodes), one per stacked time level, say.
    """

    mesh: VerticalMesh
    degree: int
    data: np.ndarray

    @property
    def ncomp(self):
        return self.data.shape[-2]

    @property
    def lateral_shape(self):
        n1h, n2 = self.data.shape[-4:-2]
        return (2 * (n1h - 1), n2)

    def copy(self):
        return SpectralField(self.mesh, self.degree, self.data.copy())


def zero_field(mesh: VerticalMesh, degree: int, n1: int, n2: int, ncomp: int = 1):
    nn = mesh.n_nodes(degree)
    return SpectralField(mesh, degree, np.zeros((n1 // 2 + 1, n2, ncomp, nn),
                                                dtype=complex))


def roundoff_floor(n1: int, n2: int) -> float:
    """Worst-case FFT roundoff of an n1 x n2 lateral transform, relative to
    the largest coefficient of the transformed profile.

    Higham (Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm
    24.2): a radix-2 FFT of length n = 2^t with twiddle factors accurate to
    mu has ||y^ - y||_2 <= t eta ||y||_2 / (1 - t eta), eta = mu + gamma_4
    (sqrt 2 + mu), gamma_4 = 4u / (1 - 4u).  With mu = u = eps/2 that is
    eta ~ (1 + 4 sqrt 2) u to first order.  The 2-D transform is n2
    transforms of length n1 and n1 of length n2, so t = log2(n1 n2), and
    the 1/(n1 n2) weight scales y and its error alike.  Every coefficient's
    error is bounded by the 2-norm of the whole error, and the 2-norm of
    the n1 n2 coefficients by sqrt(n1 n2) times the largest of them, so a
    coefficient whose exact value is zero comes out no larger than
    log2(n1 n2) sqrt(n1 n2) (1 + 4 sqrt 2) u times the largest one.  Even
    lengths that are not powers of two go through pocketfft's mixed-radix
    passes, whose error grows the same way (Schatzman, SIAM J. Sci.
    Comput. 17, 1996), and take the same formula.  At 8 x 8 this is about
    160 eps (3.5e-14), at 16 x 16 about 430 eps."""
    n = n1 * n2
    u = np.finfo(float).eps / 2
    return float((1 + 4 * np.sqrt(2)) * u * np.log2(n) * np.sqrt(n))


def forward_transform(samples: np.ndarray, mesh: VerticalMesh, degree: int
                      ) -> SpectralField:
    """Real samples (n1, n2, ncomp, n_nodes) -> half-spectrum SpectralField.

    Scalar fields may pass (n1, n2, n_nodes); a unit component axis is added.

    Each (component, node) profile is chopped at its roundoff floor: a
    coefficient no larger than roundoff_floor(n1, n2) times the profile's
    largest lateral coefficient is set to exactly zero, as chebfun cuts a
    series at its roundoff plateau (Aurentz & Trefethen, ACM TOMS 43,
    2017).  A mode that the sampled data do not reach is then exactly zero
    and the step leaves it alone; content below the floor of its own
    profile is lost.  A profile that is zero everywhere stays zero.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 3:
        samples = samples[:, :, None, :]
    if samples.ndim != 4:
        raise DimensionMismatch(f"expected 3 or 4 axes, got {samples.ndim}")
    n1, n2 = samples.shape[:2]
    if n1 % 2 or n2 % 2:
        raise DimensionMismatch("lateral sample counts must be even")
    if samples.shape[3] != mesh.n_nodes(degree):
        raise DimensionMismatch(
            f"vertical axis {samples.shape[3]} != {mesh.n_nodes(degree)} nodes")
    # a component with no nonzero sample has exactly zero coefficients: only
    # the others are transformed and chopped
    filled = samples.any(axis=(0, 1, 3))
    full = (n1 // 2 + 1, n2) + samples.shape[2:]
    if not filled.any():
        return SpectralField(mesh, degree, np.zeros(full, complex))
    coeff = np.fft.rfftn(samples if filled.all() else samples[:, :, filled],
                         axes=(1, 0))
    coeff /= n1 * n2
    mag = np.abs(coeff)
    coeff[mag <= roundoff_floor(n1, n2) * mag.max(axis=(0, 1))] = 0
    if not filled.all():
        coeff, part = np.zeros(full, complex), coeff
        coeff[:, :, filled] = part
    return SpectralField(mesh, degree, np.ascontiguousarray(coeff))


def inverse_transform(field: SpectralField) -> np.ndarray:
    """Half-spectrum -> real samples (n1, n2, ncomp, n_nodes).

    The real transform in k1 drops the imaginary parts that the
    self-conjugate columns k1 = 0 and n1/2 keep after the k2 transform:
    it projects those columns onto Hermitian symmetry in k2, c(k2) ->
    (c(k2) + conj c(-k2)) / 2, before synthesizing."""
    n1, n2 = field.lateral_shape
    out = np.fft.irfftn(field.data, s=(n2, n1), axes=(1, 0)) * (n1 * n2)
    return np.ascontiguousarray(out)


def lateral_grid(n1: int, n2: int):
    """Sample coordinates x1[i], x2[j] of the uniform periodic lateral grid."""
    return np.arange(n1) / n1, np.arange(n2) / n2


def sample_function(fn, n1, n2, mesh, degree, t=0.0):
    """Sample callables on the lateral grid x the field's vertical nodes.

    fn is a single callable (scalar field) or a sequence of callables per
    component; None entries are zero.
    """
    x1, x2 = lateral_grid(n1, n2)
    x3 = mesh.nodes(degree)
    X1 = x1[:, None, None]
    X2 = x2[None, :, None]
    X3 = x3[None, None, :]
    comps = [fn] if callable(fn) or fn is None else list(fn)
    out = np.zeros((n1, n2, len(comps), len(x3)))
    for c, f in enumerate(comps):
        if f is not None:
            out[:, :, c, :] = np.broadcast_to(f(X1, X2, X3, t), (n1, n2, len(x3)))
    return out


def sample_sources(sources, n1, n2, mb, mf, t):
    """Sample the sources F_b, S (on the Biot mesh mb) and F_f (on the fluid
    mesh mf) at time t and transform them: a tuple (Fb, S, Ff) of
    SpectralFields with None for an absent source, or None when all are."""
    if sources.is_zero():
        return None

    def field(fn, mesh, degree):
        return forward_transform(
            sample_function(fn, n1, n2, mesh, degree, t=t), mesh, degree)

    return (field(sources.F_b, mb, 2)
            if any(c is not None for c in sources.F_b) else None,
            field(sources.S, mb, 1) if sources.S is not None else None,
            field(sources.F_f, mf, 2)
            if any(c is not None for c in sources.F_f) else None)


@dataclass
class SeparableField:
    """A level-stacked source that separates in space and time: weights[n] *
    space at level n, for one SpectralField `space` (no level axis) and the
    time factor's values at the levels' stamps, `weights` (levels,).  The
    source of one step has a scalar weight."""

    space: SpectralField
    weights: np.ndarray


def source_levels(sources, sl):
    """The levels `sl` of level-stacked sources (SpectralFields with a level
    axis, SeparableFields, or None): a slice keeps the level axis, an index
    drops it."""
    return [None if f is None
            else replace(f, weights=f.weights[sl])
            if isinstance(f, SeparableField) else replace(f, data=f.data[sl])
            for f in sources]


def sample_stacked(fn, n1, n2, mesh, degree, times):
    """A source field (as sample_function takes it) at each of `times`,
    transformed: a SeparableField, sampled and transformed once, when every
    component is None or an Expression that separates (Expression.separate)
    and all of those share one time factor; else a level-stacked
    SpectralField, sampled and transformed at each stamp.  A source whose
    factor fails a value check of Expression.__call__, or whose factors'
    largest magnitudes have a product that is not finite, is sampled at each
    stamp, where those checks apply to its value."""
    fld = _separable(fn, n1, n2, mesh, degree, times)
    if fld is not None:
        return fld
    for n, t in enumerate(times):
        f = forward_transform(sample_function(fn, n1, n2, mesh, degree, t=t),
                              mesh, degree)
        if fld is None:
            fld = replace(f, data=np.empty((len(times),) + f.data.shape,
                                           complex))
        fld.data[n] = f.data
    return fld


def _separable(fn, n1, n2, mesh, degree, times):
    """The SeparableField of sample_stacked, or None where it samples at
    each stamp."""
    comps = [fn] if callable(fn) else list(fn)
    space, time = [], set()
    for f in comps:
        parts = (None, None) if f is None else (
            f.separate() if isinstance(f, Expression) else None)
        if parts is None:
            return None
        space.append(parts[0])
        if f is not None:
            time.add(parts[1])
    if len(time) != 1:
        return None
    (g,) = time
    try:
        samples = sample_function(space, n1, n2, mesh, degree)
        weights = (np.ones(len(times)) if g is None
                   else g(0.0, 0.0, 0.0, np.asarray(times, dtype=float)))
    except ParseError:
        return None
    if not np.isfinite(float(max(samples.max(), -samples.min()))
                       * float(np.abs(weights).max())):
        return None
    return SeparableField(forward_transform(samples, mesh, degree), weights)


def interface_trace(field: SpectralField) -> np.ndarray:
    """Per-mode complex boundary values at x3 = 0: shape (n1h, n2, ncomp)."""
    node = field.mesh.interface_node(field.degree)
    return field.data[:, :, :, node]

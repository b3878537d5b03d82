"""Datasets, Gram matrices, and their eigendecompositions.

The Gram matrix is always stored with the 1/m scaling, so its eigenvalues
estimate the integral-operator spectrum directly. Decompositions are exact:
either a dense symmetric eigensolve of the m-by-m Gram, or, for
finite-rank feature kernels with at least as many samples as features, a
solve in the feature domain that decomposes the model's N-by-N empirical
operator. That operator has the Gram's nonzero spectrum, and a spectral
fit needs nothing else from the sample than it and B^T y / m, so the
feature path's only input is the sample's `SampleMoments`, which hold
both, and it never touches an m-sized array. Both solves reduce their
matrix to tridiagonal form and keep the reduction's orthogonal factor as
Householder reflectors, so the eigenvectors are held as the reflectors
times an eigenbasis of the tridiagonal matrix and applied from right to
left, never formed. No sketching, no default jitter.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DataError, NumericalError, ParameterError

NEGATIVE_EIG_WARN = 1e-10  # warn when clamping below -1e-10 * top eigenvalue
RANK_DROP = 1e-12  # factored path drops modes below this times the top one


@dataclass(frozen=True, eq=False)
class SampleMoments:
    """The sufficient statistics of a sample for an N-feature trigonometric model.

    ``cos`` (2h + 1,) holds C_n = mean cos(n x) and ``sin`` (N,) holds
    S_n = mean sin(n x), n = 0, 1, ..., with h = N // 2; they determine
    the empirical operator (`MercerModel.empirical_operator`). An even N
    has no sin(h x) feature, and its sin moments stop at S_(2h-1).
    ``response`` (N, d) is B^T y / m for the (m, N) basis matrix B and
    the outputs y, or None when the moments were taken from inputs alone.
    """

    cos: np.ndarray
    sin: np.ndarray
    response: np.ndarray | None = None

    @property
    def n_feat(self) -> int:
        return int(self.sin.shape[0])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Paired samples: inputs ``xs`` of shape (m,), outputs ``ys`` of (m, d).

    ``moments`` optionally holds the sample's `SampleMoments` for a
    trigonometric model, and ``basis`` the feature basis evaluated at
    ``xs``, one row per sample (stored read-only). `mercer.draw_dataset`,
    the draw behind `sample_dataset` and `TwoPointMeasure.sample`, carries
    the moments at every m and the basis only below the feature count,
    where the dense Gram path needs it; a fit at m >= N reads the moments
    and no m-by-N array.
    """

    xs: np.ndarray
    ys: np.ndarray
    basis: np.ndarray | None = None
    moments: SampleMoments | None = None

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if ys.ndim == 1:
            ys = ys[:, None]
        if xs.ndim != 1 or ys.ndim != 2 or xs.shape[0] != ys.shape[0]:
            raise DataError(f"incompatible shapes xs{xs.shape}, ys{ys.shape}")
        if xs.shape[0] < 1:
            raise DataError("need at least one sample")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise DataError("dataset contains non-finite entries")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if self.basis is not None:
            basis = np.asarray(self.basis, dtype=float).view()
            if basis.ndim != 2 or basis.shape[0] != xs.shape[0]:
                raise DataError(f"basis{basis.shape} needs one row per sample, m={xs.shape[0]}")
            basis.flags.writeable = False
            object.__setattr__(self, "basis", basis)
        response = None if self.moments is None else self.moments.response
        if response is not None and response.shape[1:] != ys.shape[1:]:
            raise DataError(f"moment response{response.shape} needs {ys.shape[1]} channels")

    @property
    def m(self) -> int:
        return self.xs.shape[0]

    @property
    def output_dim(self) -> int:
        return self.ys.shape[1]


@dataclass(frozen=True)
class GaussianRBF:
    """Stationary squared-exponential kernel on the line."""

    lengthscale: float

    def __post_init__(self):
        if self.lengthscale <= 0:
            raise ParameterError(f"lengthscale must be positive, got {self.lengthscale}")

    def scalar_kernel(self, xs, zs) -> np.ndarray:
        xs = np.asarray(xs, float)[:, None]
        zs = np.asarray(zs, float)[None, :]
        return np.exp(-((xs - zs) ** 2) / (2.0 * self.lengthscale**2))

    def describe(self) -> dict:
        return {"kind": "gaussian_rbf", "lengthscale": self.lengthscale}


def assemble_gram(kernel, xs, basis=None) -> np.ndarray:
    """The scaled Gram matrix (1/m) k(x_i, x_j), as symmetric as the kernel
    returns it (`eigendecompose` symmetrizes). A MercerModel kernel reuses
    a ``basis`` at ``xs`` (see `MercerModel.scalar_kernel`)."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 1:
        raise DataError(f"xs must be a nonempty 1-d array, got shape {xs.shape}")
    if not np.all(np.isfinite(xs)):
        raise DataError("xs contains non-finite entries")
    k = kernel.scalar_kernel(xs, xs) if basis is None else kernel.scalar_kernel(xs, xs, basis)
    k = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(k)):
        raise DataError("kernel evaluations contain non-finite entries")
    return k / xs.size


@dataclass(frozen=True, eq=False)
class GramEigen:
    """Eigensystem of a scaled Gram matrix, or of its feature-domain twin.

    ``eigenvalues`` (k,) descending and nonnegative. The solver reduced an
    n-by-n symmetric matrix to tridiagonal form, A = Q T Q^T, and solved
    T = Z diag(w) Z^T; Q stays as its n - 1 Householder ``reflectors``
    (Fortran order, as LAPACK dormqr reads them) and their ``tau``, and
    ``mix`` (n, k) holds the kept columns of Z in descending order, so the
    orthonormal eigenvectors are Q mix. The dense path decomposes the
    m-by-m Gram itself, n = m, and ``complete`` is True. The feature path
    decomposes the N-by-N empirical operator, n = N and ``complete`` is
    False: its eigenvalues are the Gram's nonzero ones and its
    eigenvectors W live in the feature domain, where a fit needs them
    (`estimator.fit`); the Gram's remaining eigenvalues are exactly zero.
    ``size`` is n, the decomposed dimension. `project` and `combine`
    apply Q mix and its transpose one factor at a time, Q in O(n^2 d), so
    the eigenvectors are built only when the ``vectors`` property is
    read. ``clamped`` records the magnitude of the most negative raw
    eigenvalue the solver returned, and ``dropped`` how many
    feature-domain modes the feature path discarded as below RANK_DROP
    times the top one.
    """

    eigenvalues: np.ndarray
    mix: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray
    size: int
    complete: bool
    clamped: float = 0.0
    dropped: int = 0

    @property
    def rank(self) -> int:
        return int(self.eigenvalues.shape[0])

    @property
    def vectors(self) -> np.ndarray:
        """The (n, k) eigenvector matrix Q mix, built on each access."""
        return self.combine(np.eye(self.rank))

    def project(self, x: np.ndarray) -> np.ndarray:
        """(Q mix)^T x for x of shape (n, d), shape (k, d)."""
        return self.mix.T @ self._reflect(x, "T")

    def combine(self, z: np.ndarray) -> np.ndarray:
        """Q mix z for z of shape (k, d), shape (n, d)."""
        return self._reflect(self.mix @ z, "N")

    def _reflect(self, x: np.ndarray, trans: str) -> np.ndarray:
        """Q x for ``trans`` "N", Q^T x for "T", with x of shape (n, d).

        Q fixes the first coordinate and the reflectors act on the rest,
        which is how LAPACK dormtr applies a lower-triangle reduction.
        lwork = d keeps dormqr unblocked, the faster choice for the few
        columns of a fit.
        """
        if not self.tau.size:
            return x
        tail, _, info = lapack.dormqr(
            "L", trans, self.reflectors, self.tau,
            np.array(x[1:], dtype=float, order="F"), max(1, x.shape[1]), overwrite_c=1,
        )
        if info != 0:
            raise NumericalError(f"dormqr rejected argument {-info}")
        return np.concatenate((x[:1], tail))


def _tridiagonalize(a: np.ndarray):
    """LAPACK dsytrd on the exactly symmetric ``a``, overwriting it if writeable.

    A C-ordered ``a`` is handed over as its transpose, the same matrix in
    the Fortran order dsytrd works in, so the reduction runs in place and
    no n-by-n copy is made: a writeable ``a`` is destroyed, a read-only
    one is copied (the wrapper would ignore the flag). Returns the packed
    result (reflectors below the subdiagonal), the diagonal and
    off-diagonal of T = Q^T a Q, and the reflectors' tau, using dsytrd's
    optimal blocked workspace. At n = 1 the off-diagonal is one zero,
    since dstevd wants a length of at least one.
    """
    n = a.shape[0]
    lwork, _ = lapack.dsytrd_lwork(n, lower=1)
    overwrite = int(a.flags.writeable)
    packed, diag, off, tau, info = lapack.dsytrd(a.T, lower=1, lwork=int(lwork), overwrite_a=overwrite)
    if info != 0:
        raise NumericalError(f"dsytrd rejected argument {-info}")
    return packed, diag, off if n > 1 else np.zeros(1), tau


def _tridiagonal_eigh(a: np.ndarray):
    """Ascending eigenvalues w, Z, reflectors and tau with a = Q Z diag(w) Z^T Q^T.

    `_tridiagonalize` reduces ``a`` to tridiagonal T = Q^T a Q in place,
    and dstevd solves T = Z diag(w) Z^T by divide and conquer. Q is left
    as the reflectors dsytrd stores below the subdiagonal, the
    (n - 1)-square block a[1:, :-1], copied once to Fortran order so that
    dormqr reads it in place. This skips the O(n^3) back-transformation
    Q Z that a full eigensolver performs. The packed matrix is released
    before dstevd allocates Z, so when the caller passes a temporary the
    two n-by-n arrays are not alive together.
    """
    packed, diag, off, tau = _tridiagonalize(a)
    reflectors = np.asfortranarray(packed[1:, :-1])
    del a, packed
    vals, z, info = lapack.dstevd(diag, off)
    if info != 0:
        raise _eigensolver_error(diag, off, info)
    return vals, z, reflectors, tau


def spectral_norm(a: np.ndarray) -> float:
    """max |eigenvalue| of the exactly symmetric ``a``, from the ends of its spectrum.

    Reduces ``a`` to tridiagonal form in place (a writeable ``a`` is
    overwritten) and bisects (LAPACK dstebz) for its smallest and its
    largest eigenvalue only, O(n) per bisection step after the O(n^3)
    reduction, where a symmetric eigenvalue solver would compute the
    whole spectrum.
    """
    _, diag, off, _ = _tridiagonalize(a)
    n = diag.shape[0]
    ends = []
    for index in (1, n):
        _, vals, _, _, info = lapack.dstebz(diag, off, 2, 0.0, 0.0, index, index, 0.0, "E")
        if info != 0:
            raise _eigensolver_error(diag, off, info)
        ends.append(abs(vals[0]))
    return float(max(ends))


def _eigensolver_error(diag: np.ndarray, off: np.ndarray, info: int) -> NumericalError:
    scale = float(max(np.max(np.abs(diag)), np.max(np.abs(off))))
    return NumericalError(
        f"eigensolver failed on a {diag.shape[0]}x{diag.shape[0]} tridiagonal matrix "
        f"(max abs entry {scale:g}): LAPACK info {info}"
    )


def _descending(vals: np.ndarray, vecs: np.ndarray):
    """Sort an eigensystem by descending eigenvalue and measure its clamp.

    Returns the sorted pair and the magnitude of the most negative raw
    eigenvalue; anything below -1e-10 times the top eigenvalue triggers a
    warning, attributed to the caller's caller.
    """
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    top = float(vals[0]) if vals.size else 0.0
    most_negative = float(min(vals.min(), 0.0)) if vals.size else 0.0
    if top > 0 and most_negative < -NEGATIVE_EIG_WARN * top:
        warnings.warn(
            f"clamping eigenvalue {most_negative:g} "
            f"(relative {most_negative / top:g}) to zero",
            stacklevel=3,
        )
    return vals, vecs, -most_negative


def eigendecompose(gram: np.ndarray) -> GramEigen:
    """Dense symmetric eigendecomposition with descending eigenvalues.

    The m-by-m Gram is symmetrized, 0.5 (G + G^T), and goes through
    `_tridiagonal_eigh`; its eigenvectors are held as Q times the sorted
    tridiagonal eigenbasis. Tiny negative eigenvalues are clamped to zero;
    anything below -1e-10 times the top eigenvalue triggers a warning first.
    """
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1] or gram.shape[0] < 1:
        raise DataError(f"gram must be square and nonempty, got shape {gram.shape}")
    vals, vecs, reflectors, tau = _tridiagonal_eigh(0.5 * (gram + gram.T))
    vals, vecs, clamped = _descending(vals, vecs)
    return GramEigen(
        eigenvalues=np.maximum(vals, 0.0),
        mix=vecs,
        reflectors=reflectors,
        tau=tau,
        size=gram.shape[0],
        complete=True,
        clamped=clamped,
    )


def mercer_gram_eigen(model, moments: SampleMoments) -> GramEigen:
    """Exact Gram eigensystem of a finite-rank feature kernel, from the sample's moments.

    The scaled Gram is Phi Phi^T with Phi = B diag(sqrt t) / sqrt(m), B
    the (m, N) basis matrix, and its nonzero spectrum equals that of the
    N-by-N matrix Phi^T Phi = `MercerModel.empirical_operator` = W S W^T,
    assembled from the sample's Fourier ``moments`` (which must be this
    model's). The eigensolve runs at size N through `_tridiagonal_eigh`,
    so W = Q Z; the result keeps Q's reflectors and ``mix`` = Z over the
    k modes above RANK_DROP times the top one, ``dropped`` counts the
    rest, and ``size`` is N. ``clamped`` and its warning follow
    `eigendecompose`, measured on the feature-domain spectrum. Neither
    the m-by-m Gram nor an m-by-N array is formed, and the result is an
    exact decomposition, not an approximation. `estimator.fit` takes
    this path from m = N on and the dense one below.
    """
    vals, vecs, reflectors, tau = _tridiagonal_eigh(model.empirical_operator(moments))
    vals, vecs, clamped = _descending(vals, vecs)
    top = float(vals[0]) if vals.size else 0.0
    keep = vals > RANK_DROP * top
    vals = vals[keep]
    return GramEigen(
        eigenvalues=vals,
        mix=vecs[:, keep],
        reflectors=reflectors,
        tau=tau,
        size=model.n_trunc,
        complete=False,
        clamped=clamped,
        dropped=int(keep.size - vals.size),
    )


def reconstruction_error(matrix: np.ndarray, eig: GramEigen) -> float:
    """Max-abs deviation between the decomposed matrix and its stored eigensystem:
    the Gram on the dense path, the empirical operator on the feature path."""
    approx = (eig.vectors * eig.eigenvalues[None, :]) @ eig.vectors.T
    return float(np.max(np.abs(np.asarray(matrix) - approx)))

"""Datasets, Gram matrices, and their eigendecompositions.

The Gram matrix is always stored with the 1/m scaling, so its eigenvalues
estimate the integral-operator spectrum directly. Decompositions are exact:
either a dense symmetric eigensolve, or, for finite-rank feature kernels,
an equivalent factored solve in the feature domain that yields the same
nonzero spectrum without forming the m-by-m matrix. The factored solve
decomposes the model's N-by-N empirical operator, built from Fourier
moments. Both solves reduce their matrix to tridiagonal form and keep the
reduction's orthogonal factor as Householder reflectors, so the
eigenvectors are held as a product (the basis matrix, a diagonal scaling,
the reflectors and an eigenbasis of the tridiagonal matrix on the
factored path; the last two alone on the dense path) and applied from
right to left, never formed. No sketching, no default jitter.
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
class Dataset:
    """Paired samples: inputs ``xs`` of shape (m,), outputs ``ys`` of (m, d).

    ``basis`` optionally holds the feature basis evaluated at ``xs``, one
    row per sample, so the fit and the norms need not evaluate it again.
    It is stored read-only.
    """

    xs: np.ndarray
    ys: np.ndarray
    basis: np.ndarray | None = None

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
    a ``basis`` at ``xs`` (see `MercerModel.basis_at`)."""
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
    """Eigensystem of a scaled Gram matrix, held as a product.

    ``eigenvalues`` (k,) descending and nonnegative. The solver reduced an
    n-by-n symmetric matrix to tridiagonal form, A = Q T Q^T, and solved
    T = Z diag(w) Z^T; Q stays as its n - 1 Householder ``reflectors``
    (Fortran order, as LAPACK dormqr reads them) and their ``tau``, and
    ``mix`` (n, k) holds the kept columns of Z in descending order. The
    dense path decomposes the Gram itself, n = m, and its (m, k) matrix V
    of orthonormal eigenvectors is Q mix. The factored path decomposes the
    N-by-N empirical operator, and V = factor diag(scale) Q mix, with
    ``factor`` the (m, N) basis matrix B, read-only and shared with the
    Dataset when it carries one, ``scale`` = sqrt(t / m) and the inverse
    root of each kept eigenvalue folded into ``mix``. That root amplifies
    rounding by up to sqrt(w_max / w_min), so only the dense path's V is
    orthonormal to rounding: at N = 512, max |V^T V - I| on the factored
    path is 1.0e-6 at m = N + 1 (amplification 8.7e5) and 6.9e-12 at
    m = 2N (1.4e4). Fits are unaffected, as g(w) - g(0) vanishes with w.
    `project` and `combine` apply these factors one at a time, Q in
    O(n^2 d), so neither Q nor V is formed; V is built only when the
    ``vectors`` property is read. ``complete`` marks whether k = m; when it
    does not, the unlisted eigenvalues are exactly zero and the complement
    of V's columns spans their eigenspace. ``clamped`` records the
    magnitude of the most negative raw eigenvalue the solver returned, and
    ``dropped`` how many feature-domain modes the factored path discarded
    as below RANK_DROP times the top one.
    """

    eigenvalues: np.ndarray
    mix: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray
    size: int
    complete: bool
    factor: np.ndarray | None = None
    scale: np.ndarray | None = None
    clamped: float = 0.0
    dropped: int = 0

    @property
    def rank(self) -> int:
        return int(self.eigenvalues.shape[0])

    @property
    def vectors(self) -> np.ndarray:
        """The (m, k) eigenvector matrix V, built on each access."""
        return self.combine(np.eye(self.rank))

    def project(self, ys: np.ndarray) -> np.ndarray:
        """V^T ys, shape (k, d)."""
        x = ys if self.factor is None else self.scale[:, None] * (self.factor.T @ ys)
        return self.mix.T @ self._reflect(x, "T")

    def combine(self, z: np.ndarray) -> np.ndarray:
        """V z, shape (m, d)."""
        x = self._reflect(self.mix @ z, "N")
        return x if self.factor is None else self.factor @ (self.scale[:, None] * x)

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
    """LAPACK dsytrd on the lower triangle of the symmetric ``a``.

    Returns the packed result (reflectors below the subdiagonal), the
    diagonal and off-diagonal of T = Q^T a Q, and the reflectors' tau,
    using dsytrd's optimal blocked workspace. At n = 1 the off-diagonal
    is one zero, since dstevd wants a length of at least one.
    """
    n = a.shape[0]
    lwork, _ = lapack.dsytrd_lwork(n, lower=1)
    packed, diag, off, tau, info = lapack.dsytrd(a, lower=1, lwork=int(lwork))
    if info != 0:
        raise _eigensolver_error(a, info)
    return packed, diag, off if n > 1 else np.zeros(1), tau


def _tridiagonal_eigh(a: np.ndarray):
    """Ascending eigenvalues w, Z, reflectors and tau with a = Q Z diag(w) Z^T Q^T.

    `_tridiagonalize` reduces ``a`` to tridiagonal T = Q^T a Q, and dstevd
    solves T = Z diag(w) Z^T by divide and conquer. Q is left as the
    reflectors dsytrd stores below the subdiagonal, the (n - 1)-square
    block a[1:, :-1], copied once to Fortran order so that dormqr reads it
    in place. This skips the O(n^3) back-transformation Q Z that a full
    eigensolver performs.
    """
    packed, diag, off, tau = _tridiagonalize(a)
    vals, z, info = lapack.dstevd(diag, off)
    if info != 0:
        raise _eigensolver_error(a, info)
    return vals, z, np.asfortranarray(packed[1:, :-1]), tau


def spectral_norm(a: np.ndarray) -> float:
    """max |eigenvalue| of the symmetric ``a``, from the ends of its spectrum.

    Reduces ``a`` to tridiagonal form and bisects (LAPACK dstebz) for its
    smallest and its largest eigenvalue only, O(n) per bisection step
    after the O(n^3) reduction, where a symmetric eigenvalue solver
    would compute the whole spectrum.
    """
    _, diag, off, _ = _tridiagonalize(a)
    n = diag.shape[0]
    ends = []
    for index in (1, n):
        _, vals, _, _, info = lapack.dstebz(diag, off, 2, 0.0, 0.0, index, index, 0.0, "E")
        if info != 0:
            raise _eigensolver_error(a, info)
        ends.append(abs(vals[0]))
    return float(max(ends))


def _eigensolver_error(a: np.ndarray, info: int) -> NumericalError:
    scale = float(np.max(np.abs(a)))
    return NumericalError(
        f"eigensolver failed on a {a.shape[0]}x{a.shape[0]} matrix "
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


def mercer_gram_eigen(model, xs, basis=None) -> GramEigen:
    """Exact Gram eigensystem for a finite-rank feature kernel.

    When m exceeds the feature count N, the scaled Gram is Phi Phi^T with
    Phi = B diag(sqrt t) / sqrt(m), B the (m, N) basis matrix, and its
    nonzero spectrum equals that of the N-by-N matrix
    Phi^T Phi = `MercerModel.empirical_operator` = W S W^T, which is built
    from Fourier moments in O(m N + N^2). The eigensolve runs at size N
    through `_tridiagonal_eigh`, so W = Q Z, and neither the m-by-m Gram,
    W, its (m, k) eigenvectors nor Phi are formed: the result holds
    V = Phi W S^-1/2 as ``factor = B``, ``scale = sqrt(t / m)``, Q's
    reflectors and ``mix = Z S^-1/2``, over the k modes above RANK_DROP
    times the top one; ``dropped`` counts the rest. ``clamped`` and its
    warning follow `eigendecompose`, measured on the feature-domain
    spectrum. For m <= N this falls back to the dense path. Either way the
    result is an exact decomposition of the same matrix, not an
    approximation. A precomputed ``basis`` at ``xs`` is reused and left
    unchanged.
    """
    xs = np.asarray(xs, dtype=float)
    n_feat = int(model.eigenvalues.shape[0])
    m = xs.shape[0]
    if m <= n_feat:
        return eigendecompose(assemble_gram(model, xs, basis))
    feats = model.basis_at(xs, basis)
    vals, vecs, reflectors, tau = _tridiagonal_eigh(model.empirical_operator(xs, feats))
    vals, vecs, clamped = _descending(vals, vecs)
    top = float(vals[0]) if vals.size else 0.0
    keep = vals > RANK_DROP * top
    vals = vals[keep]
    return GramEigen(
        eigenvalues=vals,
        mix=vecs[:, keep] / np.sqrt(vals)[None, :],
        reflectors=reflectors,
        tau=tau,
        size=m,
        complete=False,
        factor=feats,
        scale=np.sqrt(model.eigenvalues / m),
        clamped=clamped,
        dropped=int(keep.size - vals.size),
    )


def reconstruction_error(gram: np.ndarray, eig: GramEigen) -> float:
    """Max-abs deviation between the matrix and its stored eigensystem."""
    approx = (eig.vectors * eig.eigenvalues[None, :]) @ eig.vectors.T
    return float(np.max(np.abs(np.asarray(gram) - approx)))

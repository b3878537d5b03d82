"""Datasets, Gram matrices, and their eigendecompositions.

The Gram matrix is always stored with the 1/m scaling, so its eigenvalues
estimate the integral-operator spectrum directly. Decompositions are exact:
either a dense symmetric eigensolve, or, for finite-rank feature kernels,
an equivalent factored solve in the feature domain that yields the same
nonzero spectrum without forming the m-by-m matrix, and holds its
eigenvectors as a product applied from right to left. No sketching, no
default jitter.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

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


def assemble_gram(kernel, xs) -> np.ndarray:
    """Build the scaled Gram matrix (1/m) k(x_i, x_j), symmetrized."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 1:
        raise DataError(f"xs must be a nonempty 1-d array, got shape {xs.shape}")
    if not np.all(np.isfinite(xs)):
        raise DataError("xs contains non-finite entries")
    k = np.asarray(kernel.scalar_kernel(xs, xs), dtype=float)
    if not np.all(np.isfinite(k)):
        raise DataError("kernel evaluations contain non-finite entries")
    k = 0.5 * (k + k.T)
    return k / xs.size


@dataclass(frozen=True, eq=False)
class GramEigen:
    """Orthonormal eigensystem of a scaled Gram matrix, held as a product.

    ``eigenvalues`` (k,) descending and nonnegative. The (m, k) matrix V of
    orthonormal eigenvectors is ``factor @ mix``: the dense path stores
    V itself as ``factor`` and no ``mix``; the factored path stores the
    scaled (m, N) feature matrix and an (N, k) ``mix``. `project` and
    `combine` apply V from right to left, so V is built only when the
    ``vectors`` property is read. ``complete`` marks whether k = m; when it
    does not, the unlisted eigenvalues are exactly zero and the complement
    of V's columns spans their eigenspace. ``clamped`` records the
    magnitude of the most negative raw eigenvalue the solver returned.
    """

    eigenvalues: np.ndarray
    factor: np.ndarray
    size: int
    complete: bool
    mix: np.ndarray | None = None
    clamped: float = 0.0

    @property
    def rank(self) -> int:
        return int(self.eigenvalues.shape[0])

    @property
    def vectors(self) -> np.ndarray:
        """The (m, k) eigenvector matrix V, built on each access."""
        return self.factor if self.mix is None else self.factor @ self.mix

    def project(self, ys: np.ndarray) -> np.ndarray:
        """V^T ys, shape (k, d)."""
        proj = self.factor.T @ ys
        return proj if self.mix is None else self.mix.T @ proj

    def combine(self, z: np.ndarray) -> np.ndarray:
        """V z, shape (m, d)."""
        return self.factor @ (z if self.mix is None else self.mix @ z)


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

    Tiny negative eigenvalues are clamped to zero; anything below
    -1e-10 times the top eigenvalue triggers a warning first.
    """
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise DataError(f"gram must be square, got shape {gram.shape}")
    sym = 0.5 * (gram + gram.T)
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        scale = float(np.max(np.abs(sym))) if sym.size else 0.0
        raise NumericalError(
            f"eigensolver failed on a {sym.shape[0]}x{sym.shape[0]} matrix "
            f"(max abs entry {scale:g}): {exc}"
        ) from exc
    vals, vecs, clamped = _descending(vals, vecs)
    return GramEigen(
        eigenvalues=np.maximum(vals, 0.0),
        factor=vecs,
        size=gram.shape[0],
        complete=True,
        clamped=clamped,
    )


def mercer_gram_eigen(model, xs, basis=None) -> GramEigen:
    """Exact Gram eigensystem for a finite-rank feature kernel.

    When m exceeds the feature count N, the scaled Gram is Phi Phi^T with
    Phi = B diag(sqrt t) / sqrt(m) the (m, N) feature matrix, and its
    nonzero spectrum equals that of the N-by-N matrix Phi^T Phi = W S W^T.
    The eigensolve runs at size N and neither the m-by-m Gram nor its
    (m, k) eigenvectors are formed: the result holds V = Phi W S^-1/2 as
    ``factor = Phi`` and ``mix = W S^-1/2``, over the k modes above
    RANK_DROP times the top one. ``clamped`` and its warning follow
    `eigendecompose`, measured on the feature-domain spectrum. For
    m <= N this falls back to the dense path. Either way the result is an
    exact decomposition of the same matrix, not an approximation. A
    precomputed ``basis`` at ``xs`` is reused and left unchanged.
    """
    xs = np.asarray(xs, dtype=float)
    n_feat = int(model.eigenvalues.shape[0])
    m = xs.shape[0]
    if m <= n_feat:
        return eigendecompose(assemble_gram(model, xs))
    feats = model.basis_at(xs, basis) * np.sqrt(model.eigenvalues)[None, :]
    feats /= np.sqrt(m)
    inner = feats.T @ feats
    try:
        vals, vecs = np.linalg.eigh(0.5 * (inner + inner.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"feature-domain eigensolver failed: {exc}") from exc
    vals, vecs, clamped = _descending(vals, vecs)
    top = float(vals[0]) if vals.size else 0.0
    keep = vals > RANK_DROP * top
    vals = vals[keep]
    mix = vecs[:, keep]
    mix /= np.sqrt(vals)[None, :]
    return GramEigen(
        eigenvalues=vals,
        factor=feats,
        size=m,
        complete=False,
        mix=mix,
        clamped=clamped,
    )


def reconstruction_error(gram: np.ndarray, eig: GramEigen) -> float:
    """Max-abs deviation between the matrix and its stored eigensystem."""
    approx = (eig.vectors * eig.eigenvalues[None, :]) @ eig.vectors.T
    return float(np.max(np.abs(np.asarray(gram) - approx)))

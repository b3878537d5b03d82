"""Datasets, Gram matrices, and their decompositions.

The Gram matrix is always stored with the 1/m scaling, so its eigenvalues
estimate the integral-operator spectrum directly. Decompositions are exact:
either of the dense m-by-m Gram, or, for finite-rank feature kernels with
at least as many samples as features, of the model's N-by-N empirical
operator in the feature domain. That operator has the Gram's nonzero
spectrum, and a spectral fit needs nothing else from the sample than it
and B^T y / m, so the feature path's only input is the sample's
`SampleMoments`, which hold both, and it never touches an m-sized array.
Both return the exactly symmetric matrix, which is all a resolvent fit
(the Tikhonov family, one Cholesky factorization) reads. Everything else
comes from one solve on first read: the reduction to tridiagonal form,
A = Q T Q^T with Q kept as Householder reflectors, and the whole spectrum
of T (dstevd), from which the health facts are read too. The
eigenvectors are held as the reflectors times the eigenbasis of T and
applied from right to left, never formed. No sketching, no default jitter.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._lapack import lapack
from .errors import DataError, NumericalError

NEGATIVE_EIG_WARN = 1e-10  # warn when clamping below -1e-10 * top eigenvalue
RANK_DROP = 1e-12  # factored path drops modes below this times the top one
# dsytrd's workspace is REDUCTION_BLOCK * n, so it reduces in panels of this
# many columns. LAPACK's "optimal" width is 32; with OpenBLAS at one thread
# on a 2-vCPU x86-64 machine, widths 8, 12, 16 and 32 took 222, 229, 237 and
# 314 us at n = 128, and 9.6, 8.8, 8.7 and 9.6 ms at n = 512.
REDUCTION_BLOCK = 8


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


class Features(NamedTuple):
    """Phi = B diag(s) at a sample's inputs, one row per sample, and the column
    scale s it was built with (`mercer.real_features`). A MercerModel reads
    ``matrix`` only where ``scale`` is its own (`MercerModel.features`)."""

    matrix: np.ndarray
    scale: np.ndarray


@dataclass(frozen=True, eq=False)
class Dataset:
    """Paired samples: inputs ``xs`` of shape (m,), outputs ``ys`` of (m, d).

    ``moments`` optionally holds the sample's `SampleMoments` for a
    trigonometric model, and ``features`` the `Features` Phi = B diag(sqrt t)
    of that model at ``xs`` (its matrix stored read-only).
    `mercer.draw_dataset`, the draw behind `sample_dataset` and
    `TwoPointMeasure.sample`, carries the moments at every m and Phi only
    below the feature count, where the dense Gram path reads it: the Gram
    is Phi Phi^T / m and a fit's expansion Phi^T c. A fit at m >= N reads
    the moments and no m-sized array.
    """

    xs: np.ndarray
    ys: np.ndarray
    features: Features | None = None
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
        if self.features is not None:
            matrix = np.asarray(self.features.matrix).view()
            if matrix.ndim != 2 or matrix.shape[0] != xs.shape[0]:
                raise DataError(f"features{matrix.shape} need one row per sample, m={xs.shape[0]}")
            matrix.flags.writeable = False
            object.__setattr__(self, "features", self.features._replace(matrix=matrix))
        response = None if self.moments is None else self.moments.response
        if response is not None and response.shape[1:] != ys.shape[1:]:
            raise DataError(f"moment response{response.shape} needs {ys.shape[1]} channels")

    @property
    def m(self) -> int:
        return self.xs.shape[0]


def assemble_gram(model, xs, features: Features | None = None) -> np.ndarray:
    """The scaled Gram matrix Phi Phi^T / m of a MercerModel at the m inputs
    ``xs`` (`MercerModel.scalar_kernel`), reading ``features`` if they are its
    own Phi at ``xs``; `eigendecompose` symmetrizes it."""
    return model.scalar_kernel(xs, features) / len(xs)


@dataclass(frozen=True, eq=False)
class GramEigen:
    """A scaled Gram matrix, or its feature-domain twin, decomposed on demand.

    ``matrix`` is the exactly symmetric n-by-n A. The dense path holds the
    m-by-m Gram itself, n = m, and ``complete`` is True. The feature path
    holds the N-by-N empirical operator, n = N and ``complete`` is False:
    its eigenvalues are the Gram's nonzero ones and its eigenvectors W live
    in the feature domain, where a fit needs them (`estimator.fit`); the
    Gram's remaining eigenvalues are exactly zero. ``size`` is n. A
    resolvent fit reads ``matrix`` and nothing else.

    On the first read of any other attribute, one solve runs on a copy of
    ``matrix``, which stays intact: the reduction A = Q T Q^T to
    tridiagonal form (LAPACK dsytrd), Q kept as its Householder reflectors,
    and the whole spectrum T = Z diag(w) Z^T (dstevd), sorted descending.
    The health facts are read from that spectrum: ``clamped`` is the
    magnitude of the most negative eigenvalue, ``dropped`` how many modes
    the feature path discards as at most RANK_DROP times the top one.
    ``eigenvalues`` (k,) are the kept ones, k = n - ``dropped``, with
    negative round-off clamped to zero, and the orthonormal eigenvectors
    are Q times the matching columns of Z. `project` and `combine` apply
    them and their transpose one factor at a time, Q in O(n^2 d).
    """

    matrix: np.ndarray
    complete: bool

    @property
    def size(self) -> int:
        return int(self.matrix.shape[0])

    @cached_property
    def _solved(self):
        """(eigenvalues, mix, reflectors, tau, clamped, dropped), ``mix`` the
        kept columns of Z. Q is left as the reflectors dsytrd stores below the
        subdiagonal, the (n - 1)-square block a[1:, :-1], copied once to
        Fortran order so that dormqr reads it in place. A most negative
        eigenvalue below -1e-10 times the top one triggers a warning."""
        packed, diag, off, tau = _tridiagonalize(self.matrix.copy())
        vals, z, info = lapack.dstevd(diag, off)
        if info != 0:
            raise _eigensolver_error(diag, off, info)
        order = np.argsort(vals)[::-1]
        vals, z = vals[order], z[:, order]
        top, bottom = vals[0], vals[-1]
        if top > 0 and bottom < -NEGATIVE_EIG_WARN * top:
            warnings.warn(f"clamping eigenvalue {bottom:g} (relative {bottom / top:g}) to zero")
        kept = self.size if self.complete else int(np.sum(vals > RANK_DROP * top))
        reflectors = np.asfortranarray(packed[1:, :-1])
        return (
            np.maximum(vals[:kept], 0.0), z[:, :kept], reflectors, tau,
            max(0.0, -float(bottom)), self.size - kept,
        )

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._solved[0]

    @property
    def clamped(self) -> float:
        return self._solved[4]

    @property
    def dropped(self) -> int:
        return self._solved[5]

    def project(self, x: np.ndarray) -> np.ndarray:
        """(Q Z)^T x for x of shape (n, d), shape (k, d)."""
        return self._solved[1].T @ self._reflect(x, "T")

    def combine(self, z: np.ndarray) -> np.ndarray:
        """Q Z z for z of shape (k, d), shape (n, d)."""
        return self._reflect(self._solved[1] @ z, "N")

    def _reflect(self, x: np.ndarray, trans: str) -> np.ndarray:
        """Q x for ``trans`` "N", Q^T x for "T", with x of shape (n, d).

        Q fixes the first coordinate and the reflectors act on the rest,
        which is how LAPACK dormtr applies a lower-triangle reduction.
        lwork = d keeps dormqr unblocked, the faster choice for the few
        columns of a fit.
        """
        _, _, reflectors, tau, _, _ = self._solved
        if not tau.size:
            return x
        tail, _, info = lapack.dormqr(
            "L", trans, reflectors, tau,
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
    off-diagonal of T = Q^T a Q, and the reflectors' tau. The workspace is
    a fixed REDUCTION_BLOCK * n, not the one dsytrd's query asks for. At
    n = 1 the off-diagonal is one zero, since the tridiagonal LAPACK
    wrappers want a length of at least one.
    """
    n = a.shape[0]
    overwrite = int(a.flags.writeable)
    packed, diag, off, tau, info = lapack.dsytrd(
        a.T, lower=1, lwork=REDUCTION_BLOCK * n, overwrite_a=overwrite
    )
    if info != 0:
        raise NumericalError(f"dsytrd rejected argument {-info}")
    return packed, diag, off if n > 1 else np.zeros(1), tau


def spectral_norm(a: np.ndarray) -> float:
    """max |eigenvalue| of the exactly symmetric ``a``, from the ends of its spectrum.

    Reduces ``a`` to tridiagonal form in place (`_tridiagonalize`, in
    panels of REDUCTION_BLOCK columns; a writeable ``a`` is overwritten),
    then bisects (LAPACK dstebz) for its smallest and its largest
    eigenvalue only, O(n) per bisection step, where a tridiagonal
    eigensolver would compute the whole spectrum.
    """
    _, diag, off, _ = _tridiagonalize(a)
    norm = 0.0
    for index in (1, diag.shape[0]):
        _, vals, _, _, info = lapack.dstebz(diag, off, 2, 0.0, 0.0, index, index, 0.0, "E")
        if info != 0:
            raise _eigensolver_error(diag, off, info)
        norm = max(norm, abs(float(vals[0])))
    return norm


def _eigensolver_error(diag: np.ndarray, off: np.ndarray, info: int) -> NumericalError:
    scale = float(max(np.max(np.abs(diag)), np.max(np.abs(off))))
    return NumericalError(
        f"eigensolver failed on a {diag.shape[0]}x{diag.shape[0]} tridiagonal matrix "
        f"(max abs entry {scale:g}): LAPACK info {info}"
    )


def eigendecompose(gram: np.ndarray) -> GramEigen:
    """Dense symmetric decomposition of the m-by-m scaled Gram.

    Holds the symmetrized Gram, 0.5 (G + G^T), which is exactly symmetric.
    Its eigenvalues, descending with tiny negative ones clamped to zero,
    eigenvectors and health are solved together on first read
    (`GramEigen`). A clamp below -1e-10 times the top eigenvalue then
    triggers a warning.
    """
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1] or gram.shape[0] < 1:
        raise DataError(f"gram must be square and nonempty, got shape {gram.shape}")
    return GramEigen(0.5 * (gram + gram.T), complete=True)


def mercer_gram_eigen(model, moments: SampleMoments) -> GramEigen:
    """Exact Gram decomposition of a finite-rank feature kernel, from the sample's moments.

    The scaled Gram is Phi Phi^T with Phi = B diag(sqrt t) / sqrt(m), B
    the (m, N) basis matrix, and its nonzero spectrum equals that of the
    N-by-N matrix Phi^T Phi = `MercerModel.empirical_operator` = W S W^T,
    assembled from the sample's Fourier ``moments`` (which must be this
    model's). The result holds that matrix, solved at size N on first read
    (`GramEigen`), so W = Q Z over the modes above RANK_DROP times the top
    one; ``dropped`` counts the rest, and ``size`` is N. ``clamped`` and
    its warning follow `eigendecompose`, read from the feature-domain
    spectrum. Neither the m-by-m Gram nor an m-by-N array is formed, and
    the result is an exact decomposition, not an approximation.
    `estimator.fit` takes this path from m = N on and the dense one below.
    """
    return GramEigen(model.empirical_operator(moments), complete=False)


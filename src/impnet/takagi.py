"""Factorization of complex symmetric matrices by orthonormal vectors.

For any complex symmetric L there is an orthonormal basis u_a and complex
values lambda_a with

    L u_a = lambda_a conj(u_a),        sigma_a = |lambda_a|^2.

Each pair is gauge free: {u e^{i tau}, lambda e^{2 i tau}} is an equally valid
solution, so only gauge-invariant combinations of u and lambda are physical.

With L = A + iB, u = x + iy and lambda real, the defining relation is the
real symmetric eigenproblem [[A, -B], [-B, -A]] [x; y] = lambda [x; y].  Its
spectrum is +-|lambda_a|, each pair linked by [x; y] -> [-y; x] (u -> i u).
A positive eigenvector is real-orthogonal to every negative one, which makes
the n positive eigenvectors complex-orthonormal factorization vectors, so one
real eigensolve yields every mode with nonzero lambda, degenerate or not.
Only the numerically zero eigenspace holds both members of a pair; its
complex vectors are orthonormalized separately.  The gauge is canonicalized
by rotating the largest component of every u_a onto the positive real axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceError,
    NoTrivialZeroError,
    NotSymmetricError,
    ValidationError,
)

_EPS = float(np.finfo(float).eps)

# Relative symmetry tolerance for accepting an input as complex symmetric.
_SYMMETRY_REL_TOL = 1e-13

# Default classification threshold for zero modes: sigma relative to max
# sigma, applied as |lambda| <= sqrt(DEFAULT_ZERO_REL_TOL) * max |lambda|.
DEFAULT_ZERO_REL_TOL = 1e-10


@dataclass(frozen=True)
class TakagiDecomposition:
    """Result of takagi_decompose.

    Attributes
    ----------
    order : int
        Matrix dimension n.
    u : numpy.ndarray
        (n, n) unitary matrix; column a is the vector u_a.
    lam : numpy.ndarray
        (n,) complex factorization values, ascending in |lam|.
    sigma : numpy.ndarray
        (n,) nonnegative reals |lam|^2, ascending.
    residual : float
        max_a of the 2-norm of L u_a - lam_a conj(u_a).
    """

    order: int
    u: np.ndarray
    lam: np.ndarray
    sigma: np.ndarray
    residual: float


@dataclass(frozen=True)
class ZeroModeClassification:
    """Zero modes of a Laplacian decomposition, split into the one trivial
    (constant-vector) mode and the nontrivial remainder.  threshold is the
    |lambda| at or below which a mode counts as zero."""

    zero_indices: tuple[int, ...]
    trivial_index: int
    nontrivial_zero_count: int
    threshold: float


def takagi_decompose(l: np.ndarray) -> TakagiDecomposition:
    """Factorize a complex symmetric matrix as L u_a = lambda_a conj(u_a).

    Parameters
    ----------
    l : array_like
        Square complex symmetric matrix with finite entries.  Asymmetry
        above 1e-13 of the largest entry magnitude raises NotSymmetricError.

    Returns
    -------
    TakagiDecomposition
        Vectors, values and sigma spectrum (ascending in |lambda|), and the
        worst-case defining-relation residual.
    """
    l = np.asarray(l, dtype=complex)
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {l.shape}")
    if not np.isfinite(l).all():
        raise ValidationError("matrix has non-finite entries")
    n = l.shape[0]
    scale = float(np.abs(l).max())
    if float(np.abs(l - l.T).max()) > _SYMMETRY_REL_TOL * scale:
        raise NotSymmetricError(
            "matrix is not complex symmetric to working tolerance"
        )
    l = 0.5 * (l + l.T)

    h = np.empty((2 * n, 2 * n))
    h[:n, :n] = l.real
    h[:n, n:] = -l.imag
    h[n:, :n] = -l.imag
    h[n:, n:] = -l.real
    try:
        w, v = scipy.linalg.eigh(
            h, overwrite_a=True, check_finite=False, driver="evd"
        )
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc

    # w is ascending and symmetric about zero: the top n values are the
    # |lambda_a|.  Those at the eigensolver noise floor are zero modes; the
    # 2k middle columns span both members of each of the k zero pairs.
    zero_floor = 16.0 * n * _EPS * float(np.abs(w).max())
    k = int(np.count_nonzero(w[n:] <= zero_floor))
    modes = v[:n, n - k:] + 1j * v[n:, n - k:]
    zero, live = modes[:, :2 * k], modes[:, 2 * k:]
    if k:
        zero -= live @ (live.conj().T @ zero)
        q = np.linalg.svd(zero, full_matrices=False)[0][:, :k]
        zero = _orient_zero_cluster(q)
    u = np.concatenate([zero, live], axis=1)
    lam = np.zeros(n, dtype=complex)
    lam[k:] = w[n + k:]

    # gauge canonicalization: largest component of each u_a real positive
    piv = u[np.argmax(np.abs(u), axis=0), np.arange(n)]
    fac = piv.conj() / np.abs(piv)
    u *= fac
    lam *= fac * fac

    order = np.argsort(np.abs(lam), kind="stable")
    u = u[:, order]
    lam = lam[order]

    # hypot keeps the column norms finite where squares would overflow;
    # sigma itself saturates at inf beyond |lambda| ~ 1e154
    defect = l @ u - u.conj() * lam[np.newaxis, :]
    residual = float(np.hypot.reduce(np.abs(defect), axis=0).max())
    with np.errstate(over="ignore"):
        sigma = np.abs(lam) ** 2
    return TakagiDecomposition(
        order=n, u=u, lam=lam, sigma=sigma, residual=residual
    )


def _orient_zero_cluster(block: np.ndarray) -> np.ndarray:
    """Deterministic basis of a numerically-zero cluster.

    Any rotation of a zero cluster satisfies the defining relation with
    lambda = 0, so the basis is free; when the constant direction lies in the
    span (as it does for every connected-network Laplacian) the first basis
    vector is rotated onto it so downstream classification sees the trivial
    mode as a single column.
    """
    n, k = block.shape
    const = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
    coeff = block.conj().T @ const
    cn = float(np.linalg.norm(coeff))
    if cn < 1e-8:
        return block
    first = coeff / cn
    basis = np.concatenate([first[:, np.newaxis], np.eye(k, dtype=complex)], axis=1)
    q, _ = np.linalg.qr(basis)
    d = np.vdot(q[:, 0], first)
    q[:, 0] *= d / abs(d)
    return block @ q


def classify_zero_modes(
    d: TakagiDecomposition,
    zero_rel_tol: float = DEFAULT_ZERO_REL_TOL,
) -> ZeroModeClassification:
    """Split the zero modes of a Laplacian decomposition.

    Zero modes are entries with |lambda| <= sqrt(zero_rel_tol) * max|lambda|,
    the same threshold as sigma <= zero_rel_tol * max(sigma) without the
    squaring that underflows or overflows at extreme admittance scales.
    Exactly one of them must align with the constant vector (the trivial
    mode every connected network has); any further zero modes are resonance
    indicators.  Raises NoTrivialZeroError when no zero mode overlaps the
    constant vector by at least 0.99, which signals input that is not a
    connected-network Laplacian.
    """
    n = d.order
    mags = np.abs(d.lam)
    threshold = math.sqrt(zero_rel_tol) * float(mags.max())
    zero = np.flatnonzero(mags <= threshold)
    if not zero.size:
        raise NoTrivialZeroError("no zero mode present")
    overlaps = np.abs(d.u[:, zero].sum(axis=0)) / math.sqrt(n)
    best = int(np.argmax(overlaps))
    if overlaps[best] < 0.99:
        raise NoTrivialZeroError(
            "no zero mode aligns with the constant vector "
            f"(best overlap {overlaps[best]:.3g})"
        )
    return ZeroModeClassification(
        zero_indices=tuple(int(a) for a in zero),
        trivial_index=int(zero[best]),
        nontrivial_zero_count=int(zero.size) - 1,
        threshold=threshold,
    )

"""Factorization of complex symmetric matrices by orthonormal vectors.

For any complex symmetric L there is an orthonormal basis u_a and complex
values lambda_a with

    L u_a = lambda_a conj(u_a),        sigma_a = |lambda_a|^2.

Each pair is gauge free: {u e^{i tau}, lambda e^{2 i tau}} is an equally valid
solution, so only gauge-invariant combinations of u and lambda are physical.

With L = A + iB, u = x + iy and lambda real, the defining relation is the
real symmetric eigenproblem H [x; y] = lambda [x; y] with
H = [[A, -B], [-B, -A]].  Its spectrum is +-|lambda_a|, each pair linked by
[x; y] -> [-y; x] (u -> i u).  A positive eigenvector is real-orthogonal to
every negative one, which makes the n positive eigenvectors
complex-orthonormal factorization vectors, so one real eigensolve yields
every mode with nonzero lambda, degenerate or not.  Only the numerically
zero eigenspace holds both members of a pair; its complex vectors are
orthonormalized separately.

The eigensolve is LAPACK's, taken in its three steps: dsytrd reduces H to a
tridiagonal T = Q^T H Q, dstevd (divide and conquer) solves T z = w z, and
dormqr back-transforms v = Q z.  takagi_decompose back-transforms every
mode it returns and canonicalizes the gauge by rotating the largest
component of every u_a onto the positive real axis.  takagi_rows serves a
pair query, which reads only rows p and q of the u_a and their column sums:
it applies Q^T to the six vectors that select them, projects those onto the
z, and back-transforms in full only the zero-pair columns, O(n^2) in all
where the full back-transform is O(n^3).  Both routes build the zero modes
by one construction and classify them by one rule; only takagi_decompose
then makes its zero block complex-orthogonal to the live modes, which the
unitary u it returns needs and a pair query does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .errors import (
    ConvergenceError,
    NoTrivialZeroError,
    NotSymmetricError,
    ValidationError,
)
from .laplacian import SINGULAR_REL_TOL

_EPS = float(np.finfo(float).eps)

# Relative symmetry tolerance for accepting an input as complex symmetric.
_SYMMETRY_REL_TOL = 1e-13


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

    @property
    def col_sums(self) -> np.ndarray:
        """(n,) sums sum_i u_ai, each mode's overlap with the ones vector."""
        return self.u.sum(axis=0)


@dataclass(frozen=True)
class TakagiRows:
    """Result of takagi_rows: what a pair query reads of the factorization.

    The modes are those of takagi_decompose, ascending in |lam|, in the
    eigensolver's gauge: lam is real and nonnegative.

    Attributes
    ----------
    order : int
        Matrix dimension n.
    rows : numpy.ndarray
        (2, n) complex; rows[0, a] = u_ap and rows[1, a] = u_aq.
    col_sums : numpy.ndarray
        (n,) complex sums sum_i u_ai.
    lam : numpy.ndarray
        (n,) factorization values, zero on the zero pairs.
    residual : float
        max_j of the 2-norm of T z_j - w_j z_j over the tridiagonal
        eigenvectors of the modes, equal to the residual of H v_j up to
        the rounding of the orthogonal Q.
    """

    order: int
    rows: np.ndarray
    col_sums: np.ndarray
    lam: np.ndarray
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


class _Tridiagonal(NamedTuple):
    """H = Q T Q^T and T z = z diag(w), w ascending, before the
    back-transform.  T has diagonal d and off-diagonal e; Q fixes the first
    coordinate and is held as dsytrd's reflectors, copied once into Fortran
    order so that every dormqr call reads them in place.  w is symmetric
    about zero: its top n values are the |lambda_a|, and the 2k middle
    columns of z, at the eigensolver noise floor, span both members of each
    of the k zero pairs."""

    w: np.ndarray
    z: np.ndarray
    d: np.ndarray
    e: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray
    k: int


def takagi_decompose(l: np.ndarray) -> TakagiDecomposition:
    """Factorize a complex symmetric matrix as L u_a = lambda_a conj(u_a).

    Parameters
    ----------
    l : array_like
        Non-empty square complex symmetric matrix with finite entries.
        Asymmetry above 1e-13 of the largest entry magnitude raises
        NotSymmetricError.

    Returns
    -------
    TakagiDecomposition
        Vectors, values and sigma spectrum (ascending in |lambda|), and the
        worst-case defining-relation residual.
    """
    l = _check_symmetric(l)
    n = l.shape[0]
    t = _tridiagonal_eig(l)
    k = t.k
    v = _apply_q(t, t.z[:, n + k:], "N")
    live = v[:n] + 1j * v[n:]
    zero = _zero_modes(t)
    if k:
        # The zero pairs are real-orthogonal to every live eigenvector but
        # complex-orthogonal to the live modes only to about eps ||H|| / gap,
        # which reaches 1e-7 when a live |lambda| sits near the zero floor
        # (resistances spanning 1e+-5).  u must be unitary: project, then
        # take the nearest orthonormal block, which moves each vector by
        # that much and no more.
        a, _, bh = np.linalg.svd(
            zero - live @ (live.conj().T @ zero), full_matrices=False
        )
        zero = a @ bh
    u = np.concatenate([zero, live], axis=1)
    lam = np.zeros(n, dtype=complex)
    lam[k:] = t.w[n + k:]

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


def takagi_rows(l: np.ndarray, p: int, q: int) -> TakagiRows:
    """Rows p and q (0-based) of the factorization vectors of L, with their
    values and column sums, in O(n^2) past the tridiagonal eigensolve.

    Each mode is v = Q z with u = v[:n] + i v[n:], so u_ap = (Q^T e_p)^T z
    + i (Q^T e_{n+p})^T z, and the column sum is the same with the constant
    functionals [1; 0] and [0; 1] in place of e_p and e_{n+p}.  Only the
    zero pairs, which need the full vectors to be orthonormalized and
    oriented, are back-transformed column by column.  The zero modes are
    those of takagi_decompose before its projection off the live modes, so
    they agree with it to about eps ||H|| / gap.  Accepts the input
    takagi_decompose accepts.
    """
    l = _check_symmetric(l)
    n = l.shape[0]
    t = _tridiagonal_eig(l)
    k = t.k
    # columns select x_p, x_q, sum x, y_p, y_q, sum y of a vector [x; y]
    f = np.zeros((2 * n, 6))
    f[[p, q, n + p, n + q], [0, 1, 3, 4]] = 1.0
    f[:n, 2] = 1.0
    f[n:, 5] = 1.0
    g = _apply_q(t, f, "T").T @ t.z[:, n + k:]
    zero = _zero_modes(t)
    modes = np.concatenate(
        [np.stack([zero[p], zero[q], zero.sum(axis=0)]), g[:3] + 1j * g[3:]],
        axis=1,
    )
    lam = np.zeros(n)
    lam[k:] = t.w[n + k:]
    return TakagiRows(
        order=n,
        rows=modes[:2],
        col_sums=modes[2],
        lam=lam,
        residual=_tridiagonal_residual(t, n - k),
    )


def _check_symmetric(l: np.ndarray) -> np.ndarray:
    """The validated input as a complex array, symmetrized."""
    l = np.asarray(l, dtype=complex)
    if l.ndim != 2 or l.shape[0] != l.shape[1] or not l.size:
        raise ValidationError(
            f"expected a non-empty square matrix, got shape {l.shape}"
        )
    if not np.isfinite(l).all():
        raise ValidationError("matrix has non-finite entries")
    scale = float(np.abs(l).max())
    if float(np.abs(l - l.T).max()) > _SYMMETRY_REL_TOL * scale:
        raise NotSymmetricError(
            "matrix is not complex symmetric to working tolerance"
        )
    return 0.5 * (l + l.T)


def _tridiagonal_eig(l: np.ndarray) -> _Tridiagonal:
    """dsytrd and dstevd on the real embedding H of L."""
    n = l.shape[0]
    h = np.empty((2 * n, 2 * n), order="F")
    h[:n, :n] = l.real
    h[:n, n:] = -l.imag
    h[n:, :n] = -l.imag
    h[n:, n:] = -l.real
    # the default workspace would select dsytrd's unblocked code
    lwork, info = lapack.dsytrd_lwork(2 * n, lower=1)
    _check_info("dsytrd_lwork", info)
    c, d, e, tau, info = lapack.dsytrd(
        h, lower=1, lwork=int(lwork), overwrite_a=1
    )
    _check_info("dsytrd", info)
    w, z, info = lapack.dstevd(d, e)
    _check_info("dstevd", info)
    zero_floor = 16.0 * n * _EPS * float(np.abs(w).max())
    k = int(np.count_nonzero(w[n:] <= zero_floor))
    # the reflectors of H(2:, 1:) sit below the subdiagonal of c
    return _Tridiagonal(w, z, d, e, np.asfortranarray(c[1:, :-1]), tau, k)


def _apply_q(t: _Tridiagonal, c: np.ndarray, trans: str) -> np.ndarray:
    """Q c for trans "N" and Q^T c for trans "T", c real of shape (2n, m)."""
    rest = np.asfortranarray(c[1:])
    lwork = lapack.dormqr("L", trans, t.reflectors, t.tau, rest, -1)[1][0]
    rest, _, info = lapack.dormqr(
        "L", trans, t.reflectors, t.tau, rest, int(lwork), overwrite_c=1
    )
    _check_info("dormqr", info)
    return np.concatenate([c[:1], rest])


def _check_info(routine: str, info: int) -> None:
    if info:
        raise ConvergenceError(f"LAPACK {routine} failed (info={info})")


def _zero_modes(t: _Tridiagonal) -> np.ndarray:
    """(n, k) orthonormal factorization vectors with lambda = 0, from the
    2k zero-pair eigenvectors of H, oriented by _orient_zero_cluster.

    The basis of a cluster with k > 2 is fixed by rounding alone, so both
    routes compute it by this one call on the same input and get the same
    vectors.
    """
    n, k = t.w.size // 2, t.k
    if not k:
        return np.empty((n, 0), dtype=complex)
    v = _apply_q(t, t.z[:, n - k:n + k], "N")
    q = np.linalg.svd(v[:n] + 1j * v[n:], full_matrices=False)[0][:, :k]
    return _orient_zero_cluster(q)


def _tridiagonal_residual(t: _Tridiagonal, first: int) -> float:
    """max_j ||T z_j - w_j z_j|| over the columns j >= first, computed in
    units of max(|d|, |e|) so that no square overflows or underflows."""
    s = float(max(np.abs(t.d).max(), np.abs(t.e).max()))
    if not s:
        return 0.0
    d, e = t.d / s, (t.e / s)[:, np.newaxis]
    z = t.z[:, first:]
    r = (d[:, np.newaxis] - t.w[first:] / s) * z
    r[1:] += e * z[:-1]
    r[:-1] += e * z[1:]
    return s * float(np.linalg.norm(r, axis=0).max())


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
    d: TakagiDecomposition | TakagiRows, scale: float
) -> ZeroModeClassification:
    """Split the zero modes of a Laplacian decomposition.

    Zero modes are entries with |lambda| <= SINGULAR_REL_TOL * scale, where
    scale is the network's admittance_scale: the rule the direct route
    applies to its LU pivots.  It does not depend on max|lambda|, so a wide
    spread of element values cannot turn a small live mode into a zero, and
    a Laplacian that cancels completely has only zero modes.  Exactly one
    of them must align with the constant vector (the trivial mode every
    connected network has); any further zero modes are resonance
    indicators.  Raises NoTrivialZeroError when no zero mode overlaps the
    constant vector by at least 0.99, which signals input that is not a
    connected-network Laplacian.  Reads only |lambda| and the column sums,
    so a full decomposition and a pair query's rows classify alike.
    """
    mags = np.abs(d.lam)
    threshold = SINGULAR_REL_TOL * float(scale)
    zero = np.flatnonzero(mags <= threshold)
    if not zero.size:
        raise NoTrivialZeroError("no zero mode present")
    overlaps = np.abs(d.col_sums[zero]) / math.sqrt(d.order)
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

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
zero eigenspace holds both members of a pair: its 2k real eigenvectors,
taken as (x + iy)/sqrt(2), are a tight frame of the k-dimensional zero
space of L.

At a degenerate zero only that space is defined, not a basis of it, so
everything read from the zero modes is a projection onto it, P0: the sum
of |.|^2 over the zero columns, which is the same over any orthonormal
basis or tight frame.  A pair couples to the zero space with strength
||P0 (e_p - e_q)||^2, and a Laplacian's zero space holds its trivial mode
when ||P0 1|| / sqrt(n) >= 0.99.

The eigensolve is LAPACK's, taken in its three steps: dsytrd reduces H to a
tridiagonal T = Q^T H Q, dstevd (divide and conquer) solves T z = w z, and
dormqr applies Q^T.  No mode v = Q z is back-transformed: takagi_rows, the
one factorization route, applies Q^T to the 2m + 2 vectors that select m
rows and their sums, and projects those onto the z, zero frame included.
A pair query reads two rows in O(n^2); the all-pairs table reads all n in
O(n^3).  takagi_decompose reads all n rows the same way, orthonormalizes
the zero block to return a unitary u, and canonicalizes the gauge by
rotating the largest component of every u_a onto the positive real axis.
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
    """Result of takagi_rows: what an impedance query reads of the
    factorization.

    The n + k columns, ascending in |lam| and in the eigensolver's gauge
    (lam real and nonnegative), are the 2k columns (x + iy)/sqrt(2) of the
    zero pairs, a tight frame of the k-dimensional zero space with lam = 0,
    followed by the n - k live modes of takagi_decompose.

    Attributes
    ----------
    order : int
        Matrix dimension n.
    rows : numpy.ndarray
        (m, n + k) complex; rows[i, a] = u_a at nodes[i] for the m nodes
        passed to takagi_rows.
    col_sums : numpy.ndarray
        (n + k,) complex sums sum_i u_ai.
    lam : numpy.ndarray
        (n + k,) factorization values, zero on the frame columns.
    residual : float
        max_j of the 2-norm of T z_j - w_j z_j over the tridiagonal
        eigenvectors of the columns, equal to the residual of H v_j up to
        the rounding of the orthogonal Q.
    """

    order: int
    rows: np.ndarray
    col_sums: np.ndarray
    lam: np.ndarray
    residual: float


@dataclass(frozen=True)
class ZeroModeClassification:
    """Zero modes of a Laplacian decomposition.  zero_indices are the
    columns with |lambda| <= threshold; they span the zero space, which
    holds the trivial (constant-vector) mode and nontrivial_zero_count
    further dimensions, each a resonance indicator."""

    zero_indices: tuple[int, ...]
    nontrivial_zero_count: int
    threshold: float


class _Tridiagonal(NamedTuple):
    """H = Q T Q^T and T z = z diag(w), w ascending.  T has diagonal d and
    off-diagonal e; Q fixes the first coordinate and is held as dsytrd's
    reflectors, copied once into Fortran order so that every dormqr call
    reads them in place.  w is symmetric about zero: its top n values are
    the |lambda_a|, and the 2k middle columns of z, at the eigensolver noise
    floor, span both members of each of the k zero pairs."""

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
    rows = takagi_rows(l, range(n))
    k = rows.lam.size - n
    zero, live = np.split(rows.rows, [2 * k], axis=1)
    if k:
        # The 2k zero pairs span the zero space twice over.  They are
        # real-orthogonal to every live eigenvector but complex-orthogonal
        # to the live modes only to about eps ||H|| / gap, which reaches
        # 1e-7 when a live |lambda| sits near the zero floor (resistances
        # spanning 1e+-5).  u must be unitary: project, then keep k
        # orthonormal directions of what remains.
        zero = np.linalg.svd(
            zero - live @ (live.conj().T @ zero), full_matrices=False
        )[0][:, :k]
    u = np.concatenate([zero, live], axis=1)
    lam = rows.lam[k:].astype(complex)  # k zeros, then the live values

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


def takagi_rows(l: np.ndarray, nodes) -> TakagiRows:
    """The rows of the factorization vectors of L at nodes (0-based), with
    their values and column sums, in O(n^2 m) past the tridiagonal
    eigensolve for m nodes.

    Each mode is v = Q z with u = v[:n] + i v[n:], so u_ap = (Q^T e_p)^T z
    + i (Q^T e_{n+p})^T z, and the column sum is the same with the constant
    functionals [1; 0] and [0; 1] in place of e_p and e_{n+p}.  The zero
    space is read through the tight frame of its 2k pair vectors, so no
    vector is back-transformed.  Accepts the input takagi_decompose accepts.
    """
    l = _check_symmetric(l)
    n = l.shape[0]
    m = len(nodes)
    t = _tridiagonal_eig(l)
    k = t.k
    # s selects the entries at the nodes and the sum of an n-vector, so the
    # columns of diag(s, s) select those of x, then of y, in [x; y]
    s = np.zeros((n, m + 1))
    s[nodes, np.arange(m)] = 1.0
    s[:, m] = 1.0
    g = _apply_q(t, np.kron(np.eye(2), s)).T @ t.z[:, n - k:]
    modes = g[:m + 1] + 1j * g[m + 1:]
    modes[:, :2 * k] /= math.sqrt(2.0)
    lam = np.zeros(n + k)
    lam[2 * k:] = t.w[n + k:]
    return TakagiRows(
        order=n,
        rows=modes[:m],
        col_sums=modes[m],
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


def _apply_q(t: _Tridiagonal, c: np.ndarray) -> np.ndarray:
    """Q^T c, c real of shape (2n, m)."""
    rest = np.asfortranarray(c[1:])
    lwork = lapack.dormqr("L", "T", t.reflectors, t.tau, rest, -1)[1][0]
    rest, _, info = lapack.dormqr(
        "L", "T", t.reflectors, t.tau, rest, int(lwork), overwrite_c=1
    )
    _check_info("dormqr", info)
    return np.concatenate([c[:1], rest])


def _check_info(routine: str, info: int) -> None:
    if info:
        raise ConvergenceError(f"LAPACK {routine} failed (info={info})")


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


def classify_zero_modes(
    d: TakagiDecomposition | TakagiRows, scale: float
) -> ZeroModeClassification:
    """Find the zero modes of a Laplacian decomposition and count the
    nontrivial ones.

    Zero modes are entries with |lambda| <= SINGULAR_REL_TOL * scale, where
    scale is the network's admittance_scale: the rule the direct route
    applies to its LU pivots.  It does not depend on max|lambda|, so a wide
    spread of element values cannot turn a small live mode into a zero, and
    a Laplacian that cancels completely has only zero modes.  Their span,
    the zero space, must hold the constant vector (the trivial mode every
    connected network has): ||P0 1|| / sqrt(n) >= 0.99, the norm of the
    column sums over the zero columns, which is the same for any
    orthonormal basis or tight frame of that space.  Raises
    NoTrivialZeroError otherwise, which signals input that is not a
    connected-network Laplacian.  The nontrivial zero count is the
    dimension of the zero space less one: the zero columns less the
    columns beyond the order (a tight frame's redundant ones) less the
    trivial mode.  Reads only |lambda| and the column sums, so a full
    decomposition and the rows of takagi_rows classify alike.
    """
    mags = np.abs(d.lam)
    threshold = SINGULAR_REL_TOL * float(scale)
    zero = np.flatnonzero(mags <= threshold)
    if not zero.size:
        raise NoTrivialZeroError("no zero mode present")
    overlap = float(np.linalg.norm(d.col_sums[zero])) / math.sqrt(d.order)
    if overlap < 0.99:
        raise NoTrivialZeroError(
            "the zero modes do not hold the constant vector "
            f"(overlap {overlap:.3g})"
        )
    return ZeroModeClassification(
        zero_indices=tuple(int(a) for a in zero),
        nontrivial_zero_count=int(zero.size) - (mags.size - d.order) - 1,
        threshold=threshold,
    )

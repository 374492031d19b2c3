"""Factorization of complex symmetric matrices by orthonormal vectors.

For any complex symmetric L there is an orthonormal basis u_a and complex
values lambda_a with

    L u_a = lambda_a conj(u_a),        sigma_a = |lambda_a|^2.

Each pair is gauge free: {u e^{i tau}, lambda e^{2 i tau}} is an equally valid
solution, so only gauge-invariant combinations of u and lambda are physical.

takagi_decompose returns these u_a.  When L = cM with M real symmetric and
c = 1 or j, as for resistor networks (L real) and lossless LC networks
(L = jB), every eigenpair (mu, v) of M is a pair u = sqrt(conj(c) sgn mu) v,
lambda = |mu|, and one n x n real eigensolve yields the n orthonormal
modes.  Otherwise, with L = A + iB, u = x + iy and lambda real, the defining
relation is the real symmetric eigenproblem H [x; y] = lambda [x; y] with
H = [[A, -B], [-B, -A]].  Its spectrum is +-|lambda_a|, each pair linked by
[x; y] -> [-y; x] (u -> i u).  A positive eigenvector is real-orthogonal to
every negative one, which makes the n positive eigenvectors
complex-orthonormal factorization vectors, so one real eigensolve of
order 2n yields every mode with nonzero lambda, degenerate or not.  Only
the numerically zero eigenspace holds both members of a pair: its 2k real
eigenvectors, taken as (x + iy)/sqrt(2), span the k-dimensional zero space
of L twice over, and an SVD keeps k orthonormal directions of them.  The
gauge is canonicalized by rotating the largest component of every u_a onto
the positive real axis.

A query needs less than the u_a.  The impedance sum over the modes with
lambda_a != 0 is the bilinear form d^T L^+ d, d = e_p - e_q, and any two
orthonormal bases r_a, l_a with L r_a = lambda_a conj(l_a) give
L^+ = sum_a r_a l_a^T / lambda_a.  takagi_rows takes them from one order-n
factorization, chosen by the input: eigh of M when L = cM (r_a = l_a = v_a,
lambda_a = c mu_a), else the SVD L = U Sigma V^H (r_a = V_a,
l_a = conj(U_a), lambda_a = s_a).  For complex symmetric L the SVD is the
factorization above up to each mode's phase, U_a = conj(V_a) e^{i theta_a},
or a unitary mix inside a degenerate cluster (Takagi 1925; Horn and
Johnson, "Matrix Analysis", Cor. 4.4.4); the sum does not see either.
A pair query reads two rows in O(n^2) past the factorization; the
all-pairs table reads all n in O(n^3).  The residual of the defining
relation is computed only when a result's residual is read.

At a degenerate zero only the zero space is defined, not a basis of it, so
everything read from the zero modes is a projection onto it, P0: the sum
of |.|^2 over the zero columns of u or r, each an orthonormal basis of the
null space of L.  A pair couples to the zero space with strength
||P0 (e_p - e_q)||^2, and a Laplacian's zero space holds its trivial mode
when ||P0 1|| / sqrt(n) >= 0.99.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    NoTrivialZeroError,
    NotSymmetricError,
    ValidationError,
)
from .laplacian import SINGULAR_REL_TOL
from .network import _as_number

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
    factorization L r_a = lam_a conj(l_a).

    There are n columns, ascending in |lam|, a zero-space basis first; r_a
    and l_a are each orthonormal, and L^+ = sum_a r_a l_a^T / lam_a over the
    columns outside the zero space.

    Attributes
    ----------
    order : int
        Matrix dimension n.
    rows : numpy.ndarray
        (m, n); rows[i, a] = r_a at nodes[i] for the m nodes passed to
        takagi_rows.
    left_rows : numpy.ndarray
        (m, n); left_rows[i, a] = l_a at nodes[i].
    col_sums : numpy.ndarray
        (n,) sums sum_i r_ai.
    lam : numpy.ndarray
        (n,) complex factorization values, as computed.
    residual : float
        max_a of the 2-norm of L r_a - lam_a conj(l_a).  Computed when
        read, from the factors the result keeps, so a query that does not
        read it does not pay for it.
    """

    order: int
    rows: np.ndarray
    left_rows: np.ndarray
    col_sums: np.ndarray
    lam: np.ndarray
    # L and the full conj(r) and conj(l), column a for lam[a], read by residual
    factors: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        compare=False, repr=False
    )

    @property
    def residual(self) -> float:
        l, conj_r, conj_l = self.factors
        return _residual(l, conj_r.conj(), self.lam, conj_l)


@dataclass(frozen=True)
class ZeroModeClassification:
    """Zero modes of a Laplacian decomposition.  zero_indices are the
    columns with |lambda| <= threshold; they span the zero space, which
    holds the trivial (constant-vector) mode and nontrivial_zero_count
    further dimensions, each a resonance indicator."""

    zero_indices: tuple[int, ...]
    nontrivial_zero_count: int
    threshold: float


def takagi_decompose(l: np.ndarray) -> TakagiDecomposition:
    """Factorize a complex symmetric matrix as L u_a = lambda_a conj(u_a).

    Parameters
    ----------
    l : array_like
        Non-empty square complex symmetric matrix with finite entries and
        finite doubled row sums of |l|, else ValidationError.  Asymmetry
        above 1e-13 of the largest entry magnitude raises NotSymmetricError.

    Returns
    -------
    TakagiDecomposition
        Vectors, values and sigma spectrum (ascending in |lambda|), and the
        worst-case defining-relation residual.

    Every |lambda| at or below the eigensolver noise floor 16 n eps
    max|lambda| is set to 0.  The order-2n embedding needs this: it holds
    each zero mode twice, as eigenvalues +-0 that rounding moves off zero
    by up to about the floor, and the count of them at or below it sizes
    the zero block that the SVD reduces to k directions.  The real route
    applies the same floor, so that both routes report alike.  No impedance
    query calls this function; takagi_rows keeps its values as computed.
    """
    l = _check_symmetric(l)
    n = l.shape[0]
    real = _real_form(l)
    if real:
        c, m = real
        mu, v = _real_eig(m)
        u = v * np.sqrt(np.where(mu < 0.0, -1.0, 1.0) * c.conjugate())
        lam = np.abs(mu)
        lam[lam <= _zero_floor(mu, n)] = 0.0
    else:
        h = np.block([[l.real, -l.imag], [-l.imag, -l.real]])
        w, v = _eigensolve("Takagi factorization", np.linalg.eigh, h)
        k = int(np.count_nonzero(w[n:] <= _zero_floor(w, n)))
        zero, live = np.split(v[:n, n - k:] + 1j * v[n:, n - k:], [2 * k], axis=1)
        if k:
            # The 2k zero pairs span the zero space twice over.  They are
            # real-orthogonal to every live eigenvector but complex-orthogonal
            # to the live modes only to about eps ||H|| / gap, which reaches
            # 1e-7 when a live |lambda| sits near the zero floor (a network of
            # rotated resistances spanning 1e+-5).  u must be unitary: project,
            # then keep k orthonormal directions of what remains.
            zero = np.linalg.svd(
                zero - live @ (live.conj().T @ zero), full_matrices=False
            )[0][:, :k]
        u = np.concatenate([zero, live], axis=1)
        lam = np.zeros(n)
        lam[k:] = w[n + k:]
    lam = lam.astype(complex)

    # gauge canonicalization: largest component of each u_a real positive
    piv = u[np.argmax(np.abs(u), axis=0), np.arange(n)]
    fac = piv.conj() / np.abs(piv)
    u *= fac
    lam *= fac * fac
    with np.errstate(over="ignore"):
        sigma = np.abs(lam) ** 2  # saturates at inf beyond |lambda| ~ 1e154
    return TakagiDecomposition(
        order=n, u=u, lam=lam, sigma=sigma, residual=_residual(l, u, lam, u.conj())
    )


def takagi_rows(l: np.ndarray, nodes) -> TakagiRows:
    """The rows at nodes (0-based) of the factorization L r_a = lam_a
    conj(l_a), with its values and the column sums of r, from one order-n
    factorization: eigh of M when L = cM with M real and c = 1 or j
    (resistor or LC networks), where r_a = l_a = v_a and lam_a = c mu_a,
    else the SVD L = U Sigma V^H, where r_a = V_a, l_a = conj(U_a) and
    lam_a = s_a.  The values are kept as computed: which of them count as
    zero is classify_zero_modes' decision.  Unchecked precondition, met by
    node_system's L: l is exactly symmetric with finite row sums of |l|
    (they bound |lambda|).
    """
    n = l.shape[0]
    real = _real_form(l)
    if real:
        c, m = real
        mu, v = _real_eig(m)
        lam = c * mu
        conj_r = conj_l = v
    else:
        u, s, vh = _eigensolve("Takagi factorization", np.linalg.svd, l)
        lam = s[::-1].astype(complex)
        conj_r, conj_l = vh[::-1].T, u[:, ::-1]
    nodes = list(nodes)
    return TakagiRows(
        order=n,
        rows=conj_r[nodes].conj(),
        left_rows=conj_l[nodes].conj(),
        col_sums=conj_r.sum(axis=0).conj(),
        lam=lam,
        factors=(l, conj_r, conj_l),
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
    with np.errstate(over="ignore"):  # rejected below
        mags = np.abs(l)
        bound = 2.0 * float(mags.sum(axis=1).max())  # of |lambda| and |l + l.T|
    if not math.isfinite(bound):
        raise ValidationError("twice the largest row sum of |l| is not finite")
    if float(np.abs(l - l.T).max()) > _SYMMETRY_REL_TOL * float(mags.max()):
        raise NotSymmetricError(
            "matrix is not complex symmetric to working tolerance"
        )
    return 0.5 * (l + l.T)


def _real_form(l: np.ndarray) -> tuple[complex, np.ndarray] | None:
    """(c, M) with L = cM, M real and c = 1 or j, or None if there is none."""
    if not l.imag.any():
        return 1.0 + 0j, l.real
    if not l.real.any():
        return 1j, l.imag
    return None


def _real_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (mu, v) of a real symmetric m, ascending in |mu|."""
    mu, v = _eigensolve("Takagi factorization", np.linalg.eigh, m)
    order = np.argsort(np.abs(mu), kind="stable")
    return mu[order], v[:, order]


def _eigensolve(what: str, solve, *args, **kwargs):
    """solve(*args, **kwargs), a numpy or scipy factorization, whose
    LinAlgError (no convergence, or for the pencil a balanced a0 + a2 that
    is not numerically definite) is raised as ConvergenceError."""
    try:
        return solve(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{what} failed: {exc}") from None


def _zero_floor(w: np.ndarray, n: int) -> float:
    """The eigensolver noise floor of an order-n L, below which a computed
    |lambda| is zero."""
    return 16.0 * n * _EPS * float(np.abs(w).max())


def _residual(l, r, lam, conj_l) -> float:
    """max_a of the 2-norm of L r_a - lam_a conj(l_a); hypot keeps the
    column norms finite where squares would overflow."""
    defect = l @ r - conj_l * lam
    return float(np.hypot.reduce(np.abs(defect), axis=0).max())


def classify_zero_modes(
    d: TakagiDecomposition | TakagiRows, scale: float
) -> ZeroModeClassification:
    """Find the zero modes of a Laplacian decomposition and count the
    nontrivial ones.

    Zero modes are entries with |lambda| <= SINGULAR_REL_TOL * scale, where
    scale is the network's admittance_scale: the rule the direct route
    applies to its LU pivots.  scale must be a real number, finite and
    positive, else ValidationError.  This test does not depend on
    max|lambda|, and a Laplacian that cancels completely has only zero
    modes.  Their span, the zero space, must hold the constant vector (the
    trivial mode every connected network has): ||P0 1|| / sqrt(n) >= 0.99,
    the norm of the column sums over the zero columns, which is the same
    for any orthonormal basis of that space.  Raises NoTrivialZeroError
    otherwise, which signals input that is not a connected-network
    Laplacian.  The nontrivial zero count is the dimension of the zero
    space less the trivial mode.  Reads only |lambda| and the column sums,
    so a full decomposition and the rows of takagi_rows classify alike.
    """
    s = _as_number(scale)
    if s is None or not (math.isfinite(s) and s > 0.0):
        raise ValidationError(
            f"scale must be a positive finite real number, got {scale!r}"
        )
    mags = np.abs(d.lam)
    threshold = SINGULAR_REL_TOL * s
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
        nontrivial_zero_count=int(zero.size) - 1,
        threshold=threshold,
    )

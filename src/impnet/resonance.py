"""Resonance detection: closed forms, ring identities, and the LC pencil.

An LC resonance is a frequency where some nontrivial factorization value of
the network Laplacian vanishes, so the two-point impedance diverges.  For
rectangular LC grids the resonance frequencies have a closed form; for rings
of reactances the resonance condition is that the reactances sum to zero,
and the product of the nonconstant-mode eigenvalues of the ring Laplacian
has a closed form that doubles as an end-to-end numerical identity check.
General networks are handled by find_resonances: the Laplacian is affine in
j omega and 1/(j omega), so its resonances are eigenvalues of a quadratic
pencil in s = j omega, all found by one generalized eigensolve: of order
n - 1 in s^2 for LC networks, whose pencil has no linear term, and of the
2(n - 1) companion linearization (Tisseur and Meerbergen, "The quadratic
eigenvalue problem", SIAM Rev. 43 (2001)) otherwise.  Each is certified
from its own eigenvector, a backward-error bound in the sense of Tisseur,
"Backward error and condition of polynomial eigenvalue problems", Linear
Algebra Appl. 309 (2000); only a root that fails the certificate is
confirmed by the impedance verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import NearSingularError, ValidationError
from .impedance import ImpedanceStatus, two_point_impedance
from .laplacian import (
    SINGULAR_REL_TOL, assemble_laplacian, check_angular_frequency, check_band,
    laplacian_parts,
)
from .network import (
    Boundary, ElementKind, Network, check_grid, check_ring_size, ring_network,
)

# Two detected frequencies within this relative distance are one resonance.
MERGE_REL_TOL = 1e-9

_EPS = float(np.finfo(float).eps)


class DetectionMethod(Enum):
    ANALYTIC = "analytic"
    PENCIL = "pencil"


@dataclass(frozen=True)
class ResonanceReport:
    """Detected resonance frequencies, ascending and merged.

    raw_count is the number of values before merging duplicates within
    MERGE_REL_TOL (for the pencil: roots in range, before confirmation);
    distinct_count after.  residuals holds zeros for analytic entries.  For
    pencil entries it holds evidence in siemens that some nontrivial
    |lambda| of L(omega) is at or below theta = SINGULAR_REL_TOL *
    admittance_scale(net, omega).  certified_count of them were proven by
    their own pencil eigenvector z: the residual is ||L(omega) z|| / ||z||,
    which bounds the smallest nontrivial |lambda| from above, and it passed
    (||L(omega) z|| + a) (1 + gamma_(4n+3r)) <= theta ||z|| with a the
    rounding allowance of the evaluation (find_resonances names every
    term).  The others failed that test and were confirmed by
    two_point_impedance; their residual is its min_nontrivial_abs_lambda.
    Analytic reports certify nothing.
    """

    omegas: tuple[float, ...]
    residuals: tuple[float, ...]
    method: DetectionMethod
    distinct_count: int
    raw_count: int
    certified_count: int


def grid_resonances_analytic(
    m: int,
    n: int,
    inductance: float,
    capacitance: float,
    boundary: Boundary = Boundary.FREE,
) -> ResonanceReport:
    """Closed-form resonance frequencies of an m-by-n LC grid.

    Free boundaries give omega_ij = |sin(j pi / 2n) / sin(i pi / 2m)| /
    sqrt(L C) for i in 1..m-1, j in 1..n-1 (i runs along the capacitor
    direction, j along the inductor direction); toroidal boundaries replace
    the half angles with full angles i pi / m and j pi / n.  Values are
    merged within MERGE_REL_TOL; raw_count keeps the unmerged tally.  The
    arguments are checked as grid_network checks them.
    """
    ind, cap = check_grid(m, n, inductance, capacitance, boundary)
    base = 1.0 / (math.sqrt(ind.value) * math.sqrt(cap.value))
    if not math.isfinite(base):
        raise ValidationError(f"base frequency 1/sqrt(L C) = {base!r} is not finite")
    half = 2 if boundary is Boundary.FREE else 1
    den = [math.sin(i * math.pi / (half * m)) for i in range(1, m)]
    num = [math.sin(j * math.pi / (half * n)) for j in range(1, n)]
    raw = sorted(abs(sj / si) * base for si in den for sj in num)
    merged = _merge_sorted(raw)
    return ResonanceReport(
        omegas=tuple(merged),
        residuals=tuple(0.0 for _ in merged),
        method=DetectionMethod.ANALYTIC,
        distinct_count=len(merged),
        raw_count=len(raw),
        certified_count=0,
    )


@dataclass(frozen=True)
class RingReactanceCheck:
    """Sum-rule verdict for a ring of reactances at one frequency."""

    reactance_sum: float
    is_resonant: bool


def _reactances(elements, omega: float) -> tuple[list[float], float, float]:
    """Reactances of a ring's elements at omega, their sum and the sum of
    their magnitudes."""
    w = check_angular_frequency(omega)
    xs = []
    for e in elements:
        if e.kind is ElementKind.INDUCTOR:
            xs.append(w * e.value)
        elif e.kind is ElementKind.CAPACITOR:
            xs.append(-1.0 / (w * e.value))
        else:
            raise ValidationError(
                "ring reactance checks need inductors and capacitors only, "
                f"got {e.kind.name.lower()}"
            )
    check_ring_size(len(xs))
    return xs, math.fsum(xs), math.fsum(abs(x) for x in xs)


def ring_reactance_resonance_check(elements, omega: float) -> RingReactanceCheck:
    """Sum rule for a ring of pure reactances.

    A ring of elements with reactances x_k resonates exactly when
    sum(x_k) = 0; numerically the sum is compared against 1e-9 of the sum of
    magnitudes.
    """
    _, total, scale = _reactances(elements, omega)
    return RingReactanceCheck(
        reactance_sum=total,
        is_resonant=abs(total) <= 1e-9 * scale,
    )


def eigenvalue_product_identity_check(elements, omega: float) -> float:
    """Relative defect of the ring eigenvalue-product identity.

    For a ring of N reactances x_k the product of the N-1 nonconstant-mode
    Laplacian eigenvalues equals N (-j)^(N-1) (sum x_k) / (prod x_k).  The
    product is evaluated independently as N times the determinant of the
    grounded (N-1) minor and the relative deviation from the closed form is
    returned.  Within 1e-8 of the sum-rule zero the identity compares two
    vanishing quantities and NearSingularError is raised instead.
    """
    elements = list(elements)
    xs, total, scale = _reactances(elements, omega)
    n = len(xs)
    if abs(total) <= 1e-8 * scale:
        raise NearSingularError(
            "reactance sum is within 1e-8 of zero; identity check is "
            "ill-conditioned this close to resonance"
        )
    net = ring_network(n, elements)
    lap = assemble_laplacian(net, omega)
    minor = lap[1:, 1:]
    product = n * complex(np.linalg.det(minor))
    prod_x = 1.0
    for x in xs:
        prod_x *= x
    closed = n * (-1j) ** (n - 1) * total / prod_x
    return abs(product - closed) / abs(closed)


def find_resonances(
    net: Network, omega_lo: float, omega_hi: float
) -> ResonanceReport:
    """Every resonance of net in [omega_lo, omega_hi], from one eigensolve.

    With the parts of L(omega) = Y + j omega C + Gamma / (j omega),
    j omega L(omega) = s^2 C + s Y + Gamma at s = j omega, so resonances are
    the roots s = j omega of this quadratic pencil off the constant vector.
    Substituting s = 2^k t with 2^k near sqrt(|Gamma| / |C|) (or the ratio
    with |Y| when C or Gamma is zero) balances the pencil, and a factor 2^d
    brings its largest coefficient to order one, so the roots do not depend
    on the units or on the range.  One QZ solve with right eigenvectors of
    the pencil with one node grounded gives every root t (see
    _pencil_roots): for an LC network, where Y is identically zero, a real
    pencil of order n-1 in nu = t^2 with t = j sqrt(-nu); for any other
    network the 2(n-1) companion linearization.  Roots with Im t > 0 and
    |Re t| <= sqrt(eps) |t| whose omega = 2^k Im t lies in the range are
    merged within MERGE_REL_TOL.  When C and Gamma are both zero, L does
    not depend on omega and nothing is reported.

    Each merged omega is reported only when the network is RESONANT there
    by the rule of two_point_impedance: some nontrivial |lambda| is at or
    below theta = SINGULAR_REL_TOL * admittance_scale(net, omega).  The
    root's own eigenvector decides this in O(n^2), by a bound on
    ||L(omega) z|| with a derived rounding allowance (see _certify).  A root
    that fails this test falls back to two_point_impedance(net, omega, 1, 2)
    (the verdict does not depend on the pair) and is kept only when it is
    RESONANT, so a reported omega is one where ``impnet impedance`` exits 2.

    Near omega -> 0 the singularity rule itself can hold: when Gamma is
    singular off the constant vector, |lambda| ~ omega C falls below 1e-13
    of the admittance scale ~ 1/(omega L), and the pencil's roots at s = 0
    are reported when they lie in the range.  They are rounding artifacts:
    the multiple root nu = 0 comes out at about eps, so omega is about
    sqrt(eps) in the balanced units (near 1e-8 for the 8x8 free grid with
    L = C = 1), and how many of them come out with nu < 0 depends on the
    rounding.
    """
    lo, hi = check_band(omega_lo, omega_hi)
    pencil = _balance(*laplacian_parts(net))
    if pencil is None:
        return ResonanceReport((), (), DetectionMethod.PENCIL, 0, 0, 0)
    omegas, z = _pencil_roots(pencil, lo, hi)
    merged = _merge_sorted(omegas.tolist())
    first = np.searchsorted(omegas, merged)  # the first root of each cluster
    residuals, certified = _certify(pencil, np.array(merged), z[:, first])
    kept = []
    for w, s, ok in zip(merged, residuals.tolist(), certified):
        if not ok:
            r = two_point_impedance(net, w, 1, 2)
            if r.status is not ImpedanceStatus.RESONANT:
                continue
            s = r.min_nontrivial_abs_lambda
        kept.append((w, s))
    return ResonanceReport(
        omegas=tuple(w for w, _ in kept),
        residuals=tuple(s for _, s in kept),
        method=DetectionMethod.PENCIL,
        distinct_count=len(kept),
        raw_count=len(omegas),
        certified_count=int(certified.sum()),
    )


class _Pencil(NamedTuple):
    """s^2 C + s Y + Gamma balanced by s = 2^k t and scaled by 2^d.

    c, y and g are the node-basis parts 2^(2k+d) C, 2^(k+d) Y and 2^d Gamma,
    so that 2^(k+d) L(2^k tau) = j tau c + y + g / (j tau) and the pencil in
    t is t^2 c + t y + g.
    """

    c: np.ndarray
    y: np.ndarray
    g: np.ndarray
    k: int
    d: int


def _balance(c: np.ndarray, y: np.ndarray, g: np.ndarray) -> _Pencil | None:
    """Balanced parts of the pencil; None when C and Gamma are both zero."""
    nc, ny, ng = (float(np.abs(part).max()) for part in (c, y, g))
    ec, ey, eg = (math.frexp(v)[1] for v in (nc, ny, ng))
    if nc and ng:
        k = (eg - ec) // 2
    elif nc:
        k = ey - ec
    elif ng:
        k = eg - ey
    else:
        return None
    d = -max(e for v, e in ((nc, ec + 2 * k), (ny, ey + k), (ng, eg)) if v)
    # ldexp on the float view scales complex parts exactly
    c, y, g = (
        np.ldexp(part.view(float), e).view(part.dtype)
        for part, e in ((c, 2 * k + d), (y, k + d), (g, d))
    )
    return _Pencil(c, y, g, k, d)


def _pencil_roots(
    pencil: _Pencil, lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Roots omega of the pencil in [lo, hi], ascending, with eigenvectors.

    The pencil t^2 a2 + t a1 + a0 is grounded at the node g of largest
    |c_gg| + |y_gg| + |g_gg|: a_i is the part without row and column g.
    All (n-1) minors of a Laplacian are one cofactor, zero exactly when
    rank L <= n - 2, so the roots are the nontrivial ones of L, and each
    eigenvector x padded with a zero at g, the returned z (real when every
    kept x is), is a null vector of L.  With no R or Z branch y is
    identically zero, and nu = t^2 solves the real (n-1) pencil
    -a0 x = nu a2 x: each root is t = j sqrt(-nu) with x its own
    eigenvector.  Otherwise x is the bottom half of the right eigenvector
    of the 2(n-1) companion linearization
    [[-a1, -a0], [I, 0]] - t [[a2, 0], [0, I]].
    """
    weight = sum(np.abs(np.diag(part)) for part in pencil[:3])
    kept = np.arange(weight.size) != np.argmax(weight)
    grounded = np.ix_(kept, kept)
    a2, a0 = pencil.c[grounded], pencil.g[grounded]
    m = a0.shape[0]
    lc = not pencil.y.any()
    if lc:
        a, b = -a0, a2
    else:
        a1 = pencil.y[grounded]
        if not a1.imag.any():  # real QZ unless fixed impedances make Y complex
            a1 = a1.real
        eye, zero = np.eye(m), np.zeros((m, m))
        a, b = np.block([[-a1, -a0], [eye, zero]]), np.block([[a2, zero], [zero, eye]])
    (alpha, beta), v = scipy.linalg.eig(
        a, b, right=True, overwrite_a=True, overwrite_b=True, check_finite=False,
        homogeneous_eigvals=True,
    )
    if not lc:
        v = v[m:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = alpha / beta
        if lc:  # t = j sqrt(-nu), the root with Im t = Re sqrt(-nu) >= 0
            t = 1j * np.sqrt(-t)
        omegas = np.ldexp(t.imag, pencil.k)
        keep = (
            np.isfinite(t) & (t.imag > 0)
            & (np.abs(t.real) <= math.sqrt(_EPS) * np.abs(t))
            & (omegas >= lo) & (omegas <= hi)
        )
    order = np.argsort(omegas[keep], kind="stable")
    x = v[:, keep][:, order]
    if not x.imag.any():  # a spurious complex root makes every vector complex
        x = x.real
    z = np.zeros((weight.size, x.shape[1]), x.dtype)
    z[kept] = x
    return omegas[keep][order], z


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u), u the unit roundoff."""
    mu = m * _EPS / 2.0
    return mu / (1.0 - mu)


def _certify(
    pencil: _Pencil, omegas: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Prove from vectors z that L(omega) is RESONANT at each omega.

    Column i of z goes with omegas[i].  Returns ||L z|| / ||z|| in siemens
    and whether it certifies the verdict of two_point_impedance.

    Derivation.  L = L(omega) is the Laplacian of the merged branch
    admittances that the parts hold off the diagonal; assemble_laplacian's
    matrix differs from it by the rounding of each branch admittance.  L is
    complex symmetric with L 1 = 0, so with Q an orthonormal basis of the
    complement of the constant vector 1, L = Q M Q^T with M = Q^T L Q, and
    the nontrivial Takagi values |lambda| of L are the singular values of
    M.  For any z with projection P z = z - mean(z) 1 off the constant
    vector, L z = L P z = Q M Q^T z, so

        sigma_min(M) <= ||L z|| / ||P z||.                            (1)

    z is centred first, z <- z - mean(z), whatever the caller passes;
    rounding leaves it a mean of order n u max|z_i|, so ||P z|| = ||z|| to
    second order in n^(3/2) u.  Everything runs in the pencil's power-of-two
    units, where L is 2^(k+d) L(omega) = j tau c + y + g / (j tau) with
    tau = 2^-k omega; the scaling is exact, and no norm squares an entry.

    The computed defect D = y z + j (tau (c z) - (g z) / tau) differs from
    the exact L z, componentwise, by at most

        (2 gamma_(r+3) + gamma_(r-1)) (W |z|)                          (2)

    where W = tau W_c + W_y + W_g / tau and each W_p is |p| with its
    diagonal replaced by the row sums of |p| off the diagonal (the part
    with no cancellation).  r is the largest number of nonzeros in a row of
    the parts.  gamma_(r+3) bounds each real component of the dot products
    (zero terms add no rounding, so r and not n counts), the products by
    tau and 1/tau and the two sums that combine the parts; the factor 2
    turns componentwise real bounds into a complex modulus (sqrt 2 twice).
    gamma_(r-1) bounds each stamped diagonal, a sum of at most r - 1
    entries, against the exact row sum.  W is used rather than |L| because
    at a resonance the c and g terms cancel, and rounding follows the
    terms.  The allowance a is the 2-norm of (2).

    The scale is max_i (tau W_c + W_y + W_g / tau)_ii, the node sums of
    admittance_scale: equal to it up to rounding for R, L and C branches,
    and smaller when parallel fixed impedances cancel, which only makes the
    test stricter.  The three norms are chains of n hypot calls (relative
    error below 2 n u each), and the sums in W |z| and in the scale carry
    at most gamma_r, so with the factor 1 + gamma_(4n+3r)

        (||D|| + a) (1 + gamma_(4n+3r)) <= theta ||z||                 (3)

    is sufficient for sigma_min(M) <= theta = SINGULAR_REL_TOL * scale.
    """
    c, y, g, k, d = pencil
    z = z - z.mean(axis=0)
    n = z.shape[0]
    r = int(((c != 0) | (y != 0) | (g != 0)).sum(axis=1).max())
    tau = np.ldexp(omegas, -k)
    defect = y @ z + 1j * (tau * (c @ z) - (g @ z) / tau)
    w_c, w_y, w_g = (_uncancelled(part) for part in (c, y, g))
    az = np.abs(z)
    bound = tau * (w_c @ az) + w_y @ az + (w_g @ az) / tau
    scale = np.max(
        np.outer(np.diag(w_c), tau) + np.diag(w_y)[:, None]
        + np.outer(np.diag(w_g), 1.0 / tau),
        axis=0,
    )
    rho, alpha, nu = (np.hypot.reduce(np.abs(v), axis=0) for v in (defect, bound, az))
    allowance = (2.0 * _gamma(r + 3) + _gamma(r - 1)) * alpha
    certified = (rho + allowance) * (1.0 + _gamma(4 * n + 3 * r)) <= (
        SINGULAR_REL_TOL * scale * nu
    )
    return np.ldexp(rho / nu, -(k + d)), certified


def _uncancelled(part: np.ndarray) -> np.ndarray:
    """|part| with its diagonal replaced by the off-diagonal row sums."""
    w = np.abs(part)
    np.fill_diagonal(w, 0.0)
    np.fill_diagonal(w, w.sum(axis=1))
    return w


def _merge_sorted(values: list[float]) -> list[float]:
    """Merge ascending values whose neighbours agree within MERGE_REL_TOL."""
    merged: list[float] = []
    for v in values:
        if merged and v - merged[-1] <= MERGE_REL_TOL * v:
            continue
        merged.append(v)
    return merged

"""Resonance detection: closed forms, ring identities, and the LC pencil.

An LC resonance is a frequency where some nontrivial factorization value of
the network Laplacian vanishes, so the two-point impedance diverges.  For
rectangular LC grids the resonance frequencies have a closed form; for rings
of reactances the resonance condition is that the reactances sum to zero,
and the product of the nonconstant-mode eigenvalues of the ring Laplacian
has a closed form that doubles as an end-to-end numerical identity check.
General networks are handled by find_resonances: the Laplacian is affine in
j omega and 1/(j omega), so its resonances are eigenvalues of a quadratic
pencil in s = j omega, all found by one generalized eigensolve and each
confirmed by the impedance verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .errors import NearSingularError, ValidationError
from .impedance import ImpedanceStatus, two_point_impedance
from .laplacian import (
    _constant_complement,
    assemble_laplacian,
    check_angular_frequency,
    laplacian_parts,
)
from .network import Boundary, Element, ElementKind, Network, ring_network

# Two detected frequencies within this relative distance are one resonance.
MERGE_REL_TOL = 1e-9


class DetectionMethod(Enum):
    ANALYTIC = "analytic"
    PENCIL = "pencil"


@dataclass(frozen=True)
class ResonanceReport:
    """Detected resonance frequencies, ascending and merged.

    residuals holds zeros for analytic entries and, for pencil entries, the
    smallest nontrivial |lambda| (in siemens) at each frequency.  raw_count
    is the number of values before merging duplicates within MERGE_REL_TOL
    (for the pencil: roots in range, before confirmation); distinct_count
    after.
    """

    omegas: tuple[float, ...]
    residuals: tuple[float, ...]
    method: DetectionMethod
    distinct_count: int
    raw_count: int


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
    merged within MERGE_REL_TOL; raw_count keeps the unmerged tally.
    """
    if m < 2 or n < 2:
        raise ValidationError(f"grid dimensions must be >= 2, got ({m}, {n})")
    if not (inductance > 0 and capacitance > 0):
        raise ValidationError("inductance and capacitance must be positive")
    if not isinstance(boundary, Boundary):
        raise ValidationError(f"bad boundary {boundary!r}")
    base = 1.0 / math.sqrt(inductance * capacitance)
    if boundary is Boundary.FREE:
        den = [math.sin(i * math.pi / (2 * m)) for i in range(1, m)]
        num = [math.sin(j * math.pi / (2 * n)) for j in range(1, n)]
    else:
        den = [math.sin(i * math.pi / m) for i in range(1, m)]
        num = [math.sin(j * math.pi / n) for j in range(1, n)]
    raw = sorted(abs(sj / si) * base for si in den for sj in num)
    merged = _merge_sorted(raw)
    return ResonanceReport(
        omegas=tuple(merged),
        residuals=tuple(0.0 for _ in merged),
        method=DetectionMethod.ANALYTIC,
        distinct_count=len(merged),
        raw_count=len(raw),
    )


@dataclass(frozen=True)
class RingReactanceCheck:
    """Sum-rule verdict for a ring of reactances at one frequency."""

    reactance_sum: float
    is_resonant: bool


def _reactances(elements, omega: float) -> list[float]:
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
    return xs


def ring_reactance_resonance_check(elements, omega: float) -> RingReactanceCheck:
    """Sum rule for a ring of pure reactances.

    A ring of elements with reactances x_k resonates exactly when
    sum(x_k) = 0; numerically the sum is compared against 1e-9 of the sum of
    magnitudes.
    """
    xs = _reactances(elements, omega)
    total = math.fsum(xs)
    scale = math.fsum(abs(x) for x in xs)
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
    xs = _reactances(elements, omega)
    n = len(xs)
    total = math.fsum(xs)
    scale = math.fsum(abs(x) for x in xs)
    if abs(total) <= 1e-8 * scale:
        raise NearSingularError(
            "reactance sum is within 1e-8 of zero; identity check is "
            "ill-conditioned this close to resonance"
        )
    net = ring_network(n, list(elements))
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
    Substituting s = gamma t with gamma a power of two near sqrt(|Gamma| /
    |C|) (or the ratio with |Y| when C or Gamma is zero) balances the
    pencil, and a second power of two brings its largest coefficient to
    order one, so the roots do not depend on the units or on the range.  One
    QZ solve of the 2(n-1) companion linearization on the complement of the
    constant vector gives every root t; those with Im t > 0 and |Re t| <=
    sqrt(eps) |t| whose gamma Im t lies in the range are merged within
    MERGE_REL_TOL, and each is kept only when two_point_impedance calls the
    network RESONANT there (the verdict does not depend on the pair), so a
    reported omega is one where ``impnet impedance`` exits 2.  When C and
    Gamma are both zero, L does not depend on omega and nothing is reported.

    Near omega -> 0 the singularity rule itself can hold: when Gamma is
    singular off the constant vector, |lambda| ~ omega C falls below 1e-13
    of the admittance scale ~ 1/(omega L), and the pencil's roots at s = 0,
    computed to about sqrt(eps), are reported when they lie in the range
    (near 1e-8 for the 8x8 free grid with L = C = 1).  Each residual is
    sqrt(min_nontrivial_sigma) of the confirming impedance query.
    """
    lo = check_angular_frequency(omega_lo)
    hi = check_angular_frequency(omega_hi)
    if not lo < hi:
        raise ValidationError(f"need omega_lo < omega_hi, got ({lo}, {hi})")
    c, y, g = laplacian_parts(net)
    nc, ny, ng = (float(np.abs(part).max()) for part in (c, y, g))
    ec, ey, eg = (math.frexp(v)[1] for v in (nc, ny, ng))
    if nc and ng:
        k = (eg - ec) // 2
    elif nc:
        k = ey - ec
    elif ng:
        k = eg - ey
    else:
        return ResonanceReport((), (), DetectionMethod.PENCIL, 0, 0)
    # s = 2^k t: coefficients 2^(2k) C, 2^k Y and Gamma, all times 2^d
    d = -max(e for v, e in ((nc, ec + 2 * k), (ny, ey + k), (ng, eg)) if v)
    q = _constant_complement(net.node_count)
    a2, a1, a0 = (  # ldexp on the float view scales complex parts exactly
        q.T @ np.ldexp(part.view(float), e).view(part.dtype) @ q
        for part, e in ((c, 2 * k + d), (y, k + d), (g, d))
    )
    if not a1.imag.any():  # real QZ unless fixed impedances make Y complex
        a1 = a1.real
    m = q.shape[1]
    eye, zero = np.eye(m), np.zeros((m, m))
    alpha, beta = scipy.linalg.eigvals(
        np.block([[-a1, -a0], [eye, zero]]), np.block([[a2, zero], [zero, eye]]),
        overwrite_a=True, check_finite=False, homogeneous_eigvals=True,
    )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = alpha / beta
    t = t[np.isfinite(t) & (t.imag > 0)]
    t = t[np.abs(t.real) <= math.sqrt(np.finfo(float).eps) * np.abs(t)]
    omegas = np.ldexp(t.imag, k)
    raw = sorted(float(w) for w in omegas[(omegas >= lo) & (omegas <= hi)])
    kept = []
    for w in _merge_sorted(raw):
        r = two_point_impedance(net, w, 1, 2)
        if r.status is ImpedanceStatus.RESONANT:
            kept.append((w, math.sqrt(r.min_nontrivial_sigma)))
    return ResonanceReport(
        omegas=tuple(w for w, _ in kept),
        residuals=tuple(s for _, s in kept),
        method=DetectionMethod.PENCIL,
        distinct_count=len(kept),
        raw_count=len(raw),
    )


def _merge_sorted(values: list[float]) -> list[float]:
    """Merge ascending values whose neighbours agree within MERGE_REL_TOL."""
    merged: list[float] = []
    for v in values:
        if merged and v - merged[-1] <= MERGE_REL_TOL * v:
            continue
        merged.append(v)
    return merged

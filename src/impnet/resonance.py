"""Resonance detection: closed forms, ring identities, and frequency sweeps.

An LC resonance is a frequency where some nontrivial factorization value of
the network Laplacian vanishes, so the two-point impedance diverges.  For
rectangular LC grids the resonance frequencies have a closed form; for rings
of reactances the resonance condition is that the reactances sum to zero,
and the product of the nonconstant-mode eigenvalues of the ring Laplacian
has a closed form that doubles as an end-to-end numerical identity check.
General networks are handled by sweeping the smallest nontrivial sigma over
a log-spaced frequency grid and refining each flagged dip by golden-section
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NearSingularError, ValidationError
from .laplacian import (
    admittance_scale,
    assemble_laplacian,
    check_angular_frequency,
    smallest_nontrivial_sigma,
)
from .network import Boundary, Element, ElementKind, Network, ring_network

# Two detected frequencies within this relative distance are one resonance.
MERGE_REL_TOL = 1e-9

# A sweep grid point becomes a refinement candidate when it is a local
# minimum this far below the median sweep statistic.  The gate is loose on
# purpose: at grid resolution a genuine zero crossing only dips a few orders
# below the landscape, and the decisive depth test runs after refinement.
_CANDIDATE_REL_DEPTH = 1e-2

# A refined minimum counts as a resonance when it lands this far below the
# median sweep statistic.  A true zero refines to the eigensolver noise
# floor, many orders below any avoided crossing.
_ACCEPT_REL_DEPTH = 1e-10

# Absolute floor of the acceptance threshold, relative to the largest sweep
# statistic: eigenvalues of the deflated normal matrix carry O(eps) noise.
_ACCEPT_NOISE_FLOOR = 1e4 * np.finfo(float).eps

# Golden-section refinement target, relative in omega.
_REFINE_REL_TOL = 1e-10

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


class DetectionMethod(Enum):
    ANALYTIC = "analytic"
    SWEEP_REFINED = "sweep-refined"


@dataclass(frozen=True)
class ResonanceReport:
    """Detected resonance frequencies, ascending and merged.

    residuals holds zeros for analytic entries and, for swept entries, the
    smallest nontrivial |lambda| (in siemens) at the refined minimum.
    raw_count is the number of values before merging duplicates within
    MERGE_REL_TOL; distinct_count after.
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


def sweep_resonances(
    net: Network,
    omega_lo: float,
    omega_hi: float,
    points: int,
    refine: bool = True,
) -> ResonanceReport:
    """Locate resonances by sweeping the smallest nontrivial sigma.

    The statistic s(omega) is evaluated on a log-spaced grid.  Interior
    local minima dipping below 1e-2 of the median become candidates; each
    candidate is refined by golden-section search on log(omega) to 1e-10
    relative, and kept only when the refined minimum falls below 1e-10 of
    the median (a true zero refines to the eigensolver noise floor, an
    avoided crossing stalls at its finite depth).  Kept frequencies within
    MERGE_REL_TOL of each other merge into one resonance.

    Parameters
    ----------
    net : Network
    omega_lo, omega_hi : float
        Sweep range, 0 < omega_lo < omega_hi.
    points : int
        Grid size, at least 3.  Detection only flags dips the grid actually
        resolves, so resolving sharp resonances needs a generous grid.
    refine : bool
        When False, skip refinement and report every candidate dip at grid
        resolution without the depth test (coarse diagnostic mode).

    Returns
    -------
    ResonanceReport
        method SWEEP_REFINED; residuals are the smallest nontrivial |lambda|
        at each refined minimum.

    Notes
    -----
    The statistic is evaluated on c L(omega), where the power of two c
    brings the admittance scale at the geometric centre of the range to
    order one, so sigma neither overflows nor underflows whatever the
    units.  Localization accuracy is limited by the noise basin of the
    statistic: its eigenvalues carry absolute error of order eps times the
    largest sigma, which flattens the minimum over a frequency interval of
    roughly sqrt(eps) relative width for general multi-node networks.
    Two-node networks evaluate the statistic without that amplification and
    localize to near machine precision.
    """
    lo = check_angular_frequency(omega_lo)
    hi = check_angular_frequency(omega_hi)
    if not lo < hi:
        raise ValidationError(f"need omega_lo < omega_hi, got ({lo}, {hi})")
    if points < 3:
        raise ValidationError(f"need at least 3 sweep points, got {points}")

    _, e = math.frexp(admittance_scale(net, math.sqrt(lo) * math.sqrt(hi)))
    c = math.ldexp(1.0, -e)

    def stat(w: float) -> float:
        return smallest_nontrivial_sigma(c * assemble_laplacian(net, w))

    grid = np.geomspace(lo, hi, points)
    svals = np.array([stat(w) for w in grid])
    median = float(np.median(svals))
    top = float(svals.max())
    if top == 0.0:
        # Statistic vanishes identically: every frequency is resonant and a
        # sweep cannot localize anything.
        return ResonanceReport(
            omegas=(), residuals=(), method=DetectionMethod.SWEEP_REFINED,
            distinct_count=0, raw_count=0,
        )
    candidate_gate = _CANDIDATE_REL_DEPTH * (median if median > 0.0 else top)
    accept = max(
        _ACCEPT_REL_DEPTH * (median if median > 0.0 else top),
        _ACCEPT_NOISE_FLOOR * top,
    )

    found: list[tuple[float, float]] = []
    for i in range(1, points - 1):
        if svals[i] > candidate_gate:
            continue
        if svals[i] <= svals[i - 1] and svals[i] <= svals[i + 1]:
            if refine:
                w, s = _golden_min(stat, grid[i - 1], grid[i + 1])
                if s <= accept:
                    found.append((w, s))
            else:
                found.append((float(grid[i]), float(svals[i])))

    found.sort()
    merged: list[tuple[float, float]] = []
    for w, s in found:
        if merged and w - merged[-1][0] <= MERGE_REL_TOL * w:
            if s < merged[-1][1]:
                merged[-1] = (merged[-1][0], s)
            continue
        merged.append((w, s))
    return ResonanceReport(
        omegas=tuple(w for w, _ in merged),
        residuals=tuple(math.sqrt(s) / c for _, s in merged),
        method=DetectionMethod.SWEEP_REFINED,
        distinct_count=len(merged),
        raw_count=len(found),
    )


def _golden_min(f, a: float, b: float, rel_tol: float = _REFINE_REL_TOL):
    """Golden-section minimum of f over [a, b], searched on a log axis."""
    la, lb = math.log(a), math.log(b)
    h = lb - la
    lc = la + _INV_PHI2 * h
    ld = la + _INV_PHI * h
    fc = f(math.exp(lc))
    fd = f(math.exp(ld))
    while h > rel_tol:
        if fc < fd:
            lb, ld, fd = ld, lc, fc
            h = lb - la
            lc = la + _INV_PHI2 * h
            fc = f(math.exp(lc))
        else:
            la, lc, fc = lc, ld, fd
            h = lb - la
            ld = la + _INV_PHI * h
            fd = f(math.exp(ld))
    w = math.exp(0.5 * (la + lb))
    return w, f(w)


def _merge_sorted(values: list[float]) -> list[float]:
    """Merge ascending values whose neighbours agree within MERGE_REL_TOL."""
    merged: list[float] = []
    for v in values:
        if merged and v - merged[-1] <= MERGE_REL_TOL * v:
            continue
        merged.append(v)
    return merged

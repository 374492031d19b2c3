"""Two-point impedance from the symmetric-Laplacian factorization.

The effective impedance between nodes p and q is

    Z_pq = sum_a (u_ap - u_aq)^2 / lambda_a

over all modes with nonvanishing lambda_a, where the square is the analytic
square, not a squared magnitude; the gauge factor e^{2 i tau} cancels between
numerator and denominator.  Modes classified as zero are excluded: the
trivial constant mode never contributes (its components cancel in the
difference), and any further zero mode marks an LC resonance where the
impedance diverges with strength ||P0 (e_p - e_q)||^2, the squared norm of
the projection of e_p - e_q onto the zero space: the sum of |u_ap - u_aq|^2
over the zero columns, which does not depend on the basis a degenerate
resonance leaves free.  The sums read only rows p and q of the u_a, so
both a single query and the all-pairs table take the rows they read from
takagi_rows: two for a pair, all n for the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .laplacian import check_angular_frequency, node_system
from .network import Network, check_pair
from .takagi import TakagiRows, classify_zero_modes, takagi_rows

# A finite result is flagged near_resonance when its smallest nontrivial
# |lambda| is at or below this fraction of the largest: a conditioning
# warning about the mode sum, not a verdict.
NEAR_RESONANCE_REL = math.sqrt(1e-9)


class ImpedanceStatus(Enum):
    FINITE = "finite"
    RESONANT = "resonant"


@dataclass(frozen=True)
class ImpedanceResult:
    """Impedance of one node pair, or of all pairs, at one angular frequency.

    status is RESONANT when a nontrivial mode has |lambda| at or below
    SINGULAR_REL_TOL times the network's admittance_scale, the rule the
    direct route applies to its pivots.  value holds the mode sum over
    retained (nonzero) modes; when RESONANT it is only the finite principal
    part and the physical impedance diverges with strength
    divergent_coefficient = ||P0 (e_p - e_q)||^2, where P0 projects onto the
    zero modes: the sum of |u_ap - u_aq|^2 over them, the same for any
    basis of the zero space.  min_nontrivial_abs_lambda is the smallest
    |lambda| (in siemens) outside the trivial mode; near_resonance flags a finite
    result whose smallest nontrivial |lambda| is within NEAR_RESONANCE_REL
    (about 3.2e-5) of the largest, where the mode sum is poorly conditioned.

    A pair query holds a complex value and a float coefficient.  The
    all-pairs table holds (n, n) arrays indexed [p - 1, q - 1]; everything
    else depends on the network and omega only, so one record serves every
    pair.
    """

    status: ImpedanceStatus
    value: complex | np.ndarray
    omega: float
    resonant_mode_count: int
    divergent_coefficient: float | np.ndarray | None
    min_nontrivial_abs_lambda: float
    near_resonance: bool


def two_point_impedance(
    net: Network,
    omega: float,
    p: int,
    q: int,
) -> ImpedanceResult:
    """Effective impedance between nodes p and q (1-based) at omega.

    Parameters
    ----------
    net : Network
    omega : float
        Angular frequency in rad/s.
    p, q : int
        Distinct 1-based node labels.

    Returns
    -------
    ImpedanceResult
    """
    w = check_angular_frequency(omega)
    p, q = check_pair(net, p, q)
    lap, scale = node_system(net, w)
    spec = _spectrum(takagi_rows(lap, (p - 1, q - 1)), scale)
    value, coupling = _mode_sums(spec, 0, 1)
    return _result(spec, w, complex(value), float(coupling))


def impedance_matrix(net: Network, omega: float) -> ImpedanceResult:
    """All-pairs impedance table from a single eigensolve.

    value[p - 1, q - 1] and, when RESONANT, divergent_coefficient[p - 1,
    q - 1] are the value and coefficient of two_point_impedance(net, omega,
    p, q), up to rounding.  Both arrays are (n, n), exactly symmetric and
    zero on the diagonal; divergent_coefficient is None when FINITE.
    """
    n = net.node_count
    lap, scale = node_system(net, omega)
    spec = _spectrum(takagi_rows(lap, range(n)), scale)
    value = np.zeros((n, n), dtype=complex)
    coupling = np.zeros((n, n))
    for p in range(n - 1):
        rest = slice(p + 1, None)
        value[p, rest], coupling[p, rest] = _mode_sums(spec, p, rest)
    return _result(spec, float(omega), value + value.T, coupling + coupling.T)


class _Spectrum(NamedTuple):
    """Node-pair-independent part of an impedance query: the rows read,
    split into the retained (nonzero) modes and the zero ones."""

    live: np.ndarray  # rows of the retained modes, one per node read
    inv_lam: np.ndarray  # their 1 / lambda in units of 2^-e ohm
    e: int  # 2^(e-1) <= admittance scale < 2^e
    zero: np.ndarray  # rows of the zero modes
    resonant: int  # dimension of the zero space past the trivial mode
    min_abs: float  # smallest |lambda| outside the trivial mode
    near_resonance: bool


def _spectrum(dec: TakagiRows, scale: float) -> _Spectrum:
    cls = classify_zero_modes(dec, scale)
    e = math.frexp(scale)[1]
    retained = np.ones(dec.lam.size, dtype=bool)
    retained[list(cls.zero_indices)] = False
    mags = np.abs(dec.lam)
    # ascending: the trivial mode and a frame's redundant columns come first
    others = mags[mags.size - dec.order + 1:]
    min_abs = float(others[0]) if others.size else 0.0
    return _Spectrum(
        dec.rows[:, retained],
        1.0 / np.ldexp(dec.lam[retained], -e),
        e,
        dec.rows[:, ~retained],
        cls.nontrivial_zero_count,
        min_abs,
        min_abs <= NEAR_RESONANCE_REL * float(mags.max()),
    )


def _mode_sums(spec: _Spectrum, i: int, j) -> tuple[np.ndarray, np.ndarray]:
    """Between row i and the row or rows j of the rows read: the sums of
    (u_i - u_j)^2 / lambda over the retained modes and of |u_i - u_j|^2
    over the zero ones.  The first is summed in the units of inv_lam and
    scaled back exactly; ValidationError when it exceeds the float range."""
    live = spec.live[i] - spec.live[j]
    zero = spec.zero[i] - spec.zero[j]
    value = np.array(live ** 2 @ spec.inv_lam)
    with np.errstate(over="ignore"):  # rejected below
        for part in (value.real, value.imag):
            np.ldexp(part, -spec.e, out=part)
    if not np.isfinite(value).all():
        raise ValidationError("the impedance exceeds the float range")
    return value, np.sum(np.abs(zero) ** 2, axis=-1)


def _result(spec: _Spectrum, omega: float, value, coupling) -> ImpedanceResult:
    resonant = spec.resonant > 0
    return ImpedanceResult(
        status=ImpedanceStatus.RESONANT if resonant else ImpedanceStatus.FINITE,
        value=value,
        omega=omega,
        resonant_mode_count=spec.resonant,
        divergent_coefficient=coupling if resonant else None,
        min_nontrivial_abs_lambda=spec.min_abs,
        near_resonance=spec.near_resonance and not resonant,
    )

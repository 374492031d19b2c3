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
resonance leaves free.  The sums read only rows p and q of the u_a, so a
single query takes them from takagi_rows and only the all-pairs table runs
the full takagi_decompose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .laplacian import admittance_scale, assemble_laplacian, check_angular_frequency
from .network import Network, check_pair
from .takagi import (
    TakagiDecomposition,
    TakagiRows,
    classify_zero_modes,
    takagi_decompose,
    takagi_rows,
)

# A finite result is flagged near_resonance when its smallest nontrivial
# |lambda| is at or below this fraction of the largest: a conditioning
# warning about the mode sum, not a verdict.
NEAR_RESONANCE_REL = math.sqrt(1e-9)


class ImpedanceStatus(Enum):
    FINITE = "finite"
    RESONANT = "resonant"


@dataclass(frozen=True)
class ImpedanceResult:
    """Impedance of one node pair at one angular frequency.

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
    """

    status: ImpedanceStatus
    value: complex
    omega: float
    resonant_mode_count: int
    divergent_coefficient: float | None
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
    check_pair(net, p, q)
    dec = takagi_rows(assemble_laplacian(net, w), p - 1, q - 1)
    return _pair_result(_spectrum(dec, dec.rows, net, w), w, 0, 1)


def impedance_matrix(net: Network, omega: float) -> list[list[ImpedanceResult]]:
    """All-pairs impedance table from a single factorization.

    Entry [p-1][q-1] equals two_point_impedance(net, omega, p, q); the table
    is symmetric and diagonal entries are finite zeros.
    """
    w = check_angular_frequency(omega)
    n = net.node_count
    dec = takagi_decompose(assemble_laplacian(net, w))
    spec = _spectrum(dec, dec.u, net, w)
    table: list[list[ImpedanceResult | None]] = [[None] * n for _ in range(n)]
    for p in range(1, n + 1):
        table[p - 1][p - 1] = ImpedanceResult(
            status=ImpedanceStatus.FINITE,
            value=0j,
            omega=w,
            resonant_mode_count=0,
            divergent_coefficient=None,
            min_nontrivial_abs_lambda=spec.min_abs,
            near_resonance=False,
        )
        for q in range(p + 1, n + 1):
            r = _pair_result(spec, w, p - 1, q - 1)
            table[p - 1][q - 1] = r
            table[q - 1][p - 1] = r
    return table  # type: ignore[return-value]


class _Spectrum(NamedTuple):
    """Pair-independent part of an impedance query."""

    u: np.ndarray  # rows of the factorization vectors, one per node read
    lam: np.ndarray
    retained: np.ndarray  # mask of the modes summed (nonzero lambda)
    resonant: int  # dimension of the zero space past the trivial mode
    min_abs: float  # smallest |lambda| outside the trivial mode
    near_resonance: bool


def _spectrum(
    dec: TakagiDecomposition | TakagiRows, u: np.ndarray, net: Network, omega: float
) -> _Spectrum:
    cls = classify_zero_modes(dec, admittance_scale(net, omega))
    retained = np.ones(dec.lam.size, dtype=bool)
    retained[list(cls.zero_indices)] = False
    mags = np.abs(dec.lam)
    # ascending: the trivial mode and a frame's redundant columns come first
    others = mags[mags.size - dec.order + 1:]
    min_abs = float(others[0]) if others.size else 0.0
    return _Spectrum(
        u,
        dec.lam,
        retained,
        cls.nontrivial_zero_count,
        min_abs,
        min_abs <= NEAR_RESONANCE_REL * float(mags.max()),
    )


def _pair_result(spec: _Spectrum, omega: float, i: int, j: int) -> ImpedanceResult:
    """The result for rows i and j of spec.u."""
    diffs = spec.u[i, :] - spec.u[j, :]
    value = complex(np.sum(diffs[spec.retained] ** 2 / spec.lam[spec.retained]))
    if spec.resonant:
        return ImpedanceResult(
            status=ImpedanceStatus.RESONANT,
            value=value,
            omega=omega,
            resonant_mode_count=spec.resonant,
            divergent_coefficient=float(
                np.sum(np.abs(diffs[~spec.retained]) ** 2)
            ),
            min_nontrivial_abs_lambda=spec.min_abs,
            near_resonance=False,
        )
    return ImpedanceResult(
        status=ImpedanceStatus.FINITE,
        value=value,
        omega=omega,
        resonant_mode_count=0,
        divergent_coefficient=None,
        min_nontrivial_abs_lambda=spec.min_abs,
        near_resonance=spec.near_resonance,
    )

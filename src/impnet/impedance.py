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
resonance leaves free.  The sum is d^T L^+ d with d = e_p - e_q, so a query
may read it from any factorization L r_a = lambda_a conj(l_a) with r and l
orthonormal, as sum_a (r_ap - r_aq)(l_ap - l_aq) / lambda_a; the u_a are
the case r = l = u.  It reads only rows p and q, so both a single query
and the all-pairs table take the rows they read from takagi_rows: two for
a pair, all n for the table.  Which lambda count as zero is decided once
per query, by classify_zero_modes' threshold on the computed |lambda|.
They factor L in node_system's unit of 2^e siemens, which owns the
scaling: lambda and the mode sums stay in it, and to_float_range takes a
result back to ohm once, the pair's value or the whole table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .laplacian import check_angular_frequency, node_system, to_float_range
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
    computed |lambda| (in siemens) outside the trivial mode, so a RESONANT
    result reports how far below the threshold it fell; near_resonance
    flags a finite result whose smallest nontrivial |lambda| is within
    NEAR_RESONANCE_REL (about 3.2e-5) of the largest, where the mode sum is
    poorly conditioned.

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
    modes = _modes(net, w, (p - 1, q - 1))
    value, coupling = _mode_sums(modes, 0, 1)
    value = to_float_range(np.array(value), modes.e, "the impedance")
    return _result(modes, w, complex(value), float(coupling))


def impedance_matrix(net: Network, omega: float) -> ImpedanceResult:
    """All-pairs impedance table from a single eigensolve.

    value[p - 1, q - 1] and, when RESONANT, divergent_coefficient[p - 1,
    q - 1] are the value and coefficient of two_point_impedance(net, omega,
    p, q), up to rounding.  Both arrays are (n, n), exactly symmetric and
    zero on the diagonal; divergent_coefficient is None when FINITE.
    """
    n = net.node_count
    modes = _modes(net, omega, range(n))
    value = np.zeros((n, n), dtype=complex)
    coupling = np.zeros((n, n))
    for p in range(n - 1):
        rest = slice(p + 1, None)
        value[p, rest], coupling[p, rest] = _mode_sums(modes, p, rest)
    value = to_float_range(value + value.T, modes.e, "the impedance")
    return _result(modes, float(omega), value, coupling + coupling.T)


class _Modes(NamedTuple):
    """Node-pair-independent part of an impedance query: the rows read of
    the factorization of node_system's L, in its unit of 2^e S, and how
    many of its columns are zero modes.  The columns ascend in |lambda|,
    so the k zero columns come first and the rows are read as slices."""

    dec: TakagiRows
    k: int  # zero columns: the trivial mode and the resonant ones
    inv_lam: np.ndarray  # 1 / lambda on the other columns, in units of 2^-e ohm
    e: int  # node_system's unit exponent


def _modes(net: Network, omega: float, nodes) -> _Modes:
    lap, scale, e = node_system(net, omega)
    dec = takagi_rows(lap, nodes)
    k = len(classify_zero_modes(dec, math.ldexp(scale, -e)).zero_indices)
    return _Modes(dec, k, 1.0 / dec.lam[k:], e)


def _mode_sums(modes: _Modes, i: int, j) -> tuple[np.ndarray, np.ndarray]:
    """Between row i and the row or rows j of the rows read: the sums of
    (r_i - r_j)(l_i - l_j) / lambda over the retained modes, in units of
    2^-e ohm, and of |r_i - r_j|^2 over the zero ones."""
    r, left, k = modes.dec.rows, modes.dec.left_rows, modes.k
    # the layout picks BLAS's gemv kernel, and with it the last bits of each
    # sum; column-major keeps the tables `impnet check` prints byte-identical
    # to earlier versions (tools/replay_outputs.py compares them)
    live = np.multiply(r[i, k:] - r[j, k:], left[i, k:] - left[j, k:], order="F")
    return live @ modes.inv_lam, np.sum(np.abs(r[i, :k] - r[j, :k]) ** 2, axis=-1)


def _result(modes: _Modes, omega: float, value, coupling) -> ImpedanceResult:
    resonant = modes.k > 1
    mags = np.abs(modes.dec.lam)
    # ascending: the trivial mode comes first
    min_abs = float(mags[1]) if mags.size > 1 else 0.0
    near = min_abs <= NEAR_RESONANCE_REL * float(mags.max())
    return ImpedanceResult(
        status=ImpedanceStatus.RESONANT if resonant else ImpedanceStatus.FINITE,
        value=value,
        omega=omega,
        resonant_mode_count=modes.k - 1,
        divergent_coefficient=coupling if resonant else None,
        min_nontrivial_abs_lambda=math.ldexp(min_abs, modes.e),
        near_resonance=near and not resonant,
    )

"""Direct Kirchhoff solver, used as the independent cross-check route.

Ground node q, inject one ampere at node p, solve the reduced (n-1) node
system by dense LU with partial pivoting, and read the impedance off V_p.
This route shares no code with the factorization path beyond Laplacian
assembly, so agreement between the two is a meaningful end-to-end check.

A vanishing pivot (relative to the uncancelled admittance scale of the
network, which stays finite even when the Laplacian itself cancels at a
resonance) yields the SingularSystem verdict as a value, not an exception:
for a physical network it is the direct solver's view of a resonance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidNodeError
from .laplacian import admittance_scale, assemble_laplacian, check_angular_frequency
from .network import Network, check_pair

# Pivot threshold relative to the admittance scale.
_PIVOT_REL_TOL = 1e-13


@dataclass(frozen=True)
class SingularSystem:
    """Verdict value: the grounded system is numerically singular.

    pivot_min is the smallest LU pivot magnitude encountered and scale the
    admittance reference it was compared against.
    """

    ground: int
    pivot_min: float
    scale: float


@dataclass(frozen=True, eq=False)
class GroundedSystem:
    """Reduced system with one node grounded (removed).

    kept maps reduced row/column index to the original 1-based node label.
    """

    reduced_matrix: np.ndarray
    ground: int
    kept: tuple[int, ...]


def grounded_system(net: Network, omega: float, ground: int) -> GroundedSystem:
    """Laplacian with the row and column of the grounded node removed."""
    w = check_angular_frequency(omega)
    n = net.node_count
    if not isinstance(ground, int) or ground < 1 or ground > n:
        raise InvalidNodeError(f"ground node {ground!r} outside 1..{n}")
    lap = assemble_laplacian(net, w)
    keep = [i for i in range(n) if i != ground - 1]
    reduced = lap[np.ix_(keep, keep)]
    return GroundedSystem(
        reduced_matrix=reduced,
        ground=ground,
        kept=tuple(i + 1 for i in keep),
    )


def solve_node_potentials(
    net: Network, omega: float, p: int, q: int
) -> np.ndarray | SingularSystem:
    """Node potentials for unit current injected at p and extracted at q.

    Node q is grounded (V_q = 0).  Returns the full n-vector of potentials,
    or SingularSystem when an LU pivot of the grounded system falls below
    1e-13 of the network admittance scale.
    """
    w = check_angular_frequency(omega)
    check_pair(net, p, q)
    sys = grounded_system(net, w, ground=q)
    rhs = np.zeros(net.node_count - 1, dtype=complex)
    rhs[sys.kept.index(p)] = 1.0
    with warnings.catch_warnings():
        # exact singularity surfaces as a LinAlgWarning; the pivot test below
        # is the authoritative verdict
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(sys.reduced_matrix)
    pivots = np.abs(np.diag(lu))
    scale = admittance_scale(net, w)
    pivot_min = float(pivots.min())
    if pivot_min <= _PIVOT_REL_TOL * scale:
        return SingularSystem(ground=q, pivot_min=pivot_min, scale=scale)
    x = scipy.linalg.lu_solve((lu, piv), rhs)
    potentials = np.zeros(net.node_count, dtype=complex)
    for idx, node in enumerate(sys.kept):
        potentials[node - 1] = x[idx]
    return potentials


def solve_direct(
    net: Network, omega: float, p: int, q: int
) -> complex | SingularSystem:
    """Impedance between p and q by the direct route: V_p with V_q = 0."""
    v = solve_node_potentials(net, omega, p, q)
    if isinstance(v, SingularSystem):
        return v
    return complex(v[p - 1])


def check_current_conservation(
    net: Network, omega: float, potentials: np.ndarray, p: int, q: int
) -> float:
    """Worst-case Kirchhoff current defect of a direct solution.

    Computes I = L V and returns the largest of |I_a| over nodes not in
    {p, q}, |I_p - 1|, and |I_q + 1|.
    """
    w = check_angular_frequency(omega)
    check_pair(net, p, q)
    lap = assemble_laplacian(net, w)
    currents = lap @ np.asarray(potentials, dtype=complex)
    worst = max(abs(currents[p - 1] - 1.0), abs(currents[q - 1] + 1.0))
    for a in range(net.node_count):
        if a not in (p - 1, q - 1):
            worst = max(worst, abs(currents[a]))
    return float(worst)

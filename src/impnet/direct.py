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

from .laplacian import (
    SINGULAR_REL_TOL, admittance_scale, assemble_laplacian, check_angular_frequency,
)
from .network import Network, check_pair


@dataclass(frozen=True)
class SingularSystem:
    """Verdict value: the grounded system is numerically singular.

    pivot_min is the smallest LU pivot magnitude encountered and scale the
    admittance reference it was compared against.
    """

    ground: int
    pivot_min: float
    scale: float


def solve_node_potentials(
    net: Network, omega: float, p: int, q: int
) -> np.ndarray | SingularSystem:
    """Node potentials for unit current injected at p and extracted at q.

    Node q is grounded (V_q = 0).  Returns the full n-vector of potentials,
    or SingularSystem when an LU pivot of the grounded system is at or below
    SINGULAR_REL_TOL (1e-13) of the network admittance scale.
    """
    w = check_angular_frequency(omega)
    p, q = check_pair(net, p, q)
    g = q - 1
    lap = assemble_laplacian(net, w)
    reduced = np.delete(np.delete(lap, g, axis=0), g, axis=1)
    rhs = np.zeros(net.node_count - 1, dtype=complex)
    rhs[p - 1 if p < q else p - 2] = 1.0
    with warnings.catch_warnings():
        # exact singularity surfaces as a LinAlgWarning; the pivot test below
        # is the authoritative verdict
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(reduced)
    pivots = np.abs(np.diag(lu))
    scale = admittance_scale(net, w)
    pivot_min = float(pivots.min())
    if pivot_min <= SINGULAR_REL_TOL * scale:
        return SingularSystem(ground=q, pivot_min=pivot_min, scale=scale)
    x = scipy.linalg.lu_solve((lu, piv), rhs)
    return np.insert(x, g, 0.0)


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

    Returns max_a |(L V - (e_p - e_q))_a|: the current leaving each node
    less the unit injected at p and extracted at q.
    """
    w = check_angular_frequency(omega)
    p, q = check_pair(net, p, q)
    lap = assemble_laplacian(net, w)
    currents = lap @ np.asarray(potentials, dtype=complex)
    currents[[p - 1, q - 1]] -= [1.0, -1.0]
    return float(np.abs(currents).max())

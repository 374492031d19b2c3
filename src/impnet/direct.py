"""Direct Kirchhoff solver, used as the independent cross-check route.

Ground node q, inject one ampere at node p, solve the reduced (n-1) node
system by LAPACK's zgetrf (dense LU with partial pivoting) and zgetrs, and
read the impedance off V_p.
This route shares no code with the factorization path beyond Laplacian
assembly, so agreement between the two is a meaningful end-to-end check.

A vanishing pivot (relative to the uncancelled admittance scale of the
network, which stays finite even when the Laplacian itself cancels at a
resonance) yields the SingularSystem verdict as a value, not an exception:
for a physical network it is the direct solver's view of a resonance.  An
exactly zero pivot (zgetrf's info > 0) is the case pivot_min = 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import ValidationError
from .laplacian import (
    SINGULAR_REL_TOL, assemble_laplacian, check_angular_frequency, node_system,
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
    SINGULAR_REL_TOL (1e-13) of the network admittance scale.  The block is
    factored in units of 2^e siemens, 2^(e-1) <= scale < 2^e, where subnormal
    admittances keep their digits; ValidationError past the float range.
    """
    w = check_angular_frequency(omega)
    p, q = check_pair(net, p, q)
    kept = np.arange(net.node_count) != q - 1
    lap, scale = node_system(net, w)
    e = math.frexp(scale)[1]
    block = lap[np.ix_(kept, kept)]
    np.ldexp(block.view(float), -e, out=block.view(float))
    lu, piv, _ = lapack.zgetrf(block)
    pivot_min = float(np.abs(np.diag(lu)).min())
    if pivot_min <= SINGULAR_REL_TOL * math.ldexp(scale, -e):
        return SingularSystem(q, math.ldexp(pivot_min, e), scale)
    v = np.zeros(net.node_count, dtype=complex)
    v[p - 1] = 1.0
    v[kept] = lapack.zgetrs(lu, piv, v[kept])[0]
    with np.errstate(over="ignore"):  # rejected below
        np.ldexp(v.view(float), -e, out=v.view(float))
    if not np.isfinite(v).all():
        raise ValidationError(f"node potential at omega {w!r} exceeds the float range")
    return v


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

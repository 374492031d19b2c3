"""Branch admittances and the complex symmetric network Laplacian.

At angular frequency omega the branch admittances are 1/R, 1/(j omega L),
j omega C, and 1/z.  The Laplacian carries the merged admittance sum of all
branches joining a node pair on the off-diagonal (negated) and the sum of
incident admittances on the diagonal, so every row sums to zero and the
constant vector is an exact null vector.  The matrix is symmetric (L == L^T)
but not Hermitian once any branch is reactive.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import DegenerateElementError, ValidationError
from .network import Element, ElementKind, Network

# A Laplacian is singular at omega when a pivot (direct route) or a
# factorization value |lambda| (spectral route) is at or below this fraction
# of admittance_scale(net, omega).  The one singularity rule of the package.
SINGULAR_REL_TOL = 1e-13


def check_angular_frequency(omega: float) -> float:
    """Validate omega (rad/s): positive and finite."""
    w = float(omega)
    if not math.isfinite(w) or w <= 0:
        raise ValidationError(
            f"angular frequency must be positive and finite, got {omega!r}"
        )
    return w


def branch_admittance(element: Element, omega: float) -> complex:
    """Complex admittance of a single element at angular frequency omega.

    Raises ValidationError naming the element when the admittance is not
    finite (for example a subnormal resistance or a huge capacitance).
    """
    w = check_angular_frequency(omega)
    kind = element.kind
    if kind is ElementKind.RESISTOR:
        y = complex(1.0 / element.value)
    elif kind is ElementKind.INDUCTOR:
        wl = w * element.value  # 0 when the product underflows
        y = -1j / wl if wl else complex(0.0, -math.inf)
    elif kind is ElementKind.CAPACITOR:
        y = 1j * w * element.value
    elif element.value == 0:
        raise DegenerateElementError("fixed impedance of 0 has no admittance")
    else:
        y = 1.0 / element.value
    if not cmath.isfinite(y):
        raise ValidationError(
            f"admittance of {kind.name.lower()} {element.value!r} at omega "
            f"{w!r} is not finite"
        )
    return y


def _stamp(net: Network, ys: np.ndarray) -> np.ndarray:
    """Node-basis Laplacian of net with ys[k] the admittance of branch k.

    Parallel branches merge by summing their admittances in branch order,
    and each diagonal entry is the negated sum of its merged off-diagonal
    row, which keeps row sums at zero to machine precision.
    """
    n, m = net.node_count, len(net.branches)
    a = np.fromiter((br.node_a - 1 for br in net.branches), np.intp, m)
    b = np.fromiter((br.node_b - 1 for br in net.branches), np.intp, m)
    adm = np.zeros((n, n), dtype=ys.dtype)
    # (a, b) then (b, a) per branch: the accumulation order of a loop
    np.add.at(
        adm,
        (np.column_stack((a, b)).ravel(), np.column_stack((b, a)).ravel()),
        np.repeat(ys, 2),
    )
    lap = -adm
    np.fill_diagonal(lap, adm.sum(axis=1))
    return lap


def assemble_laplacian(net: Network, omega: float) -> np.ndarray:
    """Assemble the node-basis Laplacian of a network at omega.

    Returns
    -------
    numpy.ndarray
        Dense complex (node_count, node_count) matrix.
    """
    w = check_angular_frequency(omega)
    ys = [branch_admittance(br.element, w) for br in net.branches]
    return _stamp(net, np.array(ys, dtype=complex))


def laplacian_parts(net: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant Laplacians (C, Y, Gamma), L(omega) = Y + j omega C + Gamma/(j omega).

    C holds the capacitances and Gamma the inverse inductances (both real),
    Y the resistor and fixed-impedance admittances (complex).  Raises
    ValidationError when an entry is not finite.
    """
    ys = np.array([branch_admittance(br.element, 1.0) for br in net.branches])
    kinds = [br.element.kind for br in net.branches]
    cap = np.array([k is ElementKind.CAPACITOR for k in kinds])
    ind = np.array([k is ElementKind.INDUCTOR for k in kinds])
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        parts = (
            _stamp(net, np.where(cap, ys.imag, 0.0)),
            _stamp(net, np.where(cap | ind, 0.0, ys)),
            _stamp(net, np.where(ind, -ys.imag, 0.0)),  # 1/(j L) = -j/L
        )
    if not all(np.isfinite(part).all() for part in parts):
        raise ValidationError("a merged admittance of the network is not finite")
    return parts


def admittance_scale(net: Network, omega: float) -> float:
    """Largest per-node sum of branch admittance magnitudes.

    This is the magnitude the Laplacian diagonal would have if no admittance
    cancellation occurred, so it stays finite and meaningful even at an LC
    resonance where the assembled matrix itself can vanish.  Singularity
    verdicts compare against SINGULAR_REL_TOL times this scale.
    """
    w = check_angular_frequency(omega)
    totals = np.zeros(net.node_count)
    for br in net.branches:
        ay = abs(branch_admittance(br.element, w))
        totals[br.node_a - 1] += ay
        totals[br.node_b - 1] += ay
    return float(totals.max())


@lru_cache(maxsize=128)
def _constant_complement(n: int) -> np.ndarray:
    """Orthonormal basis (n, n-1) of the complement of the constant vector.

    Columns 1..n-1 of the Householder reflector that maps e_1 onto the
    normalized constant vector.
    """
    v = np.full(n, 1.0 / math.sqrt(n))
    v[0] -= 1.0
    h = np.eye(n) - (2.0 / (v @ v)) * np.outer(v, v)
    q = h[:, 1:].copy()
    q.setflags(write=False)
    return q

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


def assemble_laplacian(net: Network, omega: float) -> np.ndarray:
    """Assemble the node-basis Laplacian of a network at omega.

    Parallel branches are merged by summing their admittances before
    negation, and each diagonal entry is the negated sum of its merged
    off-diagonal row, which keeps row sums at zero to machine precision.

    Returns
    -------
    numpy.ndarray
        Dense complex (node_count, node_count) matrix.
    """
    w = check_angular_frequency(omega)
    n = net.node_count
    adm = np.zeros((n, n), dtype=complex)
    for br in net.branches:
        y = branch_admittance(br.element, w)
        a, b = br.node_a - 1, br.node_b - 1
        adm[a, b] += y
        adm[b, a] += y
    lap = -adm
    np.fill_diagonal(lap, adm.sum(axis=1))
    return lap


def admittance_scale(net: Network, omega: float) -> float:
    """Largest per-node sum of branch admittance magnitudes.

    This is the magnitude the Laplacian diagonal would have if no admittance
    cancellation occurred, so it stays finite and meaningful even at an LC
    resonance where the assembled matrix itself can vanish.  Used as the
    reference scale for singularity verdicts.
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


def smallest_nontrivial_sigma(lap: np.ndarray) -> float:
    """Smallest eigenvalue of L^dagger L restricted off the constant vector.

    The constant vector is an exact null vector of a network Laplacian, so
    deflating it first isolates the physically meaningful part of the
    spectrum; the result vanishing (relative to scale) signals a resonance.
    """
    lap = np.asarray(lap, dtype=complex)
    n = lap.shape[0]
    if n < 2:
        raise ValidationError("need at least a 2-node Laplacian")
    q = _constant_complement(n)
    mq = lap @ q
    hr = mq.conj().T @ mq
    hr = 0.5 * (hr + hr.conj().T)
    w = np.linalg.eigvalsh(hr)
    return float(max(w[0], 0.0))

"""Branch admittances and the complex symmetric network Laplacian.

branch_admittances gives 1/R, 1/(j omega L), j omega C and 1/z for every
branch; assembly, admittance_scale and laplacian_parts read that array.
node_system is what every query reads: the Laplacian and the scale, with
the input errors of both.
The Laplacian carries the merged admittance sum of all branches joining a
node pair on the off-diagonal (negated) and the sum of incident admittances
on the diagonal, so every row sums to zero and the constant vector is an
exact null vector.  The matrix is symmetric (L == L^T) but not Hermitian
once any branch is reactive.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .network import ElementKind, Network

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


def check_band(omega_lo: float, omega_hi: float) -> tuple[float, float]:
    """Validate a band of angular frequencies: both valid and lo < hi."""
    lo, hi = check_angular_frequency(omega_lo), check_angular_frequency(omega_hi)
    if not lo < hi:
        raise ValidationError(f"need omega_lo < omega_hi, got ({lo}, {hi})")
    return lo, hi


# Globals: several times cheaper than ElementKind's attributes in a loop.
_INDUCTOR, _CAPACITOR = ElementKind.INDUCTOR, ElementKind.CAPACITOR


def branch_admittances(net: Network, omega: float) -> np.ndarray:
    """Complex admittance of every branch of net at omega, in branch order.

    Each value is CPython's scalar arithmetic on the element value, so
    every caller sees the same bits.  Raises ValidationError naming the
    first element whose admittance is not finite (for example a subnormal
    resistance or a huge capacitance).
    """
    w = check_angular_frequency(omega)
    ys = []
    for br in net.branches:
        kind, v = br.element.kind, br.element.value
        if kind is _INDUCTOR:
            wl = w * v  # 0 when the product underflows
            ys.append(-1j / wl if wl else complex(0.0, -math.inf))
        elif kind is _CAPACITOR:
            ys.append(1j * w * v)
        else:  # resistor or fixed impedance
            ys.append(1.0 / v)
    ys = np.array(ys, dtype=complex)
    bad = np.flatnonzero(~np.isfinite(ys))
    if bad.size:
        e = net.branches[bad[0]].element
        raise ValidationError(f"admittance of {e.kind.name.lower()} {e.value!r} "
                              f"at omega {w!r} is not finite")
    return ys


def _ends(net: Network) -> np.ndarray:
    """0-based nodes a_0, b_0, a_1, b_1, ... joined by the branches, in order."""
    ends = [end for br in net.branches for end in (br.node_a, br.node_b)]
    return np.array(ends, np.intp) - 1


def _stamp(net: Network, ys: np.ndarray) -> np.ndarray:
    """Node-basis Laplacian of net with ys[k] the admittance of branch k.

    Parallel branches merge by summing their admittances in branch order,
    and each diagonal entry is the negated sum of its merged off-diagonal
    row, which keeps row sums at zero to machine precision.  Raises
    ValidationError when an entry is not finite; a non-finite entry makes
    the diagonal of its row non-finite, so the diagonal is what is tested.
    """
    n = net.node_count
    ends = _ends(net)
    adm = np.zeros((n, n), dtype=ys.dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        # (a, b) then (b, a) per branch: the accumulation order of a loop
        np.add.at(adm, (ends, ends.reshape(-1, 2)[:, ::-1].ravel()), np.repeat(ys, 2))
        diag = adm.sum(axis=1)
    if not np.isfinite(diag).all():
        raise ValidationError("a merged admittance of the network is not finite")
    lap = -adm
    np.fill_diagonal(lap, diag)
    return lap


def assemble_laplacian(net: Network, omega: float) -> np.ndarray:
    """Assemble the node-basis Laplacian of a network at omega.

    Returns
    -------
    numpy.ndarray
        Dense complex (node_count, node_count) matrix.

    Raises ValidationError when a branch admittance or a merged admittance
    (a sum of parallel branches, or a diagonal) is not finite.
    """
    return _stamp(net, branch_admittances(net, omega))


def laplacian_parts(net: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant Laplacians (C, Y, Gamma), L(omega) = Y + j omega C + Gamma/(j omega).

    C holds the capacitances and Gamma the inverse inductances (both real),
    Y the resistor and fixed-impedance admittances (complex).  Raises
    ValidationError when an entry is not finite.
    """
    ys = branch_admittances(net, 1.0)
    kinds = np.array([br.element.kind for br in net.branches])
    cap, ind = kinds == _CAPACITOR, kinds == _INDUCTOR
    return (
        _stamp(net, np.where(cap, ys.imag, 0.0)),
        _stamp(net, np.where(cap | ind, 0.0, ys)),
        _stamp(net, np.where(ind, -ys.imag, 0.0)),  # 1/(j L) = -j/L
    )


def admittance_scale(net: Network, omega: float) -> float:
    """Largest per-node sum of branch admittance magnitudes.

    This is the magnitude the Laplacian diagonal would have if no admittance
    cancellation occurred, so it stays finite and meaningful even at an LC
    resonance where the assembled matrix itself can vanish.  Singularity
    verdicts compare against SINGULAR_REL_TOL times this scale.  Raises
    ValidationError where branch_admittances does and when 2 * scale, which
    bounds every row sum of |L| and so every |lambda| (Gershgorin), is not
    finite.
    """
    ys = branch_admittances(net, omega)
    # the bits of a loop: hypot is abs() of a complex, bincount adds in order
    weights = np.repeat(np.hypot(ys.real, ys.imag), 2)
    scale = float(np.bincount(_ends(net), weights, net.node_count).max())
    if not math.isfinite(2.0 * scale):
        raise ValidationError(f"twice the admittance scale {scale!r} S is not finite")
    return scale


def node_system(net: Network, omega: float) -> tuple[np.ndarray, float]:
    """assemble_laplacian and admittance_scale of net at omega, with the
    input errors of both; each call evaluates the branch admittances."""
    return assemble_laplacian(net, omega), admittance_scale(net, omega)

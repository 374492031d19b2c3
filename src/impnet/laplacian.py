"""Branch admittances and the complex symmetric network Laplacian.

branch_admittances gives 1/R, 1/(j omega L), j omega C and 1/z for every
branch; assembly, admittance_scale and laplacian_parts read that array.
node_system is what every query reads: the Laplacian in units of 2^e
siemens, the scale and e, with the input errors of both.
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
from .network import KIND_CODES, ElementKind, Network, _as_number, _column_element

# A Laplacian is singular at omega when a pivot (direct route) or a
# factorization value |lambda| (spectral route) is at or below this fraction
# of admittance_scale(net, omega).  The one singularity rule of the package,
# except that takagi_rows first zeroes every |lambda| at or below its noise
# floor, 16 n eps max|lambda|, which can be the larger once n >~ 15 (ROADMAP
# item 2).
SINGULAR_REL_TOL = 1e-13


def check_angular_frequency(omega: float) -> float:
    """Validate omega (rad/s): a real number, positive and finite."""
    w = _as_number(omega)
    if w is None:
        raise ValidationError(f"angular frequency must be a real number, got {omega!r}")
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


def branch_admittances(net: Network, omega: float) -> np.ndarray:
    """Complex admittance of every branch of net at omega, in branch order.

    R and Z branches take CPython's quotient 1.0 / z, one value at a time:
    numpy's complex division multiplies by a reciprocal, so its last bit can
    differ.  L and C branches take array formulas that numpy and CPython
    round alike: -1j / (omega L), or (-1j / omega) / L where omega L under-
    or overflows, and 1j * (omega C).  Raises ValidationError naming the
    first element whose admittance is 0 or not finite (for example a tiny
    omega C, a subnormal resistance or a huge capacitance).
    """
    w = check_angular_frequency(omega)
    re = net.values.real
    ind = net.kinds == KIND_CODES[ElementKind.INDUCTOR]
    cap = net.kinds == KIND_CODES[ElementKind.CAPACITOR]
    rz = ~(ind | cap)
    ys = np.empty(re.shape, complex)
    ys[rz] = [1.0 / z for z in net.values[rz].tolist()]
    with np.errstate(all="ignore"):  # 0 and non-finite admittances rejected below
        wv = w * re  # omega L, or omega C
        ys[cap] = 1j * wv[cap]
        ys[ind] = -1j / wv[ind]
        np.divide(-1.0 / w, re, out=ys.imag, where=ind & ((wv == 0.0) | (wv == math.inf)))
    bad = ~np.isfinite(ys) | (ys == 0)
    if np.count_nonzero(bad):
        k = bad.argmax()
        e, y = _column_element(net.kinds[k], net.values[k]), ys[k]
        raise ValidationError(f"admittance of {e.kind.name.lower()} {e.value!r} "
                              f"at omega {w!r} is {'not finite' if y else 0}")
    return ys


def _stamp(net: Network, ys: np.ndarray) -> np.ndarray:
    """Node-basis Laplacian of net with ys[k] the admittance of branch k.

    Parallel branches merge by summing their admittances in branch order,
    and each diagonal entry is the negated sum of its merged off-diagonal
    row, which keeps row sums at zero to machine precision.  The merged
    admittances are summed, negated and given their diagonal in the one
    n x n array returned.  Raises ValidationError when an entry is not
    finite; a non-finite entry makes the diagonal of its row non-finite, so
    the diagonal is what is tested.
    """
    n = net.node_count
    lap = np.zeros((n, n), dtype=ys.dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        # (a, b) then (b, a) per branch: the accumulation order of a loop
        np.add.at(lap, (net.ends.ravel(), net.ends[:, ::-1].ravel()), np.repeat(ys, 2))
        diag = lap.sum(axis=1)
    if not np.isfinite(diag).all():
        raise ValidationError("a merged admittance of the network is not finite")
    np.negative(lap, out=lap)
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
    cap = net.kinds == KIND_CODES[ElementKind.CAPACITOR]
    ind = net.kinds == KIND_CODES[ElementKind.INDUCTOR]
    c = _stamp(net, np.where(cap, ys.imag, 0.0))
    rz = ~(cap | ind)
    y = _stamp(net, np.where(rz, ys, 0.0)) if rz.any() else np.zeros_like(c, complex)
    return c, y, _stamp(net, np.where(ind, -ys.imag, 0.0))  # 1/(j L) = -j/L


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
    scale = float(np.bincount(net.ends.ravel(), weights, net.node_count).max())
    if not math.isfinite(2.0 * scale):
        raise ValidationError(f"twice the admittance scale {scale!r} S is not finite")
    return scale


def node_system(net: Network, omega: float) -> tuple[np.ndarray, float, int]:
    """assemble_laplacian and admittance_scale of net at omega, with the
    input errors of both, and the unit of every query: L scaled in place to
    2^e S, 2^(e-1) <= scale < 2^e, exactly above the subnormal range, so a
    network and its 2^k-rescaled twin hand LAPACK the same bits."""
    lap, scale = assemble_laplacian(net, omega), admittance_scale(net, omega)
    e = math.frexp(scale)[1]
    # on the float view: a product with 2.0**-e overflows for subnormal scales
    np.ldexp(lap.view(float), -e, out=lap.view(float))
    return lap, scale, e


def to_float_range(a: np.ndarray, e: int, what: str) -> np.ndarray:
    """Complex a in units of 2^-e (ohm, or volt per ampere) scaled back in
    place; ValidationError "<what> exceeds the float range" past it."""
    with np.errstate(over="ignore"):  # rejected below
        for part in (a.real, a.imag):
            np.ldexp(part, -e, out=part)
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} exceeds the float range")
    return a

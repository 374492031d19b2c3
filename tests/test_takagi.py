"""Complex symmetric factorization kernel."""

import math

import numpy as np
import pytest

from impnet import (
    ConvergenceError,
    Element,
    NoTrivialZeroError,
    NotSymmetricError,
    ValidationError,
    admittance_scale,
    assemble_laplacian,
    classify_zero_modes,
    ring_network,
    takagi_decompose,
)
from conftest import SQRT3, lc_parallel, random_connected_network, random_symmetric

SQRT2 = math.sqrt(2.0)


def _residual(l, dec):
    return np.abs(l @ dec.u - dec.u.conj() * dec.lam).max()


def _unitarity(dec):
    n = dec.order
    return np.abs(dec.u.conj().T @ dec.u - np.eye(n)).max()


# ── known triangle factorization ─────────────────────────────────────────

def test_triangle_sigma_values(triangle):
    dec = takagi_decompose(assemble_laplacian(triangle, 1.0))
    want = np.array([0.0, 3.0 - 2.0 * SQRT2, 3.0 + 2.0 * SQRT2])
    assert np.abs(dec.sigma - want).max() <= 1e-10


def test_triangle_lambda_magnitudes(triangle):
    dec = takagi_decompose(assemble_laplacian(triangle, 1.0))
    mags = np.abs(dec.lam)
    want = np.array([0.0, SQRT2 - 1.0, SQRT2 + 1.0])
    assert np.abs(mags - want).max() <= 1e-12


def test_triangle_phases_after_gauge_transport(triangle):
    # The published solution of this example fixes a particular gauge for
    # each mode.  Any other gauge u = e^{i phi} psi carries the value
    # lambda -> lambda e^{2 i phi}, so transporting our computed pair back
    # through the overlap phase must reproduce the published values.
    lap = assemble_laplacian(triangle, 1.0)
    dec = takagi_decompose(lap)

    psi2 = np.array([
        2.0 - SQRT2 + 1j * SQRT3,
        -SQRT2 - 1.0 - 1j * SQRT3,
        2.0 * SQRT2 - 1.0,
    ]) / math.sqrt(24.0 - 6.0 * SQRT2)
    psi3 = np.array([
        2.0 + SQRT2 + 1j * SQRT3,
        SQRT2 - 1.0 - 1j * SQRT3,
        -2.0 * SQRT2 - 1.0,
    ]) / math.sqrt(24.0 + 6.0 * SQRT2)
    phase2 = (3.0 * SQRT2 - 2.0 + 1j * SQRT3 * (2.0 * SQRT2 + 1.0)) / 7.0
    phase3 = (3.0 * SQRT2 + 2.0 + 1j * SQRT3 * (2.0 * SQRT2 - 1.0)) / 7.0
    published = {
        1: (SQRT2 - 1.0) * phase2,
        2: (SQRT2 + 1.0) * phase3,
    }
    for idx, (psi, lam_pub) in zip((1, 2), [(psi2, published[1]), (psi3, published[2])]):
        overlap = np.vdot(psi, dec.u[:, idx])
        assert abs(abs(overlap) - 1.0) <= 1e-12  # same mode, pure phase apart
        gauge = overlap / abs(overlap)
        lam_transported = dec.lam[idx] * gauge.conjugate() ** 2
        assert abs(lam_transported - lam_pub) <= 1e-12


def test_triangle_zero_value_is_exact(triangle):
    dec = takagi_decompose(assemble_laplacian(triangle, 1.0))
    assert dec.lam[0] == 0.0


# ── defining relation on random inputs ───────────────────────────────────

def test_defining_relation_random_matrices():
    rng = np.random.default_rng(2024)
    for trial in range(30):
        n = int(rng.integers(2, 17))
        l = random_symmetric(rng, n)
        dec = takagi_decompose(l)
        scale = np.linalg.norm(l)
        assert _residual(l, dec) <= 1e-10 * scale, f"trial {trial}"
        assert _unitarity(dec) <= 1e-10, f"trial {trial}"
        assert np.all(np.diff(dec.sigma) >= 0.0)
        assert np.abs(np.abs(dec.lam) ** 2 - dec.sigma).max() <= 1e-10 * scale ** 2


def test_reconstruction_from_modes():
    # The factorization is equivalent to L = sum_a lam_a (u_a*) (u_a*)^T,
    # a gauge-free statement.
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        l = random_symmetric(rng, n)
        dec = takagi_decompose(l)
        rebuilt = dec.u.conj() @ np.diag(dec.lam) @ dec.u.conj().T
        assert np.abs(rebuilt - l).max() <= 1e-10 * np.linalg.norm(l)


def test_reported_residual_matches_recomputed():
    rng = np.random.default_rng(8)
    l = random_symmetric(rng, 7)
    dec = takagi_decompose(l)
    recomputed = max(
        np.linalg.norm(l @ dec.u[:, a] - dec.lam[a] * dec.u[:, a].conj())
        for a in range(7)
    )
    assert dec.residual == pytest.approx(recomputed, rel=1e-12)


def test_determinism():
    rng = np.random.default_rng(99)
    l = random_symmetric(rng, 9)
    d1 = takagi_decompose(l)
    d2 = takagi_decompose(l)
    assert np.array_equal(d1.u, d2.u)
    assert np.array_equal(d1.lam, d2.lam)


# ── real input specialization ────────────────────────────────────────────

def test_real_symmetric_input_gives_real_modes():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((6, 6))
    l = ((a + a.T) / 2.0).astype(complex)
    dec = takagi_decompose(l)
    # for a real symmetric matrix the construction reduces to the ordinary
    # eigenproblem: phases are 0 or pi, so values are real and modes real
    assert np.abs(dec.lam.imag).max() <= 1e-12 * np.linalg.norm(l)
    assert np.abs(dec.u.imag).max() <= 1e-12


# ── degenerate clusters ──────────────────────────────────────────────────

@pytest.mark.parametrize("n, element", [
    *(pytest.param(n, Element.capacitor(1.0), id=str(n)) for n in (4, 5, 6, 8)),
    pytest.param(6, Element.resistor(1.0), id="resistor-6"),
])
def test_capacitor_ring_degenerate_clusters(n, element):
    # Circulant ring: sigma values come in exactly-degenerate pairs.  The
    # capacitor ring's Laplacian is purely imaginary, the resistor ring's
    # purely real.
    net = ring_network(n, [element] * n)
    lap = assemble_laplacian(net, 1.0)
    dec = takagi_decompose(lap)
    scale = np.linalg.norm(lap)
    assert _residual(lap, dec) <= 1e-10 * scale
    assert _unitarity(dec) <= 1e-10


def test_constructed_exact_degeneracy_mixed_phases():
    # Build L = Q diag(lam) Q^T with equal |lam| but different phases: the
    # sigma cluster is exact while no common eigenbasis trick applies.
    rng = np.random.default_rng(31)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    lam = np.array([
        2.0, 2.0 * np.exp(1j * np.pi / 3.0), 0.5, 2.0 * np.exp(-1j * 0.8), 1.0,
    ])
    l = q @ np.diag(lam) @ q.T
    dec = takagi_decompose(l)
    scale = np.linalg.norm(l)
    assert _residual(l, dec) <= 1e-10 * scale
    assert _unitarity(dec) <= 1e-10
    assert np.abs(np.sort(np.abs(dec.lam)) - np.array([0.5, 1.0, 2.0, 2.0, 2.0])).max() <= 1e-12


def test_wide_spread_resistor_networks():
    # Resistances spanning ten decades: every |lambda| must match the
    # singular values of L to the accuracy of one backward-stable solve,
    # and the trivial mode must always be found.
    rng = np.random.default_rng(2026)
    for trial in range(50):
        net = random_connected_network(rng, 30, 30, kinds="R", decades=5.0)
        lap = assemble_laplacian(net, 1.0)
        dec = takagi_decompose(lap)
        classify_zero_modes(dec, admittance_scale(net, 1.0))
        mags = np.abs(dec.lam)
        want = np.sort(np.linalg.svd(lap, compute_uv=False))
        assert np.abs(mags - want).max() <= 1e-12 * mags.max(), f"trial {trial}"
        assert _unitarity(dec) <= 1e-12, f"trial {trial}"


# ── error paths ──────────────────────────────────────────────────────────

def test_not_symmetric_rejected():
    l = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    with pytest.raises(NotSymmetricError):
        takagi_decompose(l)


def test_non_square_rejected():
    with pytest.raises(ValidationError):
        takagi_decompose(np.zeros((2, 3), dtype=complex))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_rejected(bad):
    l = np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex)
    l[0, 0] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        takagi_decompose(l)


# ── zero-mode classification ─────────────────────────────────────────────

def test_classify_triangle_single_trivial_zero(triangle):
    dec = takagi_decompose(assemble_laplacian(triangle, 1.0))
    cls = classify_zero_modes(dec, admittance_scale(triangle, 1.0))
    assert cls.zero_indices == (0,)
    assert cls.trivial_index == 0
    assert cls.nontrivial_zero_count == 0


def test_classify_resonant_ring_has_nontrivial_zero():
    # L, L, C ring resonates where the reactances cancel: omega = 1/sqrt(2).
    net = ring_network(3, [
        Element.inductor(1.0), Element.inductor(1.0), Element.capacitor(1.0),
    ])
    omega = 1.0 / math.sqrt(2.0)
    dec = takagi_decompose(assemble_laplacian(net, omega))
    cls = classify_zero_modes(dec, admittance_scale(net, omega))
    assert cls.nontrivial_zero_count == 1
    assert cls.trivial_index in cls.zero_indices


def test_classify_null_laplacian_two_zero_modes():
    # A 2-node LC pair at resonance cancels the whole Laplacian; the zero
    # cluster is the entire space and the constant mode must still be found.
    net = lc_parallel(1.0, 1.0)
    lap = assemble_laplacian(net, 1.0)
    assert np.abs(lap).max() <= 1e-15
    dec = takagi_decompose(lap)
    cls = classify_zero_modes(dec, admittance_scale(net, 1.0))
    assert cls.nontrivial_zero_count == 1


def test_classify_requires_trivial_mode():
    # diag(0, 1, 2) is complex symmetric with a zero mode along e_1, far
    # from the constant vector: not a network Laplacian, must be refused.
    dec = takagi_decompose(np.diag([0.0, 1.0, 2.0]).astype(complex))
    with pytest.raises(NoTrivialZeroError):
        classify_zero_modes(dec, 2.0)


def test_classify_no_zero_modes_at_all():
    dec = takagi_decompose(np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(NoTrivialZeroError):
        classify_zero_modes(dec, 2.0)

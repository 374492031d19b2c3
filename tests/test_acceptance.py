"""End-to-end acceptance suite.

One test per release criterion; each prints a single summary line on
success and enforces the stated tolerance and runtime budget.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from impnet import (
    Boundary,
    Element,
    ImpedanceStatus,
    assemble_laplacian,
    grid_network,
    grid_resonances_analytic,
    impedance_matrix,
    eigenvalue_product_identity_check,
    find_resonances,
    ring_network,
    solve_direct,
    takagi_decompose,
    two_point_impedance,
)
from impnet.direct import SingularSystem
from conftest import (
    SQRT3,
    lc_parallel,
    random_connected_network,
    random_symmetric,
    resistor_effective_resistance,
)


def _report(name: str, detail: str, started: float) -> None:
    print(f"PASS {name}: {detail} ({time.monotonic() - started:.2f} s)")


# ── criterion 1: triangle impedances ─────────────────────────────────────

def test_criterion_01_triangle_impedances(triangle):
    t0 = time.monotonic()
    want = {(1, 2): 3 + 1j * SQRT3, (2, 3): 3 - 1j * SQRT3, (3, 1): 0j}
    worst = 0.0
    for (p, q), z in want.items():
        r = two_point_impedance(triangle, 1.0, p, q)
        assert abs(r.value.real - z.real) <= 1e-9
        assert abs(r.value.imag - z.imag) <= 1e-9
        worst = max(worst, abs(r.value - z))
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report("criterion 1", f"triangle impedances, worst dev {worst:.2e}", t0)


# ── criterion 2: triangle sigma spectrum ─────────────────────────────────

def test_criterion_02_triangle_spectrum(triangle):
    t0 = time.monotonic()
    dec = takagi_decompose(assemble_laplacian(triangle, 1.0))
    want = np.array([0.0, 3.0 - 2.0 * math.sqrt(2.0), 3.0 + 2.0 * math.sqrt(2.0)])
    dev = np.abs(dec.sigma - want).max()
    assert dev <= 1e-10
    _report("criterion 2", f"sigma spectrum, worst dev {dev:.2e}", t0)


# ── criterion 3: uniform ring closed form ────────────────────────────────

def test_criterion_03_ring_closed_form():
    t0 = time.monotonic()
    worst = 0.0
    for n in range(3, 13):
        for z in (1 + 0j, 2 + 3j, -1j):
            net = ring_network(n, [Element.impedance(z)] * n)
            table = impedance_matrix(net, 1.0)
            for p in range(1, n + 1):
                for q in range(p + 1, n + 1):
                    d = abs(p - q)
                    want = z * d * (1.0 - d / n)
                    got = table.value[p - 1, q - 1]
                    rel = abs(got - want) / abs(want)
                    worst = max(worst, rel)
                    assert rel <= 1e-9, (n, z, p, q)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report("criterion 3", f"rings N=3..12, worst rel dev {worst:.2e}", t0)


# ── criterion 4: two-node LC resonance localization ──────────────────────

def test_criterion_04_lc_resonance_localization():
    t0 = time.monotonic()
    for inductance, capacitance in ((1.0, 1.0), (2.0, 0.5), (1e-3, 1e-6)):
        omega_star = 1.0 / math.sqrt(inductance * capacitance)
        rep = find_resonances(
            lc_parallel(inductance, capacitance), 0.1 * omega_star, 10.0 * omega_star,
        )
        assert rep.distinct_count == 1, (inductance, capacitance, rep.omegas)
        assert abs(rep.omegas[0] - omega_star) <= 1e-9 * omega_star
    _report("criterion 4", "LC resonance located to 1e-9 for 3 (L, C) pairs", t0)


# ── criterion 5: grid resonance spectra ──────────────────────────────────

def test_criterion_05_grid_resonance_spectra():
    t0 = time.monotonic()
    for m, n in ((3, 2), (3, 3), (4, 3)):
        analytic = grid_resonances_analytic(m, n, 1.0, 1.0)
        net = grid_network(m, n, 1.0, 1.0)
        swept = find_resonances(
            net, 0.8 * min(analytic.omegas), 1.2 * max(analytic.omegas),
        )
        assert swept.distinct_count == analytic.distinct_count, (m, n)
        for ws, wa in zip(swept.omegas, analytic.omegas):
            assert abs(ws - wa) <= 1e-6 * wa, (m, n, ws, wa)
    worst = 0.0
    for m, boundary in ((8, Boundary.FREE), (8, Boundary.TOROIDAL),
                        (12, Boundary.FREE), (12, Boundary.TOROIDAL)):
        analytic = grid_resonances_analytic(m, m, 1.0, 1.0, boundary)
        net = grid_network(m, m, 1.0, 1.0, boundary)
        found = find_resonances(
            net, 0.8 * min(analytic.omegas), 1.2 * max(analytic.omegas),
        )
        assert found.distinct_count == analytic.distinct_count, (m, boundary)
        dev = np.abs(np.array(found.omegas) / analytic.omegas - 1.0).max()
        worst = max(worst, dev)
        assert dev <= 1e-12, (m, boundary, dev)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(
        "criterion 5",
        "grid spectra (3,2), (3,3), (4,3) match; 8x8 and 12x12 free and "
        f"toroidal exact, worst rel dev {worst:.2e}",
        t0,
    )


# ── criterion 6: ring sum rule flags resonance ──────────────────────────

def _random_reactance_ring(rng):
    """Ring of 3..8 reactances with at least one inductor and capacitor."""
    while True:
        n = int(rng.integers(3, 9))
        kinds = rng.integers(0, 2, size=n)
        if kinds.min() == kinds.max():
            continue  # need both kinds for a sum-rule root
        elements = [
            Element.inductor(float(10.0 ** rng.uniform(-1, 1))) if k == 0
            else Element.capacitor(float(10.0 ** rng.uniform(-1, 1)))
            for k in kinds
        ]
        return n, elements


def _reactance_sum(elements, omega):
    total = 0.0
    for el in elements:
        if el.kind.value == "L":
            total += omega * el.value
        else:
            total -= 1.0 / (omega * el.value)
    return total


def test_criterion_06_sum_rule_resonances_flagged():
    t0 = time.monotonic()
    rng = np.random.default_rng(1606)
    worst = 0.0
    for trial in range(20):
        n, elements = _random_reactance_ring(rng)
        omega_star = brentq(
            lambda w: _reactance_sum(elements, w), 1e-4, 1e4, rtol=1e-15,
        )
        net = ring_network(n, elements)
        p = int(rng.integers(1, n + 1))
        q = p % n + 1
        r = two_point_impedance(net, omega_star, p, q)
        assert r.status is ImpedanceStatus.RESONANT, (trial, n, omega_star)
        assert r.resonant_mode_count >= 1
        # the sum rule's one root in closed form: omega^2 = sum(1/C) / sum(L)
        closed = math.sqrt(
            sum(1.0 / el.value for el in elements if el.kind.value == "C")
            / sum(el.value for el in elements if el.kind.value == "L")
        )
        found = find_resonances(net, 1e-4, 1e4)
        assert found.distinct_count == 1, (trial, found.omegas)
        dev = abs(found.omegas[0] / closed - 1.0)
        worst = max(worst, dev)
        assert dev <= 1e-12, (trial, dev)
    _report(
        "criterion 6",
        f"20 sum-rule roots all flagged resonant and found, worst rel dev {worst:.2e}",
        t0,
    )


# ── criterion 7: eigenvalue product identity ─────────────────────────────

def test_criterion_07_product_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(1607)
    worst = 0.0
    done = 0
    while done < 20:
        n, elements = _random_reactance_ring(rng)
        omega = float(10.0 ** rng.uniform(-1, 1))
        xs = [_reactance_sum([el], omega) for el in elements]
        if abs(sum(xs)) < 1e-3 * sum(abs(x) for x in xs):
            continue  # too close to resonance; identity is ill-conditioned
        dev = eigenvalue_product_identity_check(elements, omega)
        worst = max(worst, dev)
        assert dev <= 1e-9, (done, n, omega, dev)
        done += 1
    _report("criterion 7", f"20 ring identities, worst rel dev {worst:.2e}", t0)


# ── criterion 8: spectral vs direct on random networks ──────────────────

def test_criterion_08_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(1608)
    kept = 0
    skipped = 0
    worst = 0.0
    while kept < 200:
        net = random_connected_network(rng, 4, 12)
        omega = float(10.0 ** rng.uniform(-1, 1))
        lap = assemble_laplacian(net, omega)
        abs_lambda_max = float(np.linalg.norm(lap, 2))
        table = impedance_matrix(net, omega)
        if table.min_nontrivial_abs_lambda < 1e-3 * abs_lambda_max:
            skipped += 1
            continue
        n = net.node_count
        for _ in range(5):
            p = int(rng.integers(1, n + 1))
            q = int(rng.integers(1, n + 1))
            if p == q:
                q = p % n + 1
            spectral = table.value[p - 1, q - 1]
            direct = solve_direct(net, omega, p, q)
            assert not isinstance(direct, SingularSystem)
            denom = max(abs(spectral), abs(direct))
            rel = abs(spectral - direct) / denom if denom > 0 else 0.0
            worst = max(worst, rel)
            assert rel <= 1e-8, (kept, p, q, rel)
        kept += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(
        "criterion 8",
        f"200 networks (skipped {skipped} near-singular), worst rel dev {worst:.2e}",
        t0,
    )


# ── criterion 9: factorization kernel properties ─────────────────────────

def _degenerate_by_construction(rng, n):
    """Complex symmetric matrix with exactly repeated |value| clusters."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    mags = np.ones(n)
    mags[: n // 2] = 2.0
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n))
    return q @ np.diag(mags * phases) @ q.T


def _circulant_symmetric(rng, n):
    """Complex symmetric circulant: coefficients mirror-symmetric, so the
    sigma spectrum has exactly degenerate pairs."""
    c = np.zeros(n, dtype=complex)
    c[0] = rng.standard_normal() + 1j * rng.standard_normal()
    for k in range(1, n // 2 + 1):
        v = rng.standard_normal() + 1j * rng.standard_normal()
        c[k] = v
        c[n - k] = v
    return np.array([[c[(j - i) % n] for j in range(n)] for i in range(n)])


def test_criterion_09_kernel_properties():
    t0 = time.monotonic()
    rng = np.random.default_rng(1609)
    orders = (2, 3, 5, 8, 16, 32, 64)
    worst_res = worst_unit = worst_sv = 0.0
    for i in range(50):
        n = orders[i % len(orders)]
        if i % 5 == 3:
            l = _degenerate_by_construction(rng, n)
        elif i % 5 == 4:
            l = _circulant_symmetric(rng, n)
        else:
            l = random_symmetric(rng, n)
        dec = takagi_decompose(l)
        norm_f = float(np.linalg.norm(l))
        res = np.abs(l @ dec.u - dec.u.conj() * dec.lam).max()
        unit = np.abs(dec.u.conj().T @ dec.u - np.eye(n)).max()
        sv = np.linalg.svd(l, compute_uv=False)
        mags = np.sort(np.abs(dec.lam))[::-1]
        sv_dev = float(
            (np.abs(mags - sv) / np.maximum(sv, np.finfo(float).eps * sv[0])).max()
        )
        worst_res = max(worst_res, res / norm_f)
        worst_unit = max(worst_unit, unit)
        worst_sv = max(worst_sv, sv_dev)
        assert res <= 1e-10 * norm_f, (i, n)
        assert unit <= 1e-10, (i, n)
        assert sv_dev <= 1e-10, (i, n)
    _report(
        "criterion 9",
        "50 matrices: worst residual "
        f"{worst_res:.2e}*normF, unitarity {worst_unit:.2e}, |value|-vs-SVD "
        f"{worst_sv:.2e}",
        t0,
    )


# ── criterion 10: resistor networks reduce to the real formula ───────────

def test_criterion_10_resistor_reduction():
    t0 = time.monotonic()
    rng = np.random.default_rng(1610)
    worst = 0.0
    for trial in range(20):
        net = random_connected_network(rng, 4, 10, kinds="R")
        n = net.node_count
        p = int(rng.integers(1, n + 1))
        q = int(rng.integers(1, n + 1))
        if p == q:
            q = p % n + 1
        want = resistor_effective_resistance(net, p, q)
        got = two_point_impedance(net, 1.0, p, q).value
        rel = abs(got.real - want) / abs(want)
        worst = max(worst, rel)
        assert rel <= 1e-10, (trial, p, q)
        assert abs(got.imag) <= 1e-12 * abs(got)
    _report("criterion 10", f"20 resistor networks, worst rel dev {worst:.2e}", t0)

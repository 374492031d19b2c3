"""Resonance detection: closed forms, ring identities, the LC pencil."""

import json
import math

import numpy as np
import pytest

from impnet import (
    Boundary,
    DetectionMethod,
    Element,
    NearSingularError,
    ImpedanceStatus,
    ValidationError,
    eigenvalue_product_identity_check,
    find_resonances,
    grid_network,
    grid_resonances_analytic,
    ring_network,
    ring_reactance_resonance_check,
    two_point_impedance,
)
from conftest import lc_parallel

# ── closed-form grid frequencies ─────────────────────────────────────────

def test_free_grid_3x2_frequencies():
    rep = grid_resonances_analytic(3, 2, 1.0, 1.0)
    want = sorted([
        math.sin(math.pi / 4.0) / math.sin(math.pi / 6.0),
        math.sin(math.pi / 4.0) / math.sin(2.0 * math.pi / 6.0),
    ])
    assert rep.method is DetectionMethod.ANALYTIC
    assert rep.raw_count == 2
    assert np.allclose(rep.omegas, want, rtol=1e-14)


def test_free_grid_3x3_merges_coincident_frequencies():
    rep = grid_resonances_analytic(3, 3, 1.0, 1.0)
    # four (i, j) combinations, but omega_11 = omega_22: three distinct
    assert rep.raw_count == 4
    assert rep.distinct_count == 3
    want = [1.0 / math.sqrt(3.0), 1.0, math.sqrt(3.0)]
    assert np.allclose(rep.omegas, want, rtol=1e-14)


def test_free_grid_4x3_six_distinct():
    rep = grid_resonances_analytic(4, 3, 1.0, 1.0)
    assert rep.raw_count == 6
    assert rep.distinct_count == 6


def test_grid_frequencies_scale_with_lc():
    base = grid_resonances_analytic(3, 3, 1.0, 1.0)
    scaled = grid_resonances_analytic(3, 3, 4.0, 9.0)
    factor = 1.0 / math.sqrt(4.0 * 9.0)
    assert np.allclose(scaled.omegas, np.array(base.omegas) * factor, rtol=1e-14)


def test_grid_analytic_validation():
    with pytest.raises(ValidationError):
        grid_resonances_analytic(1, 3, 1.0, 1.0)
    with pytest.raises(ValidationError):
        grid_resonances_analytic(3, 3, 0.0, 1.0)


# ── pencil agrees with closed forms ───────────────────────────────────────

@pytest.mark.parametrize("shape", [(3, 2), (3, 3), (4, 3)])
def test_sweep_matches_analytic_free_grid(shape):
    m, n = shape
    rep_a = grid_resonances_analytic(m, n, 1.0, 1.0)
    net = grid_network(m, n, 1.0, 1.0)
    rep_s = find_resonances(net, min(rep_a.omegas) * 0.8, max(rep_a.omegas) * 1.2)
    assert rep_s.distinct_count == rep_a.distinct_count
    for ws, wa in zip(rep_s.omegas, rep_a.omegas):
        assert abs(ws - wa) <= 1e-6 * wa


@pytest.mark.parametrize("shape,count", [((2, 2), 1), ((3, 3), 1), ((4, 3), 2)])
def test_sweep_matches_toroidal_enumeration(shape, count):
    # Direct enumeration of |sin(n pi/N)/sin(m pi/M)| collapses more
    # coincidences than the integral-part counting rule [(M+1)/2][(N+1)/2]
    # predicts for these shapes (that rule gives 1, 4, 4).  The pencil is the
    # ground truth here and it agrees with the enumeration.
    m, n = shape
    rep_a = grid_resonances_analytic(m, n, 1.0, 1.0, Boundary.TOROIDAL)
    assert rep_a.distinct_count == count
    counting_rule = ((m + 1) // 2) * ((n + 1) // 2)
    if counting_rule != rep_a.distinct_count:
        print(
            f"toroidal ({m},{n}): enumeration gives {rep_a.distinct_count} "
            f"distinct frequencies, counting rule [(M+1)/2][(N+1)/2] gives "
            f"{counting_rule}"
        )
    net = grid_network(m, n, 1.0, 1.0, Boundary.TOROIDAL)
    rep_s = find_resonances(net, min(rep_a.omegas) * 0.8, max(rep_a.omegas) * 1.2)
    assert rep_s.distinct_count == rep_a.distinct_count
    for ws, wa in zip(rep_s.omegas, rep_a.omegas):
        assert abs(ws - wa) <= 1e-6 * wa


def test_sweep_lc_parallel_single_sharp_resonance():
    rep = find_resonances(lc_parallel(1.0, 1.0), 0.5, 2.0)
    assert rep.distinct_count == 1
    assert abs(rep.omegas[0] - 1.0) <= 1e-9


def test_sweep_resistor_network_finds_nothing():
    net = ring_network(4, [Element.resistor(1.0)] * 4)
    rep = find_resonances(net, 0.1, 10.0)
    assert rep.omegas == ()
    assert rep.distinct_count == 0


@pytest.mark.parametrize("k", [1e170, 1e-170, 1e300, 1e-300])
def test_sweep_independent_of_units(k):
    # The L-L-C ring with every impedance scaled by k: sigma of the raw
    # Laplacian would underflow (k >= 1e170) or overflow (k <= 1e-170).
    net = ring_network(3, [
        Element.inductor(k), Element.capacitor(1.0 / k), Element.inductor(k),
    ])
    rep = find_resonances(net, 0.1, 10.0)
    assert rep.distinct_count == 1
    assert abs(rep.omegas[0] * math.sqrt(2.0) - 1.0) <= 1e-7
    # the residual is the smallest |lambda| in siemens, tiny against 1/k
    assert 0.0 <= rep.residuals[0] <= 1e-6 / k
    json.dumps({"omegas": rep.omegas, "residuals": rep.residuals}, allow_nan=False)


@pytest.mark.parametrize("lo,hi", [(1e-9, 1e3), (1e-3, 1e9)])
def test_pencil_wide_ranges_find_every_grid_resonance(lo, hi):
    # The scaling does not depend on the range: all 43 closed-form values of
    # the 8x8 free grid are found on both ranges, and any further frequency
    # (near omega -> 0, where |lambda| ~ omega C drops below the rule) is one
    # the impedance verdict calls RESONANT.
    want = np.array(grid_resonances_analytic(8, 8, 1.0, 1.0).omegas)
    net = grid_network(8, 8, 1.0, 1.0)
    got = np.array(find_resonances(net, lo, hi).omegas)
    dev = np.abs(got[:, None] - want[None, :]) / want[None, :]
    assert (dev.min(axis=0) <= 1e-12).all()
    for w in got[dev.min(axis=1) > 1e-12]:
        assert two_point_impedance(net, float(w), 1, 2).status is ImpedanceStatus.RESONANT


def test_pencil_ring_with_fixed_reactance():
    # L = C = 1 and a fixed j*1 ohm in one ring: the reactances sum to zero
    # where omega - 1/omega + 1 = 0; the pencil's Y part is complex.
    lossless = ring_network(3, [
        Element.inductor(1.0), Element.capacitor(1.0), Element.impedance(1j),
    ])
    rep = find_resonances(lossless, 0.1, 10.0)
    assert rep.distinct_count == 1
    assert abs(rep.omegas[0] / ((math.sqrt(5.0) - 1.0) / 2.0) - 1.0) <= 1e-12
    lossy = ring_network(3, [
        Element.inductor(1.0), Element.capacitor(1.0), Element.impedance(1 + 1j),
    ])
    assert find_resonances(lossy, 0.1, 10.0).omegas == ()


def test_sweep_validation():
    net = lc_parallel(1.0, 1.0)
    with pytest.raises(ValidationError):
        find_resonances(net, 2.0, 1.0)
    with pytest.raises(ValidationError):
        find_resonances(net, 0.0, 1.0)


# ── ring reactance sum rule ──────────────────────────────────────────────

def test_ring_sum_rule_detects_resonance():
    elements = [Element.inductor(1.0), Element.inductor(1.0), Element.capacitor(1.0)]
    omega_star = 1.0 / math.sqrt(2.0)
    at = ring_reactance_resonance_check(elements, omega_star)
    assert at.is_resonant
    assert abs(at.reactance_sum) <= 1e-9
    off = ring_reactance_resonance_check(elements, 1.1 * omega_star)
    assert not off.is_resonant


def test_ring_sum_rule_rejects_non_reactance():
    with pytest.raises(ValidationError):
        ring_reactance_resonance_check([Element.resistor(1.0)] * 3, 1.0)


def test_sum_rule_agrees_with_sweep():
    elements = [Element.inductor(2.0), Element.inductor(0.5), Element.capacitor(1.5)]
    # reactance sum omega*(L1+L2) - 1/(omega*C) vanishes at:
    omega_star = 1.0 / math.sqrt(2.5 * 1.5)
    assert ring_reactance_resonance_check(elements, omega_star).is_resonant
    net = ring_network(3, elements)
    rep = find_resonances(net, omega_star / 3.0, omega_star * 3.0)
    assert rep.distinct_count == 1
    assert abs(rep.omegas[0] - omega_star) <= 1e-7 * omega_star


# ── eigenvalue product identity ──────────────────────────────────────────

def test_product_identity_uniform_reactances():
    # ring of three unit reactances at omega = 1: both sides equal -9j^0...
    # the closed form is N(-j)^(N-1) (sum x)/(prod x) = 3*(-1)*(3/1) = -9.
    elements = [Element.inductor(1.0)] * 3
    dev = eigenvalue_product_identity_check(elements, 1.0)
    assert dev <= 1e-12


def test_product_identity_mixed_reactances():
    # x = (1, 2, 3) at omega = 1: closed form 3*(-1)*(6/6) = -3.
    elements = [Element.inductor(1.0), Element.inductor(2.0), Element.inductor(3.0)]
    dev = eigenvalue_product_identity_check(elements, 1.0)
    assert dev <= 1e-12


def test_product_identity_with_capacitors():
    elements = [
        Element.inductor(1.0), Element.capacitor(0.5),
        Element.inductor(2.0), Element.capacitor(1.0),
    ]
    dev = eigenvalue_product_identity_check(elements, 1.3)
    assert dev <= 1e-10


def test_product_identity_near_resonance_refused():
    elements = [Element.inductor(1.0), Element.inductor(1.0), Element.capacitor(1.0)]
    with pytest.raises(NearSingularError):
        eigenvalue_product_identity_check(elements, 1.0 / math.sqrt(2.0))

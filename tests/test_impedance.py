"""Two-point impedance from the factorization route."""

import math

import numpy as np
import pytest

from impnet import (
    Branch,
    Element,
    ElementKind,
    ImpedanceStatus,
    InvalidNodeError,
    Network,
    SingularSystem,
    assemble_laplacian,
    impedance_matrix,
    ring_network,
    solve_direct,
    takagi_decompose,
    two_point_impedance,
)
from conftest import (
    SQRT3,
    lc_parallel,
    random_connected_network,
    resistor_effective_resistance,
)

# ── known values ─────────────────────────────────────────────────────────

def test_triangle_impedances(triangle):
    want = {(1, 2): 3 + 1j * SQRT3, (2, 3): 3 - 1j * SQRT3, (3, 1): 0j}
    for (p, q), z in want.items():
        r = two_point_impedance(triangle, 1.0, p, q)
        assert r.status is ImpedanceStatus.FINITE
        assert abs(r.value - z) <= 1e-9


def test_single_resistor():
    net = Network(2, (Branch(1, 2, Element.resistor(5.0)),))
    r = two_point_impedance(net, 3.0, 1, 2)
    assert r.value == pytest.approx(5.0 + 0j, abs=1e-12)


def test_series_resistors():
    net = Network(3, (
        Branch(1, 2, Element.resistor(1.0)),
        Branch(2, 3, Element.resistor(2.0)),
    ))
    r = two_point_impedance(net, 1.0, 1, 3)
    assert r.value == pytest.approx(3.0 + 0j, abs=1e-12)


def test_parallel_impedances_combine():
    net = Network(2, (
        Branch(1, 2, Element.resistor(2.0)),
        Branch(1, 2, Element.resistor(2.0)),
    ))
    r = two_point_impedance(net, 1.0, 1, 2)
    assert r.value == pytest.approx(1.0 + 0j, abs=1e-12)


def test_reactive_elements_at_frequency():
    # series L then C between the ends: Z = j(wL - 1/(wC))
    net = Network(3, (
        Branch(1, 2, Element.inductor(2.0)),
        Branch(2, 3, Element.capacitor(0.5)),
    ))
    omega = 3.0
    want = 1j * (omega * 2.0 - 1.0 / (omega * 0.5))
    r = two_point_impedance(net, omega, 1, 3)
    assert abs(r.value - want) <= 1e-12 * abs(want)


def test_pair_order_symmetry(triangle):
    a = two_point_impedance(triangle, 1.0, 1, 2).value
    b = two_point_impedance(triangle, 1.0, 2, 1).value
    assert a == b


# ── agreement with the resistor-network oracle ───────────────────────────

def test_matches_resistor_oracle():
    rng = np.random.default_rng(77)
    for _ in range(15):
        net = random_connected_network(rng, 4, 10, kinds="R")
        n = net.node_count
        p = int(rng.integers(1, n + 1))
        q = int(rng.integers(1, n + 1))
        if p == q:
            q = p % n + 1
        want = resistor_effective_resistance(net, p, q)
        r = two_point_impedance(net, 1.0, p, q)
        assert r.value.real == pytest.approx(want, rel=1e-10)
        assert abs(r.value.imag) <= 1e-12 * max(want, 1.0)


def test_resistor_triangle_inequality():
    # Effective resistance is a metric: R_pq <= R_pr + R_rq.
    rng = np.random.default_rng(401)
    for _ in range(8):
        net = random_connected_network(rng, 4, 8, kinds="R")
        n = net.node_count
        table = impedance_matrix(net, 1.0)
        r = [[table[p][q].value.real for q in range(n)] for p in range(n)]
        for p in range(n):
            for q in range(n):
                for k in range(n):
                    assert r[p][q] <= r[p][k] + r[k][q] + 1e-12


def test_gauge_invariance_of_mode_sum():
    # Re-gauging every mode u -> u e^{i phi} carries lam -> lam e^{2 i phi},
    # so the summand (u_p - u_q)^2 / lam is unchanged mode by mode.
    rng = np.random.default_rng(402)
    for _ in range(10):
        net = random_connected_network(rng, 4, 9)
        omega = float(10.0 ** rng.uniform(-1, 1))
        lap = assemble_laplacian(net, omega)
        dec = takagi_decompose(lap)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=dec.order))
        u2 = dec.u * phases
        lam2 = dec.lam * phases**2
        threshold = 1e-10 * float(dec.sigma[-1])
        keep = dec.sigma > threshold
        p, q = 0, net.node_count - 1
        diffs = dec.u[p, :] - dec.u[q, :]
        diffs2 = u2[p, :] - u2[q, :]
        z = complex(np.sum(diffs[keep] ** 2 / dec.lam[keep]))
        z2 = complex(np.sum(diffs2[keep] ** 2 / lam2[keep]))
        assert abs(z - z2) <= 1e-12 * max(abs(z), 1.0)
        want = two_point_impedance(net, omega, p + 1, q + 1)
        if want.status is ImpedanceStatus.FINITE:
            assert abs(z2 - want.value) <= 1e-10 * max(abs(want.value), 1.0)


def _scaled(net, k):
    """The network with every impedance multiplied by k."""
    branches = []
    for br in net.branches:
        e = br.element
        v = e.value / k if e.kind is ElementKind.CAPACITOR else e.value * k
        branches.append(Branch(br.node_a, br.node_b, Element(e.kind, v)))
    return Network(net.node_count, tuple(branches))


def test_verdicts_independent_of_units():
    # Scaling every impedance by k scales Z by k and changes nothing else,
    # even where sigma = |lambda|^2 would overflow or underflow.
    rng = np.random.default_rng(403)
    for trial in range(40):
        net = random_connected_network(rng, 4, 12)
        omega = float(10.0 ** rng.uniform(-1, 1))
        n = net.node_count
        ref = two_point_impedance(net, omega, 1, n)
        for k in (1e170, 1e-170, 1e200, 1e-200, 1e250, 1e-250):
            r = two_point_impedance(_scaled(net, k), omega, 1, n)
            assert r.status is ref.status, f"trial {trial}, k={k}"
            assert r.near_resonance == ref.near_resonance, f"trial {trial}, k={k}"
            assert abs(r.value / k - ref.value) <= 1e-9 * abs(ref.value), (
                f"trial {trial}, k={k}"
            )


# ── impedance matrix ─────────────────────────────────────────────────────

def test_matrix_agrees_with_single_queries(triangle):
    table = impedance_matrix(triangle, 1.0)
    for p in range(1, 4):
        assert table[p - 1][p - 1].value == 0j
        for q in range(1, 4):
            if p == q:
                continue
            single = two_point_impedance(triangle, 1.0, p, q)
            assert abs(table[p - 1][q - 1].value - single.value) <= 1e-12
            assert table[p - 1][q - 1] is table[q - 1][p - 1]


def test_matrix_on_random_network():
    rng = np.random.default_rng(13)
    net = random_connected_network(rng, 4, 7)
    omega = 1.3
    table = impedance_matrix(net, omega)
    n = net.node_count
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            single = two_point_impedance(net, omega, p, q)
            assert abs(table[p - 1][q - 1].value - single.value) <= 1e-12


# ── resonance reporting ──────────────────────────────────────────────────

def test_lc_parallel_resonant():
    r = two_point_impedance(lc_parallel(1.0, 1.0), 1.0, 1, 2)
    assert r.status is ImpedanceStatus.RESONANT
    assert r.resonant_mode_count == 1
    # nontrivial zero mode is (e1 - e2)/sqrt(2): squared difference is 2
    assert r.divergent_coefficient == pytest.approx(2.0, rel=1e-9)


def test_lc_parallel_off_resonance():
    omega = 2.0
    r = two_point_impedance(lc_parallel(1.0, 1.0), omega, 1, 2)
    y = 1j * (omega - 1.0 / omega)
    assert r.status is ImpedanceStatus.FINITE
    assert abs(r.value - 1.0 / y) <= 1e-12


def test_resonant_ring_reports_divergence():
    net = ring_network(3, [
        Element.inductor(1.0), Element.inductor(1.0), Element.capacitor(1.0),
    ])
    r = two_point_impedance(net, 1.0 / math.sqrt(2.0), 1, 2)
    assert r.status is ImpedanceStatus.RESONANT
    assert r.resonant_mode_count == 1
    assert r.divergent_coefficient > 0.0
    assert r.min_nontrivial_sigma <= 1e-10


def test_near_resonance_flag():
    # Detuning chosen so the smallest nontrivial sigma lands between the
    # zero threshold (1e-10 of sigma_max) and ten times it: finite verdict,
    # near-resonance warning raised.
    net = ring_network(3, [
        Element.inductor(1.0), Element.inductor(1.0), Element.capacitor(1.0),
    ])
    omega = (1.0 / math.sqrt(2.0)) * (1.0 + 4e-5)
    r = two_point_impedance(net, omega, 1, 2)
    assert r.status is ImpedanceStatus.FINITE
    assert r.near_resonance
    far = two_point_impedance(net, 2.0, 1, 2)
    assert not far.near_resonance


@pytest.mark.parametrize("decades", [2.5, 3.0, 5.0])
def test_wide_spread_resistor_networks_never_resonant(decades):
    # A resistor-only network has no resonance however widely its values
    # spread: the zero rule is relative to the admittance scale, not to
    # max|lambda|.  At 1e+-5 the value is limited by eigensolver accuracy
    # (worst seen 1.7e-6), so only the verdict is asserted there.
    rng = np.random.default_rng(11)
    for trial in range(50):
        net = random_connected_network(rng, 30, 30, kinds="R", decades=decades)
        r = two_point_impedance(net, 1.0, 1, 30)
        assert r.status is ImpedanceStatus.FINITE, f"trial {trial}"
        if decades <= 3.0:
            d = solve_direct(net, 1.0, 1, 30)
            assert abs(r.value - d) <= 1e-8 * abs(d), f"trial {trial}"


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("e", range(5, 13))
def test_verdict_matches_direct_near_resonance(e, sign):
    # Both routes apply the same rule on the same scale, so the spectral
    # verdict is RESONANT exactly when the direct solve is singular.
    net = ring_network(3, [
        Element.inductor(1.0), Element.inductor(1.0), Element.capacitor(1.0),
    ])
    omega = (1.0 / math.sqrt(2.0)) * (1.0 + sign * 10.0 ** -e)
    r = two_point_impedance(net, omega, 1, 2)
    d = solve_direct(net, omega, 1, 2)
    assert (r.status is ImpedanceStatus.RESONANT) == isinstance(d, SingularSystem)


# ── argument validation ──────────────────────────────────────────────────

def test_invalid_pairs_rejected(triangle):
    with pytest.raises(InvalidNodeError):
        two_point_impedance(triangle, 1.0, 1, 1)
    with pytest.raises(InvalidNodeError):
        two_point_impedance(triangle, 1.0, 0, 2)
    with pytest.raises(InvalidNodeError):
        two_point_impedance(triangle, 1.0, 1, 4)
    with pytest.raises(InvalidNodeError):
        two_point_impedance(triangle, 1.0, 1.5, 2)

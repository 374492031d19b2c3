"""Direct Kirchhoff solve: the independent oracle route."""

import math

import numpy as np
import pytest

from impnet import (
    Branch,
    Element,
    InvalidNodeError,
    Network,
    SingularSystem,
    ValidationError,
    assemble_laplacian,
    check_current_conservation,
    grid_network,
    ring_network,
    solve_direct,
    solve_node_potentials,
)
from conftest import SQRT3, lc_parallel, random_connected_network

# ── known closed forms ───────────────────────────────────────────────────

def test_series_resistors():
    net = Network(3, (
        Branch(1, 2, Element.resistor(1.0)),
        Branch(2, 3, Element.resistor(2.0)),
    ))
    z = solve_direct(net, 1.0, 1, 3)
    assert z == pytest.approx(3.0 + 0j, abs=1e-12)


def test_triangle_known_impedances(triangle):
    assert solve_direct(triangle, 1.0, 1, 2) == pytest.approx(3 + 1j * SQRT3, abs=1e-10)
    assert solve_direct(triangle, 1.0, 2, 3) == pytest.approx(3 - 1j * SQRT3, abs=1e-10)
    assert abs(solve_direct(triangle, 1.0, 3, 1)) <= 1e-10


def test_lc_parallel_at_resonance_singular():
    out = solve_direct(lc_parallel(1.0, 1.0), 1.0, 1, 2)
    assert isinstance(out, SingularSystem)
    assert out.ground == 2
    assert out.pivot_min <= 1e-13 * out.scale


def test_resonant_ring_singular():
    net = ring_network(3, [
        Element.inductor(1.0), Element.inductor(1.0), Element.capacitor(1.0),
    ])
    out = solve_direct(net, 1.0 / math.sqrt(2.0), 1, 2)
    assert isinstance(out, SingularSystem)


# ── node potentials and current conservation ─────────────────────────────

def test_potentials_ground_is_zero_and_currents_conserve(triangle):
    v = solve_node_potentials(triangle, 1.0, 1, 2)
    assert not isinstance(v, SingularSystem)
    assert v[1] == 0j  # ground node potential
    lap = assemble_laplacian(triangle, 1.0)
    slack = check_current_conservation(triangle, 1.0, v, 1, 2)
    assert slack <= 1e-10 * float(np.linalg.norm(lap)) * max(1.0, float(np.abs(v).max()))


def test_current_conservation_random_networks():
    rng = np.random.default_rng(21)
    for _ in range(15):
        net = random_connected_network(rng, 4, 10)
        omega = float(10.0 ** rng.uniform(-1, 1))
        n = net.node_count
        p = int(rng.integers(1, n + 1))
        q = p % n + 1
        v = solve_node_potentials(net, omega, p, q)
        if isinstance(v, SingularSystem):
            continue
        lap = assemble_laplacian(net, omega)
        scale = float(np.linalg.norm(lap)) * max(1.0, float(np.abs(v).max()))
        assert check_current_conservation(net, omega, v, p, q) <= 1e-10 * scale


def test_ground_choice_does_not_change_impedance(triangle):
    # Two-point impedance is gauge independent: solving with either node of
    # the pair grounded must agree.
    z_a = solve_direct(triangle, 1.0, 1, 2)
    z_b = solve_direct(triangle, 1.0, 2, 1)
    assert abs(z_a - z_b) <= 1e-10


def test_subnormal_admittances_keep_their_digits():
    # two 5e307 ohm resistors in series: admittances of 2e-308 S are
    # subnormal, and an LU on them gave 5e307 for the exact 1e308
    net = Network(3, (
        Branch(1, 2, Element.resistor(5e307)),
        Branch(2, 3, Element.resistor(5e307)),
    ))
    assert solve_direct(net, 1.0, 1, 3) == pytest.approx(1e308, rel=1e-14)
    # an inductor path at 2 pi 1e307 rad/s: admittances of -1.6e-308j S
    net = Network(3, (
        Branch(1, 2, Element.inductor(1.0)),
        Branch(2, 3, Element.inductor(1.0)),
    ))
    omega = 2.0 * math.pi * 1e307
    assert solve_direct(net, omega, 1, 3) == pytest.approx(2j * omega, rel=1e-14)


def test_potentials_beyond_the_float_range_rejected():
    # two 1e-310 F capacitors in series at omega = 1: |Z| = 2e310 ohm
    net = Network(3, (
        Branch(1, 2, Element.capacitor(1e-310)),
        Branch(2, 3, Element.capacitor(1e-310)),
    ))
    with pytest.raises(ValidationError, match="exceeds the float range"):
        solve_direct(net, 1.0, 1, 3)


def test_pair_validation(triangle):
    with pytest.raises(InvalidNodeError):
        solve_direct(triangle, 1.0, 2, 2)
    with pytest.raises(InvalidNodeError):
        solve_direct(triangle, 1.0, 0, 1)
    with pytest.raises(InvalidNodeError):
        solve_node_potentials(triangle, 1.0, 1, 9)
    for label in (1.0, True):
        with pytest.raises(InvalidNodeError, match="must be an integer"):
            solve_direct(triangle, 1.0, label, 2)


def test_numpy_integer_labels_accepted():
    net = grid_network(3, 3, 1.0, 1.0)
    want = solve_direct(net, 0.7, 1, 2)
    for p in (np.int64(1), np.int32(1)):
        assert solve_direct(net, 0.7, p, np.int64(2)) == want

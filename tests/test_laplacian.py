"""Laplacian assembly, admittances, and the constant parts."""

import math
import sys

import numpy as np
import pytest

from impnet import (
    Branch,
    Element,
    Network,
    ValidationError,
    admittance_scale,
    assemble_laplacian,
    branch_admittances,
    check_angular_frequency,
    find_resonances,
    grid_network,
    impedance_matrix,
    laplacian_parts,
    ring_network,
    solve_direct,
    two_point_impedance,
)
from impnet import laplacian, takagi
from conftest import SQRT3, random_connected_network

# ── admittances ──────────────────────────────────────────────────────────

def _admittance(element, omega):
    """branch_admittances of the one-branch network of element."""
    (y,) = branch_admittances(Network(2, (Branch(1, 2, element),)), omega)
    return y


def test_branch_admittance_values():
    assert _admittance(Element.resistor(4.0), 2.0) == 0.25
    assert _admittance(Element.inductor(0.5), 2.0) == -1j
    assert _admittance(Element.capacitor(0.25), 2.0) == 0.5j
    assert _admittance(Element.impedance(2j), 7.0) == -0.5j


def test_branch_admittance_scales_with_omega():
    for omega in (0.1, 1.0, 40.0):
        yl = _admittance(Element.inductor(2.0), omega)
        yc = _admittance(Element.capacitor(3.0), omega)
        assert yl == pytest.approx(-1j / (omega * 2.0))
        assert yc == pytest.approx(1j * omega * 3.0)


def test_check_angular_frequency():
    assert check_angular_frequency(2) == 2.0
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            check_angular_frequency(bad)


def test_omega_validated_once_per_admittance_pass(monkeypatch):
    # omega is validated once per call of branch_admittances, not once per
    # branch: at most three times per query, never 2 * 180 + 3 on this grid
    calls = []

    def counted(omega):
        calls.append(omega)
        return check_angular_frequency(omega)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "impnet" and (
            getattr(module, "check_angular_frequency", None)
            is check_angular_frequency
        ):
            monkeypatch.setattr(module, "check_angular_frequency", counted)
    net = grid_network(10, 10, 1.0, 1.0)
    queries = {
        "two_point_impedance": lambda: two_point_impedance(net, 0.7, 1, 100),
        "impedance_matrix": lambda: impedance_matrix(net, 0.7),
        "solve_direct": lambda: solve_direct(net, 0.7, 1, 100),
        "find_resonances": lambda: find_resonances(net, 0.5, 2.0),
    }
    for name, query in queries.items():
        calls.clear()
        query()
        assert 1 <= len(calls) <= 3, (name, len(calls))


# ── assembly invariants ──────────────────────────────────────────────────

def test_laplacian_rows_sum_to_zero_and_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(25):
        net = random_connected_network(rng, 3, 10)
        omega = float(10.0 ** rng.uniform(-1, 1))
        lap = assemble_laplacian(net, omega)
        scale = np.abs(lap).max()
        assert np.abs(lap - lap.T).max() == 0.0
        assert np.abs(lap.sum(axis=1)).max() <= 1e-15 * scale
        # constant vector is an exact null vector up to roundoff
        ones = np.ones(net.node_count)
        assert np.abs(lap @ ones).max() <= 1e-14 * scale


def test_parallel_branches_accumulate():
    net = Network(2, (
        Branch(1, 2, Element.resistor(2.0)),
        Branch(1, 2, Element.resistor(2.0)),
    ))
    lap = assemble_laplacian(net, 1.0)
    assert lap[0, 1] == -1.0
    assert lap[0, 0] == 1.0


def test_triangle_laplacian_matches_known_matrix(triangle):
    lap = assemble_laplacian(triangle, 1.0)
    want = np.array([
        [1 - 1j / SQRT3, 1j / SQRT3, -1],
        [1j / SQRT3, 0, -1j / SQRT3],
        [-1, -1j / SQRT3, 1 + 1j / SQRT3],
    ])
    assert np.abs(lap - want).max() <= 1e-15


def test_admittance_scale_is_max_row_abs_sum():
    net = ring_network(3, [
        Element.resistor(1.0), Element.inductor(1.0), Element.capacitor(1.0),
    ])
    # node 1 touches R (y=1) and C (y=1j): scale 2; node 2 touches R and L.
    assert admittance_scale(net, 1.0) == pytest.approx(2.0)


# ── constant parts ───────────────────────────────────────────────────────

def test_laplacian_parts_recombine():
    rng = np.random.default_rng(12)
    for _ in range(25):
        net = random_connected_network(rng, 3, 10)
        c, y, g = laplacian_parts(net)
        assert c.dtype == g.dtype == np.float64
        for omega in (0.3, 1.0, 7.0):
            lap = assemble_laplacian(net, omega)
            parts = y + 1j * omega * c + g / (1j * omega)
            assert np.abs(parts - lap).max() <= 1e-14 * np.abs(lap).max()


def test_laplacian_parts_reject_non_finite_sum():
    big = Element.capacitor(1e308)
    net = Network(2, (Branch(1, 2, big), Branch(1, 2, big)))
    with pytest.raises(ValidationError):
        laplacian_parts(net)


def test_overflowing_merged_admittance_is_input_error():
    # Two 1e308 S resistors in parallel: each admittance is finite, their
    # merged sum is not.  Every route rejects the network, without warnings.
    tiny = Element.resistor(1e-308)
    net = Network(3, (
        Branch(1, 2, tiny), Branch(1, 2, tiny), Branch(2, 3, Element.resistor(1.0)),
    ))
    for call in (
        lambda: assemble_laplacian(net, 1.0),
        lambda: solve_direct(net, 1.0, 1, 3),
        lambda: two_point_impedance(net, 1.0, 1, 3),
        lambda: laplacian_parts(net),
    ):
        with pytest.raises(ValidationError, match="merged admittance .* not finite"):
            call()


def test_overflowing_admittance_scale_is_input_error():
    # One 1e308 S resistor: L is finite, its nontrivial |lambda| of 2e308 is
    # not.  Twice the admittance scale bounds every |lambda| (Gershgorin),
    # and both routes reject the network when that bound is not finite.
    net = Network(2, (Branch(1, 2, Element.resistor(1e-308)),))
    for call in (
        lambda: solve_direct(net, 1.0, 1, 2),
        lambda: two_point_impedance(net, 1.0, 1, 2),
        lambda: impedance_matrix(net, 1.0),
    ):
        with pytest.raises(ValidationError, match="admittance scale .* not finite"):
            call()
    # 1.2e-308 ohm: twice the scale, 1.7e308 S, is finite
    net = Network(2, (Branch(1, 2, Element.resistor(1.2e-308)),))
    assert solve_direct(net, 1.0, 1, 2) == pytest.approx(1.2e-308, rel=1e-14)
    z = two_point_impedance(net, 1.0, 1, 2).value
    assert z == pytest.approx(1.2e-308, rel=1e-14)


def test_admittance_scale_owns_its_overflow_guard():
    # two parallel 1e308 S resistors: admittance_scale itself rejects the
    # node sum of 2e308 S instead of returning inf, and node_system still
    # names the merged admittance first
    net = Network(3, (
        Branch(1, 2, Element.resistor(1e-308)),
        Branch(1, 2, Element.resistor(1e-308)),
        Branch(2, 3, Element.resistor(1.0)),
    ))
    with pytest.raises(ValidationError, match="twice the admittance scale inf S"):
        admittance_scale(net, 1.0)
    with pytest.raises(ValidationError, match="merged admittance .* not finite"):
        laplacian.node_system(net, 1.0)
    # one 1e308 S resistor: a finite scale whose double is not
    net = Network(2, (Branch(1, 2, Element.resistor(1e-308)),))
    with pytest.raises(ValidationError, match="twice the admittance scale 1e\\+308 S"):
        admittance_scale(net, 1.0)


def test_cancelling_parallel_branches_with_overflowing_scale_rejected():
    # L, C and R = 1 ohm in parallel at the LC resonance: the merged
    # admittance is 1 S, but the scale, 1e308 S, still bounds nothing
    # finite once doubled, so both routes reject the network
    net = Network(2, (
        Branch(1, 2, Element.inductor(2e-308)),
        Branch(1, 2, Element.capacitor(5e307)),
        Branch(1, 2, Element.resistor(1.0)),
    ))
    assert np.abs(assemble_laplacian(net, 1.0)).max() == 1.0
    for call in (
        lambda: solve_direct(net, 1.0, 1, 2),
        lambda: two_point_impedance(net, 1.0, 1, 2),
    ):
        with pytest.raises(ValidationError, match="admittance scale .* not finite"):
            call()


def test_one_node_system_and_no_resymmetrization_per_query(monkeypatch):
    # A query reads its Laplacian and admittance scale from one call of
    # node_system, and takagi_rows takes the Laplacian as assembled.
    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)
        return wrapper

    node_system = laplacian.node_system
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "impnet" and (
            getattr(module, "node_system", None) is node_system
        ):
            monkeypatch.setattr(module, "node_system",
                                counted("node_system", node_system))
    monkeypatch.setattr(takagi, "_check_symmetric",
                        counted("symmetrize", takagi._check_symmetric))
    networks = {
        "grid": (grid_network(10, 10, 1.0, 1.0), 0.7),
        "rlcz": (random_connected_network(np.random.default_rng(5), 12, 12), 1.3),
    }
    for label, (net, omega) in networks.items():
        n = net.node_count
        queries = {
            "two_point_impedance": lambda: two_point_impedance(net, omega, 1, n),
            "impedance_matrix": lambda: impedance_matrix(net, omega),
            "solve_direct": lambda: solve_direct(net, omega, 1, n),
        }
        for name, query in queries.items():
            calls.clear()
            query()
            assert calls == ["node_system"], (label, name, calls)

"""Netlist parsing, serialization, and network construction."""

import math

import numpy as np
import pytest

from impnet import (
    Boundary,
    Branch,
    DisconnectedError,
    Element,
    ElementKind,
    NetlistSyntaxError,
    Network,
    ValidationError,
    grid_network,
    parse_netlist,
    ring_network,
    serialize_netlist,
)
from conftest import TRIANGLE_NETLIST

# ── elements ─────────────────────────────────────────────────────────────

def test_element_constructors():
    assert Element.resistor(2.0).kind is ElementKind.RESISTOR
    assert Element.inductor(1e-3).value == 1e-3
    assert Element.capacitor(2e-6).kind is ElementKind.CAPACITOR
    z = Element.impedance(1 + 2j)
    assert z.kind is ElementKind.IMPEDANCE
    assert z.value == 1 + 2j


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_element_rejects_nonpositive_real(value):
    for ctor in (Element.resistor, Element.inductor, Element.capacitor):
        with pytest.raises(ValidationError):
            ctor(value)


def test_element_rejects_complex_rlc():
    with pytest.raises(ValidationError):
        Element(ElementKind.RESISTOR, 1 + 1j)


def test_impedance_rejects_zero_and_nonfinite():
    with pytest.raises(ValidationError):
        Element.impedance(0.0)
    with pytest.raises(ValidationError):
        Element.impedance(complex(math.inf, 0.0))


def test_branch_rejects_self_loop_and_bad_labels():
    r = Element.resistor(1.0)
    with pytest.raises(ValidationError):
        Branch(2, 2, r)
    with pytest.raises(ValidationError):
        Branch(0, 1, r)
    with pytest.raises(ValidationError):
        Branch(1.5, 2, r)
    with pytest.raises(ValidationError):
        Branch(True, 2, r)
    with pytest.raises(ValidationError):
        Branch(2, True, r)


def test_numpy_integer_labels_and_node_count_accepted():
    r = Element.resistor(1.0)
    for t in (np.int64, np.int32):
        br = Branch(t(1), t(2), r)
        assert (br.node_a, br.node_b) == (1, 2)
        assert type(br.node_a) is int and type(br.node_b) is int
        net = Network(t(2), (br,))
        assert net.node_count == 2 and type(net.node_count) is int


# ── network validation ───────────────────────────────────────────────────

def test_network_rejects_out_of_range_branch():
    with pytest.raises(ValidationError):
        Network(2, (Branch(1, 3, Element.resistor(1.0)),))


def test_network_rejects_empty():
    with pytest.raises(ValidationError):
        Network(2, ())


def test_network_rejects_disconnected():
    branches = (
        Branch(1, 2, Element.resistor(1.0)),
        Branch(3, 4, Element.resistor(1.0)),
    )
    with pytest.raises(DisconnectedError) as exc:
        Network(4, branches)
    assert exc.value.components == ((1, 2), (3, 4))


def test_isolated_node_is_disconnected():
    with pytest.raises(DisconnectedError):
        Network(3, (Branch(1, 2, Element.resistor(1.0)),))


def test_parallel_branches_allowed():
    net = Network(2, (
        Branch(1, 2, Element.resistor(1.0)),
        Branch(1, 2, Element.resistor(2.0)),
    ))
    assert len(net.branches) == 2


# ── parsing ──────────────────────────────────────────────────────────────

def test_parse_triangle_netlist():
    net = parse_netlist(TRIANGLE_NETLIST)
    assert net.node_count == 3
    assert len(net.branches) == 3
    assert net.branches[0].element.value == 1j * 1.7320508075688772
    assert net.branches[2].element.value == 1.0 + 0j


def test_parse_kinds_comments_blank_lines():
    text = (
        "# circuit with every element kind\n"
        "NET 3\n"
        "\n"
        "R 1 2 4.7\n"
        "# series inductor next\n"
        "L 2 3 1e-3\n"
        "C 3 1 2.2e-6\n"
        "Z 1 3 5 -5\n"
    )
    net = parse_netlist(text)
    kinds = [br.element.kind for br in net.branches]
    assert kinds == [
        ElementKind.RESISTOR, ElementKind.INDUCTOR,
        ElementKind.CAPACITOR, ElementKind.IMPEDANCE,
    ]
    assert net.branches[3].element.value == 5 - 5j


def test_parse_crlf_endings():
    net = parse_netlist(TRIANGLE_NETLIST.replace("\n", "\r\n"))
    assert net.node_count == 3


def test_parse_empty_input():
    with pytest.raises(NetlistSyntaxError):
        parse_netlist("")
    with pytest.raises(NetlistSyntaxError):
        parse_netlist("# only a comment\n")


def test_parse_missing_header():
    with pytest.raises(NetlistSyntaxError):
        parse_netlist("R 1 2 1.0\n")


def test_parse_unknown_kind_reports_line():
    with pytest.raises(NetlistSyntaxError) as exc:
        parse_netlist("NET 2\nQ 1 2 1.0\n")
    assert exc.value.line == 2


def test_parse_inline_comments():
    text = (
        "# three-node example\n"
        "NET 3   # nodes\n"
        "Z 1 2 0 1.7320508075688772     # fixed impedance re im\n"
        "Z 2 3 0 -1.7320508075688772\n"
        "Z 3 1 1 0#no space\n"
    )
    net = parse_netlist(text)
    assert net.node_count == 3
    assert [br.element.value for br in net.branches] == [
        1.7320508075688772j, -1.7320508075688772j, 1 + 0j,
    ]


def test_parse_wrong_token_count():
    with pytest.raises(NetlistSyntaxError):
        parse_netlist("NET 2\nR 1 2\n")
    with pytest.raises(NetlistSyntaxError):
        parse_netlist("NET 2\nZ 1 2 1.0\n")
    with pytest.raises(NetlistSyntaxError):
        parse_netlist("NET 2\nR 1 2 1.0 extra\n")


def test_parse_bad_numbers_report_line():
    with pytest.raises(NetlistSyntaxError) as exc:
        parse_netlist("NET 2\nR 1 two 1.0\n")
    assert exc.value.line == 2
    with pytest.raises(NetlistSyntaxError):
        parse_netlist("NET x\n")


def test_parse_nonfinite_value_rejected():
    with pytest.raises(ValidationError):
        parse_netlist("NET 2\nR 1 2 inf\n")


def test_parse_out_of_range_node_reports_line():
    with pytest.raises(ValidationError) as exc:
        parse_netlist("NET 2\nR 1 3 1.0\n")
    assert "line 2" in str(exc.value)


def test_parse_nonpositive_element_reports_line():
    with pytest.raises(ValidationError) as exc:
        parse_netlist("NET 2\nR 1 2 -1.0\n")
    assert "line 2" in str(exc.value)


# ── serialization round trip ─────────────────────────────────────────────

def test_serialize_round_trip_exact():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        branches = [
            Branch(b - 1 if b > 1 else 1, b, Element.resistor(float(10.0 ** rng.uniform(-3, 3))))
            for b in range(2, n + 1)
        ]
        branches.append(Branch(1, n, Element.impedance(
            complex(rng.standard_normal(), rng.standard_normal()) or 1.0)))
        net = Network(n, tuple(branches))
        text = serialize_netlist(net)
        back = parse_netlist(text)
        assert back.node_count == net.node_count
        for b1, b2 in zip(net.branches, back.branches):
            assert b1 == b2
        assert serialize_netlist(back) == text


def test_serialize_triangle_matches_reference(triangle):
    assert serialize_netlist(triangle) == TRIANGLE_NETLIST


# ── generators ───────────────────────────────────────────────────────────

def test_ring_network_shape():
    net = ring_network(5, [Element.resistor(1.0)] * 5)
    assert net.node_count == 5
    pairs = {(br.node_a, br.node_b) for br in net.branches}
    assert pairs == {(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)}


def test_ring_network_validation():
    with pytest.raises(ValidationError):
        ring_network(2, [Element.resistor(1.0)] * 2)
    with pytest.raises(ValidationError):
        ring_network(4, [Element.resistor(1.0)] * 3)


def test_grid_network_free_counts():
    net = grid_network(3, 4, 1.0, 1.0)
    assert net.node_count == 12
    caps = [b for b in net.branches if b.element.kind is ElementKind.CAPACITOR]
    inds = [b for b in net.branches if b.element.kind is ElementKind.INDUCTOR]
    # free boundary: (m-1)*n capacitor rungs, m*(n-1) inductor rungs
    assert len(caps) == 2 * 4
    assert len(inds) == 3 * 3


def test_grid_network_toroidal_counts():
    net = grid_network(3, 4, 1.0, 1.0, Boundary.TOROIDAL)
    caps = [b for b in net.branches if b.element.kind is ElementKind.CAPACITOR]
    inds = [b for b in net.branches if b.element.kind is ElementKind.INDUCTOR]
    assert len(caps) == 3 * 4
    assert len(inds) == 3 * 4


def test_grid_network_validation():
    with pytest.raises(ValidationError):
        grid_network(1, 4, 1.0, 1.0)
    with pytest.raises(ValidationError):
        grid_network(3, 3, -1.0, 1.0)

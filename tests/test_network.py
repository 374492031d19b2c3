"""Netlist parsing, serialization, and network construction."""

import copy
import math
import pickle

import numpy as np
import pytest

from impnet import (
    Boundary,
    Branch,
    DisconnectedError,
    Element,
    ElementKind,
    ImpnetError,
    NetlistSyntaxError,
    Network,
    ValidationError,
    branch_admittances,
    grid_network,
    grid_resonances_analytic,
    parse_netlist,
    ring_network,
    serialize_netlist,
)
from impnet.cli import main
from impnet.network import KIND_CODES, MAX_SIZE, check_grid, check_ring_size, make_element
from conftest import TRIANGLE_NETLIST, random_connected_network

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


def test_element_rejects_a_kind_that_is_not_an_element_kind():
    for kind in ("R", None):
        with pytest.raises(ValidationError, match="is not an ElementKind"):
            Element(kind, 1.0)


@pytest.mark.parametrize("value", [True, False, "1.5", "1+2j", None, np.True_])
def test_element_values_are_numbers_not_bools_or_strings(value):
    for ctor in (Element.resistor, Element.inductor, Element.capacitor, Element.impedance):
        with pytest.raises(ValidationError, match="number, got"):
            ctor(value)


def test_element_values_of_numpy_and_int_types():
    for value in (np.float64(1.5), np.float32(1.5), np.int64(2), 2):
        r = Element.resistor(value)
        assert r.value == value and type(r.value) is float
    for value in (np.complex128(1 + 2j), np.float64(1.5), np.int8(3)):
        z = Element.impedance(value)
        assert z.value == value and type(z.value) is complex
    with pytest.raises(ValidationError, match="must be a real number"):
        Element.capacitor(np.complex128(1.0))
    with pytest.raises(ValidationError, match="must be positive and finite"):
        Element.inductor(10**400)


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
    for element in ("R", 1.0, None):
        with pytest.raises(ValidationError, match="is not an Element"):
            Branch(1, 2, element)


def test_network_rejects_items_that_are_not_branches():
    r = Element.resistor(1.0)
    for item in ((1, 2, r), None, r):
        with pytest.raises(ValidationError, match="is not a Branch"):
            Network(2, [item])


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
    # three branches, enough for a tree of four nodes
    branches = (
        Branch(1, 2, Element.resistor(1.0)),
        Branch(3, 4, Element.resistor(1.0)),
        Branch(3, 4, Element.resistor(2.0)),
    )
    with pytest.raises(DisconnectedError) as exc:
        Network(4, branches)
    assert exc.value.components == ((1, 2), (3, 4))


def test_isolated_node_is_disconnected():
    with pytest.raises(DisconnectedError) as exc:
        Network(3, (Branch(1, 2, Element.resistor(1.0)),) * 2)
    assert exc.value.components == ((1, 2), (3,))


def test_parse_rejects_fewer_branches_than_a_tree():
    with pytest.raises(ValidationError, match="at least 99999 branches") as exc:
        parse_netlist("NET 100000\nR 1 2 1\n")
    assert len(str(exc.value)) < 200
    # the constructor's guard too, before an O(node_count) connectivity check
    with pytest.raises(ValidationError) as exc:
        Network(10**6, (Branch(1, 2, Element.resistor(1.0)),))
    assert type(exc.value) is ValidationError
    assert str(exc.value) == "1000000 nodes need at least 999999 branches to be connected, got 1"
    # enough branches for a tree: connectivity is Network's to check
    with pytest.raises(DisconnectedError):
        parse_netlist("NET 4\nR 1 2 1\nR 1 2 1\nR 3 4 1\n")


def test_disconnected_message_is_bounded(tmp_path, capsys):
    error = DisconnectedError([[5], range(1, 10), [10], [11], [12]])
    assert str(error) == ("network is not connected: components {5} / "
                          "{1, 2, 3, 4, 5, 6, 7, 8, ... (9 nodes)} / {10} / ... (5 components)")
    path = tmp_path / "isolated.net"
    path.write_text("NET 100001\n" + "R 1 2 1\n" * 100000)
    with pytest.raises(DisconnectedError) as exc:
        parse_netlist(path.read_text())
    assert len(str(exc.value)) < 100
    assert exc.value.components == ((1, 2), *((k,) for k in range(3, 100002)))
    assert main(["impedance", str(path), "--pair", "1", "2", "--omega", "1"]) == 1
    err = capsys.readouterr().err
    assert len(err) < 200 and "... (100000 components)" in err


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


# Two faults per netlist, on different lines or on one: the first bad line
# wins, and on a line the value is checked before the labels, the labels'
# range before their sign and a self-loop.
_PARSE_ERRORS = [
    ("NET 3\nR 2 2 1\nR 1 2 -1\n", ValidationError,
     "line 2: self-loop at node 2 is not allowed"),
    ("NET 3\nR 0 2 -1\n", ValidationError,
     "line 2: resistor value must be positive and finite, got -1.0"),
    ("NET 3\nR 0 2 1\nR 1 5 1\n", ValidationError,
     "line 2: node labels must be >= 1, got (0, 2)"),
    ("NET 3\nR 4 4 1\n", ValidationError,
     "line 2: branch (4, 4) references a node outside 1..3"),
    ("NET 3\nR 0 4 1\n", ValidationError,
     "line 2: branch (0, 4) references a node outside 1..3"),
    ("NET 3\nR x 2 -1\n", ValidationError,
     "line 2: resistor value must be positive and finite, got -1.0"),
    ("NET 3\nR x 2 abc\n", NetlistSyntaxError, "line 2: bad numeric value 'abc'"),
    ("NET 3\nQ x 2 1\n", NetlistSyntaxError,
     "line 2: element kind 'Q' is not R, L, C or Z"),
    ("NET 3\nR 2 2\n", NetlistSyntaxError, "line 2: R takes 1 value(s), got []"),
    ("NET 3\nC 1 2 1 2\nR 2 3 -0\n", NetlistSyntaxError,
     "line 2: C takes 1 value(s), got ['1', '2']"),
    ("NET 3\nZ 1 1 0 0\n", ValidationError, "line 2: fixed impedance must be nonzero"),
    ("NET 3\nZ 1 x 0 nan\n", ValidationError, "line 2: fixed impedance must be finite"),
    ("NET 3\nL 1 2 1\nC 3 y 1\n", NetlistSyntaxError, "line 3: bad node label 'y'"),
    ("NET 3\nR 1.5 2 1\n", NetlistSyntaxError, "line 2: bad node label '1.5'"),
    ("NET 3\nR 1 2 1e400\nR 2 2 1\n", ValidationError,
     "line 2: resistor value must be positive and finite, got inf"),
    ("NET 5\nR 1 2 1\nR 1 2 x\n", NetlistSyntaxError, "line 3: bad numeric value 'x'"),
    ("NET 5\nR 1 2 1\nR 1 1 1\n", ValidationError,
     "line 3: self-loop at node 1 is not allowed"),
    ("NET 5\nR 1 2 1\n", ValidationError,
     "5 nodes need at least 4 branches to be connected, got 1"),
    ("NET 4\nR 1 2 1\nR 3 4 1\nR 1 2 0\n", ValidationError,
     "line 4: resistor value must be positive and finite, got 0.0"),
    ("NET 4\nR 1 2 1\nR 3 4 1\nR 3 4 1\n", DisconnectedError,
     "network is not connected: components {1, 2} / {3, 4}"),
    ("NET 0\nR 1 2 x\n", ValidationError, "line 1: node count must be >= 1"),
    ("NET x\nR 1 1 1\n", NetlistSyntaxError, "line 1: bad node count 'x'"),
    ("# c\nR 1 2 1\nNET 3\n", NetlistSyntaxError,
     "line 2: header must be 'NET <node_count>'"),
    ("NET 1\n", ValidationError, "network has no branches"),
]


@pytest.mark.parametrize("text, error, message", _PARSE_ERRORS)
def test_parse_error_table(text, error, message):
    with pytest.raises(ImpnetError) as exc:
        parse_netlist(text)
    assert type(exc.value) is error
    assert str(exc.value) == message


# One element line of a 2-node netlist, at line 2, that parse_netlist must
# accept, or reject with the error its full checks give: labels as int()
# reads them ('+1', Arabic-Indic digits), values as float() does ('1_0',
# overflow to inf), and every fault of labels, values and token counts.
_V = "line 2: resistor value must be positive and finite, got "
_ONE_LINE = [
    ("R 1 2 5", None),
    ("L 2 1 0.5", None),
    ("C 1 2 1e-12", None),
    ("R 1 2 5e-324", None),
    ("Z 1 2 3 -4", None),
    ("Z 2 1 0 1", None),
    ("Z 1 2 -0 2", None),
    ("Z 1 2 1.7e308 1.7e308", None),
    ("R 1 2 1_0", None),
    ("R 1 2 \u0661", None),
    ("R +1 2 1", None),
    ("R \u0661 2 1", None),
    ("R 1 2 0", (ValidationError, _V + "0.0")),
    ("R 1 2 -0", (ValidationError, _V + "-0.0")),
    ("R 1 2 inf", (ValidationError, _V + "inf")),
    ("R 1 2 1e400", (ValidationError, _V + "inf")),
    ("R 1 2 nan", (ValidationError, _V + "nan")),
    ("L 1 2 -1", (ValidationError,
                  "line 2: inductor value must be positive and finite, got -1.0")),
    ("R 1 2 x", (NetlistSyntaxError, "line 2: bad numeric value 'x'")),
    ("R 0 2 1", (ValidationError, "line 2: node labels must be >= 1, got (0, 2)")),
    ("R 1 3 1", (ValidationError, "line 2: branch (1, 3) references a node outside 1..2")),
    ("L 3 0 1", (ValidationError, "line 2: branch (3, 0) references a node outside 1..2")),
    ("R 1 1 1", (ValidationError, "line 2: self-loop at node 1 is not allowed")),
    ("R 1.5 2 1", (NetlistSyntaxError, "line 2: bad node label '1.5'")),
    ("R 1 3 nan", (ValidationError, _V + "nan")),
    ("R 1 2", (NetlistSyntaxError, "line 2: R takes 1 value(s), got []")),
    ("R 1", (NetlistSyntaxError, "line 2: R takes 1 value(s), got []")),
    ("R 1 2 3 4", (NetlistSyntaxError, "line 2: R takes 1 value(s), got ['3', '4']")),
    ("Z 1 2 1", (NetlistSyntaxError, "line 2: Z takes 2 value(s), got ['1']")),
    ("Z 1 2 1 2 3", (NetlistSyntaxError,
                     "line 2: Z takes 2 value(s), got ['1', '2', '3']")),
    ("r 1 2 3", (NetlistSyntaxError, "line 2: element kind 'r' is not R, L, C or Z")),
    ("Z 1 2 0 0", (ValidationError, "line 2: fixed impedance must be nonzero")),
    ("Z 1 2 -0 0", (ValidationError, "line 2: fixed impedance must be nonzero")),
    ("Z 1 2 inf 1", (ValidationError, "line 2: fixed impedance must be finite")),
    ("Z 1 2 1 -inf", (ValidationError, "line 2: fixed impedance must be finite")),
    ("Z 1 2 nan 0", (ValidationError, "line 2: fixed impedance must be finite")),
    ("Z 1 2 0 nan", (ValidationError, "line 2: fixed impedance must be finite")),
]


@pytest.mark.parametrize("line, error", _ONE_LINE)
def test_parse_line_gives_its_branch_or_error(line, error):
    text = f"NET 2\n{line}\n"
    if error is not None:
        with pytest.raises(ImpnetError) as exc:
            parse_netlist(text)
        assert (type(exc.value), str(exc.value)) == error
        return
    kind, a, b, *values = line.split()
    want = Network(2, [Branch(int(a), int(b), make_element(kind, values))])
    net = parse_netlist(text)
    for column in ("kinds", "ends", "values"):  # bytes: -0.0 is not 0.0
        assert getattr(net, column).tobytes() == getattr(want, column).tobytes()


# Characters that str.splitlines() breaks at but a netlist does not: inside
# a line they separate tokens, as str.split() does.
_NOT_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", _NOT_LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_lines_break_only_at_lf_crlf_or_cr(char):
    net = parse_netlist(f"NET 3\nR 1 2{char}1.0\nR 2 3 2.0\n")
    assert net.branches == (Branch(1, 2, Element.resistor(1.0)),
                            Branch(2, 3, Element.resistor(2.0)))
    with pytest.raises(NetlistSyntaxError) as exc:
        parse_netlist(f"NET 3\nR 1 2 1.0{char}\nR 2 x 1.0\n")
    assert exc.value.line == 3
    mixed = f"NET 3\r\nR 1 2 1.0{char}\rR 2 3 2.0\n\nR 1 3 x\n"
    with pytest.raises(NetlistSyntaxError) as exc:
        parse_netlist(mixed)
    assert exc.value.line == 5


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


@pytest.mark.parametrize("build", [
    lambda: ring_network(5, [Element.resistor(1.0), Element.inductor(2e-3),
                             Element.capacitor(3e-6), Element.impedance(4 - 5j),
                             Element.impedance(complex(-0.0, 1.0))]),
    lambda: grid_network(3, 4, 1.0, 2.0, Boundary.TOROIDAL),
    lambda: random_connected_network(np.random.default_rng(3), 12, 12),
    lambda: Network(3, (Branch(1, 2, Element.impedance(complex(-0.0, -1.0))),
                        Branch(2, 3, Element.capacitor(2.0)),
                        Branch(3, 1, Element.impedance(complex(1.0, -0.0))))),
    lambda: parse_netlist("NET 3\nZ 1 2 -0 -1\nL 2 3 1e-3\nZ 3 1 1 -0.0\nR 1 2 5\n"),
], ids=["ring", "grid", "rlcz", "constructor", "parser"])
def test_network_api(build):
    net = build()
    back = parse_netlist(serialize_netlist(net))
    assert net == back and hash(net) == hash(back) and net.branches == back.branches
    assert type(net.branches) is tuple
    assert all(type(br) is Branch for br in back.branches)
    assert repr(net) == repr(back) == (
        f"Network(node_count={net.node_count!r}, branches={net.branches!r})")
    for copied in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
        assert copied == net and hash(copied) == hash(net)
        assert repr(copied) == repr(net)
    assert net != Network(net.node_count, net.branches[1:] + net.branches[:1])
    for target in (net, back):
        with pytest.raises(AttributeError):
            target.node_count = 7
        with pytest.raises(AttributeError):
            target.branches = ()
        for column in (target.kinds, target.ends, target.values):
            with pytest.raises(ValueError):
                column[0] = column[1]
    # the columns: kind codes, 0-based ends, complex values
    assert back.ends.shape == (len(net.branches), 2)
    assert back.ends.tolist() == [[br.node_a - 1, br.node_b - 1] for br in net.branches]
    assert back.values.tolist() == [complex(br.element.value) for br in net.branches]
    assert [list(ElementKind)[k] for k in back.kinds.tolist()] == [
        br.element.kind for br in net.branches]


def test_signed_zero_parts_are_equal_and_hash_alike():
    def network(z):
        return Network(2, (Branch(1, 2, Element.impedance(z)),
                           Branch(1, 2, Element.resistor(1.0))))

    for z in (complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -2.0)):
        twin = complex(z.real + 0.0, z.imag + 0.0)
        assert network(z) == network(twin) and hash(network(z)) == hash(network(twin))
    assert network(1j) != network(2j)
    assert network(1.0) != Network(2, (Branch(1, 2, Element.resistor(1.0)),) * 2)


def test_no_branch_objects_built_outside_the_branches_property(monkeypatch):
    net = grid_network(4, 5, 1.0, 2.0, Boundary.TOROIDAL)
    text = serialize_netlist(net)
    tiny = Network(2, (Branch(1, 2, Element.resistor(1e-320)),))
    built = []
    post_init = Branch.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Branch, "__post_init__", counting)
    ops = {
        "parse_netlist": lambda: parse_netlist(text),
        "hash": lambda: hash(net),
        "==": lambda: net == parse_netlist(text),
        "pickle": lambda: pickle.loads(pickle.dumps(net)),
        "deepcopy": lambda: copy.deepcopy(net),
        "serialize_netlist": lambda: serialize_netlist(net),
        "grid_network": lambda: grid_network(4, 5, 1.0, 2.0, Boundary.TOROIDAL),
        "ring_network": lambda: ring_network(5, [Element.resistor(1.0)] * 5),
        "rejected admittance": lambda: pytest.raises(
            ValidationError, branch_admittances, tiny, 1.0),
    }
    for name, op in ops.items():
        op()
        assert built == [], name
    assert len(net.branches) == len(built) == 40  # the counter sees Branch()


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
    with pytest.raises(ValidationError, match="is not an Element"):
        ring_network(3, [Element.resistor(1.0), "R", Element.resistor(1.0)])


@pytest.mark.parametrize("size", [3.0, 2.5, "3", True, None])
def test_sizes_must_be_integers(size):
    with pytest.raises(ValidationError, match="ring size must be an integer"):
        ring_network(size, [Element.resistor(1.0)] * 3)
    for build in (grid_network, grid_resonances_analytic):
        for m, n in ((size, 3), (3, size)):
            with pytest.raises(ValidationError, match="grid dimensions must be integers"):
                build(m, n, 1.0, 1.0)


def test_oversized_generators_rejected_before_building():
    # Sizes past MAX_SIZE = sys.maxsize // 16, the rule of sweep --points,
    # are input errors checked before any list is built.
    assert check_ring_size(MAX_SIZE) == MAX_SIZE
    half = MAX_SIZE // 2
    assert check_grid(half, 2, 1.0, 1.0, Boundary.FREE)[:2] == (half, 2)
    for size in (MAX_SIZE + 1, 2 ** 63):
        with pytest.raises(ValidationError, match=f"ring of {size} nodes is too large"):
            ring_network(size, [])
    for m, n in ((2 ** 63, 3), (3, 2 ** 63), (2 ** 30, 2 ** 30)):
        for build in (grid_network, grid_resonances_analytic):
            with pytest.raises(ValidationError, match=f"grid of {m} x {n} nodes is too"):
                build(m, n, 1.0, 1.0)


def test_numpy_integer_sizes_accepted():
    ring = ring_network(np.int64(3), [Element.resistor(1.0)] * 3)
    assert ring == ring_network(3, [Element.resistor(1.0)] * 3)
    grid = grid_network(np.int32(3), np.int64(4), 1.0, 1.0)
    assert grid == grid_network(3, 4, 1.0, 1.0) and type(grid.node_count) is int
    assert (grid_resonances_analytic(np.int64(3), 4, 1.0, 1.0)
            == grid_resonances_analytic(3, 4, 1.0, 1.0))


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


def _grid_ends(m, n, wrap):
    """The 0-based branch ends of grid_network, built by loops: capacitors
    along x, then inductors along y, each kind's wrap branches last."""
    caps = [(x * n + y, (x + 1) % m * n + y) for x in range(m - 1 + wrap) for y in range(n)]
    inds = [(x * n + y, x * n + y + 1) for x in range(m) for y in range(n - 1)]
    inds += [(x * n + n - 1, x * n) for x in range(m)] if wrap else []
    return caps, inds


@pytest.mark.parametrize("boundary", list(Boundary))
def test_grid_network_branch_order(boundary):
    wrap = boundary is Boundary.TOROIDAL
    for m in (2, 3, 5, 6, 7, 9, 10):
        for n in (2, 3, 5, 6, 7, 9, 10):
            net = grid_network(m, n, 1.5, 0.25, boundary)
            caps, inds = _grid_ends(m, n, wrap)
            assert [tuple(e) for e in net.ends.tolist()] == caps + inds
            assert net.kinds.tolist() == (
                [KIND_CODES[ElementKind.CAPACITOR]] * len(caps)
                + [KIND_CODES[ElementKind.INDUCTOR]] * len(inds))
            assert net.values.tolist() == [0.25] * len(caps) + [1.5] * len(inds)


def test_grid_network_validation():
    with pytest.raises(ValidationError):
        grid_network(1, 4, 1.0, 1.0)
    with pytest.raises(ValidationError):
        grid_network(3, 3, -1.0, 1.0)

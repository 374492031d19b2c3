"""Network model and netlist I/O.

A network is a finite set of nodes labelled 1..node_count joined by
two-terminal branches (resistors, inductors, capacitors, or fixed complex
impedances).  Parallel branches between the same node pair are legal and are
kept distinct here; they are merged only when the Laplacian is assembled.

Netlist grammar (UTF-8, LF or CRLF, '#' starts a comment, blank lines
ignored)::

    NET <node_count>
    R <a> <b> <ohms>
    L <a> <b> <henries>
    C <a> <b> <farads>
    Z <a> <b> <re_ohms> <im_ohms>

Node labels are 1-based in files and in every public signature; they are
converted to 0-based array indices only inside the numeric modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    DisconnectedError,
    InvalidNodeError,
    NetlistSyntaxError,
    ValidationError,
)


class ElementKind(Enum):
    RESISTOR = "R"
    INDUCTOR = "L"
    CAPACITOR = "C"
    IMPEDANCE = "Z"


class Boundary(Enum):
    FREE = "free"
    TOROIDAL = "toroidal"


@dataclass(frozen=True)
class Element:
    """A two-terminal element: kind plus its defining value.

    The value is a positive float for R (ohms), L (henries), C (farads),
    and a nonzero finite complex impedance in ohms for kind IMPEDANCE.
    """

    kind: ElementKind
    value: float | complex

    def __post_init__(self):
        if self.kind is ElementKind.IMPEDANCE:
            z = complex(self.value)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValidationError("fixed impedance must be finite")
            if z == 0:
                raise ValidationError("fixed impedance must be nonzero")
            object.__setattr__(self, "value", z)
        else:
            v = self.value
            if isinstance(v, complex):
                if v.imag != 0:
                    raise ValidationError(
                        f"{self.kind.name.lower()} value must be real"
                    )
                v = v.real
            v = float(v)
            if not math.isfinite(v) or v <= 0:
                raise ValidationError(
                    f"{self.kind.name.lower()} value must be positive and "
                    f"finite, got {self.value!r}"
                )
            object.__setattr__(self, "value", v)

    @classmethod
    def resistor(cls, ohms: float) -> "Element":
        return cls(ElementKind.RESISTOR, ohms)

    @classmethod
    def inductor(cls, henries: float) -> "Element":
        return cls(ElementKind.INDUCTOR, henries)

    @classmethod
    def capacitor(cls, farads: float) -> "Element":
        return cls(ElementKind.CAPACITOR, farads)

    @classmethod
    def impedance(cls, ohms: complex) -> "Element":
        return cls(ElementKind.IMPEDANCE, ohms)


@dataclass(frozen=True)
class Branch:
    """One element joining two distinct 1-based nodes."""

    node_a: int
    node_b: int
    element: Element

    def __post_init__(self):
        a, b = self.node_a, self.node_b
        if not (isinstance(a, int) and isinstance(b, int)):
            raise ValidationError("node labels must be integers")
        if a < 1 or b < 1:
            raise ValidationError(f"node labels must be >= 1, got ({a}, {b})")
        if a == b:
            raise ValidationError(f"self-loop at node {a} is not allowed")


@dataclass(frozen=True)
class Network:
    """Immutable network: node count plus an ordered tuple of branches.

    Construction validates node ranges, rejects self-loops (via Branch) and
    empty branch lists, and requires the branch graph to connect all nodes;
    a DisconnectedError names the components otherwise.
    """

    node_count: int
    branches: tuple[Branch, ...]

    def __post_init__(self):
        n = self.node_count
        if not isinstance(n, int) or n < 1:
            raise ValidationError(f"node_count must be a positive int, got {n!r}")
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise ValidationError("network has no branches")
        for br in self.branches:
            if br.node_a > n or br.node_b > n:
                raise ValidationError(
                    f"branch ({br.node_a}, {br.node_b}) references a node "
                    f"outside 1..{n}"
                )
        comps = _components(n, self.branches)
        if len(comps) > 1:
            raise DisconnectedError(comps)


def check_pair(net: Network, p: int, q: int) -> None:
    """Raise InvalidNodeError unless p and q are distinct labels of net."""
    n = net.node_count
    for label in (p, q):
        if not isinstance(label, int) or label < 1 or label > n:
            raise InvalidNodeError(f"node label {label!r} outside 1..{n}")
    if p == q:
        raise InvalidNodeError(f"node pair must be distinct, got ({p}, {q})")


def _components(n: int, branches) -> list[list[int]]:
    """Connected components of the branch graph, as lists of 1-based nodes."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for br in branches:
        ra, rb = find(br.node_a), find(br.node_b)
        if ra != rb:
            parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for node in range(1, n + 1):
        groups.setdefault(find(node), []).append(node)
    return list(groups.values())


# ── netlist I/O ──────────────────────────────────────────────────────────

def parse_netlist(text: str) -> Network:
    """Parse netlist text into a Network.

    Raises NetlistSyntaxError (with the offending line number) for malformed
    text, ValidationError for semantically bad entries, DisconnectedError if
    the graph does not connect all declared nodes.
    """
    node_count = None
    branches: list[Branch] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if node_count is None:
            if tokens[0] != "NET":
                raise NetlistSyntaxError(
                    lineno, f"expected 'NET <node_count>' header, got {tokens[0]!r}"
                )
            if len(tokens) != 2:
                raise NetlistSyntaxError(lineno, "header must be 'NET <node_count>'")
            node_count = _parse_int(tokens[1], lineno, "node count")
            if node_count < 1:
                raise ValidationError(f"line {lineno}: node count must be >= 1")
            continue
        kind_token = tokens[0]
        if kind_token in ("R", "L", "C"):
            if len(tokens) != 4:
                raise NetlistSyntaxError(
                    lineno, f"{kind_token} line must be '{kind_token} <a> <b> <value>'"
                )
            a = _parse_int(tokens[1], lineno, "node label")
            b = _parse_int(tokens[2], lineno, "node label")
            value = _parse_float(tokens[3], lineno)
            element = _make_element(ElementKind(kind_token), value, lineno)
        elif kind_token == "Z":
            if len(tokens) != 5:
                raise NetlistSyntaxError(lineno, "Z line must be 'Z <a> <b> <re> <im>'")
            a = _parse_int(tokens[1], lineno, "node label")
            b = _parse_int(tokens[2], lineno, "node label")
            re = _parse_float(tokens[3], lineno)
            im = _parse_float(tokens[4], lineno)
            element = _make_element(ElementKind.IMPEDANCE, complex(re, im), lineno)
        else:
            raise NetlistSyntaxError(
                lineno, f"unknown element kind {kind_token!r} (expected R, L, C, or Z)"
            )
        if a > node_count or b > node_count:
            raise ValidationError(
                f"line {lineno}: branch ({a}, {b}) references a node outside "
                f"1..{node_count}"
            )
        try:
            branches.append(Branch(a, b, element))
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
    if node_count is None:
        raise NetlistSyntaxError(None, "empty netlist: missing 'NET' header")
    return Network(node_count, tuple(branches))


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise NetlistSyntaxError(lineno, f"bad {what} {token!r}") from None


def _parse_float(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise NetlistSyntaxError(lineno, f"bad numeric value {token!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"line {lineno}: values must be finite, got {token!r}")
    return value


def _make_element(kind: ElementKind, value, lineno: int) -> Element:
    try:
        return Element(kind, value)
    except ValidationError as exc:
        raise ValidationError(f"line {lineno}: {exc}") from None


def serialize_netlist(net: Network) -> str:
    """Render a Network back to netlist text.

    Values are printed with 17 significant digits, enough for an exact
    round-trip of IEEE doubles through parse_netlist.
    """
    lines = [f"NET {net.node_count}"]
    for br in net.branches:
        e = br.element
        if e.kind is ElementKind.IMPEDANCE:
            z = e.value
            lines.append(
                f"Z {br.node_a} {br.node_b} {_fmt(z.real)} {_fmt(z.imag)}"
            )
        else:
            lines.append(f"{e.kind.value} {br.node_a} {br.node_b} {_fmt(e.value)}")
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ── generators ───────────────────────────────────────────────────────────

def ring_network(n: int, elements) -> Network:
    """Ring of n nodes where element k joins nodes k and k+1 (n joins 1).

    Parameters
    ----------
    n : int
        Node count, at least 3.
    elements : sequence of Element
        Exactly n elements, one per ring edge, in edge order.
    """
    if n < 3:
        raise ValidationError(f"ring needs at least 3 nodes, got {n}")
    elements = list(elements)
    if len(elements) != n:
        raise ValidationError(
            f"ring of {n} nodes needs exactly {n} elements, got {len(elements)}"
        )
    branches = [
        Branch(k, k % n + 1, elements[k - 1]) for k in range(1, n + 1)
    ]
    return Network(n, tuple(branches))


def grid_network(
    m: int,
    n: int,
    inductance: float,
    capacitance: float,
    boundary: Boundary = Boundary.FREE,
) -> Network:
    """Rectangular m-by-n LC grid.

    Node (x, y) with x in 0..m-1, y in 0..n-1 is labelled x*n + y + 1.
    Capacitors join neighbours along the m direction (x varying), inductors
    along the n direction (y varying).  Toroidal boundaries add one wrap
    branch per row and column; for m == 2 or n == 2 the wrap duplicates an
    interior edge and is kept as a parallel branch.

    Parameters
    ----------
    m, n : int
        Grid dimensions, both at least 2.
    inductance, capacitance : float
        Element values in henries and farads, both positive.
    boundary : Boundary
        FREE (default) or TOROIDAL.
    """
    if m < 2 or n < 2:
        raise ValidationError(f"grid dimensions must be >= 2, got ({m}, {n})")
    if not isinstance(boundary, Boundary):
        raise ValidationError(f"bad boundary {boundary!r}")
    cap = Element.capacitor(capacitance)
    ind = Element.inductor(inductance)

    def node(x: int, y: int) -> int:
        return x * n + y + 1

    branches: list[Branch] = []
    for x in range(m - 1):
        for y in range(n):
            branches.append(Branch(node(x, y), node(x + 1, y), cap))
    if boundary is Boundary.TOROIDAL:
        for y in range(n):
            branches.append(Branch(node(m - 1, y), node(0, y), cap))
    for x in range(m):
        for y in range(n - 1):
            branches.append(Branch(node(x, y), node(x, y + 1), ind))
    if boundary is Boundary.TOROIDAL:
        for x in range(m):
            branches.append(Branch(node(x, n - 1), node(x, 0), ind))
    return Network(m * n, tuple(branches))

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
import operator
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
        a, b = _as_int(self.node_a), _as_int(self.node_b)
        if a is None or b is None:
            raise ValidationError("node labels must be integers")
        if a < 1 or b < 1:
            raise ValidationError(f"node labels must be >= 1, got ({a}, {b})")
        if a == b:
            raise ValidationError(f"self-loop at node {a} is not allowed")
        object.__setattr__(self, "node_a", a)
        object.__setattr__(self, "node_b", b)


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
        n = _as_int(self.node_count)
        if n is None or n < 1:
            raise ValidationError(f"node_count must be a positive int, "
                                  f"got {self.node_count!r}")
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise ValidationError("network has no branches")
        for br in self.branches:
            if br.node_a > n or br.node_b > n:
                raise ValidationError(
                    f"branch ({br.node_a}, {br.node_b}) references a node "
                    f"outside 1..{n}"
                )
        comps = _components(n, ((br.node_a, br.node_b) for br in self.branches))
        if len(comps) > 1:
            raise DisconnectedError(comps)


def check_pair(net: Network, p: int, q: int) -> tuple[int, int]:
    """p and q as ints; raise InvalidNodeError unless they are distinct
    labels of net.  Any integer type is accepted (numpy's too), bool not."""
    n = net.node_count
    for label in (p, q):
        index = _as_int(label)
        if index is None:
            raise InvalidNodeError(f"node label {label!r} must be an integer")
        if not 1 <= index <= n:
            raise InvalidNodeError(f"node label {label} outside 1..{n}")
    if p == q:
        raise InvalidNodeError(f"node pair must be distinct, got ({p}, {q})")
    return operator.index(p), operator.index(q)


def _as_int(value) -> int | None:
    """value as a plain int if it is an integer of any type but bool."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def _components(n: int, edges) -> list[list[int]]:
    """Components of nodes 1..n joined by (a, b) edges; a lone node is its own."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
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
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        try:
            if node_count is None:
                if tokens[0] != "NET" or len(tokens) != 2:
                    raise NetlistSyntaxError(None, "header must be 'NET <node_count>'")
                node_count = _parse(int, tokens[1], "node count")
                if node_count < 1:
                    raise ValidationError("node count must be >= 1")
                continue
            element = make_element(tokens[0], tokens[3:])
            a = _parse(int, tokens[1], "node label")
            b = _parse(int, tokens[2], "node label")
            if a > node_count or b > node_count:
                raise ValidationError(
                    f"branch ({a}, {b}) references a node outside 1..{node_count}"
                )
            branches.append(Branch(a, b, element))
        except NetlistSyntaxError as exc:
            raise NetlistSyntaxError(lineno, exc.reason) from None
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
    if node_count is None:
        raise NetlistSyntaxError(None, "empty netlist: missing 'NET' header")
    if node_count > len(branches) + 1:  # before Network's O(node_count) check
        raise ValidationError(f"{node_count} nodes need at least {node_count - 1} "
                              f"branches to be connected, got {len(branches)}")
    return Network(node_count, tuple(branches))


# Value tokens after each kind letter: R, L and C take their value, Z its
# real and imaginary parts.
_VALUE_COUNT = {"R": 1, "L": 1, "C": 1, "Z": 2}
_KINDS = {kind.value: kind for kind in ElementKind}


def make_element(kind: str, values) -> Element:
    """The Element of kind letter R, L, C or Z from its value tokens, as on a
    netlist line.  Bad tokens raise NetlistSyntaxError without a line number,
    values that Element rejects ValidationError."""
    count = _VALUE_COUNT.get(kind)
    if count is None:
        raise NetlistSyntaxError(None, f"element kind {kind!r} is not R, L, C or Z")
    if len(values) != count:
        raise NetlistSyntaxError(None, f"{kind} takes {count} value(s), got {values}")
    numbers = [_parse(float, v, "numeric value") for v in values]
    return Element(_KINDS[kind], complex(*numbers) if count == 2 else numbers[0])


def _parse(convert, token: str, what: str):
    """convert(token), or a NetlistSyntaxError naming the bad token."""
    try:
        return convert(token)
    except ValueError:
        raise NetlistSyntaxError(None, f"bad {what} {token!r}") from None


def serialize_netlist(net: Network) -> str:
    """Render a Network back to netlist text.

    Values are printed with 17 significant digits, enough for an exact
    round-trip of IEEE doubles through parse_netlist.
    """
    lines = [f"NET {net.node_count}"]
    for br in net.branches:
        kind, v = br.element.kind.value, br.element.value
        values = (v.real, v.imag)[:_VALUE_COUNT[kind]]  # R, L, C: v.real is v
        lines.append(f"{kind} {br.node_a} {br.node_b} " + " ".join(map(_fmt, values)))
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ── generators ───────────────────────────────────────────────────────────

def check_ring_size(n: int) -> None:
    """Raise ValidationError unless a ring of n nodes has at least 3."""
    if n < 3:
        raise ValidationError(f"ring needs at least 3 nodes, got {n}")


def check_grid(
    m: int, n: int, inductance: float, capacitance: float, boundary: Boundary
) -> tuple[Element, Element]:
    """The inductor and capacitor of a valid m-by-n grid; ValidationError
    unless m, n >= 2, boundary is a Boundary and Element takes both values."""
    if m < 2 or n < 2:
        raise ValidationError(f"grid dimensions must be >= 2, got ({m}, {n})")
    if not isinstance(boundary, Boundary):
        raise ValidationError(f"bad boundary {boundary!r}")
    return Element.inductor(inductance), Element.capacitor(capacitance)


def ring_network(n: int, elements) -> Network:
    """Ring of n nodes where element k joins nodes k and k+1 (n joins 1).

    Parameters
    ----------
    n : int
        Node count, at least 3.
    elements : sequence of Element
        Exactly n elements, one per ring edge, in edge order.
    """
    check_ring_size(n)
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
    ind, cap = check_grid(m, n, inductance, capacitance, boundary)

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

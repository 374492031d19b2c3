"""Network model and netlist I/O.

A network is a finite set of nodes labelled 1..node_count joined by
two-terminal branches (resistors, inductors, capacitors, or fixed complex
impedances).  Parallel branches between the same node pair are legal and are
kept distinct here; they are merged only when the Laplacian is assembled.

A Network holds its branches as read-only array columns: ``kinds``
(KIND_CODES), ``ends`` (0-based nodes, shape (b, 2)) and complex ``values``.
parse_netlist fills them without per-branch objects, the numeric modules
read them, and the tuple ``branches`` is built from them on first access.

Netlist grammar (UTF-8, lines end at LF, CRLF or CR, '#' starts a comment,
blank lines ignored)::

    NET <node_count>
    R <a> <b> <ohms>
    L <a> <b> <henries>
    C <a> <b> <farads>
    Z <a> <b> <re_ohms> <im_ohms>

Node labels are 1-based in files and in every public signature; they are
0-based array indices only in ``ends`` and inside the numeric modules.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

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
        if not isinstance(self.kind, ElementKind):
            raise ValidationError(f"element kind {self.kind!r} is not an ElementKind")
        object.__setattr__(self, "value", _check_value(self.kind, self.value))

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


def _check_value(kind: ElementKind, value):
    """value as an Element of kind holds it, or ValidationError."""
    if kind is ElementKind.IMPEDANCE:
        z = complex(value)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValidationError("fixed impedance must be finite")
        if z == 0:
            raise ValidationError("fixed impedance must be nonzero")
        return z
    if isinstance(value, complex) and value.imag != 0:
        raise ValidationError(f"{kind.name.lower()} value must be real")
    v = float(value.real if isinstance(value, complex) else value)
    if not math.isfinite(v) or v <= 0:
        raise ValidationError(f"{kind.name.lower()} value must be positive and "
                              f"finite, got {value!r}")
    return v


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
        _check_ends(a, b)
        object.__setattr__(self, "node_a", a)
        object.__setattr__(self, "node_b", b)


def _check_ends(a: int, b: int, n: float = math.inf) -> None:
    """Raise ValidationError unless int labels a and b are distinct in 1..n."""
    if a > n or b > n:
        raise ValidationError(f"branch ({a}, {b}) references a node outside 1..{n}")
    if a < 1 or b < 1:
        raise ValidationError(f"node labels must be >= 1, got ({a}, {b})")
    if a == b:
        raise ValidationError(f"self-loop at node {a} is not allowed")


# The code of each kind in Network.kinds: its position in ElementKind.
KIND_CODES = {kind: code for code, kind in enumerate(ElementKind)}
_KIND_OF_CODE = tuple(ElementKind)


@dataclass(frozen=True, init=False, repr=False, eq=False)
class Network:
    """Immutable network: node count plus its branches as columns (see the
    module docstring); equal, hashed, shown and pickled as (node_count, branches).

    Construction validates node ranges, rejects self-loops (via Branch) and
    empty branch lists, and requires the branch graph to connect all nodes;
    a DisconnectedError names the components otherwise.
    """

    node_count: int
    kinds: np.ndarray
    ends: np.ndarray
    values: np.ndarray

    def __init__(self, node_count: int, branches) -> None:
        n = _as_int(node_count)
        if n is None or n < 1:
            raise ValidationError(f"node_count must be a positive int, got {node_count!r}")
        branches = tuple(branches)
        for br in branches:
            _check_ends(br.node_a, br.node_b, n)
        self._fill(n, [KIND_CODES[br.element.kind] for br in branches],
                   [end - 1 for br in branches for end in (br.node_a, br.node_b)],
                   [br.element.value for br in branches], branches)

    def _fill(self, n: int, kinds: list, ends: list, values: list, branches) -> Network:
        """self with columns from checked lists (kind codes, 0-based a0, b0, a1,
        b1... and values); raise unless there are branches joining all n nodes."""
        if not kinds:
            raise ValidationError("network has no branches")
        comps = _components(n, ends)
        if len(comps) > 1:
            raise DisconnectedError(comps)
        columns = dict(kinds=np.array(kinds, np.int8), values=np.array(values, complex),
                       ends=np.array(ends, np.intp).reshape(-1, 2))
        for column in columns.values():
            column.flags.writeable = False
        vars(self).update(columns, node_count=n, _branches=branches)  # frozen: no setattr
        return self

    @property
    def branches(self) -> tuple[Branch, ...]:
        """The branches as Branch objects, in order."""
        if self._branches is None:  # Element takes an R, L or C value as v.real
            columns = zip(self.kinds.tolist(), self.ends.tolist(), self.values.tolist())
            object.__setattr__(self, "_branches", tuple(
                Branch(a + 1, b + 1, Element(_KIND_OF_CODE[k], v)) for k, (a, b), v in columns))
        return self._branches

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.node_count, self.branches) == (other.node_count, other.branches)

    def __hash__(self):
        return hash((self.node_count, self.branches))

    def __repr__(self):
        return f"Network(node_count={self.node_count!r}, branches={self.branches!r})"

    def __reduce__(self):
        return Network, (self.node_count, self.branches)


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


def _components(n: int, ends: list[int]) -> list[list[int]]:
    """Components (1-based labels) of n nodes joined at 0-based a0, b0, a1, b1..."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = iter(ends)
    for a, b in zip(pairs, pairs):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for node in range(n):
        groups.setdefault(find(node), []).append(node + 1)
    return list(groups.values())


# ── netlist I/O ──────────────────────────────────────────────────────────

def parse_netlist(text: str) -> Network:
    """Parse netlist text into a Network.

    Raises NetlistSyntaxError (with the offending line number) for malformed
    text, ValidationError for semantically bad entries, DisconnectedError if
    the graph does not connect all declared nodes.
    """
    node_count, kinds, ends, values = None, [], [], []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
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
            _, code, value = _element(tokens[0], tokens[3:])
            a = _parse(int, tokens[1], "node label")
            b = _parse(int, tokens[2], "node label")
            _check_ends(a, b, node_count)
        except NetlistSyntaxError as exc:
            raise NetlistSyntaxError(lineno, exc.reason) from None
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        kinds.append(code)
        ends += a - 1, b - 1
        values.append(value)
    if node_count is None:
        raise NetlistSyntaxError(None, "empty netlist: missing 'NET' header")
    if node_count > len(kinds) + 1:  # before the O(node_count) connectivity check
        raise ValidationError(f"{node_count} nodes need at least {node_count - 1} "
                              f"branches to be connected, got {len(kinds)}")
    return Network.__new__(Network)._fill(node_count, kinds, ends, values, None)


# Per kind letter: its kind, code and value tokens (R, L and C take their
# value, Z its real and imaginary parts).
_LETTERS = {kind.value: (kind, code, 1 + (kind is ElementKind.IMPEDANCE))
            for kind, code in KIND_CODES.items()}


def make_element(kind: str, values) -> Element:
    """The Element of kind letter R, L, C or Z from its value tokens, as on a
    netlist line.  Bad tokens raise NetlistSyntaxError without a line number,
    values that Element rejects ValidationError."""
    kind, _, value = _element(kind, values)
    return Element(kind, value)


def _element(letter: str, values) -> tuple[ElementKind, int, float | complex]:
    """make_element's kind, its code and the checked value."""
    if letter not in _LETTERS:
        raise NetlistSyntaxError(None, f"element kind {letter!r} is not R, L, C or Z")
    kind, code, count = _LETTERS[letter]
    if len(values) != count:
        raise NetlistSyntaxError(None, f"{letter} takes {count} value(s), got {values}")
    value = _parse(float, values[0], "numeric value")
    if count == 2:
        value = complex(value, _parse(float, values[1], "numeric value"))
    return kind, code, _check_value(kind, value)


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
        values = (v.real, v.imag)[:_LETTERS[kind][2]]  # R, L, C: v.real is v
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

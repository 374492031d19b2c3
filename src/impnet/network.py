"""Network model and netlist I/O.

A network is a finite set of nodes labelled 1..node_count joined by
two-terminal branches (resistors, inductors, capacitors, or fixed complex
impedances).  Parallel branches between the same node pair are legal and are
kept distinct here; they are merged only when the Laplacian is assembled.

A Network is its node count and three read-only array columns: ``kinds``
(KIND_CODES), ``ends`` (0-based nodes, shape (b, 2)) and complex ``values``.
Every way to build one ends in Network._fill, which holds the structural
checks; the ``branches`` property builds Branch objects from the columns.

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
import numbers
import operator
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DisconnectedError,
    InvalidNodeError,
    NetlistSyntaxError,
    ValidationError,
)


# The largest node count of a generated network and the most sweep points:
# past it how allocation fails (OverflowError, MemoryError, or none for a
# while) varies with the size, numpy and the host.
MAX_SIZE = sys.maxsize // 16


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
        z = _as_number(value, complex)
        if z is None:
            raise ValidationError(f"fixed impedance must be a number, got {value!r}")
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValidationError("fixed impedance must be finite")
        if z == 0:
            raise ValidationError("fixed impedance must be nonzero")
        return z
    v = _as_number(value)
    if v is None:
        raise ValidationError(f"{kind.name.lower()} value must be a real number, got {value!r}")
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
        _check_element(self.element)
        object.__setattr__(self, "node_a", a)
        object.__setattr__(self, "node_b", b)


def _check_element(element) -> None:
    if not isinstance(element, Element):
        raise ValidationError(f"{element!r} is not an Element")


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
    module docstring), equal and hashed by them; shown as (node_count, branches).

    Construction validates node ranges, rejects self-loops (via Branch),
    items that are not Branches and fewer than node_count - 1 branches, and
    requires the branch graph to connect all nodes; a DisconnectedError
    names the components otherwise.
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
            if not isinstance(br, Branch):
                raise ValidationError(f"network branch {br!r} is not a Branch")
            _check_ends(br.node_a, br.node_b, n)
        self._fill(n, [KIND_CODES[br.element.kind] for br in branches],
                   [end - 1 for br in branches for end in (br.node_a, br.node_b)],
                   [br.element.value for br in branches])

    def _fill(self, n: int, kinds: list, ends: list, values: list) -> Network:
        """self with columns from checked lists (kind codes, 0-based a0, b0, a1,
        b1... and values); raise unless there are branches joining all n nodes."""
        if n > len(kinds) + 1:  # before the O(n) connectivity check
            raise ValidationError(f"{n} nodes need at least {n - 1} branches "
                                  f"to be connected, got {len(kinds)}")
        if not kinds:
            raise ValidationError("network has no branches")
        comps = _components(n, ends)
        if len(comps) > 1:
            raise DisconnectedError(comps)
        columns = dict(kinds=np.array(kinds, np.int8), values=np.array(values, complex),
                       ends=np.array(ends, np.intp).reshape(-1, 2))
        for column in columns.values():
            column.flags.writeable = False
        vars(self).update(columns, node_count=n)  # frozen: no setattr
        return self

    @property
    def branches(self) -> tuple[Branch, ...]:
        """The branches as Branch objects, in order, built from the columns."""
        columns = zip(self.kinds.tolist(), self.ends.tolist(), self.values.tolist())
        return tuple(Branch(a + 1, b + 1, _column_element(k, v)) for k, (a, b), v in columns)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self):
        columns = self.kinds, self.ends, self.values + 0.0  # -0.0 parts to 0.0, as ==
        return hash((self.node_count, *(column.tobytes() for column in columns)))

    def __repr__(self):
        return f"Network(node_count={self.node_count!r}, branches={self.branches!r})"

    def __getstate__(self):  # pickle and deepcopy rebuild through _fill
        return self.node_count, self.kinds.tolist(), self.ends.ravel().tolist(), self.values.tolist()

    def __setstate__(self, state):
        self._fill(*state)


def _column_element(code: int, value: complex) -> Element:
    """The Element of a kind code and its column value (R, L, C: value.real)."""
    kind = _KIND_OF_CODE[code]
    return Element(kind, value if kind is ElementKind.IMPEDANCE else value.real)


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


def _as_number(value, convert=float) -> float | complex | None:
    """value as a float if it is a real number of any type but bool (as a
    complex, for convert=complex, if any number); None otherwise, as for a str."""
    if type(value) is convert:  # as parse_netlist gives it, without an ABC check
        return value
    if isinstance(value, bool) or not isinstance(
            value, numbers.Real if convert is float else numbers.Complex):
        return None
    try:
        return convert(value)
    except OverflowError:  # an int beyond the float range
        return convert(math.inf)


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

    A well-formed element line (known letter, token count, int labels in
    1..n and distinct, a positive finite value, or a finite nonzero Z) is
    read inline in one pass; any other line goes through the checks of
    make_element and the label checks, which raise every error.

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
        entry = _LETTERS.get(tokens[0]) if node_count is not None else None
        if entry is not None and len(tokens) == 3 + entry[2]:
            _, code, count = entry
            try:
                a, b, value = int(tokens[1]), int(tokens[2]), float(tokens[3])
                size = value
                if count == 2:
                    value = complex(value, float(tokens[4]))
                    size = abs(value.real) + abs(value.imag)  # may overflow: then checked below
            except ValueError:
                pass
            else:
                if (0 < a <= node_count and 0 < b <= node_count and a != b
                        and 0.0 < size < math.inf):
                    kinds.append(code)
                    ends += a - 1, b - 1
                    values.append(value)
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
    return Network.__new__(Network)._fill(node_count, kinds, ends, values)


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
    for k, (a, b), v in zip(net.kinds.tolist(), net.ends.tolist(), net.values.tolist()):
        kind = _KIND_OF_CODE[k].value
        values = (v.real, v.imag)[:_LETTERS[kind][2]]  # R, L, C: v.real only
        lines.append(f"{kind} {a + 1} {b + 1} " + " ".join(map(_fmt, values)))
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ── generators ───────────────────────────────────────────────────────────

def check_ring_size(n: int) -> int:
    """n as an int; ValidationError unless it is an integer from 3 to MAX_SIZE."""
    size = _as_int(n)
    if size is None:
        raise ValidationError(f"ring size must be an integer, got {n!r}")
    if size < 3:
        raise ValidationError(f"ring needs at least 3 nodes, got {n}")
    if size > MAX_SIZE:
        raise ValidationError(f"ring of {n} nodes is too large")
    return size


def check_grid(
    m: int, n: int, inductance: float, capacitance: float, boundary: Boundary
) -> tuple[int, int, Element, Element]:
    """m and n as ints and the inductor and capacitor of a valid m-by-n grid;
    ValidationError unless m and n are integers >= 2 with m n <= MAX_SIZE,
    boundary is a Boundary and Element takes both values."""
    dims = _as_int(m), _as_int(n)
    if None in dims:
        raise ValidationError(f"grid dimensions must be integers, got ({m!r}, {n!r})")
    if min(dims) < 2:
        raise ValidationError(f"grid dimensions must be >= 2, got ({m}, {n})")
    if dims[0] * dims[1] > MAX_SIZE:
        raise ValidationError(f"grid of {m} x {n} nodes is too large")
    if not isinstance(boundary, Boundary):
        raise ValidationError(f"bad boundary {boundary!r}")
    return *dims, Element.inductor(inductance), Element.capacitor(capacitance)


def ring_network(n: int, elements) -> Network:
    """Ring of n nodes where element k joins nodes k and k+1 (n joins 1).

    Parameters
    ----------
    n : int
        Node count, at least 3.
    elements : sequence of Element
        Exactly n elements, one per ring edge, in edge order.
    """
    n = check_ring_size(n)
    elements = list(elements)
    if len(elements) != n:
        raise ValidationError(
            f"ring of {n} nodes needs exactly {n} elements, got {len(elements)}"
        )
    for e in elements:
        _check_element(e)
    return Network.__new__(Network)._fill(
        n, [KIND_CODES[e.kind] for e in elements],
        [end for k in range(n) for end in (k, (k + 1) % n)], [e.value for e in elements])


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
    m, n, ind, cap = check_grid(m, n, inductance, capacitance, boundary)
    wrap = boundary is Boundary.TOROIDAL
    # 0-based node (x, y) is x*n + y here; each kind's wrap branches come last.
    # The arrays come before any list, so a grid beyond memory fails at once.
    node = np.arange(m * n).reshape(m, n)
    caps = np.stack((node, np.roll(node, -1, 0)), -1)[:m - 1 + wrap].reshape(-1, 2)
    inds = np.stack((node, np.roll(node, -1, 1)), -1)
    inds = np.concatenate((inds[:, :-1].reshape(-1, 2), inds[:, -1][:m * wrap]))
    return Network.__new__(Network)._fill(
        m * n, [KIND_CODES[cap.kind]] * len(caps) + [KIND_CODES[ind.kind]] * len(inds),
        np.concatenate((caps, inds)).ravel().tolist(),
        [cap.value] * len(caps) + [ind.value] * len(inds))

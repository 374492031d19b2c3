"""Seeded inputs, op lists and reference checks of the benchmark workloads.

A workload is built from its name and a seed into a set of netlist files and
one *round*: a fixed, ordered list of CLI commands.  The timed loop repeats
whole rounds.  Failures and resonances are counted once per command of the
round, so they do not depend on how many rounds a run fits in.  The networks
that carry known defects (wide-spread resistor networks) are one fixed panel,
the same for every seed, so those counts do not depend on the seed either.

Netlists are written by this module, not by the package, so the inputs stay
the same when the package's generators change.  Nothing here imports numpy;
the reference checks import the package lazily.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("pair_query", "check_table", "resonance_search")

# Relative tolerances of the reference checks.
PAIR_REL_TOL = 1e-8
RESONANCE_REL_TOL = 1e-6
# Closed-form resonances closer than this (relative) are one resonance, as in
# the package's own closed form.
_MERGE_REL_TOL = 1e-9

# pair_query: random RLCZ networks per size, queries per network.
_PAIR_SIZES = (30, 60, 120, 240)
_PAIR_NETS_PER_SIZE = 4
_PAIR_QUERIES_PER_NET = 5
_PAIR_GRIDS = (10, 15)
_PAIR_QUERIES_PER_GRID = 10
# One query on each of many wide-spread resistor networks: whether a network
# is falsely reported resonant is a per-network event.  The networks come from
# _PANEL_SEED, not from the workload seed.
_PAIR_RESISTOR_NETS = 40
_PAIR_RESISTOR_SPREAD = 3.0

_CHECK_GRIDS = (6, 8, 10)
_CHECK_RLCZ_NODES = 64
_CHECK_RESISTOR_SPREAD = 5.0
# Seed of the fixed panel of resistor networks shared by every workload seed.
_PANEL_SEED = "impnet-bench/resistor-panel"

_GRID_OMEGA = 0.7
_RESONANCE_GRIDS = ((6, "free"), (8, "free"), (6, "toroidal"))
_RESONANCE_POINTS = 2001

# Exit codes of the CLI (see impnet.cli).
EXIT_OK, EXIT_INPUT_ERROR, EXIT_RESONANT, EXIT_CHECK_FAILED = 0, 1, 2, 3
_CLI_EXIT_CODES = {EXIT_OK, EXIT_INPUT_ERROR, EXIT_RESONANT, EXIT_CHECK_FAILED}

# A fixed four-node ring of all four element kinds, for the warm-up ops.
_WARM_NETLIST = (
    "NET 4\nR 1 2 1.0\nL 2 3 1.0\nC 3 4 1.0\nZ 4 1 1.0 0.5\n"
)


@dataclass(frozen=True)
class Op:
    """One CLI command of a round and the data its reference check needs."""

    argv: tuple[str, ...]
    netlist: str = ""
    omega: float = 0.0
    pair: tuple[int, int] = (0, 0)
    expected: tuple[float, ...] = ()


@dataclass
class Workload:
    name: str
    files: dict[str, str]
    ops: list[Op]
    warmup: tuple[str, ...]

    def write(self, directory: Path) -> str:
        """Write every netlist under directory; return the SHA-256 of all of
        them, taken in file-name order."""
        directory.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256()
        for name in sorted(self.files):
            data = self.files[name].encode("utf-8")
            (directory / name).write_bytes(data)
            digest.update(name.encode("utf-8") + b"\0" + data + b"\0")
        return digest.hexdigest()


@dataclass
class Verdict:
    """Outcome of one op under its reference check.

    ok is False for a wrong answer or an unexpected exit code; broken marks
    an op whose outcome could not be checked at all (exception, exit code
    the CLI does not define, unparseable output).
    """

    ok: bool
    broken: bool = False
    reason: str = ""
    deviation: float | None = None
    matched: int = 0
    expected: int = 0


# ── netlist generators ───────────────────────────────────────────────────

def _value(rng: random.Random, decades: float) -> float:
    return 10.0 ** rng.uniform(-decades, decades)


def random_netlist(
    rng: random.Random, n: int, kinds: str, decades: float
) -> str:
    """Connected network of n nodes and 2n branches: a random spanning tree
    plus random chords, each branch of a kind drawn from kinds with a value
    log-uniform in 10**(+-decades).  Z branches have a passive phase."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    while len(edges) < 2 * n:
        a, b = rng.sample(range(1, n + 1), 2)
        edges.add((min(a, b), max(a, b)))
    lines = [f"NET {n}"]
    for a, b in sorted(edges):
        kind = rng.choice(kinds)
        mag = _value(rng, decades)
        if kind == "Z":
            phase = rng.uniform(-0.5 * math.pi, 0.5 * math.pi)
            lines.append(f"Z {a} {b} {mag * math.cos(phase)!r} {mag * math.sin(phase)!r}")
        else:
            lines.append(f"{kind} {a} {b} {mag!r}")
    return "\n".join(lines) + "\n"


def grid_netlist(m: int, n: int, boundary: str = "free") -> str:
    """m-by-n LC grid with L = C = 1, in the package's layout: node (x, y)
    is x*n + y + 1, capacitors along x, inductors along y."""

    def node(x: int, y: int) -> int:
        return x * n + y + 1

    lines = [f"NET {m * n}"]
    for x in range(m - 1):
        lines += [f"C {node(x, y)} {node(x + 1, y)} 1.0" for y in range(n)]
    if boundary == "toroidal":
        lines += [f"C {node(m - 1, y)} {node(0, y)} 1.0" for y in range(n)]
    for x in range(m):
        lines += [f"L {node(x, y)} {node(x, y + 1)} 1.0" for y in range(n - 1)]
    if boundary == "toroidal":
        lines += [f"L {node(x, n - 1)} {node(x, 0)} 1.0" for x in range(m)]
    return "\n".join(lines) + "\n"


def grid_resonances(m: int, n: int, boundary: str = "free") -> tuple[float, ...]:
    """Closed-form resonances of the L = C = 1 grid (Tzeng & Wu):
    |sin(j pi / 2n) / sin(i pi / 2m)|, full angles for toroidal grids."""
    half = 2 if boundary == "free" else 1
    den = [math.sin(i * math.pi / (half * m)) for i in range(1, m)]
    num = [math.sin(j * math.pi / (half * n)) for j in range(1, n)]
    merged: list[float] = []
    for w in sorted(abs(sj / si) for si in den for sj in num):
        if not merged or w - merged[-1] > _MERGE_REL_TOL * w:
            merged.append(w)
    return tuple(merged)


# ── workloads ────────────────────────────────────────────────────────────

def build(name: str, seed: int, netdir: Path) -> Workload:
    """The named workload for a seed; netlist paths in argv point into
    netdir.  The same (name, seed) always gives the same files and ops."""
    rng = random.Random(f"impnet-bench/{name}/{seed}")
    panel = random.Random(f"{_PANEL_SEED}/{name}")
    files = {"warm.net": _WARM_NETLIST}
    ops: list[Op] = []

    def add(fname: str, text: str) -> str:
        files[fname] = text
        return str(netdir / fname)

    if name == "pair_query":
        def query(path: str, text: str, n: int, omega: float, rng=rng):
            p, q = rng.sample(range(1, n + 1), 2)
            ops.append(Op(
                argv=("impedance", path, "--pair", str(p), str(q),
                      "--omega", repr(omega), "--format", "json"),
                netlist=text, omega=omega, pair=(p, q),
            ))

        for n in _PAIR_SIZES:
            for k in range(_PAIR_NETS_PER_SIZE):
                text = random_netlist(rng, n, "RLCZ", 1.0)
                path = add(f"rlcz{n}_{k}.net", text)
                for _ in range(_PAIR_QUERIES_PER_NET):
                    query(path, text, n, _value(rng, 1.0))
        for m in _PAIR_GRIDS:
            text = grid_netlist(m, m)
            path = add(f"grid{m}x{m}.net", text)
            for _ in range(_PAIR_QUERIES_PER_GRID):
                query(path, text, m * m, _GRID_OMEGA)
        for k in range(_PAIR_RESISTOR_NETS):
            text = random_netlist(panel, 30, "R", _PAIR_RESISTOR_SPREAD)
            query(add(f"res30_{k}.net", text), text, 30, _value(panel, 1.0), panel)
        warm = ("impedance", str(netdir / "warm.net"), "--pair", "1", "3",
                "--omega", "1.0", "--format", "json")
    elif name == "check_table":
        def check(path: str, omega: float):
            ops.append(Op(argv=("check", path, "--omega", repr(omega))))

        for m in _CHECK_GRIDS:
            check(add(f"grid{m}x{m}.net", grid_netlist(m, m)), _GRID_OMEGA)
        n = _CHECK_RLCZ_NODES
        check(add(f"rlcz{n}.net", random_netlist(rng, n, "RLCZ", 1.0)),
              _value(rng, 1.0))
        check(add("res30.net", random_netlist(panel, 30, "R", _CHECK_RESISTOR_SPREAD)),
              _value(panel, 1.0))
        warm = ("check", str(netdir / "warm.net"), "--omega", "1.0")
    elif name == "resonance_search":
        for m, boundary in _RESONANCE_GRIDS:
            expected = grid_resonances(m, m, boundary)
            path = add(f"grid{m}x{m}_{boundary}.net", grid_netlist(m, m, boundary))
            ops.append(Op(
                argv=("resonances", path,
                      "--omega-lo", repr(0.8 * expected[0]),
                      "--omega-hi", repr(1.2 * expected[-1]),
                      "--points", str(_RESONANCE_POINTS), "--format", "json"),
                expected=expected,
            ))
        warm = ("resonances", str(netdir / "warm.net"), "--omega-lo", "0.5",
                "--omega-hi", "2.0", "--points", "101", "--format", "json")
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng.shuffle(ops)
    return Workload(name=name, files=files, ops=ops, warmup=warm)


# ── reference checks ─────────────────────────────────────────────────────

class References:
    """Reference answers, computed once per distinct op and outside the
    timed region."""

    def __init__(self):
        self._direct: dict[tuple, complex | None] = {}

    def direct(self, op: Op) -> complex | None:
        """Impedance by the package's direct grounded solve; None when the
        direct route calls the system singular."""
        key = (op.netlist, op.omega, op.pair)
        if key not in self._direct:
            from impnet.direct import solve_direct
            from impnet.network import parse_netlist

            z = solve_direct(parse_netlist(op.netlist), op.omega, *op.pair)
            self._direct[key] = complex(z) if isinstance(z, complex) else None
        return self._direct[key]

    def check(self, workload: str, op: Op, rc, stdout: str) -> Verdict:
        if not isinstance(rc, int) or rc not in _CLI_EXIT_CODES:
            return Verdict(ok=False, broken=True, reason=f"exit code {rc!r}")
        if workload == "pair_query":
            return check_pair(rc, stdout, self.direct(op))
        if workload == "check_table":
            return check_table(rc, stdout)
        return check_resonances(rc, stdout, op.expected)


def check_pair(rc: int, stdout: str, direct: complex | None) -> Verdict:
    """RESONANT exactly when the direct route is singular; finite values
    within PAIR_REL_TOL of the direct value."""
    if rc not in (EXIT_OK, EXIT_RESONANT):
        return Verdict(ok=False, reason=f"exit code {rc}")
    try:
        doc = json.loads(stdout)
        status = doc["status"]
        z = complex(doc["z_re"], doc["z_im"])
    except (ValueError, KeyError, TypeError):
        return Verdict(ok=False, broken=True, reason="unparseable output")
    if (status == "resonant") != (rc == EXIT_RESONANT):
        return Verdict(ok=False, broken=True, reason="status and exit code disagree")
    if direct is None:
        if rc == EXIT_RESONANT:
            return Verdict(ok=True)
        return Verdict(ok=False, reason="finite, direct route singular")
    if rc == EXIT_RESONANT:
        return Verdict(ok=False, reason="resonant, direct route finite")
    dev = abs(z - direct) / abs(direct)
    if dev <= PAIR_REL_TOL:
        return Verdict(ok=True, deviation=dev)
    return Verdict(ok=False, deviation=dev, reason=f"deviation {dev:.3g}")


def check_table(rc: int, stdout: str) -> Verdict:
    """The CLI's own all-pairs cross-check: exit code 0."""
    dev = None
    for line in stdout.splitlines():
        if line.startswith("max relative deviation:"):
            try:
                dev = float(line.split(":", 1)[1])
            except ValueError:
                return Verdict(ok=False, broken=True, reason="unparseable output")
    if rc == EXIT_OK:
        if dev is None:
            return Verdict(ok=False, broken=True, reason="no deviation line")
        return Verdict(ok=True, deviation=dev)
    return Verdict(ok=False, deviation=dev, reason=f"exit code {rc}")


def check_resonances(rc: int, stdout: str, expected: tuple[float, ...]) -> Verdict:
    """Every closed-form resonance matched within RESONANCE_REL_TOL and no
    reported resonance without a closed-form match."""
    if rc != EXIT_OK:
        return Verdict(ok=False, expected=len(expected), reason=f"exit code {rc}")
    try:
        found = [float(w) for w in json.loads(stdout)["omegas"]]
    except (ValueError, KeyError, TypeError):
        return Verdict(ok=False, broken=True, expected=len(expected),
                       reason="unparseable output")

    def nearest(w: float, candidates) -> float:
        return min((abs(c - w) / w for c in candidates), default=math.inf)

    devs = [nearest(w, found) for w in expected]
    matched = [d for d in devs if d <= RESONANCE_REL_TOL]
    spurious = sum(nearest(f, expected) > RESONANCE_REL_TOL for f in found)
    ok = len(matched) == len(expected) and spurious == 0
    return Verdict(
        ok=ok,
        deviation=max(matched, default=None),
        matched=len(matched),
        expected=len(expected),
        reason="" if ok else
        f"missed {len(expected) - len(matched)}, spurious {spurious}",
    )

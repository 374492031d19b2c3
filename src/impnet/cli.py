"""Command line interface.

Subcommands::

    impnet impedance NETLIST --pair P Q (--omega W | --freq HZ) [--format F]
    impnet sweep NETLIST --pair P Q --omega-lo A --omega-hi B --points N
    impnet resonances NETLIST --omega-lo A --omega-hi B [--format F]
    impnet generate (--ring N [--z RE,IM | --elements SPEC] |
                     --grid MxN --inductance H --capacitance F
                     [--boundary free|toroidal])
    impnet check NETLIST (--omega W | --freq HZ) [--pair P Q]

Exit codes: 0 success, 1 input error, 2 resonance found by an impedance
query, 3 cross-check failure.  All numeric output uses repr-style shortest
round-trip formatting with '.' as the decimal separator, so repeated runs
are byte identical.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from .direct import SingularSystem, solve_direct
from .errors import ImpnetError
from .impedance import (
    NEAR_RESONANCE_REL, ImpedanceResult, ImpedanceStatus, impedance_matrix,
    two_point_impedance,
)
from .laplacian import check_angular_frequency
from .network import (
    Boundary, Element, check_pair, grid_network, parse_netlist, ring_network,
    serialize_netlist,
)
from .resonance import find_resonances

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_RESONANT = 2
EXIT_CHECK_FAILED = 3

_CHECK_REL_TOL = 1e-8


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; remap to input error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    sign = "-" if (im < 0 or (im == 0 and math.copysign(1.0, im) < 0)) else "+"
    return f"{_fmt(re)} {sign} {_fmt(abs(im))}j"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="impnet", description="Circuit network impedance toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_omega(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--omega", type=float, help="angular frequency in rad/s")
        group.add_argument("--freq", type=float, help="frequency in Hz (omega = 2 pi f)")

    p_imp = sub.add_parser("impedance", help="two-point impedance at one frequency")
    p_imp.add_argument("netlist")
    p_imp.add_argument("--pair", nargs=2, type=int, required=True, metavar=("P", "Q"))
    add_omega(p_imp)
    p_imp.add_argument("--format", choices=("human", "json", "csv"), default="human")

    p_sweep = sub.add_parser("sweep", help="impedance versus frequency as CSV")
    p_sweep.add_argument("netlist")
    p_sweep.add_argument("--pair", nargs=2, type=int, required=True, metavar=("P", "Q"))
    p_sweep.add_argument("--omega-lo", type=float, required=True)
    p_sweep.add_argument("--omega-hi", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)

    p_res = sub.add_parser("resonances", help="every resonance frequency in a band")
    p_res.add_argument("netlist")
    p_res.add_argument("--omega-lo", type=float, required=True)
    p_res.add_argument("--omega-hi", type=float, required=True)
    p_res.add_argument(
        "--points", type=int, help="ignored; accepted for older command lines"
    )
    p_res.add_argument("--format", choices=("human", "json", "csv"), default="human")

    p_gen = sub.add_parser("generate", help="emit a generated netlist to stdout")
    kind = p_gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--ring", type=int, metavar="N")
    kind.add_argument("--grid", metavar="MxN")
    p_gen.add_argument("--z", metavar="RE,IM", help="uniform ring impedance")
    p_gen.add_argument(
        "--elements", metavar="SPEC",
        help="ring elements, e.g. 'L:1.0,L:1.0,C:2.5' (Z:RE:IM for impedances)",
    )
    p_gen.add_argument("--inductance", type=float, help="grid inductance in henries")
    p_gen.add_argument("--capacitance", type=float, help="grid capacitance in farads")
    p_gen.add_argument("--boundary", choices=("free", "toroidal"), default="free")

    p_check = sub.add_parser(
        "check", help="cross-check factorization impedance against direct solve"
    )
    p_check.add_argument("netlist")
    p_check.add_argument("--pair", nargs=2, type=int, metavar=("P", "Q"))
    add_omega(p_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "impedance":
            return _cmd_impedance(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "resonances":
            return _cmd_resonances(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "check":
            return _cmd_check(args)
    except ImpnetError as exc:
        print(f"impnet: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"impnet: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    raise AssertionError(f"unhandled command {args.command!r}")


def entry() -> None:
    sys.exit(main())


def _load_network(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_netlist(fh.read())


def _omega_of(args) -> float:
    if args.omega is not None:
        return args.omega
    return 2.0 * math.pi * args.freq


# ── impedance ────────────────────────────────────────────────────────────

def _impedance_json(r: ImpedanceResult) -> dict:
    doc = {
        "status": r.status.value,
        "z_re": r.value.real,
        "z_im": r.value.imag,
        "omega": r.omega,
        "resonant_mode_count": r.resonant_mode_count,
        "near_resonance": r.near_resonance,
        "min_abs_lambda": r.min_nontrivial_abs_lambda,
    }
    if r.status is ImpedanceStatus.RESONANT:
        doc["divergent_coefficient"] = r.divergent_coefficient
    return doc


def _csv_row(r: ImpedanceResult) -> str:
    status = "resonant" if r.status is ImpedanceStatus.RESONANT else "ok"
    return (
        f"{_fmt(r.omega)},{_fmt(r.value.real)},{_fmt(r.value.imag)},"
        f"{_fmt(r.min_nontrivial_abs_lambda)},{status}"
    )


def _cmd_impedance(args) -> int:
    net = _load_network(args.netlist)
    p, q = args.pair
    r = two_point_impedance(net, _omega_of(args), p, q)
    if args.format == "json":
        print(json.dumps(_impedance_json(r)))
    elif args.format == "csv":
        print("omega,z_re,z_im,min_abs_lambda,status")
        print(_csv_row(r))
    elif r.status is ImpedanceStatus.RESONANT:
        print(f"RESONANT at omega = {_fmt(r.omega)} rad/s")
        print(f"resonant modes: {r.resonant_mode_count}")
        print(f"divergent coefficient: {_fmt(r.divergent_coefficient)}")
        print(f"principal sum (diagnostic): {_fmt_complex(r.value)} ohm")
    else:
        print("status: finite")
        print(f"Z({p},{q}) = {_fmt_complex(r.value)} ohm")
        print(f"|Z| = {_fmt(abs(r.value))} ohm")
        print(f"phase = {_fmt(cmath.phase(r.value))} rad")
        print(f"omega = {_fmt(r.omega)} rad/s")
        if r.near_resonance:
            print("warning: smallest nontrivial |lambda| is within "
                  f"{NEAR_RESONANCE_REL:.2g} of the largest; "
                  "result is poorly conditioned")
    return EXIT_RESONANT if r.status is ImpedanceStatus.RESONANT else EXIT_OK


# ── sweep ────────────────────────────────────────────────────────────────

def _cmd_sweep(args) -> int:
    import numpy as np

    net = _load_network(args.netlist)
    p, q = args.pair
    check_pair(net, p, q)
    lo = check_angular_frequency(args.omega_lo)
    hi = check_angular_frequency(args.omega_hi)
    if not lo < hi:
        print("impnet: error: need --omega-lo < --omega-hi", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.points < 2:
        print("impnet: error: need at least 2 sweep points", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print("omega,z_re,z_im,min_abs_lambda,status")
    for w in np.geomspace(lo, hi, args.points):
        r = two_point_impedance(net, float(w), p, q)
        print(_csv_row(r))
    return EXIT_OK


# ── resonances ───────────────────────────────────────────────────────────

def _cmd_resonances(args) -> int:
    net = _load_network(args.netlist)
    report = find_resonances(net, args.omega_lo, args.omega_hi)
    if args.format == "json":
        print(json.dumps({
            "omegas": list(report.omegas),
            "residuals": list(report.residuals),
            "method": report.method.value,
            "distinct_count": report.distinct_count,
            "raw_count": report.raw_count,
            "certified_count": report.certified_count,
        }))
    elif args.format == "csv":
        print("omega,residual")
        for w, s in zip(report.omegas, report.residuals):
            print(f"{_fmt(w)},{_fmt(s)}")
    else:
        if not report.omegas:
            print("no resonances detected in range")
        for w, s in zip(report.omegas, report.residuals):
            print(f"resonance at omega = {_fmt(w)} rad/s (residual {_fmt(s)})")
        print(f"distinct resonances: {report.distinct_count}")
    return EXIT_OK


# ── generate ─────────────────────────────────────────────────────────────

def _parse_element_spec(token: str) -> Element:
    parts = token.split(":")
    kind = parts[0].strip().upper()
    if kind == "Z":
        if len(parts) != 3:
            raise ValueError(f"impedance element must be Z:RE:IM, got {token!r}")
        return Element.impedance(complex(float(parts[1]), float(parts[2])))
    if len(parts) != 2:
        raise ValueError(f"element must be KIND:VALUE, got {token!r}")
    value = float(parts[1])
    if kind == "R":
        return Element.resistor(value)
    if kind == "L":
        return Element.inductor(value)
    if kind == "C":
        return Element.capacitor(value)
    raise ValueError(f"unknown element kind {kind!r} in {token!r}")


def _cmd_generate(args) -> int:
    if args.ring is not None:
        if args.z is not None:
            try:
                re_s, im_s = args.z.split(",")
                z = complex(float(re_s), float(im_s))
            except ValueError:
                print(f"impnet: error: --z expects RE,IM, got {args.z!r}",
                      file=sys.stderr)
                return EXIT_INPUT_ERROR
            elements = [Element.impedance(z)] * args.ring
        elif args.elements is not None:
            try:
                elements = [
                    _parse_element_spec(tok) for tok in args.elements.split(",")
                ]
            except ValueError as exc:
                print(f"impnet: error: {exc}", file=sys.stderr)
                return EXIT_INPUT_ERROR
        else:
            print("impnet: error: --ring needs --z or --elements", file=sys.stderr)
            return EXIT_INPUT_ERROR
        net = ring_network(args.ring, elements)
    else:
        try:
            m_s, n_s = args.grid.lower().split("x")
            m, n = int(m_s), int(n_s)
        except ValueError:
            print(f"impnet: error: --grid expects MxN, got {args.grid!r}",
                  file=sys.stderr)
            return EXIT_INPUT_ERROR
        if args.inductance is None or args.capacitance is None:
            print("impnet: error: --grid needs --inductance and --capacitance",
                  file=sys.stderr)
            return EXIT_INPUT_ERROR
        net = grid_network(
            m, n, args.inductance, args.capacitance, Boundary(args.boundary)
        )
    sys.stdout.write(serialize_netlist(net))
    return EXIT_OK


# ── check ────────────────────────────────────────────────────────────────

def _cmd_check(args) -> int:
    net = _load_network(args.netlist)
    omega = _omega_of(args)
    if args.pair is not None:
        pairs = [tuple(args.pair)]
        s = two_point_impedance(net, omega, *pairs[0])
        spectral = [s.value]
    else:
        n = net.node_count
        s = impedance_matrix(net, omega)
        pairs = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
        spectral = [complex(s.value[p - 1, q - 1]) for p, q in pairs]
    s_res = s.status is ImpedanceStatus.RESONANT

    direct = [solve_direct(net, omega, *pq) for pq in pairs]
    finite_scale = max(
        (abs(z) for z in direct if not isinstance(z, SingularSystem)),
        default=0.0,
    )

    max_dev = 0.0
    mismatches = 0
    print("pair,spectral,direct,deviation")
    for (p, q), z, d in zip(pairs, spectral, direct):
        d_res = isinstance(d, SingularSystem)
        label = f"{p}-{q}"
        if s_res and d_res:
            print(f"{label},resonant,singular,agree")
            continue
        if s_res != d_res:
            mismatches += 1
            s_txt = "resonant" if s_res else _fmt_complex(z)
            d_txt = "singular" if d_res else _fmt_complex(d)
            print(f"{label},{s_txt},{d_txt},VERDICT MISMATCH")
            continue
        denom = max(abs(d), finite_scale)
        dev = abs(z - d) / denom if denom > 0 else 0.0
        max_dev = max(max_dev, dev)
        print(f"{label},{_fmt_complex(z)},{_fmt_complex(d)},{_fmt(dev)}")
    print(f"max relative deviation: {_fmt(max_dev)}")
    if mismatches:
        print(f"verdict mismatches: {mismatches}")
        return EXIT_CHECK_FAILED
    return EXIT_OK if max_dev <= _CHECK_REL_TOL else EXIT_CHECK_FAILED

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
are byte identical.  main(argv) may be called repeatedly in one process: it
builds its parser on the first call and reuses it, which a shell-run impnet,
one command per process, does not notice.  Only check and resonances import
scipy, on first use; the other commands load numpy only.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys

from .errors import ImpnetError, ValidationError
from .impedance import (
    NEAR_RESONANCE_REL, ImpedanceResult, ImpedanceStatus, impedance_matrix,
    two_point_impedance,
)
from .laplacian import check_angular_frequency, check_band
from .network import (
    MAX_SIZE, Boundary, Element, ElementKind, Network, check_pair, check_ring_size,
    grid_network, make_element, parse_netlist, ring_network, serialize_netlist,
)

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


def _modulus(z: complex) -> float:
    """abs(z), or inf where it exceeds the float range."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="impnet", description="Circuit network impedance toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        """The subcommand name, reading a netlist, that runs run(args)."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("netlist")
        return p

    def add_pair(p, required=True):
        p.add_argument("--pair", nargs=2, type=int, metavar=("P", "Q"),
                       required=required)

    def add_omega(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--omega", type=float, help="angular frequency in rad/s")
        group.add_argument("--freq", type=frequency, dest="omega", metavar="HZ",
                           help="frequency in Hz (omega = 2 pi f)")

    def add_band(p):
        p.add_argument("--omega-lo", type=float, required=True)
        p.add_argument("--omega-hi", type=float, required=True)

    def add_format(p):
        p.add_argument("--format", choices=("human", "json", "csv"), default="human")

    imp = command("impedance", _cmd_impedance, "two-point impedance at one frequency")
    add_pair(imp)
    add_omega(imp)
    add_format(imp)

    sweep = command("sweep", _cmd_sweep, "impedance versus frequency as CSV")
    add_pair(sweep)
    add_band(sweep)
    sweep.add_argument("--points", type=int, required=True)

    res = command("resonances", _cmd_resonances, "every resonance frequency in a band")
    add_band(res)
    res.add_argument(
        "--points", type=int, help="ignored; accepted for older command lines"
    )
    add_format(res)

    gen = sub.add_parser("generate", help="emit a generated netlist to stdout")
    gen.set_defaults(run=_cmd_generate)
    shape = gen.add_mutually_exclusive_group(required=True)
    shape.add_argument("--ring", type=int, metavar="N")
    shape.add_argument("--grid", metavar="MxN")
    ring = gen.add_mutually_exclusive_group()
    ring.add_argument("--z", metavar="RE,IM", help="uniform ring impedance")
    ring.add_argument(
        "--elements", metavar="SPEC",
        help="ring elements, e.g. 'L:1.0,L:1.0,C:2.5' (Z:RE:IM for impedances)",
    )
    gen.add_argument("--inductance", type=float, help="grid inductance in henries")
    gen.add_argument("--capacitance", type=float, help="grid capacitance in farads")
    gen.add_argument("--boundary", choices=("free", "toroidal"), help="default free")

    check = command(
        "check", _cmd_check, "cross-check factorization impedance against direct solve"
    )
    add_pair(check, required=False)
    add_omega(check)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command; callable repeatedly, it builds its parser on the first call."""
    try:
        args = _parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ImpnetError, OSError) as exc:
        print(f"impnet: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry() -> None:
    sys.exit(main())


def _load_network(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_netlist(fh.read())


def frequency(hz: str) -> float:
    """The type of --freq: the angular frequency 2 pi f of f in Hz."""
    try:
        return check_angular_frequency(2.0 * math.pi * float(hz))
    except ValidationError:
        raise ValidationError("angular frequency 2 pi f must be positive and "
                              f"finite, got f = {hz} Hz") from None


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
    r = two_point_impedance(net, args.omega, p, q)
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
        print(f"|Z| = {_fmt(_modulus(r.value))} ohm")
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
    lo, hi = check_band(args.omega_lo, args.omega_hi)
    if args.points < 2:
        raise ValidationError("need at least 2 sweep points")
    too_many = f"--points {args.points}: too many sweep points"
    if args.points > MAX_SIZE:
        raise ValidationError(too_many)
    try:
        omegas = np.geomspace(lo, hi, args.points)
    except MemoryError:
        raise ValidationError(too_many) from None
    print("omega,z_re,z_im,min_abs_lambda,status")
    for w in omegas:
        print(_csv_row(two_point_impedance(net, float(w), p, q)))
    return EXIT_OK


# ── resonances ───────────────────────────────────────────────────────────

def _cmd_resonances(args) -> int:
    from .resonance import find_resonances

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

def _ring_element(option: str, token: str, fields: list[str]) -> Element:
    """make_element(kind, values) of fields [kind, *values], kind in any case."""
    try:
        return make_element(fields[0].strip().upper(), fields[1:])
    except ImpnetError as exc:
        raise ValidationError(f"{option} {token!r}: {exc}") from None


def _cmd_generate(args) -> int:
    try:
        text = serialize_netlist(_generated_network(args))
    except MemoryError:
        raise ValidationError("the generated network does not fit in memory") from None
    sys.stdout.write(text)
    return EXIT_OK


def _generated_network(args) -> Network:
    if args.ring is not None:
        if {args.inductance, args.capacitance, args.boundary} != {None}:
            raise ValidationError(
                "--ring takes no --inductance, --capacitance or --boundary")
        n = check_ring_size(args.ring)
        if args.z is not None:
            impedance = ElementKind.IMPEDANCE.value
            elements = [_ring_element("--z", args.z, [impedance, *args.z.split(",")])]
            elements *= n
        elif args.elements is not None:
            elements = [
                _ring_element("--elements", tok, tok.split(":"))
                for tok in args.elements.split(",")
            ]
        else:
            raise ValidationError("--ring needs --z or --elements")
        return ring_network(n, elements)
    if args.z is not None or args.elements is not None:
        raise ValidationError("--grid takes no --z or --elements")
    try:
        m_s, n_s = args.grid.lower().split("x")
        m, n = int(m_s), int(n_s)
    except ValueError:
        raise ValidationError(f"--grid expects MxN, got {args.grid!r}") from None
    if args.inductance is None or args.capacitance is None:
        raise ValidationError("--grid needs --inductance and --capacitance")
    return grid_network(
        m, n, args.inductance, args.capacitance, Boundary(args.boundary or "free")
    )


# ── check ────────────────────────────────────────────────────────────────

def _cmd_check(args) -> int:
    from .direct import SingularSystem, solve_direct

    net = _load_network(args.netlist)
    omega = args.omega
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
    # moduli and differences in units of 1 / unit, a power of two at which
    # none overflows: 1 unless a part reaches 2^1021
    top = max((max(abs(v.real), abs(v.imag)) for v in (*spectral, *direct)
               if not isinstance(v, SingularSystem)), default=0.0)
    unit = math.ldexp(1.0, min(0, 1021 - math.frexp(top)[1]))
    finite_scale = max(
        (abs(z * unit) for z in direct if not isinstance(z, SingularSystem)),
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
        denom = max(abs(d * unit), finite_scale)
        dev = abs(z * unit - d * unit) / denom if denom > 0 else 0.0
        max_dev = max(max_dev, dev)
        print(f"{label},{_fmt_complex(z)},{_fmt_complex(d)},{_fmt(dev)}")
    print(f"max relative deviation: {_fmt(max_dev)}")
    if mismatches:
        print(f"verdict mismatches: {mismatches}")
        return EXIT_CHECK_FAILED
    return EXIT_OK if max_dev <= _CHECK_REL_TOL else EXIT_CHECK_FAILED

"""Seeded robustness of the CLI on element values and frequencies across the
float range: every command returns an exit code, raises nothing, warns
nothing (the suite turns warnings into errors) and prints only valid JSON;
resonances finds none where no root can exist."""

import contextlib
import io
import json
import random

import pytest

from impnet import ValidationError, laplacian_parts, parse_netlist
from impnet.cli import main

VALUES = (5e-324, 2.5e-308, 1e-300, 1e-10, 0.5, 1.0, 3.0, 1e10, 1e300, 4e307, 1.7e308)

# netlists that once raised, warned or printed Infinity, verbatim
KNOWN = (
    "NET 3\nC 1 2 4e307\nC 2 3 2.5e-308\n",
    "NET 3\nZ 1 2 5e-324 1.7e308\nZ 2 3 1.7e308 5e-324\n",
    "NET 4\nC 1 2 2.5e-308\nL 2 3 1e10\nL 3 4 0.5\nL 3 1 3\nC 2 3 1\n",
    "NET 4\nZ 1 2 1.7e308 3\nC 2 3 1e10\nZ 3 4 1e10 0.5\nC 4 2 1\n"
    "R 3 2 4e307\nL 1 3 1e-300\n",
    "NET 3\nL 1 2 1e-300\nL 2 3 4e+307\n",
    "NET 3\nC 1 2 1e-300\nC 2 3 4e+307\n",
)
NETLISTS = 300


def _random_netlist(rng: random.Random) -> str:
    """2 to 5 nodes: a random spanning tree, then up to n more branches."""
    n = rng.randint(2, 5)
    ends = [(rng.randint(1, b - 1), b) for b in range(2, n + 1)]
    ends += [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, n))]
    lines = [f"NET {n}"]
    for a, b in ends:
        kind = rng.choice("RLCZ")
        if kind == "Z":
            re, im = (rng.choice((-1, 1)) * rng.choice(VALUES) for _ in range(2))
            lines.append(f"Z {a} {b} {re!r} {im!r}")
        else:
            lines.append(f"{kind} {a} {b} {rng.choice(VALUES)!r}")
    return "\n".join(lines) + "\n"


def _cannot_resonate(text: str) -> bool:
    """Whether a valid netlist has neither L nor C, or no Z and no L or no C:
    find_resonances reports nothing for it, before any eigensolve."""
    kinds = {line[0] for line in text.splitlines()[1:]}
    try:
        laplacian_parts(parse_netlist(text))
    except ValidationError:
        return False
    return not ({"L", "C"} <= kinds or "Z" in kinds and kinds & {"L", "C"})


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_cli_survives_extreme_values(tmp_path):
    rng = random.Random("impnet/cli-robustness")
    texts = list(KNOWN) + [_random_netlist(rng) for _ in range(NETLISTS)]
    for i, text in enumerate(texts):
        path = tmp_path / f"net{i}.net"
        path.write_text(text)
        net, n, w = str(path), text.split()[1], repr(rng.choice(VALUES))
        no_root = _cannot_resonate(text)
        band = ["--omega-lo", "1e-300", "--omega-hi", "1e300"]
        json_out = ["--format", "json"]
        for argv, is_json in (
            (["impedance", net, "--pair", "1", n, "--omega", w, *json_out], True),
            (["check", net, "--omega", w], False),
            (["resonances", net, *band, *json_out], True),
            (["sweep", net, "--pair", "1", n, *band, "--points", "3"], False),
        ):
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = main(argv)
            except Exception as exc:  # a warning is one too
                pytest.fail(f"{argv[0]} on\n{text}raised {exc!r}")
            assert rc in (0, 1, 2, 3), (argv[0], text, rc)
            if is_json and out.getvalue():
                doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
            if argv[0] == "resonances" and no_root:  # rc 0 prints the JSON read above
                assert rc == 0 and doc["omegas"] == [], text

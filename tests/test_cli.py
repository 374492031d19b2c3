"""Command line interface: subcommands, formats, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from impnet import (
    Boundary, Element, SingularSystem, grid_network, grid_resonances_analytic,
    parse_netlist, ring_network, serialize_netlist,
)
import impnet
from impnet import cli
from impnet.cli import main
from conftest import TRIANGLE_NETLIST, random_connected_network

LC_NETLIST = "NET 2\nL 1 2 1.0\nC 1 2 1.0\n"
RING_LLC_NETLIST = "NET 3\nL 1 2 1.0\nL 2 3 1.0\nC 3 1 1.0\n"


@pytest.fixture
def triangle_path(tmp_path):
    p = tmp_path / "triangle.net"
    p.write_text(TRIANGLE_NETLIST)
    return str(p)


@pytest.fixture
def lc_path(tmp_path):
    p = tmp_path / "lc.net"
    p.write_text(LC_NETLIST)
    return str(p)


@pytest.fixture
def ring_llc_path(tmp_path):
    p = tmp_path / "ring.net"
    p.write_text(RING_LLC_NETLIST)
    return str(p)


# ── impedance ────────────────────────────────────────────────────────────

def test_impedance_human(capsys, triangle_path):
    code = main(["impedance", triangle_path, "--pair", "1", "2", "--omega", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: finite" in out
    assert "Z(1,2)" in out
    assert "|Z| = " in out
    assert "phase = " in out
    assert "omega = 1.0 rad/s" in out


def test_impedance_json(capsys, triangle_path):
    code = main([
        "impedance", triangle_path, "--pair", "2", "3", "--omega", "1.0",
        "--format", "json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "finite"
    assert doc["z_re"] == pytest.approx(3.0, abs=1e-9)
    assert doc["z_im"] == pytest.approx(-math.sqrt(3.0), abs=1e-9)
    assert doc["omega"] == 1.0
    assert doc["resonant_mode_count"] == 0
    # the conditioning evidence of the human and CSV formats: the triangle's
    # |lambda| are 0, sqrt(2) - 1 and sqrt(2) + 1
    assert doc["near_resonance"] is False
    assert doc["min_abs_lambda"] == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)


def test_impedance_json_near_resonance(capsys, ring_llc_path):
    # The L-L-C ring detuned by 4e-5 from 1/sqrt(2): finite, but the
    # smallest nontrivial |lambda| is within NEAR_RESONANCE_REL of the
    # largest, as the human format warns.
    omega = (1.0 / math.sqrt(2.0)) * (1.0 + 4e-5)
    argv = ["impedance", ring_llc_path, "--pair", "1", "2", "--omega", repr(omega)]
    assert main(argv) == 0
    assert "warning: smallest nontrivial |lambda|" in capsys.readouterr().out
    assert main([*argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "finite"
    assert doc["near_resonance"] is True
    assert 0.0 < doc["min_abs_lambda"] <= 1e-3


def test_impedance_csv(capsys, triangle_path):
    code = main([
        "impedance", triangle_path, "--pair", "1", "2", "--omega", "1.0",
        "--format", "csv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "omega,z_re,z_im,min_abs_lambda,status"
    assert lines[1].endswith(",ok")


@pytest.mark.parametrize("k", [1e170, 1e-170])
def test_impedance_csv_min_abs_lambda_scales_with_units(capsys, tmp_path, k):
    # The L-L-C ring with every impedance scaled by k, at the finite query
    # omega = 0.3: |lambda| scales as 1/k, where |lambda|^2 would overflow
    # (k = 1e-170) or underflow (k = 1e170).
    def min_abs_lambda(scale):
        p = tmp_path / "ring.net"
        p.write_text(serialize_netlist(ring_network(3, [
            Element.inductor(scale), Element.capacitor(1.0 / scale),
            Element.inductor(scale),
        ])))
        assert main([
            "impedance", str(p), "--pair", "1", "2", "--omega", "0.3",
            "--format", "csv",
        ]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header == "omega,z_re,z_im,min_abs_lambda,status"
        return float(row.split(",")[3])

    value = min_abs_lambda(k)
    assert math.isfinite(value) and value > 0.0
    assert abs(value * k / min_abs_lambda(1.0) - 1.0) <= 1e-12


def test_impedance_resonant_exit_2(capsys, lc_path):
    code = main(["impedance", lc_path, "--pair", "1", "2", "--omega", "1.0"])
    out = capsys.readouterr().out
    assert code == 2
    assert "RESONANT" in out


def test_impedance_resonant_json(capsys, lc_path):
    code = main([
        "impedance", lc_path, "--pair", "1", "2", "--omega", "1.0",
        "--format", "json",
    ])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "resonant"
    assert doc["resonant_mode_count"] == 1
    assert doc["divergent_coefficient"] == pytest.approx(2.0, rel=1e-9)
    assert doc["near_resonance"] is False
    assert doc["min_abs_lambda"] == 0.0


def test_freq_is_omega_over_two_pi(capsys, triangle_path):
    main([
        "impedance", triangle_path, "--pair", "1", "2",
        "--freq", str(1.0 / (2.0 * math.pi)), "--format", "json",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert doc["omega"] == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("command", [["impedance", "--pair", "1", "2"], ["check"]])
@pytest.mark.parametrize("hz", ["-1", "0", "1e308", "nan"])
def test_freq_error_names_the_hz_value_as_typed(capsys, triangle_path, command, hz):
    # 2 pi f is checked as --omega is, but the message gives f as typed:
    # 1e308 Hz is reported as 1e308, not as the inf that 2 pi f overflows to.
    code = main([command[0], triangle_path, *command[1:], "--freq", hz])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("impnet: error: angular frequency 2 pi f must be "
                            f"positive and finite, got f = {hz} Hz\n")


def test_omega_and_freq_conflict(capsys, triangle_path):
    code = main([
        "impedance", triangle_path, "--pair", "1", "2",
        "--omega", "1.0", "--freq", "1.0",
    ])
    assert code == 1


def test_missing_pair_is_usage_error(triangle_path, capsys):
    assert main(["impedance", triangle_path, "--omega", "1.0"]) == 1


def test_missing_file(capsys):
    assert main(["impedance", "/nonexistent.net", "--pair", "1", "2", "--omega", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_netlist(tmp_path, capsys):
    p = tmp_path / "bad.net"
    p.write_text("NET 2\nR 1 2 -5\n")
    assert main(["impedance", str(p), "--pair", "1", "2", "--omega", "1"]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("netlist, omega", [
    ("NET 2\nR 1 2 1e-320\n", "10"),
    ("NET 3\nC 1 2 1e308\nR 2 3 1.0\n", "10"),
    ("NET 2\nL 1 2 5e-324\n", "0.1"),  # omega * L underflows to 0
], ids=["tiny-resistor", "huge-capacitor", "tiny-inductor"])
@pytest.mark.parametrize("command", [
    ["impedance", "--pair", "1", "2"], ["check"],
], ids=["impedance", "check"])
def test_non_finite_admittance_is_input_error(
    tmp_path, capsys, netlist, omega, command
):
    p = tmp_path / "overflow.net"
    p.write_text(netlist)
    argv = [command[0], str(p), *command[1:], "--omega", omega]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "admittance of" in err and "is not finite" in err


@pytest.mark.parametrize("command", [
    ["impedance", "--pair", "1", "3"], ["check"],
], ids=["impedance", "check"])
def test_overflowing_merged_admittance_is_input_error(tmp_path, capsys, command):
    # finite admittances of 1e308 S whose parallel sum overflows
    p = tmp_path / "overflow.net"
    p.write_text("NET 3\nR 1 2 1e-308\nR 1 2 1e-308\nR 2 3 1\n")
    assert main([command[0], str(p), *command[1:], "--omega", "1"]) == 1
    assert "merged admittance of the network is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["impedance", "--pair", "1", "2"], ["check"],
], ids=["impedance", "check"])
def test_overflowing_admittance_scale_is_input_error(tmp_path, capsys, command):
    # one finite admittance of 1e308 S: twice the scale, which bounds
    # |lambda|, is not finite
    p = tmp_path / "scale.net"
    p.write_text("NET 2\nR 1 2 1e-308\n")
    assert main([command[0], str(p), *command[1:], "--omega", "1"]) == 1
    captured = capsys.readouterr()
    assert "admittance scale" in captured.err and captured.out == ""


@pytest.mark.parametrize("netlist,omega", [
    ("NET 3\nR 1 2 5e307\nR 2 3 5e307\n", ["--omega", "1"]),
    ("NET 3\nL 1 2 1\nL 2 3 1\n", ["--freq", "1e307"]),
], ids=["resistors", "inductors"])
def test_check_agrees_on_subnormal_admittances(tmp_path, netlist, omega):
    # branch admittances below the smallest normal double: the direct LU
    # lost digits and check exited 3
    p = tmp_path / "subnormal.net"
    p.write_text(netlist)
    assert main(["check", str(p), *omega]) == 0


def test_impedance_beyond_the_float_range_is_input_error(tmp_path, capsys):
    # |Z| = 2e310 ohm printed "z_re": NaN, "z_im": -Infinity and exited 0
    p = tmp_path / "tiny.net"
    p.write_text("NET 3\nC 1 2 1e-310\nC 2 3 1e-310\n")
    for argv in (["impedance", str(p), "--pair", "1", "3", "--omega", "1",
                  "--format", "json"], ["check", str(p), "--omega", "1"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "exceeds the float range" in captured.err and captured.out == ""


@pytest.mark.parametrize("netlist,omega,message", [
    ("NET 3\nL 1 2 1e300\nL 2 3 1e300\n", "1e10", "exceeds the float range"),
    ("NET 3\nC 1 2 1e-300\nC 2 3 1e-300\n", "1e-30",
     "admittance of capacitor 1e-300 at omega 1e-30 is 0"),
], ids=["inductors", "capacitors"])
def test_vanishing_admittance_is_input_error(tmp_path, capsys, netlist, omega, message):
    # omega L overflows or omega C underflows: both printed RESONANT and
    # exited 2, and check agreed, for a path whose admittances are not 0
    p = tmp_path / "tiny.net"
    p.write_text(netlist)
    for argv in (["impedance", str(p), "--pair", "1", "3", "--omega", omega],
                 ["check", str(p), "--omega", omega]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


def test_too_few_branches_rejected_before_network(tmp_path, capsys):
    # 100000 nodes cannot be connected by one branch: a short input error,
    # not a DisconnectedError listing 99999 components
    p = tmp_path / "sparse.net"
    p.write_text("NET 100000\nR 1 2 1\n")
    assert main(["impedance", str(p), "--pair", "1", "2", "--omega", "1"]) == 1
    err = capsys.readouterr().err
    assert "100000" in err and "99999" in err and len(err) < 200


def test_huge_resistances_stay_finite(capsys, tmp_path):
    # admittances of 1e-300: sigma underflows, |lambda| does not
    p = tmp_path / "huge.net"
    p.write_text("NET 2\nR 1 2 1e300\nR 1 2 1e300\n")
    argv = ["impedance", str(p), "--pair", "1", "2", "--omega", "1", "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["z_re"] == pytest.approx(5e299, rel=1e-12)
    assert main(["check", str(p), "--omega", "1"]) == 0


def test_invalid_pair_value(triangle_path, capsys):
    assert main(["impedance", triangle_path, "--pair", "1", "9", "--omega", "1"]) == 1
    assert main([
        "sweep", triangle_path, "--pair", "1", "9",
        "--omega-lo", "1", "--omega-hi", "2", "--points", "3",
    ]) == 1
    assert capsys.readouterr().out == ""


def test_determinism(capsys, triangle_path):
    args = ["impedance", triangle_path, "--pair", "1", "2", "--omega", "1.0",
            "--format", "json"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


# ── sweep ────────────────────────────────────────────────────────────────

def test_sweep_csv_rows(capsys, lc_path):
    code = main([
        "sweep", lc_path, "--pair", "1", "2",
        "--omega-lo", "0.5", "--omega-hi", "2.0", "--points", "3",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "omega,z_re,z_im,min_abs_lambda,status"
    assert len(lines) == 4
    # geomspace(0.5, 2, 3) hits exactly 1.0 in the middle: resonant there
    assert lines[2].endswith(",resonant")
    assert lines[1].endswith(",ok")
    assert lines[3].endswith(",ok")


def test_sweep_rejects_bad_range(capsys, lc_path):
    # rejected before the CSV header is printed
    for lo, hi in [("2.0", "0.5"), ("1", "inf")]:
        assert main([
            "sweep", lc_path, "--pair", "1", "2",
            "--omega-lo", lo, "--omega-hi", hi, "--points", "3",
        ]) == 1
        assert capsys.readouterr().out == ""


# ── resonances ───────────────────────────────────────────────────────────

def test_resonances_rejects_bad_range(capsys, lc_path):
    assert main([
        "resonances", lc_path, "--omega-lo", "2", "--omega-hi", "0.5",
        "--points", "101",
    ]) == 1
    assert "omega_lo < omega_hi" in capsys.readouterr().err


def test_resonances_json(capsys, lc_path):
    code = main([
        "resonances", lc_path, "--omega-lo", "0.5", "--omega-hi", "2.0",
        "--points", "801", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["distinct_count"] == 1
    assert doc["omegas"][0] == pytest.approx(1.0, rel=1e-9)
    assert doc["method"] == "pencil"
    assert doc["certified_count"] == 1


def test_resonances_human(capsys, lc_path):
    code = main([
        "resonances", lc_path, "--omega-lo", "0.5", "--omega-hi", "2.0",
        "--points", "801",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "resonance at omega" in out
    assert "distinct resonances: 1" in out


def test_resonances_csv(capsys, tmp_path):
    p = tmp_path / "grid.net"
    p.write_text(serialize_netlist(grid_network(3, 2, 1.0, 1.0)))
    argv = ["resonances", str(p), "--omega-lo", "0.1", "--omega-hi", "10"]
    assert main([*argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main([*argv, "--format", "csv"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "omega,residual"
    assert len(rows) == doc["distinct_count"] == 2
    assert [float(row.split(",")[0]) for row in rows] == doc["omegas"]


def test_resonances_none_found(capsys, tmp_path):
    p = tmp_path / "r.net"
    p.write_text("NET 2\nR 1 2 5.0\n")
    code = main([
        "resonances", str(p), "--omega-lo", "0.5", "--omega-hi", "2.0",
        "--points", "101",
    ])
    assert code == 0
    assert "no resonances detected" in capsys.readouterr().out


def test_every_reported_resonance_makes_impedance_exit_2(capsys, tmp_path):
    # Random LC networks (8 of 3-10 nodes with values in 1e+-1, 80 of 3-20
    # nodes with values in 1e+-2) over [0.01, 100], and free and toroidal
    # L = C = 1 grids 6x6-12x12 from 0.8x their lowest to 1.2x their highest
    # closed-form resonance.  Most of these omegas are decided by the
    # pencil's eigenvector certificate, not by an impedance query.
    rng = np.random.default_rng(31)
    searches = [
        (random_connected_network(rng, 3, 10, kinds="LC"), 0.01, 100.0)
        for _ in range(8)
    ]
    rng = np.random.default_rng(2024)
    searches += [
        (random_connected_network(rng, 3, 20, kinds="LC", decades=2.0), 0.01, 100.0)
        for _ in range(80)
    ]
    for boundary in Boundary:
        for m in range(6, 13):
            ws = grid_resonances_analytic(m, m, 1.0, 1.0, boundary).omegas
            searches.append(
                (grid_network(m, m, 1.0, 1.0, boundary), 0.8 * ws[0], 1.2 * ws[-1])
            )
    total = certified = 0
    for k, (net, lo, hi) in enumerate(searches):
        p = tmp_path / f"net{k}.net"
        p.write_text(serialize_netlist(net))
        assert main([
            "resonances", str(p), "--omega-lo", repr(lo), "--omega-hi", repr(hi),
            "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        total += len(doc["omegas"])
        certified += doc["certified_count"]
        for w in doc["omegas"]:
            argv = ["impedance", str(p), "--pair", "1", "2", "--omega", repr(w)]
            assert main(argv) == 2, (k, w)
        capsys.readouterr()
    assert total >= 700
    print(f"{total} reported resonances, {certified} certified by eigenvector")


@pytest.mark.parametrize("netlist", [
    "NET 2\nL 1 2 1e-310\n",
    "NET 2\nC 1 2 1e308\nC 1 2 1e308\n",  # finite admittances, infinite sum
], ids=["tiny-inductor", "parallel-huge-capacitors"])
def test_resonances_non_finite_part_is_input_error(capsys, tmp_path, netlist):
    p = tmp_path / "overflow.net"
    p.write_text(netlist)
    argv = ["resonances", str(p), "--omega-lo", "0.5", "--omega-hi", "2.0"]
    assert main(argv) == 1
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("netlist", [
    "NET 3\nL 1 2 1e-300\nL 2 3 4e+307\n",
    "NET 3\nC 1 2 1e-300\nC 2 3 4e+307\n",
], ids=["L-only", "C-only"])
def test_resonances_of_network_that_cannot_resonate(capsys, tmp_path, netlist):
    p = tmp_path / "one-kind.net"
    p.write_text(netlist)
    argv = ["resonances", str(p), "--omega-lo", "1e-300", "--omega-hi", "1e300"]
    assert main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["omegas"] == []
    assert main(argv) == 0
    assert capsys.readouterr().out == "no resonances detected in range\ndistinct resonances: 0\n"


def test_resonances_failed_eigensolve_is_input_error(monkeypatch, capsys, tmp_path):
    p = tmp_path / "c.net"
    p.write_text("NET 3\nL 1 2 1e-300\nC 1 3 2.5e-308\nL 3 2 4e+307\nC 2 1 4e+307\n")
    assert main(["resonances", str(p), "--omega-lo", "0.1", "--omega-hi", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("impnet: error: pencil eigensolve failed: ")
    # the impedance query's eigh (an LC network) or SVD (an RL network)
    # goes through the same mapper
    for solver, netlist in (("eigh", LC_NETLIST), ("svd", "NET 2\nL 1 2 1\nR 1 2 1\n")):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError(f"{solver} did not converge")

        monkeypatch.setattr(np.linalg, solver, fail)
        p.write_text(netlist)
        assert main(["impedance", str(p), "--omega", "2", "--pair", "1", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"impnet: error: Takagi factorization failed: {solver} did not converge\n")
        monkeypatch.undo()


def test_resonances_json_never_prints_non_finite(capsys, tmp_path):
    p = tmp_path / "w.net"
    p.write_text("NET 4\nZ 1 2 1.7e308 3\nC 2 3 1e10\nZ 3 4 1e10 0.5\nC 4 2 1\n"
                 "R 3 2 4e307\nL 1 3 1e-300\n")
    argv = ["resonances", str(p), "--omega-lo", "1e-300", "--omega-hi", "1e300",
            "--format", "json"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("impnet: error: admittance of inductor 1e-300 at omega "
                            "4.569564421762447e-47 is not finite\n")


# ── generate ─────────────────────────────────────────────────────────────

def test_generate_ring_elements(capsys):
    code = main(["generate", "--ring", "3", "--elements", "L:1,L:1,C:1"])
    assert code == 0
    net = parse_netlist(capsys.readouterr().out)
    assert net.node_count == 3
    assert len(net.branches) == 3


def test_generate_ring_uniform_z(capsys):
    code = main(["generate", "--ring", "4", "--z", "0,-2.5"])
    assert code == 0
    net = parse_netlist(capsys.readouterr().out)
    assert all(br.element.value == -2.5j for br in net.branches)


def test_generate_grid(capsys):
    code = main([
        "generate", "--grid", "3x2", "--inductance", "1.0", "--capacitance", "2.0",
    ])
    assert code == 0
    net = parse_netlist(capsys.readouterr().out)
    assert net.node_count == 6


def test_generate_grid_toroidal(capsys):
    code = main([
        "generate", "--grid", "3x3", "--inductance", "1.0",
        "--capacitance", "1.0", "--boundary", "toroidal",
    ])
    assert code == 0
    net = parse_netlist(capsys.readouterr().out)
    assert len(net.branches) == 18


def test_generate_rejects_degenerate_grid(capsys):
    assert main([
        "generate", "--grid", "1x4", "--inductance", "1.0", "--capacitance", "1.0",
    ]) == 1


def test_generate_rejects_bad_specs(capsys):
    assert main(["generate", "--ring", "3", "--z", "nonsense"]) == 1
    assert main(["generate", "--ring", "3", "--elements", "Q:1,L:1,C:1"]) == 1
    assert main(["generate", "--ring", "3"]) == 1
    assert main(["generate", "--grid", "3x3"]) == 1


# The exact stderr of every generate and sweep input error; each names
# the offending option or token.
@pytest.mark.parametrize("argv, err", [
    (["generate", "--ring", "3", "--z", "nonsense"],
     "--z 'nonsense': Z takes 2 value(s), got ['nonsense']"),
    (["generate", "--ring", "3", "--z", "1,x"],
     "--z '1,x': bad numeric value 'x'"),
    (["generate", "--ring", "3", "--z", "0,0"],
     "--z '0,0': fixed impedance must be nonzero"),
    (["generate", "--grid", "3y3", "--inductance", "1", "--capacitance", "1"],
     "--grid expects MxN, got '3y3'"),
    (["generate", "--grid", "3x3", "--inductance", "1"],
     "--grid needs --inductance and --capacitance"),
    (["generate", "--ring", "3"], "--ring needs --z or --elements"),
    (["generate", "--ring", "3", "--elements", "Q:1,L:1,C:1"],
     "--elements 'Q:1': element kind 'Q' is not R, L, C or Z"),
    (["generate", "--ring", "3", "--elements", "L:1:2,L:1,C:1"],
     "--elements 'L:1:2': L takes 1 value(s), got ['1', '2']"),
    (["generate", "--ring", "3", "--elements", "Z:1,L:1,C:1"],
     "--elements 'Z:1': Z takes 2 value(s), got ['1']"),
    (["generate", "--ring", "3", "--elements", "L:x,L:1,C:1"],
     "--elements 'L:x': bad numeric value 'x'"),
    (["generate", "--ring", "3", "--elements", "L:-1,L:1,C:1"],
     "--elements 'L:-1': inductor value must be positive and finite, got -1.0"),
    (["sweep", "LC", "--pair", "1", "2", "--omega-lo", "2", "--omega-hi", "0.5",
      "--points", "3"], "need omega_lo < omega_hi, got (2.0, 0.5)"),
    (["sweep", "LC", "--pair", "1", "2", "--omega-lo", "1", "--omega-hi", "1",
      "--points", "3"], "need omega_lo < omega_hi, got (1.0, 1.0)"),
    (["sweep", "LC", "--pair", "1", "2", "--omega-lo", "0.5", "--omega-hi", "2",
      "--points", "1"], "need at least 2 sweep points"),
    (["sweep", "LC", "--pair", "1", "2", "--omega-lo", "0.5", "--omega-hi", "2",
      "--points", "9223372036854775807"],
     "--points 9223372036854775807: too many sweep points"),
    (["sweep", "LC", "--pair", "1", "2", "--omega-lo", "0.5", "--omega-hi", "2",
      "--points", "18446744073709551616"],
     "--points 18446744073709551616: too many sweep points"),
    # 2**58 points, 2 EiB: more than any address space maps, so numpy's
    # allocation fails at once with MemoryError.
    (["sweep", "LC", "--pair", "1", "2", "--omega-lo", "0.5", "--omega-hi", "2",
      "--points", "288230376151711744"],
     "--points 288230376151711744: too many sweep points"),
    # Sizes past sys.maxsize // 16, rejected before any list is built.
    (["generate", "--ring", "9223372036854775808", "--z", "1,0"],
     "ring of 9223372036854775808 nodes is too large"),
    (["generate", "--ring", "4611686018427387904", "--z", "1,0"],
     "ring of 4611686018427387904 nodes is too large"),
    (["generate", "--ring", "576460752303423488", "--elements", "L:1,L:1,C:1"],
     "ring of 576460752303423488 nodes is too large"),
    (["generate", "--grid", "9223372036854775808x3", "--inductance", "1",
      "--capacitance", "1"], "grid of 9223372036854775808 x 3 nodes is too large"),
    (["generate", "--grid", "1073741824x1073741824", "--inductance", "1",
      "--capacitance", "1"], "grid of 1073741824 x 1073741824 nodes is too large"),
])
def test_input_error_messages(capsys, lc_path, argv, err):
    argv = [lc_path if a == "LC" else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"impnet: error: {err}\n"


def test_generate_out_of_memory_is_input_error(capsys, monkeypatch):
    def exhausted(net):
        raise MemoryError

    monkeypatch.setattr(cli, "serialize_netlist", exhausted)
    assert main(["generate", "--ring", "3", "--z", "1,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "impnet: error: the generated network does not fit in memory\n")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS and ru_maxrss in KiB")
def test_generate_grid_beyond_memory_fails_at_once():
    # In a child limited to 2 GiB of address space, the 10^10-node grid's
    # first array allocation fails, before lists of its branches fill memory.
    child = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from impnet.cli import main\n"
        "rc = main(['generate', '--grid', '100000x100000',"
        " '--inductance', '1', '--capacitance', '1'])\n"
        "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = str(Path(impnet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.stderr == "impnet: error: the generated network does not fit in memory\n"
    rc, max_rss_kib = map(int, proc.stdout.split())
    assert rc == 1
    assert max_rss_kib < 512 << 10


def test_only_check_and_resonances_load_scipy(ring_llc_path):
    # A fresh process: impedance, sweep and generate run on numpy alone;
    # check and resonances then import scipy on first use.
    child = (
        "import contextlib, io, json, sys\n"
        "import impnet\n"
        "import impnet.cli\n"
        "net = sys.argv[1]\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        return impnet.cli.main(list(argv)), 'scipy' in sys.modules\n"
        "print(json.dumps([\n"
        "    run('impedance', net, '--pair', '1', '2', '--omega', '0.5'),\n"
        "    run('sweep', net, '--pair', '1', '3', '--omega-lo', '0.1',\n"
        "        '--omega-hi', '10', '--points', '5'),\n"
        "    run('generate', '--ring', '4', '--elements', 'L:1,C:1,R:1,L:2'),\n"
        "    run('check', net, '--omega', '0.5'),\n"
        "    run('resonances', net, '--omega-lo', '0.1', '--omega-hi', '10'),\n"
        "]))\n"
    )
    src = str(Path(impnet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", child, ring_llc_path], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [
        [0, False], [0, False], [0, False], [0, True], [0, True]]


def test_generate_kind_letter_is_case_insensitive(capsys):
    assert main(["generate", "--ring", "3", "--elements", "l:1,L:1,c:1"]) == 0
    net = parse_netlist(capsys.readouterr().out)
    assert [br.element for br in net.branches] == [
        Element.inductor(1.0), Element.inductor(1.0), Element.capacitor(1.0),
    ]


@pytest.mark.parametrize("argv, options", [
    (["--ring", "3", "--z", "1,0", "--elements", "R:5,R:5,R:5"],
     ("--z", "--elements")),
    (["--ring", "3", "--z", "1,0", "--inductance", "1"], ("--ring", "--inductance")),
    (["--ring", "3", "--elements", "R:5,R:5,R:5", "--capacitance", "1"],
     ("--ring", "--capacitance")),
    (["--grid", "2x2", "--inductance", "1", "--capacitance", "1", "--z", "1,0"],
     ("--grid", "--z")),
    (["--grid", "2x2", "--inductance", "1", "--capacitance", "1",
      "--elements", "R:5,R:5,R:5,R:5"], ("--grid", "--elements")),
    (["--ring", "3", "--z", "1,0", "--boundary", "toroidal"], ("--ring", "--boundary")),
])
def test_generate_rejects_conflicting_options(capsys, argv, options):
    assert main(["generate", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert "error:" in last and all(option in last for option in options)


def test_generate_round_trips_through_impedance(capsys, tmp_path):
    main(["generate", "--ring", "3", "--elements", "R:1,R:1,R:1"])
    text = capsys.readouterr().out
    p = tmp_path / "gen.net"
    p.write_text(text)
    code = main(["impedance", str(p), "--pair", "1", "2", "--omega", "1.0",
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    # two paths: 1 ohm in parallel with 2 ohm
    assert doc["z_re"] == pytest.approx(2.0 / 3.0, rel=1e-10)


# ── check ────────────────────────────────────────────────────────────────

def test_check_triangle_agrees(capsys, triangle_path):
    code = main(["check", triangle_path, "--omega", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "max relative deviation" in out
    assert "VERDICT MISMATCH" not in out


def test_check_single_pair(capsys, triangle_path):
    code = main(["check", triangle_path, "--pair", "1", "2", "--omega", "1.0"])
    assert code == 0
    assert "1-2" in capsys.readouterr().out


def test_check_agrees_on_exact_resonance(capsys, lc_path):
    # both routes call it resonant/singular: verdicts agree, exit 0
    code = main(["check", lc_path, "--omega", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "resonant,singular,agree" in out


def test_check_agrees_just_off_resonance(capsys, ring_llc_path):
    # 1e-7 off exact resonance the smallest nontrivial |lambda| and the
    # smallest direct pivot are both ~1e-7 of the admittance scale, far
    # above the shared 1e-13 singularity rule: both routes call it finite.
    omega = (1.0 / math.sqrt(2.0)) * (1.0 + 1e-7)
    code = main(["check", ring_llc_path, "--omega", repr(omega)])
    out = capsys.readouterr().out
    assert code == 0
    assert "VERDICT MISMATCH" not in out


def test_check_and_impedance_with_moduli_past_float_range(capsys, tmp_path):
    # |Z| of every pair exceeds the float range though both parts are
    # finite: check computes its deviations in a smaller power-of-two unit,
    # and the human impedance output prints |Z| as inf.
    p = tmp_path / "zz.net"
    p.write_text("NET 3\nZ 1 2 5e-324 1.7e308\nZ 2 3 1.7e308 5e-324\n")
    assert main(["check", str(p), "--omega", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pair,spectral,direct,deviation" and len(lines) == 5
    devs = [float(line.rsplit(",", 1)[1]) for line in lines[1:4]]
    assert all(0.0 <= dev <= 1e-15 for dev in devs)
    assert lines[4] == f"max relative deviation: {max(devs)!r}"
    assert main(["impedance", str(p), "--pair", "1", "3", "--omega", "1"]) == 0
    assert "|Z| = inf ohm" in capsys.readouterr().out.splitlines()


def test_check_exit_3_on_verdict_mismatch(capsys, monkeypatch, triangle_path):
    # A direct route that calls every pair singular disagrees with the
    # finite spectral verdicts on the triangle: exit 3.
    # _cmd_check imports solve_direct when called, so patch its home module.
    monkeypatch.setattr(
        "impnet.direct.solve_direct",
        lambda net, omega, p, q: SingularSystem(ground=q, pivot_min=0.0, scale=1.0),
    )
    code = main(["check", triangle_path, "--omega", "1.0"])
    out = capsys.readouterr().out
    assert code == 3
    assert "VERDICT MISMATCH" in out
    assert "verdict mismatches: 3" in out


def test_check_mismatch_resolved_by_loose_direct_view(capsys, ring_llc_path):
    # Agreement also holds at a frequency safely away from resonance.
    omega = (1.0 / math.sqrt(2.0)) * 1.5
    assert main(["check", ring_llc_path, "--omega", repr(omega)]) == 0


# ── one parser per process ───────────────────────────────────────────────

def test_parser_is_built_once_per_process(capsys, monkeypatch, request,
                                          triangle_path):
    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    # Start and end with an empty cache, so the count does not depend on
    # test order and no CountingParser outlives the test.
    cli._parser.cache_clear()
    request.addfinalizer(cli._parser.cache_clear)
    monkeypatch.setattr(cli, "_Parser", CountingParser)
    for _ in range(3):
        assert main(["check", triangle_path, "--omega", "1.0"]) == 0
    # Subparsers are built with the same class under the prog "impnet NAME".
    assert built.count("impnet") == 1
    assert cli.build_parser() is not cli.build_parser()


def test_reused_parser_leaks_no_state(capsys, triangle_path):
    imp = ["impedance", triangle_path, "--pair", "1", "3"]
    commands = [
        ["check", triangle_path, "--omega", "1", "--pair", "1", "2"],
        ["check", triangle_path, "--omega", "1"],
        imp + ["--freq", "0.5"],
        imp + ["--omega", "0.25"],
        ["impedance", triangle_path, "--omega", "1"],
        ["impedance", "--help"],
        imp + ["--omega", "2", "--format", "json"],
        imp + ["--freq", "-1"],
        imp + ["--freq", "0.25"],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # A command alone is a command whose parser was just built.
    alone = []
    for argv in commands:
        cli._parser.cache_clear()
        alone.append(run(argv))
    in_sequence = [run(argv) for argv in commands]
    assert in_sequence == alone
    assert [code for code, _, _ in alone] == [0, 0, 0, 0, 1, 0, 0, 1, 0]
    table = alone[1][1]
    assert all(f"{pq}," in table for pq in ("1-2", "1-3", "2-3"))
    assert "omega = 0.25 rad/s" in alone[3][1]
    assert "usage:" in alone[4][2]

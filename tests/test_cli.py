"""Command line interface: subcommands, formats, exit codes."""

import json
import math

import numpy as np
import pytest

from impnet import SingularSystem, parse_netlist, serialize_netlist
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


def test_impedance_csv(capsys, triangle_path):
    code = main([
        "impedance", triangle_path, "--pair", "1", "2", "--omega", "1.0",
        "--format", "csv",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "omega,z_re,z_im,min_sigma,status"
    assert lines[1].endswith(",ok")


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


def test_freq_is_omega_over_two_pi(capsys, triangle_path):
    main([
        "impedance", triangle_path, "--pair", "1", "2",
        "--freq", str(1.0 / (2.0 * math.pi)), "--format", "json",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert doc["omega"] == pytest.approx(1.0, rel=1e-15)


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
    assert lines[0] == "omega,z_re,z_im,min_sigma,status"
    assert len(lines) == 4
    # geomspace(0.5, 2, 3) hits exactly 1.0 in the middle: resonant there
    assert lines[2].endswith(",resonant")
    assert lines[1].endswith(",ok")
    assert lines[3].endswith(",ok")


def test_sweep_rejects_bad_range(capsys, lc_path):
    assert main([
        "sweep", lc_path, "--pair", "1", "2",
        "--omega-lo", "2.0", "--omega-hi", "0.5", "--points", "3",
    ]) == 1


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


def test_resonances_human(capsys, lc_path):
    code = main([
        "resonances", lc_path, "--omega-lo", "0.5", "--omega-hi", "2.0",
        "--points", "801",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "resonance at omega" in out
    assert "distinct resonances: 1" in out


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
    rng = np.random.default_rng(31)
    total = 0
    for k in range(8):
        p = tmp_path / f"lc{k}.net"
        p.write_text(serialize_netlist(random_connected_network(rng, 3, 10, kinds="LC")))
        assert main([
            "resonances", str(p), "--omega-lo", "0.01", "--omega-hi", "100",
            "--format", "json",
        ]) == 0
        omegas = json.loads(capsys.readouterr().out)["omegas"]
        total += len(omegas)
        for w in omegas:
            argv = ["impedance", str(p), "--pair", "1", "2", "--omega", repr(w)]
            assert main(argv) == 2, (k, w)
        capsys.readouterr()
    assert total >= 8


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


def test_check_exit_3_on_verdict_mismatch(capsys, monkeypatch, triangle_path):
    # A direct route that calls every pair singular disagrees with the
    # finite spectral verdicts on the triangle: exit 3.
    monkeypatch.setattr(
        "impnet.cli.solve_direct",
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

"""Smoke test of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q bench/test_bench.py

Each workload runs at minimum length in both modes and must print every
metric BENCHMARK.json names, with its unit.  Each reference check is fed one
passing and one failing op.  The package is imported from ``src``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORK = ROOT / ".bench_run" / "test"


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


# ── every named metric, with its unit ────────────────────────────────────

@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == len(workloads.build(workload, 3, WORK).ops)
    assert 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    info = json.loads(info_line)["info"]
    assert info["threads"] == dict.fromkeys(run.THREAD_VARS, "1")
    assert info["src_lines"] > 0 and len(info["netlist_sha256"]) == 64
    if trace == "0":
        for m in spec:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_refuses_to_run_without_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("--workload", "pair_query", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ── inputs ───────────────────────────────────────────────────────────────

def test_inputs_depend_only_on_seed():
    a = workloads.build("pair_query", 7, WORK / "a")
    b = workloads.build("pair_query", 7, WORK / "b")
    c = workloads.build("pair_query", 8, WORK / "c")
    try:
        digests = [w.write(WORK / d) for w, d in ((a, "a"), (b, "b"), (c, "c"))]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    assert digests[0] == digests[1] != digests[2]
    assert [op.argv[2:] for op in a.ops] == [op.argv[2:] for op in b.ops]
    # The resistor networks that carry the known defects are one fixed panel.
    panel = sorted(f for f in a.files if f.startswith("res30"))
    assert len(panel) == 40
    assert all(a.files[f] == c.files[f] for f in panel)


def test_closed_form_resonance_counts():
    assert len(workloads.grid_resonances(8, 8)) == 43
    assert len(workloads.grid_resonances(6, 6, "toroidal")) == 7


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(range(2000))[::2] == (99.0, 20)
    assert run.tail_percentile(range(200))[::2] == (95.0, 10)
    assert run.tail_percentile(range(15))[::2] == (75.0, 3)


# ── reference checks: one passing and one failing op each ───────────────

TRIANGLE = "NET 3\nR 1 2 1.0\nL 2 3 1.0\nC 3 1 2.0\n"


def _pair_op(p=1, q=2, omega=0.3):
    return workloads.Op(argv=(), netlist=TRIANGLE, omega=omega, pair=(p, q))


def _pair_stdout(z: complex, status="finite") -> str:
    return json.dumps({"status": status, "z_re": z.real, "z_im": z.imag})


def test_pair_check():
    refs = workloads.References()
    op = _pair_op()
    z = refs.direct(op)
    assert z is not None
    assert refs.check("pair_query", op, 0, _pair_stdout(z)).ok
    wrong = refs.check("pair_query", op, 0, _pair_stdout(z * (1 + 1e-6)))
    assert not wrong.ok and not wrong.broken and wrong.deviation > 1e-8
    assert not refs.check("pair_query", op, 2, _pair_stdout(z, "resonant")).ok
    assert not refs.check("pair_query", op, 1, "").ok


def test_pair_check_resonant_verdicts():
    assert workloads.check_pair(2, _pair_stdout(0j, "resonant"), None).ok
    assert not workloads.check_pair(0, _pair_stdout(1 + 0j), None).ok


def test_pair_check_on_a_real_op():
    refs = workloads.References()
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / "triangle.net"
    path.write_text(TRIANGLE, encoding="utf-8")
    try:
        op = workloads.Op(
            argv=("impedance", str(path), "--pair", "1", "2", "--omega", "0.3",
                  "--format", "json"),
            netlist=TRIANGLE, omega=0.3, pair=(1, 2),
        )
        _, rc, stdout = run._run_op(op.argv)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    assert refs.check("pair_query", op, rc, stdout).ok


def test_table_check():
    good = "pair,spectral,direct,deviation\nmax relative deviation: 1e-12\n"
    bad = good + "verdict mismatches: 3\n"
    assert workloads.check_table(0, good).ok
    verdict = workloads.check_table(3, bad)
    assert not verdict.ok and not verdict.broken


def test_resonance_check():
    expected = workloads.grid_resonances(4, 4)
    exact = json.dumps({"omegas": list(expected)})
    assert workloads.check_resonances(0, exact, expected).ok
    missed = workloads.check_resonances(0, json.dumps({"omegas": list(expected[1:])}),
                                        expected)
    assert not missed.ok and missed.matched == len(expected) - 1
    spurious = workloads.check_resonances(
        0, json.dumps({"omegas": sorted(list(expected) + [3.0])}), expected)
    assert not spurious.ok and spurious.matched == len(expected)


def test_unexpected_outcomes_are_broken():
    refs = workloads.References()
    assert refs.check("check_table", _pair_op(), 7, "").broken
    assert refs.check("pair_query", _pair_op(), ValueError("boom"), "").broken
    assert workloads.check_pair(0, "not json", 1 + 0j).broken


# ── tracer ───────────────────────────────────────────────────────────────

def test_tracer_rebinds_every_namespace_and_reports_absent_names():
    import impnet.cli

    present = ("cli.main", "network.parse_netlist", "laplacian.assemble_laplacian")
    originals = {
        name: getattr(sys.modules[f"impnet.{name.rpartition('.')[0]}"],
                      name.rpartition(".")[2])
        for name in present
    }
    tracer = Tracer(names=present + ("resonance.no_such_function", "no_such_module.f"))
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / "triangle.net"
    path.write_text(TRIANGLE, encoding="utf-8")
    argv = ("impedance", str(path), "--pair", "1", "2", "--omega", "0.3")
    tracer.install()
    try:
        for key, mod in list(sys.modules.items()):
            if key == "impnet" or key.startswith("impnet."):
                for value in vars(mod).values():
                    assert all(value is not f for f in originals.values()), key
        run._run_op(argv)  # no op active: not recorded
        tracer.op = 0
        run._run_op(argv)
        tracer.op = None
    finally:
        tracer.uninstall()
        shutil.rmtree(WORK, ignore_errors=True)
    assert impnet.cli.main is originals["cli.main"]
    assert tracer.absent == ["resonance.no_such_function", "no_such_module.f"]
    calls, self_s = tracer.self_times()
    assert calls["cli.main"] == calls["network.parse_netlist"] == 1
    assert calls["laplacian.assemble_laplacian"] >= 1
    assert all(s >= 0 for s in self_s.values())
    (root,) = [i for i, s in enumerate(tracer.spans) if s[0] == "cli.main"]
    assert tracer.spans[root][3] == -1
    assert all(s[3] >= root for i, s in enumerate(tracer.spans) if i != root)

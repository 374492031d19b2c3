"""impnet benchmark: CLI workloads, end-to-end metrics and a per-layer trace.

Usage (from the root of a source checkout)::

    python3 bench/run.py --workload pair_query --seed 1 --seconds 38 --trace 0

One process runs one workload as a closed loop with one client: each
command goes through ``impnet.cli.main(argv)`` in-process with stdout and
stderr captured, and the next starts when it returns.  The loop repeats
rounds (see workloads.py) until ``--seconds`` have passed; latency
metrics use each command's best latency over the rounds.  Every op's output
is then checked against an independent reference, outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds (spans recorded by spans.py) and prints the
per-layer metrics, including the tracing slowdown.  The second-to-last
stdout line is a JSON object with run details (seed, versions, thread
pinning, netlist hash, tail percentile, failure reasons, ``src_lines``); the
last line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` is the number of commands in a round: each command counts
once, however many rounds the run fits in.  ``failed`` counts the commands
with a run that raised, exited with an unexpected code or gave a wrong answer
under the reference check.  Both repeat exactly for one seed.  ``correct``
is false when an op's outcome could not be checked at all (exception, an
exit code the CLI does not define, unparseable output) or when regenerated
inputs differ.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 6
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def main(argv=None) -> int:
    t_start = perf_counter()
    args = _parse_args(argv)
    if not (SRC / "impnet" / "__init__.py").is_file():
        print(f"bench: no impnet package under {SRC}", file=sys.stderr)
        return 2
    # Pin BLAS before numpy is first imported, here and in every child.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        _, digest = _setup(args.workload, args.seed, Path(args.setup_probe))
        print(f"READY {digest}", flush=True)
        return 0

    # Half the set-up probes run before the timed loop and half after it, so
    # that their median does not rest on one phase of the host's speed.
    first = range(0 if args.trace else SETUP_REPEATS // 2)
    last = range(len(first), 0 if args.trace else SETUP_REPEATS)
    t_probes = perf_counter()
    probes = _probe_setups(args.workload, args.seed, first)
    t_probes = perf_counter() - t_probes
    netdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        workload, digest = _setup(args.workload, args.seed, netdir)
        setup_main = perf_counter() - t_start - t_probes
        report = _measure(workload, args)
    finally:
        shutil.rmtree(netdir, ignore_errors=True)
    probes += _probe_setups(args.workload, args.seed, last)

    broken_inputs = any(d != digest for _, d in probes)
    info = report["info"]
    info.update(_environment(args, digest))
    info["setup_s_main"] = setup_main
    if probes:
        info["setup_samples_s"] = [t for t, _ in probes]
        report["metrics"]["setup_s"] = (statistics.median(info["setup_samples_s"]), "s")
    if broken_inputs:
        info["setup_probe_digests"] = [d for _, d in probes]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": report["correct"] and not broken_inputs,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report["metrics"].items()
        },
    }))
    return 0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up in a fresh process, timed by the parent
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ── set-up ───────────────────────────────────────────────────────────────

def _setup(name: str, seed: int, netdir: Path):
    """Import the package, write the seeded netlists and run the warm-up
    ops: everything before the first timed op."""
    import impnet.cli  # noqa: F401

    workload = workloads.build(name, seed, netdir)
    digest = workload.write(netdir)
    _run_op(workload.warmup)
    # A CLI process runs one command and exits, so it never sweeps its
    # import-time objects in a full collection; running many commands in one
    # process would, every few ops.  Freezing them keeps that cost out.
    gc.freeze()
    return workload, digest


def _probe_setups(name: str, seed: int, probes: range) -> list[tuple[float, str]]:
    """Time one set-up per probe number, each in a fresh process, from spawn
    to ready; return (seconds, netlist digest) per set-up."""
    samples = []
    for i in probes:
        probe_dir = WORK / f"{name}-s{seed}-p{os.getpid()}-probe{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--setup-probe", str(probe_dir)]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                text=True, cwd=ROOT)
        output, digest = [], None
        try:
            for line in proc.stdout:
                if line.startswith("READY "):
                    elapsed = perf_counter() - t0
                    digest = line.split()[1]
                    break
                output.append(line)
            output.append(proc.communicate(timeout=120)[0])
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0 or digest is None:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {''.join(output)}")
        samples.append((elapsed, digest))
    return samples


# ── timed loop ───────────────────────────────────────────────────────────

def _run_op(argv) -> tuple[float, object, str]:
    """One CLI command in-process; (seconds, exit code or exception, stdout)."""
    import impnet.cli

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = impnet.cli.main(list(argv))
    except Exception as exc:  # an op that raises is counted, not fatal
        rc = exc
    return perf_counter() - t0, rc, out.getvalue()


class _Segment:
    """Latencies and outputs of rounds of a workload's ops.

    The host's speed drifts by up to 2.5x over seconds to minutes (other
    tenants share its cores and caches), so each command's cost is taken as
    its best latency over the rounds, as timeit does: slower repeats measure
    interference, not the command.
    """

    def __init__(self, ops):
        self.ops = ops
        self.latencies: list[float] = []
        self.results: list[tuple[int, object, str]] = []  # (op index, rc, stdout)
        self.op_ids: list[int] = []
        self.rounds = 0

    def run_round(self, op_ids, tracer=None, deadline=math.inf) -> None:
        """Run each op once; after the first round, stop early at the
        deadline, leaving the round partial and uncounted."""
        for index, op in enumerate(self.ops):
            if self.rounds and perf_counter() >= deadline:
                return
            op_id = next(op_ids)
            if tracer is not None:
                tracer.op = op_id
            latency, rc, stdout = _run_op(op.argv)
            if tracer is not None:
                tracer.op = None
            self.latencies.append(latency)
            self.results.append((index, rc, stdout))
            self.op_ids.append(op_id)
        self.rounds += 1

    @property
    def best(self) -> list[float]:
        n = len(self.ops)
        return [min(self.latencies[i::n]) for i in range(n)]

    @property
    def ops_per_s(self) -> float:
        """Commands per second of one client at each command's best latency."""
        best = self.best
        return len(best) / sum(best)


class _CpuTurns:
    """Pins the process to one CPU per round, taking the CPUs it may use in
    turn.

    Each vCPU of the shared host has slow phases of its own (about 1.45x,
    for 15 s or more, while the other vCPU runs at full speed), so a command
    whose runs all stay on one vCPU can miss every fast phase of a run.
    Taking turns lets each command's best latency come from whichever vCPU
    was fast.  Where affinity cannot be set, nothing is pinned.
    """

    def __init__(self):
        try:
            self.allowed = os.sched_getaffinity(0)
        except (AttributeError, OSError):
            self.allowed = set()
        self.turns = sorted(self.allowed)

    def pin(self, round_number: int) -> None:
        if len(self.turns) > 1:
            try:
                os.sched_setaffinity(0, {self.turns[round_number % len(self.turns)]})
            except OSError:
                self.turns = []

    def release(self) -> None:
        if self.allowed:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, self.allowed)


def _measure(workload, args) -> dict:
    ops = workload.ops
    op_ids = itertools.count()
    untraced = _Segment(ops)
    # Traced rounds alternate with untraced ones, so both see the same drift
    # of the host's speed; the wrappers exist only while a traced round runs.
    traced = _Segment(ops) if args.trace else None
    tracer = Tracer() if args.trace else None
    cpus = _CpuTurns()
    t0 = perf_counter()
    try:
        while True:
            cpus.pin(untraced.rounds)
            # Traced runs keep whole rounds: layer counts are per round.
            untraced.run_round(op_ids, deadline=math.inf if tracer else t0 + args.seconds)
            if tracer is not None:
                cpus.pin(traced.rounds)
                tracer.install()
                try:
                    traced.run_round(op_ids, tracer)
                finally:
                    tracer.uninstall()
            if perf_counter() - t0 >= args.seconds:
                break
    finally:
        cpus.release()
    segments = [untraced] + ([traced] if traced else [])

    # Every output of every run of a command is checked.  A command counts
    # once, by its worst verdict, so attempted and failed do not depend on
    # how many rounds the host's speed let the run fit in.
    refs = workloads.References()
    per_op: list[dict[tuple, workloads.Verdict]] = [{} for _ in ops]
    for seg in segments:
        for index, rc, stdout in seg.results:
            key = (repr(rc), stdout)
            if key not in per_op[index]:
                per_op[index][key] = refs.check(workload.name, ops[index], rc, stdout)
    seen = [v for outputs in per_op for v in outputs.values()]
    verdicts = [
        min(outputs.values(), key=lambda v: (not v.broken, v.ok))
        for outputs in per_op
    ]

    attempted = len(verdicts)
    failed = sum(not v.ok for v in verdicts)
    deviations = [v.deviation for v in seen if v.deviation is not None]
    expected = sum(v.expected for v in verdicts)
    info = {
        "rounds": [seg.rounds for seg in segments],
        "ops_per_round": len(ops),
        "commands_run": sum(len(seg.results) for seg in segments),
        "distinct_outputs": len(seen),
        "fail_rate": failed / attempted,
        "fail_reasons": dict(Counter(v.reason for v in verdicts if not v.ok)),
        "broken_ops": sum(v.broken for v in verdicts),
        "xcheck_max_rel_dev": max(deviations, default=0.0),
        "resonances_matched": sum(v.matched for v in verdicts),
        "resonances_expected": expected,
    }
    if args.trace:
        metrics = _layer_metrics(tracer, ops, untraced, traced, info)
        tracer.write(WORK / f"spans-{workload.name}-s{args.seed}.jsonl")
    else:
        metrics = _end_to_end_metrics(untraced, info)
    return {
        "correct": not any(v.broken for v in verdicts),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


# ── metrics ──────────────────────────────────────────────────────────────

def tail_percentile(latencies) -> tuple[float, float, int]:
    """Highest percentile of TAIL_LADDER with at least TAIL_MIN_BEYOND
    samples beyond it (nearest rank); when a run is too short for any, the
    last rung.  Returns (percentile, value, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND or pct == TAIL_LADDER[-1]:
            return pct, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


def _end_to_end_metrics(seg: _Segment, info) -> dict:
    pct, tail, beyond = tail_percentile(seg.best)
    info.update(samples=len(seg.best), tail_percentile=pct,
                tail_samples_beyond=beyond)
    expected = info["resonances_expected"]
    # Workloads without resonance searches miss nothing: recall 1.
    recall = info["resonances_matched"] / expected if expected else 1.0
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (seg.ops_per_s, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(seg.best), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "ok_rate": (1.0 - info["fail_rate"], "ratio"),
        "resonance_recall": (recall, "ratio"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }


def _layer_metrics(tracer, ops, untraced, traced, info) -> dict:
    """Per-layer metrics of the traced rounds.  Calls, self time and
    computed counts are per round; share is self time over summed op wall
    time."""
    rounds = traced.rounds
    wall = sum(traced.latencies)
    calls, self_s = tracer.self_times()
    metrics = {}
    for name in tracer.names:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / rounds, "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / rounds, "s")
        metrics[f"{name}.share"] = (self_s.get(name, 0.0) / wall, "ratio")

    residuals = [r for _, r in tracer.takagi_calls if not math.isnan(r)]
    metrics["takagi.residual_max"] = (max(residuals, default=0.0), "S")
    metrics["takagi.order_cubed_sum"] = (
        sum(n ** 3 for n, _ in tracer.takagi_calls) / rounds, "n3_computed")
    metrics["direct.singular_count"] = (tracer.singular_count / rounds, "count")
    searches = [op_id for op_id, (index, _, _) in zip(traced.op_ids, traced.results)
                if ops[index].argv[0] == "resonances"]
    evals = tracer.calls_in_ops("laplacian.smallest_nontrivial_sigma", searches)
    metrics["resonance.stat_evals_per_search"] = (
        evals / len(searches) if searches else 0.0, "count")
    metrics["xcheck.max_rel_dev"] = (info["xcheck_max_rel_dev"], "ratio")
    metrics["trace.ops_per_s_untraced"] = (untraced.ops_per_s, "1/s")
    metrics["trace.ops_per_s_traced"] = (traced.ops_per_s, "1/s")
    metrics["trace.slowdown"] = (untraced.ops_per_s / traced.ops_per_s, "ratio")
    info.update(traced_rounds=rounds, traced_wall_s=wall, absent=tracer.absent,
                spans=len(tracer.spans),
                takagi_order_cubed_sum="computed from matrix orders, not measured")
    return metrics


# ── environment ──────────────────────────────────────────────────────────

def _environment(args, digest: str) -> dict:
    import numpy
    import scipy

    def openblas(module) -> str:
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "impnet").rglob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, 1 client, 1 thread, in-process impnet.cli.main",
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": openblas(numpy),
        "blas_scipy": openblas(scipy),
        "netlist_sha256": digest,
        "src_lines": src_lines,
    }


if __name__ == "__main__":
    sys.exit(main())

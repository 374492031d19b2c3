"""Replay the benchmark's workload commands on two source trees and compare.

Usage (from the root of a source checkout)::

    python tools/replay_outputs.py BASE_SRC NEW_SRC

BASE_SRC and NEW_SRC are directories holding an ``impnet`` package, for
example ``base/src`` of an older checkout and ``src`` of this one.  The
commands are the rounds of ``bench/workloads.py``'s pair_query, check_table
and resonance_search workloads for seeds 1-3, written once to a temporary
directory.  Each tree runs every command through ``impnet.cli.main`` in its
own child process, with ``OPENBLAS_NUM_THREADS=1``.  The report names how
many commands gave a different (exit code, stdout) pair and the argv of the
first five.  The exit code is 0 when none differ, 1 when some do, 2 when a
tree could not be run.

``bench/`` is only read: its modules are imported without writing bytecode.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("pair_query", "check_table", "resonance_search")
SEEDS = (1, 2, 3)
SHOWN = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return _child(Path(argv[1]))
    if len(argv) != 2:
        print("usage: python tools/replay_outputs.py BASE_SRC NEW_SRC", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for src in trees:
        if not (src / "impnet" / "__init__.py").is_file():
            print(f"replay: no impnet package under {src}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="impnet-replay-") as tmp:
        commands = _commands(Path(tmp))
        outputs = []
        for src in trees:
            out = _replay(src, commands)
            if out is None:
                return 2
            outputs.append(out)
    changed = [c for c, a, b in zip(commands, *outputs) if a != b]
    print(f"{len(changed)} of {len(commands)} commands changed "
          f"(exit code or stdout), {trees[0]} -> {trees[1]}")
    for c in changed[:SHOWN]:
        print("  " + " ".join(c))
    return 1 if changed else 0


def _commands(netdir: Path) -> list[list[str]]:
    """Every workload's round for every seed, its netlists written under
    netdir (one subdirectory per workload and seed)."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    commands = []
    for name in WORKLOADS:
        for seed in SEEDS:
            w = workloads.build(name, seed, netdir / f"{name}-{seed}")
            w.write(netdir / f"{name}-{seed}")
            commands += [list(op.argv) for op in w.ops]
    return commands


def _replay(src: Path, commands) -> list | None:
    """[exit code, stdout] of every command on the tree src, from a child
    process; None, with its stderr shown, when the child fails."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    env.update((var, "1") for var in THREAD_VARS)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(src)],
        input=json.dumps(commands), capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        print(f"replay: the run on {src} failed ({proc.returncode}):\n"
              f"{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout)


def _child(src: Path) -> int:
    """Run the commands read from stdin, as JSON, with impnet from src."""
    sys.path.insert(0, str(src))
    import impnet.cli

    if Path(impnet.cli.__file__).resolve().parents[1] != src.resolve():
        print(f"replay: impnet came from {impnet.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    results = []
    for argv in json.load(sys.stdin):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = impnet.cli.main(argv)
        results.append([rc, out.getvalue()])
    json.dump(results, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

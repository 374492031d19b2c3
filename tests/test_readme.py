"""The README's examples run and its public API list names real exports."""

import re
import shlex
from pathlib import Path

import impnet
from impnet import parse_netlist
from impnet.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)


def _blocks(lang: str) -> list[str]:
    """Bodies of the fenced code blocks tagged lang ('' for untagged)."""
    return [body for tag, body in re.findall(r"```(\w*)\n(.*?)```", README, re.S)
            if tag == lang]


def test_netlist_example_parses():
    (text,) = _blocks("")
    net = parse_netlist(text)
    assert net.node_count == 3
    assert len(net.branches) == 3


def test_library_example_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_shell_examples_exit_zero(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"^Examples:\n\n```sh\n(.*?)```", README, re.S | re.M)
    monkeypatch.chdir(tmp_path)
    lines = block.splitlines()
    assert len(lines) >= 5
    for line in lines:
        words = shlex.split(line)
        target = None
        if ">" in words:
            assert words[-2] == ">", line
            words, target = words[:-2], words[-1]
        assert words[0] == "impnet", line
        assert main(words[1:]) == 0, line
        out = capsys.readouterr().out
        if target:
            (tmp_path / target).write_text(out)


def test_public_api_names_are_exported():
    (paragraph,) = re.findall(r"^Public API:.*?(?:\n\n|\Z)", README, re.S | re.M)
    names = re.findall(r"`(\w+)`", paragraph)
    assert len(names) > 20
    assert [name for name in names if name not in impnet.__all__] == []

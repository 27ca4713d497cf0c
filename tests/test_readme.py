"""The README's examples run as shown.

The Quick start block is executed as it stands.  Every `galois-kit`
command of the command-line section runs through `cli.main` on the
README's workspace: where the README shows the output as `# ...` lines,
the output and the exit code must be those lines; every other command
must exit 0.
"""

import re
import shlex
from pathlib import Path

import pytest

from galois_kit.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(title):
    """The (language, text) of each fenced block in the section ``## title``."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return re.findall(r"^```(\w*)\n(.*?)^```", README[start:end], re.M | re.S)


def _commands():
    """(argv, shown output lines) of each command in the command-line section."""
    commands = []
    for _, text in _blocks("Command line"):
        for line in text.splitlines():
            if line.startswith(("galois-kit ", "$ galois-kit ")) and line != "galois-kit v1":
                commands.append((shlex.split(line.removeprefix("$ "))[1:], []))
            elif line.startswith("# ") and commands:
                commands[-1][1].append(line[2:])
    return commands


def test_quick_start_runs():
    (code,) = [text for lang, text in _blocks("Quick start") if lang == "python"]
    exec(compile(code, "README quick start", "exec"), {})


COMMANDS = _commands()


@pytest.mark.parametrize("argv, shown", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_command_line_example(argv, shown, tmp_path, monkeypatch, capsys):
    (workspace,) = [text for _, text in _blocks("Command line")
                    if text.startswith("galois-kit v1\n")]
    (tmp_path / "ws.gk").write_text(workspace, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out = capsys.readouterr().out.splitlines()
    if not shown:
        assert code == 0, out
        return
    *lines, exit_line = shown
    assert exit_line == f"exit code {code}"
    assert out == lines

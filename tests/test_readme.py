"""The README's commands and library example work as written.

Every ``deconvsim …`` line of the README's bash blocks runs through
``cli.main`` in one directory, in document order, so the files ``simulate``
writes feed ``run`` and the estimate ``run`` writes feeds ``qq``.
"""

import re
import shlex
from pathlib import Path

from deconvsim.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def readme_commands() -> list[list[str]]:
    """The argument lists of every ``deconvsim`` command in a bash block."""
    commands = []
    for block in _blocks("bash"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["deconvsim"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_exit_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [c[0] for c in commands] == [
        "simulate", "simulate", "run", "analyze3", "analyze3", "qq"
    ]
    for argv in commands:
        assert main(argv) == 0, " ".join(argv)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (example,) = _blocks("python")
    namespace = {}
    exec(example, namespace)
    assert namespace["estimate"].shape == (100,)

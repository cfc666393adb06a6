"""README examples: every CLI line and the Library snippet run as written."""

import re
import shlex
from pathlib import Path

from latticeobs.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    "The first fenced block of the given language under a '## ' heading."
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_cli_lines_exit_0(tmp_path, monkeypatch, capsys):
    "In order, in one directory, so decode reads the file color wrote."
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line, comments=True)
        for line in _block("CLI", "sh").splitlines()
        if line.startswith("latticeobs ")
    ]
    assert len(commands) >= 7
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()


def test_readme_library_snippet_runs():
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})

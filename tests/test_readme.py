"""The worked command-line examples in README.md print what it shows.

Each `$ atomkit ...` line is run through cli.main from the repository
root; the next line is its expected standard output, and a following
`# exit code N` line gives the exit code (0 when absent).  Examples whose
next line is a comment describe their output instead of showing it and
are not run.
"""

import pathlib
import shlex

import pytest

from atomkit.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _examples():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("$ atomkit ") or lines[i + 1].startswith("#"):
            continue
        code = 1 if lines[i + 2:i + 3] == ["# exit code 1"] else 0
        yield pytest.param(shlex.split(line)[2:], lines[i + 1], code,
                           id=line[2:])


EXAMPLES = list(_examples())


def test_the_readme_shows_examples():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("argv, stdout, code", EXAMPLES)
def test_readme_example(monkeypatch, capsys, argv, stdout, code):
    monkeypatch.chdir(ROOT)
    assert main(argv) == code
    assert capsys.readouterr().out == stdout + "\n"

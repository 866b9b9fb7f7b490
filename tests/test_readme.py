"""README.md's examples run as written, and the tests it names exist."""

import ast
import re
import shlex
import shutil
from pathlib import Path

import pytest

from smallarea import RunConfig
from smallarea.cli import main
from smallarea.datasets import synthetic_dataset_path, us_state_borders_path

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def _blocks(text, language):
    """(line, code) of each fenced ``language`` block of ``text``."""
    return [
        (text.count("\n", 0, match.start()) + 2, match.group(1))
        for match in re.finditer(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)
    ]


@pytest.fixture()
def example_config(tmp_path):
    """README's example config as ``run.cfg``, beside copies of the bundled fixtures it names."""
    [(_, ini)] = _blocks(TEXT, "ini")
    shutil.copy(synthetic_dataset_path(), tmp_path)
    shutil.copy(us_state_borders_path(), tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ini, encoding="utf-8")
    return cfg


def test_readme_examples_run(example_config):
    python = _blocks(TEXT, "python")
    assert len(python) >= 2
    for line, code in python:
        exec(compile(code, f"{README}:{line}", "exec"), {})
    config = RunConfig.from_file(example_config)
    assert config.area_csv == example_config.parent / "synthetic_states.csv"
    assert config.gamma_grid is not None and config.gamma is None


def test_readme_commands_run(example_config, monkeypatch, capsys):
    # every documented command, in order, on the example config
    commands = [
        shlex.split(line, comments=True)[1:]
        for _, block in _blocks(TEXT, "sh")
        for line in block.splitlines()
        if line.startswith("smallarea ")
    ]
    assert len(commands) >= 7
    monkeypatch.chdir(example_config.parent)
    for argv in commands:
        assert main(argv) == 0, argv
        printed = capsys.readouterr().out.strip()
        assert Path(printed).exists(), (argv, printed)


def _defined_tests(path):
    """The ids, after ``path::``, of the tests a module defines: its ``test*``
    functions and the ``test*`` methods of its ``Test*`` classes."""
    tests = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            tests.add(node.name)
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            tests.update(
                f"{node.name}::{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name.startswith("test")
            )
    return tests


def test_readme_names_only_tests_that_exist():
    named = re.findall(r"`(tests/\w+\.py)::([\w:]+)`", TEXT)
    assert len(named) >= 27
    missing = [f"{path}::{test}" for path, test in named if test not in _defined_tests(README.parent / path)]
    assert missing == []

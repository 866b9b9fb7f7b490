"""README.md's examples run as written."""

import re
import shutil
from pathlib import Path

from smallarea import RunConfig
from smallarea.datasets import synthetic_dataset_path, us_state_borders_path

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(text, language):
    """(line, code) of each fenced ``language`` block of ``text``."""
    return [
        (text.count("\n", 0, match.start()) + 2, match.group(1))
        for match in re.finditer(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)
    ]


def test_readme_examples_run(tmp_path):
    text = README.read_text(encoding="utf-8")
    python = _blocks(text, "python")
    assert len(python) >= 2
    for line, code in python:
        exec(compile(code, f"{README}:{line}", "exec"), {})
    # the example config, beside copies of the bundled fixtures it names
    [(_, ini)] = _blocks(text, "ini")
    shutil.copy(synthetic_dataset_path(), tmp_path)
    shutil.copy(us_state_borders_path(), tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ini, encoding="utf-8")
    config = RunConfig.from_file(cfg)
    assert config.area_csv == tmp_path / "synthetic_states.csv"
    assert config.gamma_grid is not None and config.gamma is None

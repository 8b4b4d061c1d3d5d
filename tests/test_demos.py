"""Every script under demos/ runs to completion against the library; so
does the README's quick start, and its two config examples parse."""

import json
import pathlib
import re
import runpy

import pytest

from fgncontrol import configs

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def readme_blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.S)


def test_readme_quick_start_runs(capsys):
    (quick_start,) = readme_blocks("python")
    exec(compile(quick_start, "README.md", "exec"), {})
    lq, optimized = capsys.readouterr().out.splitlines()
    assert optimized.startswith("True ")


def test_readme_config_examples_parse():
    lq, model = (json.loads(block) for block in readme_blocks("json"))
    assert configs.parse_lq_config(lq).spec.horizon == lq["horizon"]
    assert configs.parse_model_config(model).model.horizon == model["horizon"]

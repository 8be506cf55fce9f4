"""The README's library example runs as written, and its config example
is a valid config."""

import dataclasses
import json
import re

from npivlab.dgp import DgpSpec
from npivlab.harness import ExperimentConfig, config_from_mapping
from support import ROOT

README = ROOT / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
JSON_BLOCK = re.compile(r"^```json\n(.*?)^```", re.M | re.S)


def test_library_use_example_runs(capsys):
    blocks = PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2


def test_config_example_is_a_valid_config():
    # it spells out every top-level and dgp field, so a field renamed, added
    # or removed without the README breaks it
    blocks = JSON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) == 1
    raw = json.loads(blocks[0])
    assert set(raw) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(raw["dgp"]) == {f.name for f in dataclasses.fields(DgpSpec)}
    cfg = config_from_mapping(raw)
    assert cfg.experiment == raw["experiment"]
    assert cfg.constraints == tuple(raw["constraints"])

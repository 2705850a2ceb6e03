"""Package surface: what ``import confcl`` and its light submodules load."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confcl

SRC = Path(confcl.__file__).resolve().parents[1]


def _fresh(code: str):
    """Run ``code`` in a new interpreter that imports confcl from SRC and
    return the JSON it prints."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys; {code}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_package_exposes_only_its_version():
    public = _fresh("import confcl; print(json.dumps([n for n in dir(confcl) if n[0] != '_']))")
    assert public == []
    assert confcl.__version__ == "0.1.0"


@pytest.mark.parametrize("module", ["confcl.io", "confcl.metadata", "confcl.losses"])
def test_light_modules_load_no_scipy_or_study_stack(module):
    loaded = _fresh(f"import {module}; print(json.dumps(sorted(sys.modules)))")
    assert module in loaded
    heavy = [m for m in loaded if m.split(".")[0] == "scipy" or m in ("confcl.bench", "confcl.detection")]
    assert heavy == []

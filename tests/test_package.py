"""Package surface: what ``import confcl`` and its light submodules load."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
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


def test_cli_and_its_numpy_commands_load_no_scipy(tmp_path):
    # kernel, loss, gradcheck and simulate call no scipy function, so neither
    # the CLI import nor those commands may pay for loading it; only
    # eval-detect loads it, on first use.
    meta = tmp_path / "meta.csv"
    meta.write_text("exam_id,source,value\na,pirads,5\na,pirads,4\nb,isup,2\nc,pirads,1\n")
    config = tmp_path / "config.json"
    config.write_text('{"n_exams": 40, "epochs": 1}')
    rng = np.random.default_rng(0)
    for name in ("x1.csv", "x2.csv"):
        np.savetxt(tmp_path / name, rng.normal(size=(4, 3)), delimiter=",")
    commands = [
        ["kernel", "--metadata", str(meta), "--out", str(tmp_path / "k.csv")],
        ["loss", "--x1", str(tmp_path / "x1.csv"), "--x2", str(tmp_path / "x2.csv"),
         "--metadata", str(meta), "--normalize", "--out", str(tmp_path / "loss.json")],
        ["gradcheck", "--variant", "proposed"],
        ["simulate", "--config", str(config), "--variants", "proposed", "--seeds", "0",
         "--workers", "1", "--out", str(tmp_path / "study.json")],
    ]
    code = textwrap.dedent(f"""\
        import contextlib, io
        from confcl.cli import main
        def scipy():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        seen = {{"import": scipy()}}
        for argv in {commands!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                seen[argv[0]] = [main(argv), scipy()]
        print(json.dumps(seen))
    """)
    seen = _fresh(code)
    assert seen == {
        "import": [],
        "kernel": [0, []],
        "loss": [0, []],
        "gradcheck": [0, []],
        "simulate": [0, []],
    }

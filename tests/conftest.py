import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, and slow first calls
# (imports, cached builds) do not count as failures.
settings.register_profile("hartool", derandomize=True, deadline=None)
settings.load_profile("hartool")

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fresh_report(tmp_path):
    """Run a config by `hartool run` in a new interpreter, whose kernel-matrix
    cache and conjugate tables start empty; returns the report file's bytes."""
    def run(cfg) -> bytes:
        cfg_path, out_path = tmp_path / "fresh.json", tmp_path / "fresh_report.json"
        cfg_path.write_text(json.dumps(cfg.to_json_dict()))
        path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        subprocess.run([sys.executable, "-m", "hartool.harness.cli", "run", "--config",
                        str(cfg_path), "--out", str(out_path)], env=env, check=True,
                       capture_output=True, timeout=300)
        return out_path.read_bytes()
    return run

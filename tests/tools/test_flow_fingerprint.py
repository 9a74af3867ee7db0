"""The cross-process fingerprint tool: verdicts and exit codes."""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "flow_fingerprint", REPO_ROOT / "tools" / "flow_fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_fresh_process_matches_this_process(tool, capsys, monkeypatch):
    # The child inherits the environment; make the package importable
    # there however this process found it.
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in path if p))
    assert tool.main(["flow_fingerprint", "misex1", "--flow", "mis"]) == 0
    assert "identical across processes" in capsys.readouterr().out


def test_hash_difference_exits_one(tool, capsys, monkeypatch):
    monkeypatch.setattr(tool, "_fresh_process_digest",
                        lambda *job: "0" * 64)
    assert tool.main(["flow_fingerprint", "misex1", "--flow", "mis"]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_cut_mapper_fingerprint(tool, capsys, monkeypatch):
    """``--mapper`` reaches the job spec: the cut backend's cover hashes
    the same in a fresh process."""
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in path if p))
    assert tool.main(["flow_fingerprint", "misex1", "--flow", "mis",
                      "--mapper", "cuts"]) == 0
    assert "misex1 (mis, area, cuts) identical across processes" in \
        capsys.readouterr().out


def test_non_tree_mapper_needs_the_mis_flow(tool, capsys, monkeypatch):
    monkeypatch.setattr(tool, "payload_digest", lambda *job: pytest.fail(
        "a rejected job must not run"))
    with pytest.raises(SystemExit) as info:
        tool.main(["flow_fingerprint", "misex1", "--mapper", "cuts"])
    assert info.value.code == 2
    assert "needs flow 'mis'" in capsys.readouterr().err

"""Tests for ``tools/figures_ledger.py``, the figure identity gate."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "figures_ledger.py"


def _ledger(*args):
    return subprocess.run([sys.executable, str(_TOOL), *args],
                          capture_output=True, text=True, cwd=_ROOT)


def test_update_then_check_round_trips(tmp_path):
    ledger = tmp_path / "golden.json"
    assert _ledger("update", "fig7", "--ledger", str(ledger)).returncode == 0
    digests = json.loads(ledger.read_text())["digests"]
    assert list(digests) == ["fig7"]
    result = _ledger("check", "fig7", "--ledger", str(ledger))
    assert result.returncode == 0, result.stdout + result.stderr


def test_check_fails_on_changed_or_missing_digest(tmp_path):
    ledger = tmp_path / "golden.json"
    ledger.write_text(json.dumps({"digests": {"fig7": "0" * 64}}))
    changed = _ledger("check", "fig7", "--ledger", str(ledger))
    assert changed.returncode == 1
    assert "CHANGED" in changed.stdout
    missing = _ledger("check", "fig7", "--ledger", str(tmp_path / "none"))
    assert missing.returncode == 1
    assert "MISSING" in missing.stdout


def test_unknown_experiment_is_rejected(tmp_path):
    result = _ledger("check", "fig99", "--ledger", str(tmp_path / "x"))
    assert result.returncode == 2
    assert "fig99" in result.stderr


def _load_tool():
    spec = importlib.util.spec_from_file_location("figures_ledger", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_ledger_covers_every_experiment():
    sys.path.insert(0, str(_ROOT / "src"))
    from repro.cli import EXPERIMENTS
    committed = json.loads((_ROOT / "figures-golden.json").read_text())
    ablations = _load_tool().ablation_names()
    assert ablations == ["ablation_register_permutation",
                         "ablation_rerandomization", "ablation_superblocks"]
    assert sorted(committed["digests"]) == sorted([*EXPERIMENTS, *ablations])


def test_ablation_round_trips(tmp_path):
    ledger = tmp_path / "golden.json"
    name = "ablation_rerandomization"
    assert _ledger("update", name, "--ledger", str(ledger)).returncode == 0
    assert list(json.loads(ledger.read_text())["digests"]) == [name]
    result = _ledger("check", name, "--ledger", str(ledger))
    assert result.returncode == 0, result.stdout + result.stderr
    committed = json.loads((_ROOT / "figures-golden.json").read_text())
    assert _ledger("check", name).returncode == 0
    assert json.loads(ledger.read_text())["digests"][name] == \
        committed["digests"][name]


def test_host_time_fields_are_stripped():
    module = _load_tool()
    payload = {"rows": [{"seconds": 1.5, "stage_seconds": {"walk": 1},
                         "cycles": 2.0}], "seconds": 3}
    assert module.strip_host_time(payload) == {"rows": [{"cycles": 2.0}]}

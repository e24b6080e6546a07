import json
import math

import pytest

from laserlab import cli
from laserlab.cli import (
    EXIT_CAP,
    EXIT_CERT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SCHEMA,
    main,
)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    d = tmp_path / "cache"
    monkeypatch.setenv("LASERLAB_CACHE_DIR", str(d))
    return d


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_bad_t_is_config_error(capsys, cache_dir):
    code, _ = run(capsys, "omega", "--q", "6", "--t", "3")
    assert code == EXIT_CONFIG


def test_t32_requires_stretch(capsys, cache_dir):
    code, _ = run(capsys, "omega", "--q", "5", "--t", "32")
    assert code == EXIT_CONFIG


def test_unknown_command_is_config_error(capsys, cache_dir):
    assert main(["frobnicate"]) == EXIT_CONFIG


def test_simulate_behrend_json(capsys, cache_dir):
    code, out = run(capsys, "simulate", "behrend", "--M", "101", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["valid"] and payload["size"] >= 101 ** 0.6


def test_simulate_zero_out_text(capsys, cache_dir):
    code, out = run(capsys, "simulate", "zero-out", "--n", "60", "--m", "3",
                    "--seeds", "10")
    assert code == EXIT_OK
    assert "mean |I|" in out


def test_simulate_pipeline_json(capsys, cache_dir):
    code, out = run(capsys, "simulate", "pipeline", "--q", "2", "--n", "12",
                    "--seeds", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["M"] == 24203
    assert math.isclose(float(payload["expected_C1"]),
                        payload["A_size"] * 132 ** 3 / 24203 ** 2, rel_tol=1e-12)


def test_pipeline_cap_exit_code(capsys, cache_dir):
    code, _ = run(capsys, "simulate", "pipeline", "--q", "2", "--n", "12",
                  "--cap", "10")
    assert code == EXIT_CAP


def test_cache_empty_listing(capsys, cache_dir):
    code, out = run(capsys, "cache", "list")
    assert code == EXIT_OK
    assert "empty" in out


def test_analyze_writes_cache_and_verify_passes(capsys, cache_dir):
    code, _ = run(capsys, "analyze", "--q", "6", "--t", "1", "--tau", "0.8")
    assert code == EXIT_OK
    files = list(cache_dir.glob("*.json"))
    assert len(files) == 1
    code, out = run(capsys, "cache", "verify")
    assert code == EXIT_OK
    assert "all pass" in out


def test_cache_verify_catches_tampering(capsys, cache_dir):
    run(capsys, "analyze", "--q", "6", "--t", "1", "--tau", "0.8")
    path = next(cache_dir.glob("*.json"))
    data = json.loads(path.read_text())
    entry = data["top"]
    entry["log_value"] = cli.decimal_str(float(entry["log_value"]) + 1e-3)
    path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
    code, out = run(capsys, "cache", "verify")
    assert code == EXIT_CERT
    assert "FAILED" in out


def test_cache_verify_fails_entry_with_missing_multiplier(capsys, cache_dir):
    run(capsys, "analyze", "--q", "6", "--t", "1", "--tau", "0.8")
    path = next(cache_dir.glob("*.json"))
    data = json.loads(path.read_text())
    del data["top"]["dual_multipliers"]["x"]["0"]
    path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
    code, out = run(capsys, "cache", "verify")
    assert code == EXIT_CERT
    assert "1 FAILED" in out


def _entry(data, ijk):
    return next(e for e in data["entries"] if (e["I"], e["J"], e["K"]) == ijk)


def _drop_top_x_multipliers(data):
    del data["top"]["dual_multipliers"]["x"]


def _null_alpha(data):
    _entry(data, (1, 1, 2))["alpha"] = None


def _null_multipliers(data):
    _entry(data, (1, 1, 2))["dual_multipliers"] = None


def _relabel_as_merge(data):
    _entry(data, (1, 1, 2))["method"] = "merge"


def _delete_entry(data):
    data["entries"].remove(_entry(data, (1, 1, 2)))


def _alpha_triple_outside_support(data):
    _entry(data, (1, 1, 2))["alpha"][0].update(i=2, j=2, k=0)


@pytest.mark.parametrize("tamper", [
    _drop_top_x_multipliers,
    _null_alpha,
    _null_multipliers,
    _relabel_as_merge,
    _delete_entry,
    _alpha_triple_outside_support,
])
def test_cache_verify_fails_closed_on_tampered_t2_table(capsys, cache_dir, tamper):
    run(capsys, "analyze", "--q", "6", "--t", "2", "--tau", "0.8")
    path = next(cache_dir.glob("*.json"))
    data = json.loads(path.read_text())
    tamper(data)
    path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
    code, out = run(capsys, "cache", "verify")
    assert code == EXIT_CERT
    assert "FAILED" in out


def test_unknown_heuristic_is_config_error(capsys, cache_dir):
    code, _ = run(capsys, "analyze", "--q", "6", "--t", "1", "--tau", "0.8",
                  "--heuristics", "7")
    assert code == EXIT_CONFIG
    assert not list(cache_dir.glob("*.json"))


def test_cache_schema_mismatch_exit_code(capsys, cache_dir):
    run(capsys, "analyze", "--q", "6", "--t", "1", "--tau", "0.8")
    path = next(cache_dir.glob("*.json"))
    data = json.loads(path.read_text())
    data["schema_version"] = 99
    path.write_text(json.dumps(data) + "\n")
    assert main(["cache", "verify"]) == EXIT_SCHEMA


def test_analyze_json_output_is_deterministic(capsys, cache_dir):
    code1, out1 = run(capsys, "analyze", "--q", "6", "--t", "1", "--tau", "0.8",
                      "--format", "json")
    code2, out2 = run(capsys, "analyze", "--q", "6", "--t", "1", "--tau", "0.8",
                      "--format", "json")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2

import json
import math
from concurrent.futures.process import BrokenProcessPool

import pytest

from laserlab import cli
from laserlab import laser_engine as le
from laserlab.cli import (
    EXIT_CAP,
    EXIT_CERT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_SOLVER,
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


@pytest.mark.parametrize("n, m", [("3", "3"), ("2", "1")])
def test_simulate_zero_out_impossible_support_is_config_error(capsys, cache_dir, n, m):
    # m*n above n(n-1)(n-2): no support of that size exists.
    code, _ = run(capsys, "simulate", "zero-out", "--n", n, "--m", m, "--seeds", "2")
    assert code == EXIT_CONFIG


def test_simulate_zero_out_meets_the_guarantee(capsys, cache_dir):
    code, out = run(capsys, "simulate", "zero-out", "--n", "300", "--m", "4",
                    "--seeds", "200", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert float(payload["mean_kept"]) >= float(payload["bound"]) - 3 * float(payload["stderr"])


def test_simulate_pipeline_json(capsys, cache_dir):
    code, out = run(capsys, "simulate", "pipeline", "--q", "2", "--n", "12",
                    "--seeds", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["M"] == 24203
    assert math.isclose(float(payload["expected_C1"]),
                        payload["A_size"] * 132 ** 3 / 24203 ** 2, rel_tol=1e-12)


@pytest.mark.parametrize("argv", [
    ("pipeline", "--q", "2", "--n", "12", "--seeds", "0"),
    ("hard-instance", "--n", "128", "--m", "25", "--samples", "0"),
], ids=["pipeline-seeds", "hard-instance-samples"])
def test_simulate_zero_count_is_config_error(capsys, cache_dir, argv):
    code = main(["simulate", *argv])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error: ")


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


def test_cache_verify_rederives_omega(capsys, cache_dir):
    code, out = run(capsys, "omega", "--q", "6", "--t", "1", "--format", "json")
    assert code == EXIT_OK
    omega = json.loads(out)
    assert omega["probes"] <= 10
    run(capsys, "analyze", "--q", "6", "--t", "1", "--tau", "0.79")
    code, out = run(capsys, "cache", "verify", "--format", "json")
    assert code == EXIT_OK
    reports = {r["file"]: r for r in json.loads(out)["reports"]}
    assert reports[omega["cache"]]["omega_certified"] == omega["omega"]
    # tau = 0.79 is infeasible at t = 1: the table certifies no omega.
    (infeasible,) = (r for f, r in reports.items() if f != omega["cache"])
    assert infeasible["all_passed"] and infeasible["omega_certified"] is None


def test_cache_schema_key_sets(capsys, cache_dir):
    run(capsys, "analyze", "--q", "6", "--t", "2", "--tau", "0.8")
    data = json.loads(next(cache_dir.glob("*.json")).read_text())
    bound = {"log_value", "heuristic", "gamma", "alpha", "dual_multipliers", "penalty_log"}
    assert set(data) == {"schema_version", "code_version", "q", "t", "tau", "heuristics",
                         "seed", "entries", "top"}
    assert set(data["top"]) == bound
    assert data["entries"]
    for entry in data["entries"]:
        assert set(entry) == bound | {"I", "J", "K", "method"}


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


def _zero_weight_triple_outside_support(data):
    _entry(data, (1, 1, 2))["alpha"].append({"i": 2, "j": 2, "k": 0, "w": cli.decimal_str(0.0)})


def _set_alpha_weight(text):
    def tamper(data):
        _entry(data, (1, 1, 2))["alpha"][0]["w"] = text
    tamper.__name__ = f"_alpha_weight_{text}"
    return tamper


def _negative_top_alpha_weight(data):
    w = data["top"]["alpha"][-1]
    w["w"] = "-" + w["w"]


def _delete_top(data):
    del data["top"]


def _null_top_alpha_weight(data):
    data["top"]["alpha"][0]["w"] = None


def _set_header(key, value, name):
    # A q or t the engine would not run, or a q under which some entry is a
    # zero class (at q = 0 every class with an odd index is).
    def tamper(data):
        data[key] = value
    tamper.__name__ = name
    return tamper


def _null_top_alpha_at_best_class_value(data):
    # A top without alpha certifies nothing, not its best class's value.
    level_t = [e for e in data["entries"] if e["I"] + e["J"] + e["K"] == 2 * data["t"]]
    data["top"]["alpha"] = None
    data["top"]["log_value"] = max(level_t, key=lambda e: float(e["log_value"]))["log_value"]


@pytest.mark.parametrize("tamper", [
    _drop_top_x_multipliers,
    _null_alpha,
    _null_multipliers,
    _relabel_as_merge,
    _delete_entry,
    _alpha_triple_outside_support,
    _zero_weight_triple_outside_support,
    _set_alpha_weight("-0.25"),
    _set_alpha_weight("nan"),
    _set_alpha_weight("inf"),
    _negative_top_alpha_weight,
    _delete_top,
    _null_top_alpha_weight,
    _null_top_alpha_at_best_class_value,
    _set_header("q", -1, "_q_negative"),
    _set_header("q", "6", "_q_string"),
    _set_header("q", 0, "_q_zero"),
    _set_header("t", 3, "_t_3"),
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


@pytest.mark.parametrize("command, extra", [
    ("analyze", ["--tau", "0.8"]),
    ("omega", []),
], ids=["analyze", "omega"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_iter_cap_below_one_is_config_error(capsys, cache_dir, command, extra, cap):
    # A cap of 0 used to run the default 20 000 and -5 ascents that take no step.
    code = main([command, "--q", "6", "--t", "1", *extra, "--iter-cap", cap])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error: heuristic iteration cap")
    assert not list(cache_dir.glob("*.json"))


@pytest.mark.parametrize("command, extra", [
    ("analyze", ["--tau", "0.8"]),
    ("omega", []),
], ids=["analyze", "omega"])
def test_negative_q_is_config_error(capsys, cache_dir, command, extra):
    # Every class rule assumes q >= 0; q = -1 used to run to a meaningless table.
    code = main([command, "--q", "-1", "--t", "2", *extra])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error: q must be non-negative, got q=-1")
    assert not list(cache_dir.glob("*.json"))


@pytest.mark.parametrize("command", ["list", "verify"])
@pytest.mark.parametrize("name", ["a-directory", "missing.json"])
def test_cache_file_that_cannot_be_read_is_config_error(capsys, cache_dir, tmp_path,
                                                        command, name):
    (tmp_path / "a-directory").mkdir()
    code = main(["cache", command, "--file", str(tmp_path / name)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error: ") and "Traceback" not in err


@pytest.mark.parametrize("command, key", [("list", "tables"), ("verify", "reports")])
def test_cache_commands_skip_a_directory_named_like_a_table(capsys, cache_dir, command, key):
    run(capsys, "analyze", "--q", "6", "--t", "1", "--tau", "0.8")
    (table,) = cache_dir.glob("*.json")
    (cache_dir / "x.json").mkdir()
    code, out = run(capsys, "cache", command, "--format", "json")
    assert code == EXIT_OK
    assert [r["file"] for r in json.loads(out)[key]] == [str(table)]


def test_cache_schema_mismatch_exit_code(capsys, cache_dir):
    run(capsys, "analyze", "--q", "6", "--t", "1", "--tau", "0.8")
    path = next(cache_dir.glob("*.json"))
    data = json.loads(path.read_text())
    data["schema_version"] = 99
    path.write_text(json.dumps(data) + "\n")
    assert main(["cache", "verify"]) == EXIT_SCHEMA
    assert main(["cache", "list"]) == EXIT_SCHEMA


def test_cache_list_reports_a_table_that_does_not_load(capsys, cache_dir):
    # One bad file used to hide the listing of every good one.
    run(capsys, "analyze", "--q", "6", "--t", "1", "--tau", "0.8")
    (good,) = cache_dir.glob("*.json")
    data = json.loads(good.read_text())
    del data["top"]
    bad = cache_dir / "bad.json"
    bad.write_text(json.dumps(data) + "\n")
    code, out = run(capsys, "cache", "list")
    assert code == EXIT_CERT
    assert f"{bad}: FAILED to load: missing key 'top'" in out.splitlines()
    assert f"{good}: q=6 t=1 tau=0.800000000 entries=2" in out.splitlines()


def test_analyze_json_output_is_deterministic(capsys, cache_dir):
    code1, out1 = run(capsys, "analyze", "--q", "6", "--t", "1", "--tau", "0.8",
                      "--format", "json")
    code2, out2 = run(capsys, "analyze", "--q", "6", "--t", "1", "--tau", "0.8",
                      "--format", "json")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


@pytest.mark.parametrize("error, t", [
    (RuntimeError("all pipeline candidates failed: h2: boom"), "2"),
    (BrokenProcessPool("a process in the process pool was terminated abruptly"), "2"),
    # Every class of CW_q^1 is merged, so only the top runs the pipeline job.
    (RuntimeError("all pipeline candidates failed: h2: boom"), "1"),
], ids=["all-candidates-failed", "broken-pool", "all-candidates-failed-at-top"])
def test_solver_runtime_error_is_exit_3(capsys, cache_dir, monkeypatch, error, t):
    def fail(job):
        raise error

    monkeypatch.setattr(le, "_pipeline_job", fail)
    code = main(["analyze", "--q", "6", "--t", t, "--tau", "0.8"])
    err = capsys.readouterr().err
    assert code == EXIT_SOLVER
    assert err.startswith("solver failure: ") and "Traceback" not in err
    assert not list(cache_dir.glob("*.json"))

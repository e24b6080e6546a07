import concurrent.futures
import itertools
import math
import multiprocessing
import os
import subprocess
import sys

import pytest

from laserlab import laser_engine as le
from laserlab.distributions import SupportDistribution
from laserlab.laser_engine import (
    EngineConfig,
    LaserEngine,
    SchemaVersionError,
    ValueBound,
    _realizable_splits,
    analyze_cw,
    certify_table,
    class_is_realizable,
    classic_bound,
    decimal_str,
    merged_count,
    merged_value,
    omega_bound,
    refined_bound,
    schonhage_tau,
    table_from_json,
    table_to_json,
)
from laserlab.solver import heuristic_gamma
from laserlab.tensor_core import ClassKey, class_subtensor, matmul_shape

TOY = tuple(sorted(itertools.permutations((0, 1, 2))))
TOY_LV = {t: 0.0 for t in TOY}
EVEN_PERMS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def test_decimal_str_roundtrips():
    for x in (0.0, 1.5, math.pi, -2.718281828459045e-7, 1e300):
        assert float(decimal_str(x)) == x


def test_schonhage_strassen_anchor():
    tau = schonhage_tau([(2, 2, 2)], 7.0)
    assert abs(3 * tau - math.log2(7)) < 1e-9


def test_schonhage_multiple_shapes():
    # <3,1,1> + <1,1,3> from rank 5: the classic disjoint-sum example.
    tau = schonhage_tau([(3, 1, 1), (1, 1, 3)], 5.0)
    assert abs(2 * 3 ** tau - 5.0) < 1e-9


def test_schonhage_rejects_bad_rank():
    with pytest.raises(ValueError):
        schonhage_tau([(2, 2, 2)], 2.0)
    with pytest.raises(ValueError):
        schonhage_tau([(2, 2, 2)], 9.0)


def test_class_realizability_t2():
    for trip in itertools.product(range(5), repeat=3):
        if sum(trip) == 4:
            assert class_is_realizable(2, 2, *trip)
    assert not class_is_realizable(0, 1, 0, 1, 1)
    assert class_is_realizable(0, 1, 0, 0, 2)


def test_merged_count_known_values():
    assert merged_count(2, 2, 2, 2) == 6
    assert merged_count(2, 1, 1, 1) == 2
    assert merged_count(3, 1, 1, 1) == 3
    assert merged_count(2, 2, 3, 1) == 4


def test_merged_count_matches_variable_level_tensor():
    # The merged class (I, J, 0) of CW_q^t is <N,1,1> at variable level.
    for (q, t, i, j) in ((2, 2, 2, 2), (2, 2, 3, 1), (3, 2, 2, 2), (2, 2, 4, 0)):
        n = merged_count(q, t, i, j)
        shape = matmul_shape(class_subtensor(q, t, i, j, 0))
        assert shape is not None
        assert sorted(shape, reverse=True) == [n, 1, 1]


def test_merged_value_is_tau_log_n():
    assert math.isclose(merged_value(2, 2, 2, 2, 0.8), 0.8 * math.log(6), rel_tol=1e-14)


def test_refined_and_classic_on_toy():
    alpha = SupportDistribution.uniform(EVEN_PERMS)
    refined = refined_bound(TOY, TOY_LV, alpha, math.log(6))
    classic = classic_bound(TOY, TOY_LV, alpha, math.log(6))
    assert math.isclose(math.exp(refined), 3 / math.sqrt(2), rel_tol=1e-12)
    assert math.isclose(math.exp(classic), 1.5, rel_tol=1e-12)


def test_refined_rejects_beta_below_alpha_entropy():
    alpha = SupportDistribution.uniform(TOY)
    with pytest.raises(ValueError):
        refined_bound(TOY, TOY_LV, alpha, math.log(3))


def test_refined_rejects_alpha_outside_support_without_log_value():
    alpha = SupportDistribution({(2, 0, 0): 0.5, (0, 1, 2): 0.5})
    with pytest.raises(ValueError, match="outside support"):
        refined_bound(TOY, TOY_LV, alpha, math.log(3))


def test_value_bound_rejects_positive_penalty():
    key = ClassKey.make(2, 1, 0, 1, 1)
    with pytest.raises(ValueError):
        ValueBound(key=key, log_value=0.1, method="merge", penalty_log=0.5)


FAST = EngineConfig(heuristics_small=(2,), heuristic_iter_cap=2000)


def test_analyze_cw_t1_beats_leaf_values():
    table = analyze_cw(6, 1, 0.8, config=FAST)
    # The outer bound must beat any single class value.
    leaf_best = max(b.log_value for b in table.entries.values())
    assert table.top.log_value >= leaf_best - 1e-12
    assert table.top.log_value >= math.log(8)  # feasible at tau = 0.8


def test_analyze_cw_rejects_bad_t():
    with pytest.raises(ValueError):
        analyze_cw(2, 3, 0.8)


def test_engine_rejects_bad_tau():
    with pytest.raises(ValueError):
        LaserEngine(2, 0.5)


def test_table_json_roundtrip():
    table = analyze_cw(6, 1, 0.8, config=FAST)
    text = table_to_json(table)
    back = table_from_json(text)
    assert back.q == table.q and back.t == table.t
    assert math.isclose(back.tau, table.tau, rel_tol=0, abs_tol=0)
    assert set(back.entries) == set(table.entries)
    for key, entry in table.entries.items():
        assert back.entries[key].log_value == entry.log_value
    assert back.top.log_value == table.top.log_value
    # Serialization is deterministic.
    assert table_to_json(back) == text


def test_table_json_schema_guard():
    table = analyze_cw(6, 1, 0.8, config=FAST)
    text = table_to_json(table).replace('"schema_version": 1', '"schema_version": 99') \
        .replace('"schema_version":1', '"schema_version":99')
    with pytest.raises(SchemaVersionError):
        table_from_json(text)


def test_certify_fresh_table_passes():
    table = analyze_cw(6, 1, 0.8, config=FAST)
    cert = certify_table(table)
    assert cert.all_passed


def test_certify_catches_tampering():
    table = analyze_cw(6, 1, 0.8, config=FAST)
    text = table_to_json(table)
    tampered = table_from_json(text)
    top = tampered.top
    object.__setattr__(top, "log_value", top.log_value + 1e-3)
    cert = certify_table(tampered)
    assert not cert.all_passed


@pytest.mark.parametrize("q, t, bisection_tau_star, cold_tau_star, tau_star", [
    (6, 1, "7.9573059082031250000000000000000000e-1",
     "7.9572997017517477225112543237628415e-1",
     "7.9572997017517488327342789489193819e-1"),
    (6, 2, "7.9182624816894531250000000000000000e-1",
     "7.9182563835466845958421799878124148e-1",
     "7.9182563835466812651731061123427935e-1"),
])
def test_omega_bound_pins_tau_star_and_keeps_last_probe(
    q, t, bisection_tau_star, cold_tau_star, tau_star
):
    result, table = omega_bound(q, t)
    assert decimal_str(result.tau_star) == tau_star
    # Regula falsi at tol 1e-9 finds a lower feasible tau than bisection
    # at tol 1e-6 did.
    assert result.tau_star < float(bisection_tau_star)
    # Warm-started probes move tau* by at most 1e-15 from its value when
    # every probe started cold.
    assert abs(result.tau_star - float(cold_tau_star)) <= 1e-15
    # The returned table is the last feasible probe's, not a rebuild.
    assert table.tau == result.tau_star
    assert result.certified


@pytest.mark.parametrize("q, t", [(6, 1), (6, 2)])
def test_omega_bound_needs_few_probes(q, t):
    result, _ = omega_bound(q, t)
    assert result.probes <= 10


@pytest.mark.parametrize("q, t, tau, floor, log_value, heuristic", [
    (6, 2, 0.8, "4.1873825833820603747881250455975533e+0",
     "4.1873825833820603747881250455975533e+0", "h2"),
    # Stopping stalled ascents moved this value up by 9e-16 from floor,
    # its value when they ran to the iteration cap.
    (5, 4, 0.791, "7.7837779406898990330887500022072345e+0",
     "7.7837779406898999212671697023324668e+0", "h2+sym"),
])
def test_analyze_cw_top_value_is_pinned(q, t, tau, floor, log_value, heuristic):
    # Pins the ascent kernel: a change to its arithmetic moves these bits.
    top = analyze_cw(q, t, tau).top
    assert decimal_str(top.log_value) == log_value
    assert top.log_value >= float(floor)
    assert top.heuristic == heuristic


def test_stalled_class_ascent_stops_early():
    # The h2 ascent of class (1,6,9) of CW_5^8 stops gaining within 100
    # iterations; without the stall stop it ran to the 20 000 cap.
    key = ClassKey.make(5, 8, 1, 6, 9)
    engine = LaserEngine(5, 0.791)
    value = engine.analyze_class(key)
    inner = {
        child: engine.analyze_class(k1).log_value + engine.analyze_class(k2).log_value
        for child, k1, k2 in _realizable_splits(key)
    }
    res = heuristic_gamma(2, sorted(inner), inner, max_iter=EngineConfig().heuristic_iter_cap)
    assert res.iterations < 1000
    assert not res.converged
    # Its value with the cap.
    assert value.log_value >= 11.872222983470092


def test_engine_config_rejects_unknown_heuristics():
    for bad in ((), (7,), (1, 2), (2, 3)):
        with pytest.raises(ValueError):
            EngineConfig(heuristics_small=bad)


# What a command may load, checked in a fresh interpreter.  No command below
# reaches level 8, so none may load the pool modules either.
HEAVY_MODULES = ("numpy", "mpmath", "laserlab.solver", "laserlab.construction_sim",
                 "multiprocessing", "concurrent.futures")


@pytest.mark.parametrize("argv, loaded", [
    (["--help"], []),
    (["cache", "verify", "--file", "{table}"], ["mpmath"]),
    (["simulate", "hard-instance", "--n", "64", "--m", "3", "--samples", "5"],
     ["laserlab.construction_sim", "numpy"]),
    (["analyze", "--q", "6", "--t", "1", "--tau", "0.8"], ["laserlab.solver", "numpy"]),
    (["omega", "--q", "6", "--t", "1"], ["laserlab.solver", "mpmath", "numpy"]),
], ids=["help", "cache-verify", "simulate", "analyze", "omega"])
def test_cli_command_loads_only_its_layers(tmp_path, argv, loaded):
    table = tmp_path / "table.json"
    table.write_text(table_to_json(analyze_cw(6, 1, 0.8)))
    code = (
        "import sys\n"
        "from laserlab import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        f"print(code, sorted(m for m in {HEAVY_MODULES!r} if m in sys.modules))\n"
    )
    argv = [a.format(table=table) for a in argv]
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True,
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                               LASERLAB_CACHE_DIR=str(tmp_path / "cache")),
    )
    assert out.stdout.splitlines()[-1] == f"0 {sorted(loaded)}"


@pytest.fixture(scope="module")
def t8_pool_run():
    """analyze_cw(5, 8, 0.791) on a two-worker pool and serially."""
    pools = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pooled = table_to_json(analyze_cw(5, 8, 0.791))
        children = multiprocessing.active_children()
        mp.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = table_to_json(analyze_cw(5, 8, 0.791))
    return {"pooled": pooled, "serial": serial, "children": children, "pools": pools}


def test_t8_pool_workers_end_with_the_analysis(t8_pool_run):
    # One pool, for the level-8 classes only, and no worker left behind.
    assert t8_pool_run["pools"] == [2]
    assert t8_pool_run["children"] == []


def test_t8_pool_table_matches_serial_bytes(t8_pool_run):
    assert t8_pool_run["pooled"] == t8_pool_run["serial"]


def test_levels_below_8_never_create_a_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    result, _ = omega_bound(6, 2)
    assert result.certified
    # Level 4 of CW_5^4 has five recursion classes, still below the pool's level.
    assert analyze_cw(5, 4, 0.791).top.log_value > 0


def test_omega_bound_warm_starts_each_probe_from_the_one_before(monkeypatch):
    engines = []

    class SpyEngine(LaserEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(le, "LaserEngine", SpyEngine)
    result, table = omega_bound(6, 2)
    assert len(engines) == result.probes
    assert engines[0]._starts == {}
    recursion = {key for key, e in table.entries.items() if e.method == "recursion"}
    assert recursion
    for before, engine in zip(engines, engines[1:]):
        assert engine._starts is before.ascents
        # A start for every recursion class and for the top, per heuristic.
        assert set(engine._starts) == recursion | {None}
        assert all(set(s) == {2} for s in engine._starts.values())


def test_t8_warm_probe_pool_table_matches_serial_bytes():
    # Two successive probes, the second warm-started from the first; the
    # level-8 workers must send their end points back.
    pools = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
        for cpus in ({0, 1}, {0}):
            mp.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            first = LaserEngine(5, 0.7911)
            cold = table_to_json(first.analyze_cw(8))
            second = LaserEngine(5, 0.7910, starts=first.ascents)
            warm = table_to_json(second.analyze_cw(8))
            runs[len(cpus)] = (cold, warm, second.ascents)
    assert pools == [2, 2]
    assert runs[2] == runs[1]

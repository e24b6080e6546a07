"""Command-line entry point: omega runs, class analyses, simulations, cache.

Output contract: with ``--format json`` the payload written to stdout (and
any cache file) is deterministic for a fixed configuration — keys sorted,
compact separators, all certified quantities as decimal strings, no
timestamps.  Wall-clock timings go to stderr only.

Exit codes: 0 success, 2 configuration error (including a path that is
missing, a directory or unreadable), 3 solver failure, 4 certification
failure, 5 instance cap exceeded, 6 cache schema mismatch.

Import rule: a command loads only the layers it runs.  At load time this
module imports only modules that load neither numpy nor mpmath
(``laser_engine``, ``distributions``, ``tensor_core``), and ``main`` maps
exceptions through classes defined there.  A ``simulate`` command imports
``construction_sim`` (and numpy) itself; ``laser_engine`` imports the numpy
search (``solver``) where it searches and mpmath where it certifies.  So
``--help`` and ``cache list`` load neither, ``cache verify`` loads mpmath,
``simulate`` and ``analyze`` load numpy, and ``omega`` loads both.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from . import laser_engine as le
from .distributions import InfeasibleMarginalsError
from .laser_engine import EngineConfig, SchemaVersionError, decimal_str
from .tensor_core import CapExceededError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CERT = 4
EXIT_CAP = 5
EXIT_SCHEMA = 6

DEFAULT_SEED = 20201023


def default_cache_dir() -> Path:
    env = os.environ.get("LASERLAB_CACHE_DIR")
    if env:
        return Path(env)
    return Path.cwd() / ".laserlab-cache"


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _engine_config(args) -> EngineConfig:
    kwargs = {"seed": args.seed}
    if getattr(args, "heuristics", None):
        kwargs["heuristics_small"] = tuple(args.heuristics)
    if getattr(args, "iter_cap", None) is not None:
        kwargs["heuristic_iter_cap"] = args.iter_cap
    return EngineConfig(**kwargs)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        sys.stdout.write(dumps(payload))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        flat = _flatten(payload)
        writer.writerow(sorted(flat))
        writer.writerow([flat[k] for k in sorted(flat)])
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _flatten(obj, prefix: str = "") -> dict:
    out: dict = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        out[prefix[:-1]] = json.dumps(obj, sort_keys=True)
    else:
        out[prefix[:-1]] = obj
    return out


def _settings_dict(config: EngineConfig) -> dict:
    return {
        "seed": config.seed,
        "heuristics_small": list(config.heuristics_small),
        "heuristic_iter_cap": config.heuristic_iter_cap,
    }


def cmd_omega(args) -> int:
    # The engine rejects a t outside laser_engine.ALLOWED_T.
    if args.t == 32 and not args.stretch:
        raise ValueError("t=32 requires --stretch (long-running, no acceptance claim)")
    config = _engine_config(args)
    t0 = time.monotonic()
    result, table = le.omega_bound(args.q, args.t, tol=args.tol, config=config)
    elapsed = time.monotonic() - t0
    cache_path = Path(args.cache) if args.cache else (
        default_cache_dir() / f"omega_q{args.q}_t{args.t}.json"
    )
    atomic_write(cache_path, le.table_to_json(table))
    if not result.certified:
        print("certification FAILED", file=sys.stderr)
        return EXIT_CERT
    payload = {
        "command": "omega",
        "q": args.q,
        "t": args.t,
        "tau_star": decimal_str(result.tau_star),
        "omega": decimal_str(result.omega),
        "tolerance": decimal_str(result.tol),
        "certified": result.certified,
        "probes": result.probes,
        "cache": str(cache_path),
        "settings": _settings_dict(config),
    }
    _emit(args, payload, [
        f"omega <= {result.omega:.7f}  (tau* = {result.tau_star:.9f}, tol {result.tol:g})",
        f"certified: {result.certified}",
        f"probes: {result.probes}",
        f"cache: {cache_path}",
    ])
    print(f"wall time: {elapsed:.1f}s", file=sys.stderr)
    return EXIT_OK


def cmd_analyze(args) -> int:
    config = _engine_config(args)
    table = le.analyze_cw(args.q, args.t, args.tau, config=config)
    cache_path = Path(args.cache) if args.cache else (
        default_cache_dir() / f"analyze_q{args.q}_t{args.t}_tau{args.tau:.9f}.json"
    )
    atomic_write(cache_path, le.table_to_json(table))
    payload = {
        "command": "analyze",
        "q": args.q,
        "t": args.t,
        "tau": decimal_str(args.tau),
        "log_value": decimal_str(table.top.log_value),
        "threshold": decimal_str(args.t * math.log(args.q + 2)),
        "classes": len([k for k in table.entries if sum(k.ijk) == 2 * args.t]),
        "cache": str(cache_path),
        "settings": _settings_dict(config),
    }
    _emit(args, payload, [
        f"log V_tau(CW_{args.q}^{args.t}) >= {table.top.log_value:.9f}",
        f"threshold t*ln(q+2) = {args.t * math.log(args.q + 2):.9f}",
        f"cache: {cache_path}",
    ])
    return EXIT_OK


def cmd_simulate_behrend(args) -> int:
    from . import construction_sim as cs

    ss = cs.behrend_set(args.M)
    if not ss.is_valid():
        raise AssertionError(f"behrend_set({args.M}) failed the 3-AP check")
    payload = {
        "command": "simulate.behrend",
        "M": args.M,
        "size": ss.size,
        "valid": True,
        "elements": sorted(ss.elements),
    }
    _emit(args, payload, [f"M={args.M}: |A|={ss.size}, validated 3-AP-free"])
    return EXIT_OK


def cmd_simulate_zero_out(args) -> int:
    # Random support at the theorem's density: m*n off-diagonal triples.
    import numpy as np

    from . import construction_sim as cs

    rng = np.random.default_rng(args.seed)
    sizes = []
    bound = None
    for s in range(args.seeds):
        bs = cs.random_block_support(args.n, args.m, rng)
        zr = cs.random_zero_out(bs, trials=1, seed=args.seed * 100003 + s)
        bound = zr.bound
        sizes.append(len(zr.kept))
    mean = statistics.mean(sizes)
    se = statistics.stdev(sizes) / math.sqrt(len(sizes)) if len(sizes) > 1 else 0.0
    payload = {
        "command": "simulate.zero-out",
        "n": args.n,
        "m": args.m,
        "seeds": args.seeds,
        "mean_kept": decimal_str(mean),
        "stderr": decimal_str(se),
        "bound": decimal_str(bound),
    }
    _emit(args, payload, [
        f"n={args.n} m={args.m} seeds={args.seeds}",
        f"mean |I| = {mean:.2f} (se {se:.2f}), guarantee 2n/(3*sqrt(3m)) = {bound:.1f}",
    ])
    return EXIT_OK


def cmd_simulate_hard_instance(args) -> int:
    from . import construction_sim as cs

    if args.kind == "greedy":
        inst = cs.greedy_hard_instance(args.n, args.m, seed=args.seed)
    else:
        inst = cs.free_hard_instance(args.n, args.m, seed=args.seed)
    cov = cs.coverage_statistics(inst.support, samples=args.samples, seed=args.seed)
    payload = {
        "command": "simulate.hard-instance",
        "kind": args.kind,
        "n": args.n,
        "m": args.m,
        "off_diag": len(inst.support.off_diag),
        "target_size": inst.target_size,
        "coverage": cov,
        "notes": {k: (decimal_str(v) if isinstance(v, float) else v)
                  for k, v in inst.notes.items()},
    }
    _emit(args, payload, [
        f"{args.kind} instance: n={args.n} m={args.m}, |S|={len(inst.support.off_diag)}",
        f"target size {inst.target_size}, empirical 99% threshold {cov['effective_threshold']}",
    ])
    return EXIT_OK


def cmd_simulate_pipeline(args) -> int:
    from . import construction_sim as cs

    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    c1s, c3s, ls = [], [], []
    stats = None
    for s in range(args.seeds):
        stats = cs.simulate_laser_pipeline(args.q, args.n, seed=args.seed + s, cap=args.cap)
        if not stats.hash_linearity_ok:
            raise AssertionError(f"hash linearity violated at seed {args.seed + s}")
        if not stats.block_disjoint_ok:
            raise AssertionError(f"block disjointness violated at seed {args.seed + s}")
        c1s.append(stats.C1)
        c3s.append(stats.C3)
        ls.append(stats.L)
    e_c1 = stats.A_size * stats.N_alpha / stats.M ** 2
    e_c3 = stats.A_size * stats.N_T / stats.M ** 2
    payload = {
        "command": "simulate.pipeline",
        "q": args.q,
        "n": args.n,
        "seeds": args.seeds,
        "M": stats.M,
        "A_size": stats.A_size,
        "N_alpha": str(stats.N_alpha),
        "N_B": str(stats.N_B),
        "N_T": str(stats.N_T),
        "R": str(stats.R),
        "mean_C1": decimal_str(statistics.mean(c1s)),
        "mean_C3": decimal_str(statistics.mean(c3s)),
        "mean_L": decimal_str(statistics.mean(ls)),
        "expected_C1": decimal_str(e_c1),
        "expected_C3": decimal_str(e_c3),
    }
    _emit(args, payload, [
        f"q={args.q} n={args.n} seeds={args.seeds}: M={stats.M}, |A|={stats.A_size}",
        f"E[C1] {e_c1:.3f} vs mean {statistics.mean(c1s):.3f}; "
        f"E[C3] {e_c3:.3f} vs mean {statistics.mean(c3s):.3f}; mean L {statistics.mean(ls):.3f}",
    ])
    return EXIT_OK


def _cache_files(args) -> list[Path]:
    if args.file:
        return [Path(args.file)]
    cache_dir = default_cache_dir()
    if not cache_dir.is_dir():
        return []
    return sorted(p for p in cache_dir.iterdir() if p.suffix == ".json" and p.is_file())


def _load_tables(args):
    """(path, table, None) per cache file, or (path, None, reason) for a file
    whose table does not load, which fails while the others are still read.
    A schema mismatch raises."""
    for path in _cache_files(args):
        try:
            yield path, le.table_from_json(path.read_text()), None
        except SchemaVersionError:
            raise
        except ValueError as exc:
            yield path, None, str(exc)


def cmd_cache_list(args) -> int:
    rows = []
    for path, table, error in _load_tables(args):
        if table is None:
            rows.append({"file": str(path), "error": error})
            continue
        rows.append({
            "file": str(path),
            "q": table.q,
            "t": table.t,
            "tau": decimal_str(table.tau),
            "log_value": decimal_str(table.top.log_value),
            "entries": len(table.entries),
        })
    payload = {"command": "cache.list", "tables": rows}
    _emit(args, payload, [
        f"{r['file']}: FAILED to load: {r['error']}" if "error" in r else
        f"{r['file']}: q={r['q']} t={r['t']} tau={float(r['tau']):.9f} "
        f"entries={r['entries']}" for r in rows
    ] or ["(empty cache)"])
    return EXIT_CERT if any("error" in r for r in rows) else EXIT_OK


def cmd_cache_verify(args) -> int:
    reports = []
    for path, table, error in _load_tables(args):
        if table is None:
            reports.append({"file": str(path), "error": error, "entries": 0, "failed": [],
                            "all_passed": False, "omega_certified": None})
            continue
        cert = le.certify_table(table)
        reports.append({
            "file": str(path),
            "entries": len(cert.entries),
            "failed": [
                {"key": list(e.key) if e.key else None,
                 "claimed": decimal_str(e.claimed),
                 "certified": decimal_str(e.certified_value)}
                for e in cert.entries if not e.passed
            ],
            "all_passed": cert.all_passed,
            "omega_certified": decimal_str(3.0 * table.tau) if cert.clears_threshold else None,
        })
    all_ok = all(r["all_passed"] for r in reports)
    payload = {"command": "cache.verify", "reports": reports, "all_passed": all_ok}
    lines = [
        f"{r['file']}: FAILED to load: {r['error']}" if "error" in r else
        f"{r['file']}: {r['entries']} entries, "
        + ("all pass" if r["all_passed"] else f"{len(r['failed'])} FAILED")
        + (f", omega <= {float(r['omega_certified']):.9f}" if r["omega_certified"] else "")
        for r in reports
    ] or ["(empty cache)"]
    _emit(args, payload, lines)
    return EXIT_OK if all_ok else EXIT_CERT


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="text")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser = argparse.ArgumentParser(
        prog="laserlab",
        description="Certified laser-method lower bounds for CW tensor powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_omega = sub.add_parser(
        "omega", parents=[common], help="find tau* by regula falsi and report an omega upper bound"
    )
    p_omega.add_argument("--q", type=int, required=True)
    p_omega.add_argument("--t", type=int, required=True)
    p_omega.add_argument("--tol", type=float, default=1e-9)
    p_omega.add_argument("--heuristics", type=int, nargs="+")
    p_omega.add_argument("--iter-cap", type=int)
    p_omega.add_argument("--cache")
    p_omega.add_argument("--stretch", action="store_true")
    p_omega.set_defaults(func=cmd_omega)

    p_an = sub.add_parser("analyze", parents=[common], help="analyze one CW power at a fixed tau")
    p_an.add_argument("--q", type=int, required=True)
    p_an.add_argument("--t", type=int, required=True)
    p_an.add_argument("--tau", type=float, required=True)
    p_an.add_argument("--heuristics", type=int, nargs="+")
    p_an.add_argument("--iter-cap", type=int)
    p_an.add_argument("--cache")
    p_an.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run a probabilistic-construction simulation")
    sim_sub = p_sim.add_subparsers(dest="sim_command", required=True)

    p_beh = sim_sub.add_parser("behrend", parents=[common])
    p_beh.add_argument("--M", type=int, required=True)
    p_beh.set_defaults(func=cmd_simulate_behrend)

    p_zo = sim_sub.add_parser("zero-out", parents=[common])
    p_zo.add_argument("--n", type=int, required=True)
    p_zo.add_argument("--m", type=int, required=True)
    p_zo.add_argument("--seeds", type=int, default=200)
    p_zo.set_defaults(func=cmd_simulate_zero_out)

    p_hi = sim_sub.add_parser("hard-instance", parents=[common])
    p_hi.add_argument("--kind", choices=("greedy", "free"), default="greedy")
    p_hi.add_argument("--n", type=int, required=True)
    p_hi.add_argument("--m", type=int, required=True)
    p_hi.add_argument("--samples", type=int, default=200)
    p_hi.set_defaults(func=cmd_simulate_hard_instance)

    p_pl = sim_sub.add_parser("pipeline", parents=[common])
    p_pl.add_argument("--q", type=int, required=True)
    p_pl.add_argument("--n", type=int, required=True)
    p_pl.add_argument("--seeds", type=int, default=1)
    p_pl.add_argument("--cap", type=int, default=10 ** 6)
    p_pl.set_defaults(func=cmd_simulate_pipeline)

    p_cache = sub.add_parser("cache", help="list or re-certify cached value tables")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cl = cache_sub.add_parser("list", parents=[common])
    p_cl.add_argument("--file")
    p_cl.set_defaults(func=cmd_cache_list)
    p_cv = cache_sub.add_parser("verify", parents=[common])
    p_cv.add_argument("--file")
    p_cv.set_defaults(func=cmd_cache_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SchemaVersionError as exc:
        print(f"schema mismatch: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (InfeasibleMarginalsError, RuntimeError) as exc:
        # RuntimeError: every pipeline candidate of a class failed, or a
        # pool worker died (BrokenProcessPool).
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # A path the user named (--file, --cache, the cache directory) that
        # is missing, a directory or unreadable.
        if exc.filename is None:
            raise
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssertionError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERT


if __name__ == "__main__":
    sys.exit(main())

"""One operation of a workload round, run in whichever process calls it.

A step is a JSON-able dict. `{"kind": "cli", "argv": [...]}` is one
`laserlab` command. `{"kind": "lib", "call": ..., ...}` is one library call
into `laserlab.construction_sim`. Every step gets a result dict with its
wall seconds, whether it succeeded, and its output.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path


def cache_text(stdout: str) -> str | None:
    """The cache file a `--format json` omega/analyze command reports, read back."""
    try:
        path = json.loads(stdout).get("cache")
    except (ValueError, AttributeError):
        return None
    return Path(path).read_text(encoding="utf-8") if path else None


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    from laserlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def run_lib(step: dict) -> dict:
    from laserlab import construction_sim as cs

    call = step["call"]
    if call == "behrend":
        return {"elements": sorted(cs.behrend_set(step["M"]).elements)}
    if call == "oracle":
        return {"size": cs.max_progression_free_size(step["M"])}
    if call == "pipeline":
        st = cs.simulate_laser_pipeline(step["q"], step["n"], seed=step["seed"])
        return {
            "M": st.M, "A_size": st.A_size, "N_alpha": st.N_alpha, "N_T": st.N_T,
            "C1": st.C1, "C3": st.C3, "C1_prime": st.C1_prime, "L": st.L,
            "alpha_counts": [[list(k), v] for k, v in st.alpha_counts.items()],
            "hash_ok": st.hash_linearity_ok, "disjoint_ok": st.block_disjoint_ok,
        }
    raise ValueError(f"unknown library call {call!r}")


def run_in_process(step: dict) -> dict:
    """Run one step here; library errors count as a failed operation."""
    start = time.perf_counter()
    result: dict = {"name": step["name"]}
    try:
        if step["kind"] == "cli":
            code, stdout = run_cli_in_process(step["argv"])
            result.update(ok=code == 0, code=code, stdout=stdout)
        else:
            result.update(ok=True, data=run_lib(step))
    except Exception as exc:  # noqa: BLE001 - reported as a failed operation
        result.update(ok=False, error=repr(exc))
    result["seconds"] = time.perf_counter() - start
    if result.get("ok") and step["kind"] == "cli":
        result["cache"] = cache_text(result["stdout"])
    return result

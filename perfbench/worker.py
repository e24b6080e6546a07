"""Child process that runs a list of steps in-process and prints their results.

Usage: `python3 perfbench/worker.py < plan.json`, where the plan is
`{"trace": bool, "steps": [...]}`. With `trace` set, the laserlab layers
are wrapped first (see layertrace.py) and the per-layer metrics are returned
too. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import json
import sys
import time

import steps


def main() -> int:
    plan = json.load(sys.stdin)
    out: dict = {}
    if plan["trace"]:
        import layertrace

        start = time.perf_counter()
        import laserlab.cli  # noqa: F401 - timed cold import

        import_s = time.perf_counter() - start
        tracer = layertrace.install()
        tracer.values["cli.import_s"] = import_s
    else:
        import laserlab.construction_sim  # noqa: F401 - set-up, not timed

    out["results"] = [steps.run_in_process(step) for step in plan["steps"]]
    if plan["trace"]:
        out["metrics"] = tracer.metrics()
        out["swallowed"] = tracer.failures
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

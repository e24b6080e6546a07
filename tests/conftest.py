"""Test-session set-up shared by every test module."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    # The ini `pythonpath` reaches only this process; tests that run
    # `python -m laserlab.cli` in a child process need src on PYTHONPATH.
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *paths])

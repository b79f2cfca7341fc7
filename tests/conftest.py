"""Shared fixtures plus a terminal hook that echoes acceptance results.

Acceptance tests record one PASS/FAIL line each; pytest captures stdout of
passing tests, so the lines are replayed in the terminal summary where they
are always visible.
"""
import importlib
import pathlib
import sys
import time

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
ACCEPTANCE_LINES = []


def record(line):
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def load_script(name):
    """scripts/<name>.py as a module. The scripts import each other by
    name, so their directory goes on sys.path."""
    scripts = str(ROOT / "scripts")
    if scripts not in sys.path:
        sys.path.append(scripts)
    return importlib.import_module(name)


@pytest.fixture(scope="session")
def acceptance_runs():
    """The 125 chains of acceptance criteria 1-4, each aggregated once and
    selected in both modes, as (runs, seconds): runs maps the chain's name
    (crit1-0, crit3-433-7, ...) to scripts/reproduce.py's Run, and seconds
    maps each criterion's tag (crit1 .. crit4) to the wall time of
    generating and running its chains."""
    reproduce = load_script("reproduce")
    chains = load_script("sweep_flips").acceptance_chains()
    runs, seconds = {}, {}
    t0 = time.perf_counter()
    for name, rows, rho_mode, k_max, planted in chains:
        runs[name] = reproduce.run(rows, rho_mode, k_max, planted)
        t1 = time.perf_counter()
        tag = name.split("-")[0]
        seconds[tag] = seconds.get(tag, 0.0) + t1 - t0
        t0 = t1
    return runs, seconds


def random_stochastic(rng, n):
    return rng.dirichlet(np.ones(n), size=n)


def floored_chain():
    """An 11-state chain whose one entry of 5e-12 (row 0, column 10) leaves
    the centroid of states 0..9 below klgeom._FLOOR on coordinate 10, where
    member 0 deviates."""
    rng = np.random.default_rng(3)
    n = 11
    rows = np.zeros((n, n))
    rows[:10, :10] = rng.dirichlet(np.ones(10), size=10)
    rows[0, 10] = 5e-12
    rows[0, :10] *= (1 - 5e-12) / rows[0, :10].sum()
    rows[10] = rng.dirichlet(np.ones(n))
    return rows


@pytest.fixture
def rng():
    return np.random.default_rng(0)

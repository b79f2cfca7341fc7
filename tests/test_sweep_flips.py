"""scripts/sweep_flips.py's exact minima against brute-force enumeration of
every set partition: the reference that the sweep's optimum counts rest on."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mcagg import distortion, stationary_distribution
from mcagg.klgeom import hard_centroids

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "sweep_flips.py"
_spec = importlib.util.spec_from_file_location("sweep_flips", SCRIPT)
sweep_flips = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep_flips)


def set_partitions(n):
    """Every partition of n states as a restricted growth string."""
    def rec(assign, k):
        if len(assign) == n:
            yield np.array(assign), k
            return
        for j in range(k + 1):
            yield from rec(assign + [j], max(k, j + 1))
    yield from rec([0], 1)


def chain_7(rng):
    """A 7-state chain with about 40% zero entries whose states 4-6 are
    transient: states 0-3 form a closed cycle class that 4-6 lead into, so
    the stationary rho weighs 4-6 at 0."""
    rows = np.where(rng.random((7, 7)) < 0.4, 0.0, rng.uniform(0.1, 1.0,
                                                               (7, 7)))
    rows[:4, 4:] = 0.0
    rows[np.arange(4), [1, 2, 3, 0]] += 0.1
    rows[4:, 0] += 0.1
    return rows / rows.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rho_mode", ["uniform", "stationary"])
def test_exact_minima_match_brute_force(seed, rho_mode):
    rows = chain_7(np.random.default_rng(seed))
    rho = (stationary_distribution(rows) if rho_mode == "stationary"
           else np.full(7, 1 / 7))
    if rho_mode == "stationary":
        assert (rho[:4] > 0).all() and np.array_equal(rho[4:], [0.0] * 3)
    best = {}
    for assign, k in set_partitions(7):
        d = distortion(rows, (assign, hard_centroids(rows, assign, rho)), rho)
        best[k] = min(best.get(k, np.inf), d)
    got = sweep_flips.exact_minima(rows, rho, 7)
    assert sorted(got) == list(range(1, 8))
    for k in range(1, 8):
        assert got[k] == pytest.approx(best[k], rel=1e-12, abs=1e-14)

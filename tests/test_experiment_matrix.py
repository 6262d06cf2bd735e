"""Smoke matrix: every registered experiment runs at minimum viable size.

Each E1-E14 registry entry is invoked once with the smallest parameters
its machinery accepts, and must produce at least one non-skipped row.
The matrix is keyed off :data:`repro.analysis.EXPERIMENTS` itself, with a
coverage test that fails the moment a new experiment is registered
without a matrix entry — the grid can't silently under-cover.
"""

import pytest

from repro.analysis import EXPERIMENTS, run_experiment

#: Minimum-viable keyword arguments, per experiment.  Chosen so the whole
#: matrix stays in smoke-test territory (seconds, not minutes) while still
#: driving every experiment's real machinery end to end.
MATRIX = {
    "E1": {"sizes": (8,), "families": ("path",)},
    "E2": {"gadget_sizes": (8,), "counting_exponents": (10,), "alphas": (0.2,)},
    "E3": {"sizes": (8,), "families": ("path",)},
    "E4": {"sizes": (8,), "families": ("path",)},
    "E5": {"n": 16, "k": 4, "counting_pairs": ((2**16, 2),)},
    "E6": {"sizes": (4, 8, 16), "family": "complete"},
    "E7": {"n": 8, "families": ("complete",), "schedulers": ("sync",)},
    "E8": {"exponents": (8,), "subdivided_factors": (1,)},
    "E9": {"n": 8, "families": ("complete",)},
    "E10": {"sizes": (8,), "families": ("complete",)},
    "E11": {"sizes": (8,), "families": ("complete",)},
    "E12": {"sizes": (8,), "families": ("complete",)},
    "E13": {"sizes": (8,), "families": ("complete",)},
    # E14's findings compare against the complete-graph row, so it must stay
    "E14": {"n": 8, "families": ("cycle", "complete")},
    "E15": {"n_values": (16, 32), "seeds": (0,)},
}


def test_matrix_covers_exactly_the_registry():
    """A new registry entry must come with a smoke-matrix row."""
    assert set(MATRIX) == set(EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", sorted(MATRIX, key=lambda e: int(e[1:])))
def test_experiment_smoke(experiment_id):
    result = run_experiment(experiment_id, **MATRIX[experiment_id])
    assert result.experiment == experiment_id
    assert result.title
    measured = [r for r in result.rows if not r.get("skipped")]
    assert measured, f"{experiment_id} produced no non-skipped rows"


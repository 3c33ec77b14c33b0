import numpy as np
import pytest

import priorcs.experiments as experiments
from priorcs import SensingMatrix, generate_matrix

SQRT2 = float(np.sqrt(2.0))


@pytest.fixture
def identity4() -> SensingMatrix:
    return SensingMatrix.from_array(np.eye(4))


@pytest.fixture
def tri_matrix() -> SensingMatrix:
    """Columns e1, e2, (e1+e2)/sqrt(2): coherence 1/sqrt(2) by hand."""
    s = 1.0 / SQRT2
    return SensingMatrix.from_array(np.array([[1.0, 0.0, s], [0.0, 1.0, s]]))


@pytest.fixture
def small_ipo() -> SensingMatrix:
    return generate_matrix("identity-plus-orthobasis", 16, 32, 0)


@pytest.fixture
def batch_solves(monkeypatch):
    """(problems, reports) of every batch the verify run solves."""
    calls = []
    solve = experiments.solve_weighted_l1_batch

    def record(problems, tolerances=None, timings=None):
        reports = solve(problems, tolerances, timings)
        calls.append((list(problems), reports))
        return reports

    monkeypatch.setattr(experiments, "solve_weighted_l1_batch", record)
    return calls

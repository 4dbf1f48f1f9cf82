import numpy as np
import pytest

from mimo_pilot import SystemConfig

# Seven-cell, three-user attenuation snapshot used as a worked example
# throughout the suite: row 0 is the target cell's own users, rows 1..6
# the co-channel interferers.  User 1 sits close to its base station,
# user 0 and 2 near the cell edge.
TABLE_BETA = np.array([
    [0.0304, 1.2899, 0.0655],
    [0.0006, 0.0290, 0.0389],
    [0.0045, 0.0024, 0.0070],
    [0.0080, 0.0039, 0.0045],
    [0.0008, 0.0842, 0.0028],
    [0.0078, 0.0003, 0.0026],
    [0.0011, 0.0177, 0.0014],
])


@pytest.fixture
def table_beta():
    return TABLE_BETA.copy()


@pytest.fixture
def table_cfg():
    # 30 dB pilot budget per cell, tight power bounds [500, 1500]
    return SystemConfig(K=3, M=8, P_total=3.0e3, mu=1.5)


@pytest.fixture
def table_fixture_path(tmp_path, table_beta):
    from mimo_pilot import save_beta_fixture

    path = tmp_path / "table.csv"
    save_beta_fixture(table_beta, path)
    return path


@pytest.fixture
def unconverged_solver(monkeypatch):
    """Every reference solve keeps its point but reports no convergence."""
    import dataclasses

    from mimo_pilot import harness

    solve = harness.solve
    monkeypatch.setattr(harness, "solve", lambda problem: dataclasses.replace(
        solve(problem), converged=False, iterations=100000, pg_norm=2.5e-3))

import os

# One BLAS thread, set before numpy loads, as perfbench/run.py does: competing
# OpenBLAS thread pools make test times depend on the machine's load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from mimo_d2d import Scenario, ScenarioConfig  # noqa: E402


@pytest.fixture(scope="session")
def small_scenario():
    """Two cells, two CUs each, two D2D pairs; cheap enough for oracles."""
    cfg = ScenarioConfig(num_cells=2, antennas_per_bs=24, cus_per_cell=2,
                         num_d2d_pairs=2, num_d2d_pilots=2, coherence_len=200,
                         area_side=600.0)
    return Scenario.build(cfg, seed=42)


@pytest.fixture(scope="session")
def default_scenario():
    """The reference 9-cell configuration."""
    return Scenario.build(ScenarioConfig(), seed=1)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)

import numpy as np
import pytest

from pvarlab.cli import main


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def verify_seed7_pair(tmp_path_factory):
    """(exit codes, report paths) of two ``verify --seed 7 --out`` runs, shared by
    the CLI and acceptance determinism tests so the battery runs twice, not four times."""
    root = tmp_path_factory.mktemp("verify_seed7")
    paths = [root / "r1.txt", root / "r2.txt"]
    codes = [main(["verify", "--seed", "7", "--out", str(path)]) for path in paths]
    return codes, paths

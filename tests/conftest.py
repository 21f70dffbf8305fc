import numpy as np
import pytest

from patchmix.data import synth_shapes
from patchmix.model import TrainConfig, train_random_patchmix

# One line per acceptance criterion, echoed after the run summary so the
# verdicts are visible even when every test passes.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_train():
    return synth_shapes(3, 16, 40, 11)


@pytest.fixture(scope="session")
def small_val():
    return synth_shapes(3, 16, 15, 12)


@pytest.fixture(scope="session")
def small_cfg():
    return TrainConfig(epochs=8, batch_size=40, hidden_dim=32, seed=5)


@pytest.fixture(scope="session")
def small_model(small_train, small_val, small_cfg):
    """A quickly trained model shared by read-only tests."""
    model, _ = train_random_patchmix(small_train, small_val, small_cfg)
    return model


@pytest.fixture()
def rng():
    return np.random.default_rng(202)

"""Composing ahead against composing on the main thread, and the thread
every public function runs on.

From ``SPLIT_FLOOR`` on, the training driver hands batch k+1's plan to its
worker thread during step k (``model._train_loop``).  With the floor
raised above every product, the same run composes every batch on the main
thread and splits no GEMM.  At the CIFAR shape (10 classes, 32 px, grid 4,
batch 100) both runs must give the same parameters and metrics, byte for
byte, in phase 1 and in phase 4.

The benchmark's tracer (``perfbench/spans.py``) wraps every public
``patchmix.*`` function and keeps one stack of open spans, so it is right
only while every such call runs on the main thread.  The guard below wraps
the same functions the same way and records the thread of each call.
"""

import functools
import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import patchmix.cli  # noqa: F401  (the guard wraps the CLI's functions too)
from patchmix import model as model_module
from patchmix.data import synth_shapes
from patchmix.model import PARAM_FIELDS, TrainConfig, train_random_patchmix
from patchmix.workflow import draw_guided_recipe, materialize_guided, train_final

from test_evolution import make_individual

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)

# 250 training images: batches of 100, 100 and 50 rows in phase 1.
CFG = TrainConfig(
    epochs=2, batch_size=100, grid_size=4, hidden_dim=64, mix_probability=0.7, seed=8
)


@pytest.fixture(scope="module")
def cifar_sets():
    return synth_shapes(10, 32, 25, 41), synth_shapes(10, 32, 4, 42)


def phase_run(phase, train, val):
    if phase == "random":
        return train_random_patchmix(train, val, CFG)
    individual = make_individual(10, grid_size=4, active=(0, 9, 30), rng=np.random.default_rng(5))
    recipe = draw_guided_recipe(individual, train, len(train), np.random.default_rng(6))
    return train_final(train, val, CFG, materialize_guided(individual, train, recipe))


def composer_threads(monkeypatch) -> list[bool]:
    """Whether each batch composition ran on the main thread, in call order."""
    seen = []
    compose = model_module._patchmix_batch

    def recorded(*args):
        seen.append(threading.current_thread() is threading.main_thread())
        return compose(*args)

    monkeypatch.setattr(model_module, "_patchmix_batch", recorded)
    return seen


@pytest.mark.parametrize("phase", ["random", "final"])
def test_composing_ahead_equals_the_main_thread(cifar_sets, phase, monkeypatch):
    threads = composer_threads(monkeypatch)
    ahead, ahead_metrics = phase_run(phase, *cifar_sets)
    # Each epoch's first batch composes on the main thread, its other two on the worker.
    assert threads == [True, False, False] * CFG.epochs

    threads.clear()
    monkeypatch.setattr(model_module, "SPLIT_FLOOR", 2**62)
    here, here_metrics = phase_run(phase, *cifar_sets)
    assert threads == [True] * 3 * CFG.epochs

    for name in PARAM_FIELDS:
        assert getattr(ahead, name).tobytes() == getattr(here, name).tobytes(), name
    assert ahead_metrics == here_metrics


def test_every_public_function_runs_on_the_main_thread(cifar_sets, monkeypatch):
    """A CIFAR-shape phase-1 run, with every public ``patchmix.*`` function
    wrapped as the benchmark's tracer wraps it."""
    calls = []

    def wrap(name, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            calls.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)

        return recorded

    modules = [m for name, m in sys.modules.items() if name.startswith("patchmix.") and m]
    targets = {
        f"{module.__name__}.{attr}": fn
        for module in modules
        for attr, fn in spans.public_functions(module).items()
    }
    threads = composer_threads(monkeypatch)
    uninstall = spans.install(targets, "patchmix", wrap)
    try:
        model_module.train_random_patchmix(*cifar_sets, CFG)
    finally:
        uninstall()
    assert False in threads, "no batch was composed on the worker"
    names = {name for name, _ in calls}
    assert {"patchmix.model.backward", "patchmix.masks.sample_mask_bits"} <= names
    assert [name for name, on_main in calls if not on_main] == []

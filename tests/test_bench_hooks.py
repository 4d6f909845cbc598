"""The benchmark tracer's patch targets still exist.

``perfbench/spans.py`` swaps module-level functions by name while a
traced run steps (``perfbench/run.py --trace 1``).  A kernel edit that
renames or deletes one of them would only show there, so this test
enters and leaves both patch sets without running anything.
"""
import importlib
from pathlib import Path

import pytest

import cosim.master
import cosim.models
import cosim.net.wire

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TARGETS = {
    "step": [
        (cosim.master, "step_once"),
        (cosim.master, "evaluate_plan"),
        (cosim.master, "error_indicator"),
        (cosim.models, "rk4_step"),
        (cosim.net.wire, "send_frame"),
        (cosim.net.wire, "recv_frame"),
    ],
    "setup": [
        (cosim.master, "validate_system"),
        (cosim.master, "build_plan"),
    ],
}


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans").Tracer()


@pytest.mark.parametrize("which", sorted(TARGETS))
def test_tracer_patches_and_restores_its_targets(tracer, which):
    targets = TARGETS[which]
    originals = [getattr(module, name) for module, name in targets]
    with getattr(tracer, f"{which}_patches")():
        for (module, name), original in zip(targets, originals):
            assert getattr(module, name) is not original, name
    for (module, name), original in zip(targets, originals):
        assert getattr(module, name) is original, name


@pytest.mark.parametrize("module", ["micro", "workloads"])
def test_benchmark_modules_import(monkeypatch, module):
    # Both bind kernel names at import, e.g. the MessageType members of
    # micro.STEP_FRAMES, so a src/ edit that drops one fails here.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module(module)

"""The benchmark tracer's patch targets still exist.

``perfbench/spans.py`` swaps module-level functions by name while a
traced run steps (``perfbench/run.py --trace 1``).  A kernel edit that
renames or deletes one of them would only show there, so these tests
enter and leave both patch sets, and step a live run under them.
"""
import dataclasses
import importlib
import time
from pathlib import Path

import pytest

import cosim.master
import cosim.models
import cosim.net.wire
from cosim.config import parse_config
from cosim.master import LocalResolver, initialize_run
from cosim.net import NetworkResolver, Provider, ProviderConfig
from cosim.observers import CsvObserver

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

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


def test_tracer_times_a_live_run(tracer, tmp_path):
    # ``before_steps`` wraps the run's own exchange methods and reads the
    # plan's op count, which a traced benchmark run would otherwise be
    # the first to exercise.
    system = parse_config((ROOT / "configs" / "fu_sum.cfg").read_text())
    resolver = tracer.traced_resolver(LocalResolver(cosim.models.registry))
    run = initialize_run(system, resolver, observers=[CsvObserver(tmp_path)])
    try:
        tracer.before_steps(run)
        run._notify("on_start", run.start_info())
        with tracer.step_patches():
            for _ in range(3):
                cosim.master.step_once(run, system.step_policy.dt)
        run._notify("on_end", "completed")
    finally:
        run.terminate()
    assert len(tracer.steps) == 3
    metrics = tracer.step_metrics()
    assert metrics["function_units.ops_per_eval"] == len(run.plan.ops) > 0
    for key in ("master.push_inputs_us", "master.gather_outputs_us",
                "master.barrier_us", "function_units.evaluate_plan_us",
                "energy.accounting_us", "observers.on_step_us", "models.step_us"):
        assert key in metrics, key


def test_tracer_times_a_live_run_with_a_remote_slave(tracer, tmp_path):
    # Stage (2) sends a remote slave's step and reads its reply around the
    # in-process steps; every traced step must still fold, which reads the
    # time between the ``push`` and ``gather`` spans as the barrier.
    system = parse_config((ROOT / "configs" / "msd_pair.cfg").read_text())
    prov = Provider(cosim.models.registry, ProviderConfig(host="127.0.0.1", port=0)).start()
    left = dataclasses.replace(system.slaves[0], provider=prov.address)
    system = dataclasses.replace(system, slaves=(left, *system.slaves[1:]))
    try:
        resolver = tracer.traced_resolver(NetworkResolver(cosim.models.registry))
        run = initialize_run(system, resolver, observers=[CsvObserver(tmp_path)])
        try:
            tracer.before_steps(run)
            run._notify("on_start", run.start_info())
            with tracer.step_patches():
                for _ in range(3):
                    cosim.master.step_once(run, system.step_policy.dt)
            run._notify("on_end", "completed")
        finally:
            run.terminate()
            resolver.close()
    finally:
        prov.shutdown()
    assert len(tracer.steps) == 3
    for step in tracer.steps:
        assert step["master.barrier_us"] > 0
        assert step["net.bytes_per_step"] > 0  # the remote slave's step
        assert step["models.step_us"] > 0  # the in-process slave's


def test_tracer_times_one_validation_and_one_plan_per_set_up(tracer):
    # ``setup.validate_ms`` and ``setup.plan_ms`` sum these spans, so a
    # set-up must make exactly one call through each patched name.
    system = parse_config((ROOT / "configs" / "fu_sum.cfg").read_text())
    with tracer.setup_patches():
        initialize_run(system, LocalResolver(cosim.models.registry)).terminate()
    keys = [key for key, _, _ in tracer.spans]
    assert keys.count("validate") == 1
    assert keys.count("plan") == 1


def test_tracer_folds_a_set_up_that_repeats_models(tracer):
    # ``setup.validate_ms`` sums the ``describe`` spans, one per placed
    # model, and ``setup.settle_ms`` is what the spans leave of the set-up.
    workloads = importlib.import_module("workloads")
    text = (ROOT / "configs" / "power_plant_switchboard.cfg").read_text()
    started = time.perf_counter_ns()
    system = parse_config(text)
    parsed = time.perf_counter_ns()
    with tracer.setup_patches():
        resolver = tracer.traced_resolver(LocalResolver(cosim.models.registry))
        initialize_run(system, resolver).terminate()
    done = time.perf_counter_ns()
    placed = {(s.provider, s.model_id) for s in system.slaves}
    assert len(placed) < len(system.slaves)
    assert [key for key, _, _ in tracer.spans].count("describe") == len(placed)
    tracer.fold_setup(workloads.SetupTimes(parsed - started, done - parsed, 0))
    assert sorted(tracer.setups[0]) == [
        "config.parse_ms", "setup.instantiate_ms", "setup.plan_ms", "setup.settle_ms",
        "setup.validate_ms"]
    assert all(value >= 0 for value in tracer.setups[0].values())

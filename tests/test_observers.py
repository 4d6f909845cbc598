"""Observers: CSV output fidelity, memory capture, failure isolation."""
import csv
import inspect
import math

import pytest

from cosim.energy import BondEnergy, EnergyReport
from cosim.master import LocalResolver, StepRecord, initialize_run, run_to_end
from cosim.models import registry as standard_registry
from cosim.observers import CsvObserver, MemoryObserver, Observer
from cosim.system import FixedStepPolicy

from conftest import msd_pair_system, run_system


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


@pytest.fixture
def pair_run(tmp_path):
    system = msd_pair_system(FixedStepPolicy(1e-2), t_end=1.0)
    memory = MemoryObserver()
    result = run_system(system, observers=[CsvObserver(tmp_path), memory])
    return system, result, memory, tmp_path


class TestCsvObserver:
    def test_signals_layout(self, pair_run):
        system, result, _, out = pair_run
        header, rows = read_csv(out / "signals.csv")
        assert header == ["time", "left.v", "left.x", "right.tau", "right.x"]
        assert len(rows) == result.steps
        for rec, row in zip(result.records, rows):
            assert float(row[0]) == rec.t_next

    def test_signals_values_round_trip_bitwise(self, pair_run):
        _, result, _, out = pair_run
        header, rows = read_csv(out / "signals.csv")
        ports = {f"{p.owner}.{p.var}": p
                 for p in result.records[0].outputs}
        for rec, row in zip(result.records, rows):
            for name, cell in zip(header[1:], row[1:]):
                want = rec.outputs[ports[name]]
                got = float(cell)
                assert got == want and math.copysign(1, got) == \
                       math.copysign(1, want)

    def test_energy_layout(self, pair_run):
        _, result, _, out = pair_run
        header, rows = read_csv(out / "energy.csv")
        assert header == ["time", "bond", "P1", "P2", "dP", "dE",
                          "cumulative_dE", "epsilon"]
        assert len(rows) == result.steps  # one bond in this system
        assert {r[1] for r in rows} == {"link"}

    def test_energy_values_round_trip_bitwise(self, pair_run):
        _, result, _, out = pair_run
        _, rows = read_csv(out / "energy.csv")
        for rec, row in zip(result.records, rows):
            [b] = [b for b in rec.energy.bonds if b.bond == "link"]
            assert [float(c) for c in row[2:]] == \
                   [b.p1, b.p2, b.dp, b.de, b.cumulative_de,
                    rec.energy.epsilon]

    def test_cumulative_is_running_sum(self, pair_run):
        _, _, _, out = pair_run
        _, rows = read_csv(out / "energy.csv")
        acc = 0.0
        for row in rows:
            acc += float(row[5])
            cum = float(row[6])
            assert cum == pytest.approx(acc, rel=1e-12, abs=1e-300)

    def test_zero_step_run_leaves_headers_only(self, tmp_path):
        system = msd_pair_system(FixedStepPolicy(1e-2), t_end=0.0)
        run_system(system, observers=[CsvObserver(tmp_path)])
        for name, n_cols in (("signals.csv", 5), ("energy.csv", 8)):
            header, rows = read_csv(tmp_path / name)
            assert len(header) == n_cols
            assert rows == []

    def test_write_failure_disables_observer_not_run(self, tmp_path):
        broken = CsvObserver(tmp_path)
        memory = MemoryObserver()

        class Saboteur:
            """Closes the csv files mid-run so writes start failing."""

            def on_start(self, info):
                pass

            def on_step(self, record):
                if record.index == 3 and broken._signals is not None:
                    import os
                    os.close(broken._signals.fileno())
                    os.close(broken._energy.fileno())

            def on_end(self, reason):
                pass

        system = msd_pair_system(FixedStepPolicy(1e-2), t_end=1.0)
        result = run_system(system,
                            observers=[Saboteur(), broken, memory])
        assert result.steps == 100
        assert memory.end_reason == "completed"
        assert broken._signals is None  # disabled itself


class TestMemoryObserver:
    def test_captures_everything_in_order(self, pair_run):
        system, result, memory, _ = pair_run
        assert memory.info is not None
        assert memory.info.t_end == system.t_end
        assert memory.info.bond_names == ("link",)
        assert [r.index for r in memory.records] == \
               list(range(result.steps))
        assert memory.end_reason == "completed"

    def test_satisfies_observer_protocol(self):
        assert isinstance(MemoryObserver(), Observer)
        assert isinstance(CsvObserver("."), Observer)


class TestIsolation:
    def test_observers_cannot_change_results(self, tmp_path):
        system = msd_pair_system(FixedStepPolicy(1e-2), t_end=1.0)
        resolver = LocalResolver(standard_registry)
        bare = initialize_run(system, resolver)
        run_to_end(bare)
        memory = MemoryObserver()
        watched = initialize_run(system, resolver,
                                 observers=[CsvObserver(tmp_path), memory])
        run_to_end(watched)
        # A run without observers keeps no records: compare its end state.
        assert bare.index == watched.index
        assert bare.dt_partials == watched.dt_partials
        assert bare.outputs == watched.outputs
        assert bare.latched == watched.latched
        assert bare.cumulative == watched.cumulative
        # Step by step, against a run whose only observer records.
        recorded = run_system(system)
        assert len(recorded.records) == len(memory.records)
        for ra, rb in zip(recorded.records, memory.records):
            assert ra.dt == rb.dt
            assert ra.outputs == rb.outputs
            assert ra.energy.epsilon == rb.energy.epsilon

    @pytest.mark.parametrize("value, fields", [
        (BondEnergy("link", 1.0, -1.0, 0.0, 0.0, 0.0),
         ["bond", "p1", "p2", "dp", "de", "cumulative_de"]),
        (EnergyReport((), 0.0), ["bonds", "epsilon"]),
        (StepRecord(0, 0.0, 0.1, 0.1, {}, {}, EnergyReport((), 0.0)),
         ["index", "t", "dt", "t_next", "inputs", "outputs", "energy"]),
    ], ids=["BondEnergy", "EnergyReport", "StepRecord"])
    def test_step_values_are_read_only(self, value, fields):
        # No observer can reassign a field that the next one reads.
        assert list(inspect.signature(type(value)).parameters) == fields
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.extra = None

    def test_raising_observer_is_dropped(self):
        class Grenade:
            def __init__(self):
                self.calls = 0

            def on_start(self, info):
                pass

            def on_step(self, record):
                self.calls += 1
                raise RuntimeError("boom")

            def on_end(self, reason):
                pass

        grenade = Grenade()
        memory = MemoryObserver()
        system = msd_pair_system(FixedStepPolicy(1e-2), t_end=1.0)
        result = run_system(system, observers=[grenade, memory])
        assert result.steps == 100
        assert grenade.calls == 1  # dropped after the first failure
        assert len(memory.records) == 100

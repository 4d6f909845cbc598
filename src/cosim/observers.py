"""Passive run participants: they see everything and influence nothing.

An observer receives the run metadata once, every step record in order,
and a final end notification.  It has no channel back into the run; a
failing observer is dropped by the master and the simulation continues.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, TextIO, runtime_checkable

from .master import StartInfo, StepRecord


@runtime_checkable
class Observer(Protocol):
    def on_start(self, info: StartInfo) -> None: ...

    def on_step(self, record: StepRecord) -> None: ...

    def on_end(self, reason: str) -> None: ...


@dataclass
class MemoryObserver:
    """Keeps everything it sees; convenient for tests and scripting.

    This is the one place step records are kept: ``run_to_end`` returns
    only a summary, so a caller that wants the records attaches one.
    """

    info: StartInfo | None = None
    records: list[StepRecord] = field(default_factory=list)
    end_reason: str | None = None

    def on_start(self, info: StartInfo) -> None:
        self.info = info

    def on_step(self, record: StepRecord) -> None:
        self.records.append(record)

    def on_end(self, reason: str) -> None:
        self.end_reason = reason


class CsvObserver:
    """Writes ``signals.csv`` and ``energy.csv`` under an output directory.

    ``signals.csv`` has one row per completed macro step with every slave
    output at the step's end time; ``energy.csv`` has one row per bond per
    step with the power/energy accounting, the bonds in name order.  A
    run with zero steps leaves headers only.  Values are written as
    shortest round-trip decimals, so parsing a column back yields
    bit-identical floats.

    An IO error closes both files and propagates to the master, which
    drops this observer and carries on; the run's caller can tell by
    the observer's absence from ``SimulationRun.observers``.
    """

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self._signals: TextIO | None = None
        self._energy: TextIO | None = None

    def on_start(self, info: StartInfo) -> None:
        header = [f"{p.owner}.{p.var}" for p in info.output_ports]
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self._signals = open(self.out_dir / "signals.csv", "w", newline="")
            self._signals.write(",".join(["time"] + header) + "\n")
            self._energy = open(self.out_dir / "energy.csv", "w", newline="")
            self._energy.write("time,bond,P1,P2,dP,dE,cumulative_dE,epsilon\n")
        except OSError:
            self._close()
            raise

    def on_step(self, record: StepRecord) -> None:
        try:
            # repr is the shortest decimal that round-trips to the same binary64
            t = repr(record.t_next)
            # ``record.outputs`` is built in ``output_ports`` order, the header's
            row = [t]
            row += map(repr, record.outputs.values())
            self._signals.write(",".join(row) + "\n")
            eps = repr(record.energy.epsilon)
            for b in record.energy.bonds:
                cells = (t, b.bond, repr(b.p1), repr(b.p2), repr(b.dp),
                         repr(b.de), repr(b.cumulative_de), eps)
                self._energy.write(",".join(cells) + "\n")
        except OSError:
            self._close()
            raise

    def on_end(self, reason: str) -> None:
        self._close()

    def _close(self) -> None:
        # Closes both files even if one fails, then raises what failed.
        files = (self._signals, self._energy)
        self._signals = None
        self._energy = None
        with contextlib.ExitStack() as stack:
            for f in files:
                if f is not None:
                    stack.callback(f.close)

"""The benchmark's workloads and the code that runs one of them once.

Every run goes through the public API the way ``cosim run`` does:
``parse_config`` -> ``initialize_run(..., observers=[CsvObserver, ...])``
-> ``run_to_end``.  A run's outputs are ``signals.csv`` and ``energy.csv``,
identified by their SHA-256 digests.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from cosim import (
    CosimError,
    CsvObserver,
    FixedStepPolicy,
    FunctionUnitSpec,
    LocalResolver,
    PortRef,
    PowerBond,
    BondSide,
    SignalConnection,
    SlaveSpec,
    SystemDescription,
    emit_config,
    initialize_run,
    parse_config,
    registry,
    run_to_end,
    validate_system,
)
from cosim.net import NetworkResolver, ProviderClient

OUTPUT_FILES = ("signals.csv", "energy.csv")

# chain16 draws its parameters from ``seed % CHAIN16_VARIANTS``, so every
# seed maps to a system whose output digests were recorded at the commit
# that defined the benchmark.
CHAIN16_VARIANTS = 64
CHAIN16_DT = 1e-3
CHAIN16_STEPS = 1000


class WorkloadError(Exception):
    """The workload cannot be built; nothing was measured."""


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    # Four significant decimals keep the emitted config readable.
    return round(rng.uniform(lo, hi), 4)


def chain16_system(seed: int) -> SystemDescription:
    """Sixteen slaves: five bonded msd pairs and two forced oscillators.

    Each oscillator is driven by two sine sources through a gain -> sum
    function-unit chain.  Every model integrates with micro step h = dt,
    so each does one RK4 step per macro step and the kernel dominates.
    """
    rng = random.Random(seed % CHAIN16_VARIANTS)
    dt = CHAIN16_DT
    slaves, bonds, fus, signals = [], [], [], []
    for i in range(5):
        m = _draw(rng, 0.5, 2.0)
        slaves.append(SlaveSpec(f"left{i}", "msd_integral", {
            "m": m, "d": _draw(rng, 0.2, 1.0), "k": _draw(rng, 1.0, 4.0),
            "x0": _draw(rng, -1.0, 1.0), "h": dt}))
        slaves.append(SlaveSpec(f"right{i}", "msd_differential", {
            "m": round(m * _draw(rng, 0.1, 0.3), 4),
            "d": _draw(rng, 0.05, 0.3), "k": _draw(rng, 0.2, 1.0), "h": dt}))
        bonds.append(PowerBond(
            f"link{i}",
            BondSide(f"left{i}", "v", "tau"),
            BondSide(f"right{i}", "tau", "v"),
            positive_side="a"))
    for j in range(2):
        slaves.append(SlaveSpec(f"osc{j}", "msd_integral", {
            "m": _draw(rng, 0.5, 2.0), "d": _draw(rng, 0.2, 1.0),
            "k": _draw(rng, 1.0, 4.0), "h": dt}))
        fus.append(FunctionUnitSpec(f"sum{j}", "sum", {"n": 2.0}))
        signals.append(SignalConnection(PortRef(f"sum{j}", "y"),
                                        PortRef(f"osc{j}", "tau")))
        for k, tag in enumerate("ab", start=1):
            src, gain = f"src{j}{tag}", f"gain{j}{tag}"
            slaves.append(SlaveSpec(src, "sine_source", {
                "amp": _draw(rng, 0.2, 2.0), "freq": _draw(rng, 0.2, 3.0),
                "phase": _draw(rng, 0.0, 2.0 * math.pi)}))
            fus.append(FunctionUnitSpec(gain, "gain", {"c": _draw(rng, 0.5, 2.0)}))
            signals.append(SignalConnection(PortRef(src, "y"), PortRef(gain, "u")))
            signals.append(SignalConnection(PortRef(gain, "y"),
                                            PortRef(f"sum{j}", f"u{k}")))
    return SystemDescription(
        slaves=tuple(slaves),
        bonds=tuple(bonds),
        signals=tuple(signals),
        function_units=tuple(fus),
        step_policy=FixedStepPolicy(dt),
        t_start=0.0,
        t_end=CHAIN16_STEPS * dt,
    )


def chain16_config(seed: int) -> str:
    """Config text of the chain16 system; refuses one with findings."""
    system = chain16_system(seed)
    report = validate_system(system, registry.descriptors())
    if not report.ok:
        raise WorkloadError(f"chain16 seed {seed} does not validate:\n{report}")
    text = emit_config(system)
    if parse_config(text) != system:
        raise WorkloadError("chain16 config does not parse back to the same system")
    return text


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# The end-to-end timings use the process's CPU time.  The benchmark
# process is CPU-bound (CPU time is 98-99 % of wall time on an idle
# machine), and unlike wall time it leaves out the time a shared host
# steals from the virtual machine.
cpu_clock_ns = time.process_time_ns


@dataclass
class SetupTimes:
    parse_ns: int   # wall time of parse_config
    init_ns: int    # wall time of initialize_run
    cpu_ns: int     # CPU time of both


@dataclass
class RunResult:
    setup_s: float  # CPU seconds of parse_config plus initialize_run
    run_s: float    # CPU seconds of run_to_end
    steps: int
    digests: dict[str, str]


class StepClock:
    """Observer that timestamps each finished step with ``clock``.

    It is attached after the CSV observer, so the interval between two
    calls is one whole macro step including the CSV write.
    """

    def __init__(self, clock=cpu_clock_ns):
        self.clock = clock
        self.samples_ns: list[int] = []
        self._last = 0

    def on_start(self, info) -> None:
        self._last = self.clock()

    def on_step(self, record) -> None:
        now = self.clock()
        self.samples_ns.append(now - self._last)
        self._last = now

    def on_end(self, reason: str) -> None:
        pass


def _close(resolver) -> None:
    close = getattr(resolver, "close", None)
    if close is not None:
        close()


class Workload:
    """One config text plus the resolver it needs."""

    def __init__(self, text: str, out_dir: Path, remote: bool = False):
        self.text = text
        self.out_dir = out_dir
        self.remote = remote

    def resolver(self):
        return NetworkResolver(registry) if self.remote else LocalResolver(registry)

    def setup_only(self, resolver=None) -> SetupTimes:
        """Set the system up and tear it down."""
        resolver = resolver or self.resolver()
        try:
            c0 = cpu_clock_ns()
            t0 = time.perf_counter_ns()
            system = parse_config(self.text)
            t1 = time.perf_counter_ns()
            run = initialize_run(system, resolver)
            t2 = time.perf_counter_ns()
            c1 = cpu_clock_ns()
            run.terminate()
        finally:
            _close(resolver)
        return SetupTimes(t1 - t0, t2 - t1, c1 - c0)

    def run(self, observers=(), resolver=None, before_steps=None) -> RunResult:
        """One full run writing CSVs under ``out_dir``.

        ``before_steps`` receives the live run between set-up and the
        first step; the tracer uses it to wrap per-step entry points.
        """
        resolver = resolver or self.resolver()
        try:
            t0 = cpu_clock_ns()
            system = parse_config(self.text)
            run = initialize_run(system, resolver,
                                 observers=[CsvObserver(self.out_dir), *observers])
            t1 = cpu_clock_ns()
            if before_steps is not None:
                before_steps(run)
            t2 = cpu_clock_ns()
            result = run_to_end(run)
            t3 = cpu_clock_ns()
            steps = result.steps
            del result
        finally:
            _close(resolver)
        digests = {name: digest(self.out_dir / name) for name in OUTPUT_FILES}
        return RunResult((t1 - t0) / 1e9, (t3 - t2) / 1e9, steps, digests)


def load_config(root: Path, name: str) -> str:
    path = root / "configs" / f"{name}.cfg"
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise WorkloadError(f"cannot read {path}: {exc}") from exc


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class ProviderProcess:
    """``cosim provider serve`` on a loopback port, in a child process."""

    def __init__(self, root: Path, log_path: Path):
        self.port = _free_port()
        self.address = f"127.0.0.1:{self.port}"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "cosim", "provider", "serve",
             "--host", "127.0.0.1", "--port", str(self.port)],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT)

    def wait_ready(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise WorkloadError(
                    f"provider exited with code {self.proc.returncode} at start")
            try:
                ProviderClient(self.address, timeout=1.0).close()
                return
            except (OSError, CosimError):
                if time.monotonic() > deadline:
                    raise WorkloadError("provider did not accept connections") from None
                time.sleep(0.05)

    def stop(self) -> None:
        """Terminate the provider and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def remote_config(text: str, address: str) -> str:
    """The same system with every slave placed on the provider at ``address``."""
    system = parse_config(text)
    slaves = tuple(dataclasses.replace(s, provider=address) for s in system.slaves)
    return emit_config(dataclasses.replace(system, slaves=slaves))

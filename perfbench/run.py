"""The cosim benchmark: macro-step throughput, set-up time and memory.

Run from the root of a checkout::

    python3 perfbench/run.py --workload quarter_car --seed 0 --seconds 40 --trace 0

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.  Each workload run goes
through the public API as ``cosim run`` does and must write CSVs whose
SHA-256 digests equal the reference.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import threading
import time
import traceback
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("quarter_car", "chain16")
NET_METRICS = ("net.round_trips_per_step", "net.bytes_per_step", "net.rtt_us.SET_INPUTS",
               "net.rtt_us.STEP", "net.rtt_us.GET_OUTPUTS", "net.overhead_us_per_step")

SETUP_REPEATS = 50      # untimed warm-up excluded
TRACED_SETUPS = 10
RUN_LIMIT_S = 60.0      # watchdog per workload run
PROCESS_LIMIT_S = 170.0  # backstop for the whole process


class Overrun(BaseException):
    """A workload run passed its watchdog deadline.

    A BaseException, so the kernel's ``except Exception`` clean-up
    paths cannot swallow it.
    """


class Watchdog:
    """Interrupts the main thread when a run overruns its deadline.

    SIGALRM fires at the deadline and then every second until disarmed,
    so a run stuck again in its abort path is interrupted again.
    """

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise Overrun()

    @contextmanager
    def limit(self, seconds: float):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds, 1.0)
        try:
            yield
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


class Bench:
    """Counts attempted and failed runs of one workload and guards each."""

    def __init__(self, started: float):
        self.started = started
        self.provider = None  # the provider subprocess while one runs
        self.watchdog = Watchdog()
        self.attempted = 0
        self.failed = 0
        self.overran = False

    def time_left(self) -> float:
        return PROCESS_LIMIT_S - (time.monotonic() - self.started)

    def guarded(self, fn):
        """``fn()`` under the watchdog; None if it raised or overran."""
        limit = max(1.0, min(RUN_LIMIT_S, self.time_left() - 10.0))
        try:
            with self.watchdog.limit(limit):
                return fn()
        except Overrun:
            print(f"run overran its {limit:.0f} s watchdog", file=sys.stderr)
            self.overran = True
            if self.provider is not None:
                self.provider.stop()
        except Exception:
            traceback.print_exc()
        return None

    def attempt(self, fn, expected: dict):
        """One workload run; a raise, an overrun or a digest mismatch fails it."""
        self.attempted += 1
        result = self.guarded(fn)
        if result is not None and result.digests != expected:
            print(f"output mismatch: got {result.digests}, expected {expected}",
                  file=sys.stderr)
            result = None
        if result is None:
            self.failed += 1
        return result

    def setups(self, workload, count: int, make_resolver=None, each=None) -> list:
        """One warm-up plus ``count`` timed set-ups of ``workload``.

        ``each`` sees every set-up's ``SetupTimes``, the warm-up's too.  A
        failing set-up counts as a failed run and ends the series.
        """
        times = []
        for i in range(count + 1):
            resolver = make_resolver() if make_resolver else None
            got = self.guarded(lambda: workload.setup_only(resolver))
            if got is None:
                self.attempted += 1
                self.failed += 1
                break
            if each is not None:
                each(got)
            if i:
                times.append(got)
        return times

    def more(self, loop_start: float, seconds: float) -> bool:
        return (not self.overran and self.time_left() > RUN_LIMIT_S
                and time.monotonic() - loop_start < seconds)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def _prepare(name: str, seed: int, out: Path):
    """Build the workload; returns it and its expected digests."""
    import workloads as wl

    ref = _reference()
    if name == "quarter_car":
        return wl.Workload(wl.load_config(ROOT, name), out), ref[name]
    variant = str(seed % wl.CHAIN16_VARIANTS)
    text = wl.chain16_config(seed)
    (out / f"chain16-seed{seed}.cfg").write_text(text, encoding="utf-8")
    return wl.Workload(text, out), ref[name][variant]


def _untraced(bench: Bench, workload, expected, seconds: float) -> dict:
    import workloads as wl

    setups = bench.setups(workload, SETUP_REPEATS)
    runs, samples = [], []
    peak_kb = 0
    start = time.monotonic()
    while True:
        clock = wl.StepClock()
        result = bench.attempt(lambda: workload.run(observers=[clock]), expected)
        if result is not None:
            runs.append(result)
            samples.extend(clock.samples_ns)
        if not peak_kb:
            # After one run: later runs can raise the high-water mark
            # through fragmentation, and their number depends on speed.
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if not bench.more(start, seconds):
            break
    setup_s = [t.cpu_ns / 1e9 for t in setups] + [r.setup_s for r in runs]
    print(f"setup_s median of {len(setup_s)} set-ups; steps_per_s median of "
          f"{len(runs)} runs; step_us_p50 over {len(samples)} steps")
    return {
        "setup_s": _median(setup_s),
        "steps_per_s": _median([r.steps / r.run_s for r in runs]),
        "step_us_p50": _median(samples) / 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def _traced_run(bench: Bench, tracer, workload, expected):
    with tracer.step_patches():
        return bench.attempt(lambda: workload.run(
            resolver=tracer.traced_resolver(workload.resolver()),
            before_steps=tracer.before_steps), expected)


def _net_layer(bench: Bench, out: Path) -> dict:
    """net.* from msd_pair on a loopback provider, against msd_pair in-process.

    The remote runs must write the same bits as the in-process run, which
    must match its recorded digests.
    """
    import workloads as wl
    from spans import Tracer

    text = wl.load_config(ROOT, "msd_pair")
    local = wl.Workload(text, out / "msd_pair")
    local.out_dir.mkdir(parents=True, exist_ok=True)
    # Wall time: the remote client mostly waits, which CPU time leaves out.
    local_clock = wl.StepClock(time.perf_counter_ns)
    remote_clock = wl.StepClock(time.perf_counter_ns)
    reference = bench.attempt(lambda: local.run(observers=[local_clock]),
                              _reference()["msd_pair"])
    if reference is None:
        return {}
    bench.provider = wl.ProviderProcess(ROOT, out / "provider.log")
    try:
        try:
            bench.provider.wait_ready()
        except wl.WorkloadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            bench.attempted += 1
            bench.failed += 1
            return {}
        remote = wl.Workload(wl.remote_config(text, bench.provider.address),
                             out / "msd_pair_remote", remote=True)
        remote.out_dir.mkdir(parents=True, exist_ok=True)
        if bench.attempt(lambda: remote.run(observers=[remote_clock]),
                         reference.digests) is None:
            return {}
        tracer = Tracer()
        _traced_run(bench, tracer, remote, reference.digests)
    finally:
        bench.provider.stop()
    metrics = {k: v for k, v in tracer.step_metrics().items() if k.startswith("net.")}
    metrics["net.overhead_us_per_step"] = (_median(remote_clock.samples_ns)
                                           - _median(local_clock.samples_ns)) / 1e3
    return metrics


def _traced(bench: Bench, workload, expected, seconds: float, seed: int,
            out: Path) -> dict:
    import micro
    import workloads as wl
    from spans import Tracer

    tracer = Tracer()
    with tracer.setup_patches():
        bench.setups(workload, TRACED_SETUPS,
                     lambda: tracer.traced_resolver(workload.resolver()),
                     tracer.fold_setup)
    del tracer.setups[:1]  # the warm-up

    plain, traced, samples = [], [], []
    start = time.monotonic()
    while True:
        clock = wl.StepClock()
        result = bench.attempt(lambda: workload.run(observers=[clock]), expected)
        if result is not None:
            plain.append(result.steps / result.run_s)
            samples.extend(clock.samples_ns)
        result = _traced_run(bench, tracer, workload, expected)
        if result is not None:
            traced.append(result.steps / result.run_s)
        if not bench.more(start, seconds):
            break

    retained = {}

    def memory_run():
        tracemalloc.start()
        try:
            result = workload.run()
            retained["bytes"] = tracemalloc.get_traced_memory()[1] / result.steps
        finally:
            tracemalloc.stop()
        retained["csv_bytes"] = sum((workload.out_dir / f).stat().st_size
                                    for f in wl.OUTPUT_FILES) / result.steps
        return result

    if not bench.overran:
        bench.attempt(memory_run, expected)
    metrics = tracer.step_metrics()
    metrics.update(tracer.setup_metrics())
    # The workload itself bypasses net; these come from the loopback run.
    metrics.update(dict.fromkeys(NET_METRICS, 0.0))
    if not bench.overran:
        metrics.update(_net_layer(bench, out))

    def micro_bench(fn, *args):
        value = bench.guarded(lambda: fn(*args))
        return 0.0 if value is None else value

    quarter_car = wl.load_config(ROOT, "quarter_car")
    samples.sort()
    metrics.update({
        "master.retained_bytes_per_step": retained.get("bytes", 0.0),
        "master.step_us_p99": samples[int(0.99 * (len(samples) - 1))] / 1e3 if samples else 0.0,
        "master.step_samples": len(samples),
        "observers.bytes_per_step": retained.get("csv_bytes", 0.0),
        "net.codec_ns_per_frame": micro_bench(micro.codec_ns_per_frame),
        "function_units.evaluate_plan_chain16_us":
            micro_bench(micro.evaluate_plan_us, wl.chain16_config(seed)),
        "models.rk4_macro_step_us": micro_bench(micro.rk4_macro_step_us, quarter_car, "chassis"),
        "trace.overhead_pct": (100.0 * (_median(plain) / _median(traced) - 1.0)
                               if plain and traced else 0.0),
    })
    print(f"traced {len(tracer.steps)} steps over {tracer.step_wall_ns / 1e9:.3f} s "
          f"of step wall time (base of models.share); {len(plain)} untraced and "
          f"{len(traced)} traced runs (base of trace.overhead_pct); "
          f"master.step_us_p99 over {len(samples)} steps")
    print("net.* come from msd_pair on a loopback provider, run beside this "
          "workload, which itself bypasses net")
    return metrics


def _run(args, spec: dict) -> tuple[dict, bool]:
    """Measure one workload; returns the result line and whether a run overran."""
    import workloads as wl

    started = time.monotonic()
    bench = Bench(started)
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)

    def backstop():
        print(f"benchmark passed its {PROCESS_LIMIT_S:.0f} s limit", file=sys.stderr)
        if bench.provider is not None:
            bench.provider.proc.kill()
            bench.provider.proc.wait()
        os._exit(3)

    timer = threading.Timer(PROCESS_LIMIT_S, backstop)
    timer.daemon = True
    timer.start()
    try:
        workload, expected = _prepare(args.workload, args.seed, out)
        if args.trace:
            metrics = _traced(bench, workload, expected, args.seconds, args.seed, out)
            declared = spec["per_layer"]
        else:
            metrics = _untraced(bench, workload, expected, args.seconds)
            declared = spec["end_to_end"]
    except wl.WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    finally:
        timer.cancel()
        if bench.provider is not None:
            bench.provider.stop()

    ratio = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"run_fail_ratio {ratio:g} ({bench.failed} of {bench.attempted} runs failed)")
    for m in declared:
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    return {
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }, bench.overran


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cosim" / "__init__.py").is_file():
        print(f"error: no program at {src / 'cosim'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    result, overran = _run(args, spec)
    print(json.dumps(result))
    sys.stdout.flush()
    if overran:
        # A hung slave thread would block interpreter exit; the provider
        # is already reaped.
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())

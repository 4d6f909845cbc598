"""Command-line interface: subcommands, exit codes, output artifacts."""
import csv
import errno
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cosim
import cosim.master
from cosim.cli import main
from cosim.config import parse_config
from cosim.errors import InvalidSystem
from cosim.master import LocalResolver, initialize_run
from cosim.net import NetworkResolver, Provider, ProviderConfig
from cosim.models import MsdIntegral, registry
from cosim.observers import CsvObserver
from cosim.slave import ModelRegistry, ModelSlave

from conftest import FaultyModel, extended_registry

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def invoke(*argv):
    """main() returns an int; argparse errors raise SystemExit."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def child_env():
    """The environment for a child that must import the same cosim this
    process did, whether pytest found it through PYTHONPATH or its own
    pythonpath setting."""
    src = str(Path(cosim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def sum_delay_config(tmp_path, t_end, step):
    """``sum_delay.cfg`` ending at ``t_end``, under a fixed step or an
    adaptive policy that its fixed-step slave degrades to ``dt0``."""
    text = (CONFIG_DIR / "sum_delay.cfg").read_text().replace("t_end = 5.0", f"t_end = {t_end}")
    if step == "adaptive":
        text = text.replace("step = fixed\ndt = 1e-2", "step = adaptive\ndt0 = 1e-2\n"
                            "dt_min = 1e-4\ndt_max = 0.1\ntolerance = 1e-3")
    cfg = tmp_path / "sum_delay.cfg"
    cfg.write_text(text)
    return cfg


@pytest.fixture
def provider():
    prov = Provider(registry, ProviderConfig(host="127.0.0.1", port=0)).start()
    yield prov
    prov.shutdown()


class TestValidate:
    def test_valid_config(self, capsys):
        code = invoke("validate", str(CONFIG_DIR / "msd_pair.cfg"))
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_loop_config_names_cycle(self, capsys):
        code = invoke("validate",
                      str(CONFIG_DIR / "invalid" / "loop_feedthrough.cfg"))
        assert code == 1
        err = capsys.readouterr().err
        assert "algebraic-loop" in err
        for name in ("g1", "g2", "g3"):
            assert name in err

    def test_fu_loop_config_names_cycle(self, capsys):
        code = invoke("validate", str(CONFIG_DIR / "invalid" / "loop_fu.cfg"))
        assert code == 1
        err = capsys.readouterr().err
        assert "algebraic-loop" in err
        assert "fwd" in err and "back" in err

    def test_parse_diagnostics_carry_path_and_line(self, tmp_path, capsys):
        bad = tmp_path / "broken.cfg"
        bad.write_text("[simulation]\nt_end = 1.0\nstep = fixed\n")  # no dt
        code = invoke("validate", str(bad))
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "dt" in err

    def test_missing_file(self, capsys):
        code = invoke("validate", str(CONFIG_DIR / "no_such.cfg"))
        assert code == 3
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(
        p.name for p in CONFIG_DIR.glob("*.cfg")))
    def test_every_shipped_config_is_valid(self, name, capsys):
        assert invoke("validate", str(CONFIG_DIR / name)) == 0

    def test_a_slave_that_does_not_resolve_is_one_finding(self, tmp_path, capsys):
        # Its ports are not reported again as unknown.
        cfg = tmp_path / "msd_pair.cfg"
        cfg.write_text((CONFIG_DIR / "msd_pair.cfg").read_text().replace(
            "model = msd_differential", "model = no_such_model"))
        assert invoke("validate", str(cfg)) == 1
        findings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("[")]
        assert findings == ["[unknown-model] right: model 'no_such_model' not in registry"]

    def test_unreachable_provider_reports_unknown_model(self, tmp_path,
                                                        capsys):
        cfg = tmp_path / "remote.cfg"
        cfg.write_text("""\
[simulation]
t_end = 1.0
step = fixed
dt = 0.1

[slave osc]
model = msd_integral
provider = 127.0.0.1:1

[slave src]
model = sine_source

[signal]
source = src.y
target = osc.tau
""")
        code = invoke("validate", str(cfg))
        assert code == 1
        assert "unknown-model" in capsys.readouterr().err


class TestOneFront:
    """``cosim validate`` and the set-up of ``cosim run`` find the same."""

    TWO_PLACES = """\
[simulation]
t_end = 1.0
step = fixed
dt = 0.1

[slave src]
model = sine_source

[slave here]
model = msd_integral

[slave there]
model = msd_integral
provider = 127.0.0.1:1

[signal]
source = src.y
target = here.tau

[signal]
source = src.y
target = there.tau
"""

    def test_an_unreachable_provider_is_a_finding_in_both(self, tmp_path, monkeypatch,
                                                         capsys):
        # The in-process slave of the same model must not stand in for the
        # remote one.  Port 1 is never listening.
        cfg = tmp_path / "two_places.cfg"
        cfg.write_text(self.TWO_PLACES)
        created = []
        monkeypatch.setattr(ModelRegistry, "create",
                            lambda reg, model_id, params=None: created.append(model_id))
        assert invoke("validate", str(cfg)) == 1
        validated = capsys.readouterr().err.splitlines()
        assert invoke("run", str(cfg), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.splitlines() == validated
        unknown = [line for line in validated if line.startswith("[unknown-model]")]
        assert len(unknown) == 1
        assert unknown[0].startswith("[unknown-model] there: ") and "127.0.0.1:1" in unknown[0]
        assert created == []

    def test_an_out_of_range_provider_port_is_a_finding_in_both(self, tmp_path, monkeypatch,
                                                               capsys):
        # Given to the socket, port 99999 would wrap to 34463.
        cfg = tmp_path / "wrapped_port.cfg"
        cfg.write_text(self.TWO_PLACES.replace("127.0.0.1:1", "127.0.0.1:99999"))
        dialled = []
        monkeypatch.setattr(socket, "create_connection",
                            lambda address, *args, **kwargs: dialled.append(address))
        assert invoke("validate", str(cfg)) == 1
        validated = capsys.readouterr().err.splitlines()
        assert invoke("run", str(cfg), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.splitlines() == validated
        unknown = [line for line in validated if line.startswith("[unknown-model]")]
        assert len(unknown) == 1
        assert unknown[0].startswith("[unknown-model] there: ")
        assert unknown[0].endswith("port out of range 1-65535 in '127.0.0.1:99999'")
        assert dialled == []

    @pytest.mark.parametrize("path", sorted([*CONFIG_DIR.glob("*.cfg"),
                                             *CONFIG_DIR.glob("invalid/*.cfg")]),
                             ids=lambda path: str(path.relative_to(CONFIG_DIR)))
    def test_validate_fails_exactly_when_setup_does(self, path, capsys):
        code = invoke("validate", str(path))
        lines = capsys.readouterr().err.splitlines()
        with NetworkResolver(registry) as resolver:
            try:
                run = initialize_run(parse_config(path.read_text()), resolver)
            except InvalidSystem as exc:
                assert (code, lines) == (1, [str(f) for f in exc.findings])
                return
            run.terminate()
        assert (code, lines, run.index) == (0, [], 0)


class TestRun:
    def test_run_writes_csv_pair(self, tmp_path, capsys):
        code = invoke("run", str(CONFIG_DIR / "msd_pair.cfg"),
                      "--out", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "completed 2000 steps" in out
        for name in ("signals.csv", "energy.csv"):
            artifact = tmp_path / name
            assert artifact.exists()
            with open(artifact, newline="") as f:
                rows = list(csv.reader(f))
            assert len(rows) > 1

    def test_seed_check_passes(self, tmp_path, capsys):
        code = invoke("run", str(CONFIG_DIR / "msd_pair.cfg"),
                      "--out", str(tmp_path), "--seed-check")
        assert code == 0
        assert "seed check passed" in capsys.readouterr().out

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out_dir = blocker / "out"  # a directory under a regular file
        code = invoke("run", str(CONFIG_DIR / "msd_pair.cfg"),
                      "--out", str(out_dir))
        assert code == 2
        captured = capsys.readouterr()
        assert str(out_dir) in captured.err
        assert "completed" not in captured.out

    def test_unwritable_output_steps_nothing(self, tmp_path, monkeypatch):
        steps = 0
        step_once = cosim.master.step_once

        def counted(run, dt):
            nonlocal steps
            steps += 1
            return step_once(run, dt)

        monkeypatch.setattr(cosim.master, "step_once", counted)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = invoke("run", str(CONFIG_DIR / "msd_pair.cfg"),
                      "--out", str(blocker / "out"))
        assert code == 2
        assert steps == 0

    def test_step_fault_is_runtime_abort(self, tmp_path, monkeypatch,
                                         capsys):
        calls = 0
        get_outputs = MsdIntegral.get_outputs

        def faulty(self):
            nonlocal calls
            calls += 1
            if calls == 50:  # well past the settle passes
                raise ValueError("bad read")
            return get_outputs(self)

        monkeypatch.setattr(MsdIntegral, "get_outputs", faulty)
        code = invoke("run", str(CONFIG_DIR / "msd_pair.cfg"),
                      "--out", str(tmp_path))
        assert code == 2
        captured = capsys.readouterr()
        assert "run aborted: slave 'left' get_outputs: ValueError: bad read" in captured.err
        assert "Traceback" not in captured.err
        assert "completed" not in captured.out

    def test_observer_that_raises_fails_the_run(self, tmp_path, monkeypatch, capsys):
        # The 5th row write fails as on a full disk: the CSV observer closes
        # both files and is dropped, the run goes on to its end, and the
        # CLI reports the incomplete output.
        class Full:
            def __init__(self, file):
                self.file = file

            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

            def close(self):
                self.file.close()

        files, terminated = [], []
        on_step, terminate = CsvObserver.on_step, ModelSlave.terminate

        def filling(self, record):
            if record.index == 4:
                files.extend((self._signals, self._energy))
                self._signals = Full(self._signals)
            on_step(self, record)

        def counted(self):
            terminated.append(self.DESCRIPTOR.model_id)
            terminate(self)

        monkeypatch.setattr(CsvObserver, "on_step", filling)
        monkeypatch.setattr(ModelSlave, "terminate", counted)
        code = invoke("run", str(CONFIG_DIR / "msd_pair.cfg"), "--out", str(tmp_path))
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: writing output in {tmp_path} failed" in captured.err.splitlines()
        assert "completed" not in captured.out
        assert len(files) == 2 and all(f.closed for f in files)
        assert sorted(terminated) == ["msd_differential", "msd_integral"]
        rows = (tmp_path / "signals.csv").read_text().splitlines()
        assert len(rows) == 5  # the header and the four steps before the failure

    def test_dropped_observer_is_one_warning_line(self, tmp_path):
        # Outside pytest, logging's last-resort handler prints the master's
        # warning to stderr: one line, with no traceback above the CLI's.
        script = ("import sys\n"
                  "from cosim.cli import main\n"
                  "from cosim.observers import CsvObserver\n"
                  "on_step = CsvObserver.on_step\n"
                  "def full(self, record):\n"
                  "    if record.index == 4:\n"
                  "        raise OSError(28, 'No space left on device')\n"
                  "    on_step(self, record)\n"
                  "CsvObserver.on_step = full\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, "run", str(CONFIG_DIR / "msd_pair.cfg"),
             "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=60, env=child_env())
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "observer CsvObserver failed in on_step; disabling: "
            "OSError: [Errno 28] No space left on device",
            f"error: writing output in {tmp_path} failed",
        ]

    def test_non_numeric_parameter_is_a_finding(self, tmp_path, capsys):
        cfg = tmp_path / "bad_param.cfg"
        text = (CONFIG_DIR / "msd_pair.cfg").read_text()
        cfg.write_text(text.replace("m = 1.0", "m = abc").replace("m = 0.2", "m = abc"))
        for argv in (("validate", str(cfg)),
                     ("run", str(cfg), "--out", str(tmp_path / "out"))):
            assert invoke(*argv) == 1
            err = capsys.readouterr().err
            assert "[bad-parameter] left:" in err and "[bad-parameter] right:" in err
            assert "Traceback" not in err

    def test_a_nan_parameter_is_a_finding(self, tmp_path, capsys):
        # A NaN mass would run every step and write nan into every column.
        cfg = tmp_path / "nan_param.cfg"
        text = (CONFIG_DIR / "msd_pair.cfg").read_text()
        cfg.write_text(text.replace("m = 1.0", "m = nan").replace("m = 0.2", "m = nan"))
        assert invoke("validate", str(cfg)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "[bad-parameter] left: parameter 'm' is nan",
            "[bad-parameter] right: parameter 'm' is nan"]

    def test_failing_terminate_is_reported(self, tmp_path):
        # The outputs are complete, so the run still succeeds; the slave
        # that could not be terminated is named on stderr, in one line
        # with no traceback.
        script = ("import sys\n"
                  "from cosim.cli import main\n"
                  "from cosim.models import MsdIntegral\n"
                  "def stuck(self):\n"
                  "    raise RuntimeError('stuck')\n"
                  "MsdIntegral.terminate = stuck\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, "run", str(CONFIG_DIR / "msd_pair.cfg"),
             "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=60, env=child_env())
        assert proc.returncode == 0
        assert "completed 2000 steps" in proc.stdout
        assert proc.stderr.splitlines() == [
            "terminate failed for slave 'left': RuntimeError: stuck"]

    def test_interrupt_ends_the_run_as_an_abort(self, tmp_path):
        # A long quarter_car run gets SIGINT once it has written rows.  The
        # child restores the default SIGINT handler, as a shell that starts
        # it in the background may have left SIGINT ignored.
        config = tmp_path / "long.cfg"
        config.write_text((CONFIG_DIR / "quarter_car.cfg").read_text()
                          .replace("t_end = 10.0", "t_end = 1000.0"))
        script = ("import signal, sys\n"
                  "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
                  "from cosim.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.Popen(
            [sys.executable, "-c", script, "run", str(config), "--out", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env())
        try:
            signals = tmp_path / "signals.csv"
            give_up = time.monotonic() + 60.0
            while not (signals.exists() and signals.read_text().count("\n") > 1):
                assert proc.poll() is None and time.monotonic() < give_up
                time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 130
        assert err == "run aborted: interrupted\n"
        assert out == ""
        for name in ("signals.csv", "energy.csv"):
            assert (tmp_path / name).read_text().endswith("\n")  # closed whole

    def test_sigterm_ends_the_run_as_an_abort(self, tmp_path):
        # As SIGINT, with exit code 143.  The child reports each slave's
        # terminate on stdout, which the CLI leaves empty on an abort.
        config = tmp_path / "long.cfg"
        config.write_text((CONFIG_DIR / "quarter_car.cfg").read_text()
                          .replace("t_end = 10.0", "t_end = 1000.0"))
        script = ("import sys\n"
                  "from cosim.cli import main\n"
                  "from cosim.slave import ModelSlave\n"
                  "terminate = ModelSlave.terminate\n"
                  "def reported(self):\n"
                  "    print('terminate', self.DESCRIPTOR.model_id, flush=True)\n"
                  "    terminate(self)\n"
                  "ModelSlave.terminate = reported\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.Popen(
            [sys.executable, "-c", script, "run", str(config), "--out", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env())
        try:
            signals = tmp_path / "signals.csv"
            give_up = time.monotonic() + 60.0
            while not (signals.exists() and signals.read_text().count("\n") > 1):
                assert proc.poll() is None and time.monotonic() < give_up
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 143
        assert err == "run aborted: terminated\n"
        assert sorted(out.splitlines()) == ["terminate quarter_car_chassis_susp",
                                            "terminate quarter_car_wheel"]
        for name in ("signals.csv", "energy.csv"):
            assert (tmp_path / name).read_text().endswith("\n")  # closed whole

    def test_interrupt_during_set_up_ends_the_run_as_an_abort(self, tmp_path,
                                                              monkeypatch, capsys):
        # The second slave is interrupted in initialize; both slaves are
        # terminated once, and no traceback is printed.
        terminated = []
        initialize, terminate = ModelSlave.initialize, ModelSlave.terminate

        def interrupted(self):
            if self.DESCRIPTOR.model_id == "msd_differential":  # the right slave
                raise KeyboardInterrupt
            initialize(self)

        def counted(self):
            terminated.append(self.DESCRIPTOR.model_id)
            terminate(self)

        monkeypatch.setattr(ModelSlave, "initialize", interrupted)
        monkeypatch.setattr(ModelSlave, "terminate", counted)
        assert invoke("run", str(CONFIG_DIR / "msd_pair.cfg"),
                      "--out", str(tmp_path)) == 130
        assert capsys.readouterr().err == "run aborted: interrupted\n"
        assert sorted(terminated) == ["msd_differential", "msd_integral"]

    @pytest.mark.parametrize("step", ["fixed", "adaptive"])
    @pytest.mark.parametrize("t_end", ["1.055", "1.0000000000001"])
    def test_span_a_fixed_step_slave_cannot_end_is_a_finding(self, tmp_path, monkeypatch,
                                                              capsys, step, t_end):
        # sum_delay cannot vary its step; these spans end in a step of
        # another size.  The run reports it before any slave exists.
        cfg = sum_delay_config(tmp_path, t_end, step)
        assert invoke("validate", str(cfg)) == 1
        assert "[bad-horizon]" in capsys.readouterr().err
        created = []
        monkeypatch.setattr(ModelRegistry, "create",
                            lambda reg, model_id, params=None: created.append(model_id))
        assert invoke("run", str(cfg), "--out", str(tmp_path / "out")) == 1
        captured = capsys.readouterr()
        assert "[bad-horizon]" in captured.err and "'adder'" in captured.err
        assert "Traceback" not in captured.err
        assert created == []

    def test_non_finite_horizon_is_a_finding(self, tmp_path, monkeypatch, capsys):
        # The step sum never reaches t_end = nan, so a run would write
        # rows until stopped; it fails validation before any slave exists.
        cfg = tmp_path / "nan_end.cfg"
        cfg.write_text((CONFIG_DIR / "msd_pair.cfg").read_text()
                       .replace("t_end = 20.0", "t_end = nan"))
        assert invoke("validate", str(cfg)) == 1
        assert "[bad-horizon]" in capsys.readouterr().err
        created = []
        monkeypatch.setattr(ModelRegistry, "create",
                            lambda reg, model_id, params=None: created.append(model_id))
        with pytest.raises(InvalidSystem) as err:
            initialize_run(parse_config(cfg.read_text()), LocalResolver(registry))
        assert [f.code for f in err.value.findings] == ["bad-horizon"]
        assert created == []

    @pytest.mark.parametrize("step", ["fixed", "adaptive"])
    def test_span_of_whole_steps_runs(self, tmp_path, capsys, step):
        cfg = sum_delay_config(tmp_path, "1.05", step)
        assert invoke("validate", str(cfg)) == 0
        assert invoke("run", str(cfg), "--out", str(tmp_path / "out")) == 0
        assert "completed 105 steps" in capsys.readouterr().out

    def test_loop_config_reports_findings(self, tmp_path, capsys):
        code = invoke("run", str(CONFIG_DIR / "invalid" / "loop_fu.cfg"),
                      "--out", str(tmp_path))
        assert code == 1
        assert "algebraic-loop" in capsys.readouterr().err

    def test_unreachable_provider_is_an_unknown_model_finding(self, tmp_path, capsys):
        cfg = tmp_path / "remote.cfg"
        cfg.write_text("""\
[simulation]
t_end = 1.0
step = fixed
dt = 0.1

[slave src]
model = sine_source
provider = 127.0.0.1:1
""")
        assert invoke("run", str(cfg), "--out", str(tmp_path)) == 1
        findings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("[")]
        assert len(findings) == 1
        assert findings[0].startswith("[unknown-model] src: ") and "127.0.0.1:1" in findings[0]

    def test_remote_run_through_cli(self, tmp_path, provider, capsys):
        cfg = tmp_path / "remote.cfg"
        cfg.write_text(f"""\
[simulation]
t_end = 1.0
step = fixed
dt = 0.01

[slave left]
model = msd_integral
provider = {provider.address}
m = 1.0
d = 0.5
k = 2.0
x0 = 1.0
h = 1e-3

[slave right]
model = msd_differential
m = 0.2
d = 0.1
k = 0.5
h = 1e-3

[bond link]
side_a = left.v, left.tau
side_b = right.tau, right.v
""")
        code = invoke("run", str(cfg), "--out", str(tmp_path))
        assert code == 0
        assert "completed 100 steps" in capsys.readouterr().out

    @pytest.mark.parametrize("stage", ["set_inputs", "do_step", "get_outputs"])
    def test_remote_fault_is_one_abort_line(self, tmp_path, capsys, stage):
        # A provider that serves the test models runs ``faulty`` as 'probe';
        # its 4th call of ``stage`` raises, after the settle passes.
        prov = Provider(extended_registry(), ProviderConfig(max_slaves=1)).start()
        try:
            cfg = tmp_path / "remote_fault.cfg"
            cfg.write_text(f"""\
[simulation]
t_end = 1.0
step = fixed
dt = 0.01

[slave probe]
model = faulty
provider = {prov.address}
stage = {FaultyModel.STAGES.index(stage)}
call = 4
mode = {FaultyModel.MODES.index("raise")}

[slave right]
model = msd_differential
m = 0.2
d = 0.1
k = 0.5
h = 1e-3

[bond link]
side_a = probe.v, probe.tau
side_b = right.tau, right.v
""")
            code = invoke("run", str(cfg), "--out", str(tmp_path / "out"))
        finally:
            prov.shutdown()
        assert code == 2
        captured = capsys.readouterr()
        (line,) = [ln for ln in captured.err.splitlines() if ln.startswith("run aborted:")]
        assert "slave 'probe'" in line and stage in line
        assert "Traceback" not in captured.err
        assert "completed" not in captured.out


class TestInspection:
    def test_describe_local_model(self, capsys):
        assert invoke("describe", "msd_integral") == 0
        out = capsys.readouterr().out
        assert "model: msd_integral" in out
        assert "tau" in out and "input" in out
        assert "parameters:" in out

    def test_describe_unknown_model(self, capsys):
        assert invoke("describe", "warp_drive") == 2
        assert "error" in capsys.readouterr().err

    def test_describe_via_provider(self, provider, capsys):
        code = invoke("describe", "msd_integral",
                      "--provider", provider.address)
        assert code == 0
        assert "model: msd_integral" in capsys.readouterr().out

    def test_list_models_local(self, capsys):
        assert invoke("list-models") == 0
        out = capsys.readouterr().out.splitlines()
        assert "msd_integral" in out
        assert out == sorted(out)

    def test_list_models_from_provider_with_dead_peer(self, provider,
                                                      capsys):
        code = invoke("list-models", "--provider", provider.address,
                      "--provider", "127.0.0.1:1")
        assert code == 0
        captured = capsys.readouterr()
        assert f"{provider.address}  msd_integral" in captured.out
        assert "warning" in captured.err

    @pytest.mark.parametrize("port", ["0", "-1", "65536", "99999"])
    def test_a_provider_port_out_of_range_is_refused_unused(self, monkeypatch, capsys,
                                                          port):
        address = f"127.0.0.1:{port}"
        dialled = []
        monkeypatch.setattr(socket, "create_connection",
                            lambda address, *args, **kwargs: dialled.append(address))
        refusal = f"port out of range 1-65535 in {address!r}"
        assert invoke("describe", "msd_integral", "--provider", address) == 2
        assert capsys.readouterr().err == f"error: {refusal}\n"
        assert invoke("list-models", "--provider", address) == 0
        assert capsys.readouterr().err == f"warning: provider {address}: {refusal}\n"
        assert dialled == []


class TestUsage:
    def test_no_arguments(self, capsys):
        assert invoke() == 3

    def test_unknown_subcommand(self, capsys):
        assert invoke("frobnicate") == 3

    def test_run_without_config(self, capsys):
        assert invoke("run") == 3

    def test_provider_serve_requires_port(self, capsys):
        assert invoke("provider", "serve") == 3

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_provider_serve_refuses_a_port_out_of_range(self, capsys, port):
        assert invoke("provider", "serve", f"--port={port}") == 3
        assert capsys.readouterr().err == f"error: port must be in 0-65535, got {port}\n"

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cosim", "list-models"],
            capture_output=True, text=True, timeout=60, env=child_env())
        assert proc.returncode == 0
        assert "msd_integral" in proc.stdout

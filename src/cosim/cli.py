"""Command-line front end.

Exit codes: 0 success, 1 validation findings, 2 runtime abort, 3 usage
error, 130 run interrupted (SIGINT), 143 run terminated (SIGTERM).
"""
from __future__ import annotations

import argparse
import filecmp
import signal
import sys
import tempfile
from pathlib import Path

from .config import ConfigError, parse_config
from .errors import CosimError, InvalidSystem, RunAborted, Terminated
from .master import initialize_run, run_to_end
from .models import registry
from .net import NetworkResolver, Provider, ProviderConfig, ProviderClient, discover
from .observers import CsvObserver
from .system import Resolution, SystemDescription, validate_system

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_RUNTIME = 2
EXIT_USAGE = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it
EXIT_TERMINATED = 143  # 128 + SIGTERM
_INTERRUPTS = {KeyboardInterrupt: EXIT_INTERRUPTED, Terminated: EXIT_TERMINATED}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cosim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="execute a simulation config")
    run.add_argument("config", help="path to the config file")
    run.add_argument("--out", default=".", metavar="DIR",
                     help="directory for signals.csv and energy.csv")
    run.add_argument("--seed-check", action="store_true",
                     help="run twice and fail on any bit difference")

    val = sub.add_parser("validate", help="check a config without running it")
    val.add_argument("config", help="path to the config file")

    desc = sub.add_parser("describe", help="print a model's interface")
    desc.add_argument("model_id")
    desc.add_argument("--provider", metavar="HOST:PORT",
                      help="ask a provider instead of the local registry")

    lst = sub.add_parser("list-models", help="list available models")
    lst.add_argument("--provider", action="append", default=[],
                     metavar="HOST:PORT",
                     help="query providers (repeatable); default is local")

    prov = sub.add_parser("provider", help="provider daemon commands")
    prov_sub = prov.add_subparsers(dest="provider_command", required=True,
                                   parser_class=_Parser)
    serve = prov_sub.add_parser("serve", help="publish models and spawn slaves")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, required=True)
    serve.add_argument("--models", metavar="ID,ID,...",
                       help="publish only these model ids")
    serve.add_argument("--max-slaves", type=int, default=64)

    return parser


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse(path: str) -> SystemDescription:
    try:
        return parse_config(_read_config(path))
    except ConfigError as exc:
        for diag in exc.diagnostics:
            print(f"{path}:{diag.line}: {diag.message}", file=sys.stderr)
        raise SystemExit(EXIT_FINDINGS)


def _execute(system: SystemDescription, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)  # fail before any slave exists
    csv = CsvObserver(out_dir)
    with NetworkResolver(registry) as resolver:
        run = initialize_run(system, resolver, observers=[csv])
        result = run_to_end(run)
    if csv not in run.observers:
        # The master drops an observer that raised; the CSVs are incomplete.
        raise CosimError(f"writing output in {out_dir} failed")
    return result.steps


def _raise_terminated(signum, frame):
    raise Terminated("terminated")


def _cmd_run(args) -> int:
    system = _parse(args.config)
    out_dir = Path(args.out)
    previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        steps = _execute(system, out_dir)
        if args.seed_check:
            with tempfile.TemporaryDirectory() as tmp:
                _execute(system, Path(tmp))
                for name in ("signals.csv", "energy.csv"):
                    if not filecmp.cmp(out_dir / name, Path(tmp) / name,
                                       shallow=False):
                        print(f"seed check failed: {name} differs between "
                              f"two runs", file=sys.stderr)
                        return EXIT_RUNTIME
            print("seed check passed: both runs are bit-identical")
    except InvalidSystem as exc:
        for finding in exc.findings:
            print(finding, file=sys.stderr)
        return EXIT_FINDINGS
    except (RunAborted, KeyboardInterrupt) as exc:
        # An interrupt in set-up comes before the run exists, bare.
        cause = exc if isinstance(exc, KeyboardInterrupt) else exc.__cause__
        print(f"run aborted: {str(exc) or 'interrupted'}", file=sys.stderr)
        return _INTERRUPTS.get(type(cause), EXIT_RUNTIME)
    except (CosimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(f"completed {steps} steps to t = {system.t_end}; "
          f"output in {out_dir}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    system = _parse(args.config)
    with NetworkResolver(registry) as resolver:
        report = validate_system(system, Resolution(system, resolver.describe))
    if report.ok:
        print("configuration is valid")
        return EXIT_OK
    for finding in report.findings:
        print(finding, file=sys.stderr)
    return EXIT_FINDINGS


def _print_descriptor(desc) -> None:
    print(f"model: {desc.model_id}")
    step = "yes" if desc.supports_variable_step else "no"
    print(f"supports variable step: {step}")
    print("variables:")
    for i, v in enumerate(desc.variables):
        unit = v.unit.name if v.unit is not None else "-"
        feed = "  feedthrough" if v.direct_feedthrough else ""
        print(f"  [{i}] {v.name:12s} {v.causality.value:6s} "
              f"{v.kind.value:7s} {unit}{feed}")
    if desc.parameters:
        print("parameters:")
        for name, value in desc.parameters.items():
            print(f"  {name} = {value!r}")


def _cmd_describe(args) -> int:
    try:
        if args.provider:
            with ProviderClient(args.provider) as client:
                desc = client.describe(args.model_id)
        else:
            desc = registry.describe(args.model_id)
    except (CosimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    _print_descriptor(desc)
    return EXIT_OK


def _cmd_list_models(args) -> int:
    if not args.provider:
        for model_id in sorted(registry.model_ids()):
            print(model_id)
        return EXIT_OK
    entries, warnings = discover(args.provider)
    for entry in entries:
        print(f"{entry.provider}  {entry.model_id}")
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def _cmd_provider_serve(args) -> int:
    model_ids = tuple(s for s in (args.models or "").split(",") if s)
    try:
        config = ProviderConfig(host=args.host, port=args.port,
                                model_ids=model_ids,
                                max_slaves=args.max_slaves)
        provider = Provider(registry, config)
    except (CosimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        provider.serve_forever()
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        provider.shutdown()
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "describe":
        return _cmd_describe(args)
    if args.command == "list-models":
        return _cmd_list_models(args)
    if args.command == "provider":
        return _cmd_provider_serve(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

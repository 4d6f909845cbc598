"""Text config format: sections of key = value lines describing one system.

Sections: ``[simulation]``, ``[slave NAME]``, ``[bond NAME]``, ``[signal]``,
``[fu NAME]``.  ``#`` starts a comment, keys may not repeat within a section,
and unknown keys are errors rather than silently ignored.  Parsing collects
every diagnostic (with line numbers) instead of stopping at the first.

Function-unit wiring may be written either as plain ``[signal]`` sections or
as ``in.<var> = owner.port`` / ``out.<var> = owner.port`` keys inside the
``[fu]`` section; both desugar to the same signal connections.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

from .errors import CosimError
from .system import (
    AdaptiveStepPolicy,
    BondSide,
    FixedStepPolicy,
    FunctionUnitSpec,
    PortRef,
    PowerBond,
    SignalConnection,
    SlaveSpec,
    SystemDescription,
)


@dataclass(frozen=True)
class Diagnostic:
    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


class ConfigError(CosimError):
    """Raised when a config does not parse; carries every diagnostic."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass
class _Section:
    kind: str
    name: str
    line: int
    # key -> (value, line), in document order
    entries: dict[str, tuple[str, int]]


def _scan(text: str) -> tuple[list[_Section], list[Diagnostic]]:
    sections: list[_Section] = []
    diags: list[Diagnostic] = []
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                diags.append(Diagnostic(lineno, f"malformed section header {raw.strip()!r}"))
                current = None
                continue
            parts = line[1:-1].split()
            kind = parts[0] if parts else ""
            if kind in ("simulation", "signal"):
                if len(parts) != 1:
                    diags.append(Diagnostic(lineno, f"[{kind}] takes no name"))
                current = _Section(kind, "", lineno, {})
            elif kind in ("slave", "bond", "fu"):
                if len(parts) != 2:
                    diags.append(Diagnostic(lineno, f"[{kind}] needs exactly one name"))
                    current = None
                    continue
                current = _Section(kind, parts[1], lineno, {})
            else:
                diags.append(Diagnostic(lineno, f"unknown section kind {kind!r}"))
                current = None
                continue
            sections.append(current)
            continue
        key, sep, value = line.partition("=")
        if not sep:
            diags.append(Diagnostic(lineno, f"expected key = value, got {raw.strip()!r}"))
            continue
        if current is None:
            diags.append(Diagnostic(lineno, "key outside any section"))
            continue
        key = key.rstrip()
        if not key:
            diags.append(Diagnostic(lineno, "empty key"))
            continue
        if key in current.entries:
            first = current.entries[key][1]
            diags.append(Diagnostic(lineno, f"duplicate key {key!r} (first on line {first})"))
            continue
        current.entries[key] = (value.lstrip(), lineno)
    return sections, diags


def _number(value: str):
    try:
        return float(value)
    except ValueError:
        return None


def _param_value(value: str):
    num = _number(value)
    return value if num is None else num


def _port(value: str, line: int, diags: list[Diagnostic]) -> PortRef | None:
    owner, sep, var = value.partition(".")
    if not sep or not owner.strip() or not var.strip():
        diags.append(Diagnostic(line, f"expected owner.variable, got {value!r}"))
        return None
    return PortRef(owner.strip(), var.strip())


def _simulation(sec: _Section, diags: list[Diagnostic]):
    def fval(key, default=None, required=False):
        if key not in sec.entries:
            if required:
                diags.append(Diagnostic(sec.line, f"[simulation] missing {key}"))
            return default
        value, line = sec.entries[key]
        num = _number(value)
        if num is None:
            diags.append(Diagnostic(line, f"{key} must be a number, got {value!r}"))
            return default
        return num

    step_raw = sec.entries.get("step")
    step = step_raw[0] if step_raw else "fixed"
    if step_raw and step not in ("fixed", "adaptive"):
        diags.append(Diagnostic(step_raw[1], f"step must be fixed or adaptive, got {step!r}"))
        step = "fixed"
    # The policy's fields are its keys; a field without a default is required.
    policy_cls = AdaptiveStepPolicy if step == "adaptive" else FixedStepPolicy
    allowed = {"t_start", "t_end", "step", *(f.name for f in fields(policy_cls))}
    for key, (_, line) in sec.entries.items():
        if key not in allowed:
            diags.append(Diagnostic(line, f"unknown [simulation] key {key!r} for step = {step}"))

    t_start = fval("t_start", 0.0)
    t_end = fval("t_end", required=True)
    policy = policy_cls(**{
        f.name: (fval(f.name, required=True) or 0.0) if f.default is MISSING
        else fval(f.name, f.default)
        for f in fields(policy_cls)})
    return t_start if t_start is not None else 0.0, t_end, policy


def _slave(sec: _Section, diags: list[Diagnostic]) -> SlaveSpec | None:
    entries = dict(sec.entries)
    model = entries.pop("model", None)
    if model is None:
        diags.append(Diagnostic(sec.line, f"[slave {sec.name}] missing model"))
        return None
    provider = entries.pop("provider", (None, 0))[0]
    params = {key: _param_value(value) for key, (value, _) in entries.items()}
    return SlaveSpec(sec.name, model[0], params, provider)


def _bond_side(sec: _Section, key: str, diags: list[Diagnostic]) -> BondSide | None:
    if key not in sec.entries:
        diags.append(Diagnostic(sec.line, f"[bond {sec.name}] missing {key}"))
        return None
    value, line = sec.entries[key]
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 2:
        diags.append(Diagnostic(line, f"{key} needs 'slave.output, slave.input'"))
        return None
    out_ref = _port(parts[0], line, diags)
    in_ref = _port(parts[1], line, diags)
    if out_ref is None or in_ref is None:
        return None
    if out_ref.owner != in_ref.owner:
        diags.append(Diagnostic(line, f"{key} ports belong to different slaves "
                                      f"({out_ref.owner!r} vs {in_ref.owner!r})"))
        return None
    return BondSide(out_ref.owner, out_ref.var, in_ref.var)


def _bond(sec: _Section, diags: list[Diagnostic]) -> PowerBond | None:
    side_a = _bond_side(sec, "side_a", diags)
    side_b = _bond_side(sec, "side_b", diags)
    positive = "a"
    for key, (value, line) in sec.entries.items():
        if key in ("side_a", "side_b"):
            continue
        if key == "orientation":
            if value not in ("a", "b"):
                diags.append(Diagnostic(line, f"orientation must be a or b, got {value!r}"))
            else:
                positive = value
        else:
            diags.append(Diagnostic(line, f"unknown [bond] key {key!r}"))
    if side_a is None or side_b is None:
        return None
    return PowerBond(sec.name, side_a, side_b, positive_side=positive)


def _signal(sec: _Section, diags: list[Diagnostic]) -> SignalConnection | None:
    refs = {}
    for key in ("source", "target"):
        if key not in sec.entries:
            diags.append(Diagnostic(sec.line, f"[signal] missing {key}"))
            continue
        value, line = sec.entries[key]
        refs[key] = _port(value, line, diags)
    for key, (_, line) in sec.entries.items():
        if key not in ("source", "target"):
            diags.append(Diagnostic(line, f"unknown [signal] key {key!r}"))
    if refs.get("source") is None or refs.get("target") is None:
        return None
    return SignalConnection(refs["source"], refs["target"])


def _fu(sec: _Section, diags: list[Diagnostic]):
    entries = dict(sec.entries)
    kind = entries.pop("kind", None)
    if kind is None:
        diags.append(Diagnostic(sec.line, f"[fu {sec.name}] missing kind"))
        return None, []
    wiring: list[SignalConnection] = []
    params = {}
    for key, (value, line) in entries.items():
        if key.startswith("in."):
            src = _port(value, line, diags)
            if src is not None:
                wiring.append(SignalConnection(src, PortRef(sec.name, key[3:])))
        elif key.startswith("out."):
            dst = _port(value, line, diags)
            if dst is not None:
                wiring.append(SignalConnection(PortRef(sec.name, key[4:]), dst))
        else:
            params[key] = _param_value(value)
    return FunctionUnitSpec(sec.name, kind[0], params), wiring


def parse_config(text: str) -> SystemDescription:
    """Parse a config document; raises ConfigError with all diagnostics."""
    sections, diags = _scan(text)

    sim_secs = [s for s in sections if s.kind == "simulation"]
    if not sim_secs:
        diags.append(Diagnostic(0, "missing [simulation] section"))
    for extra in sim_secs[1:]:
        diags.append(Diagnostic(extra.line,
                                f"duplicate [simulation] (first on line {sim_secs[0].line})"))

    for kind in ("slave", "bond", "fu"):
        seen: dict[str, int] = {}
        for sec in sections:
            if sec.kind != kind:
                continue
            if sec.name in seen:
                diags.append(Diagnostic(
                    sec.line,
                    f"duplicate [{kind} {sec.name}] (first on line {seen[sec.name]})"))
            else:
                seen[sec.name] = sec.line

    t_start, t_end, policy = 0.0, None, FixedStepPolicy(1.0)
    if sim_secs:
        t_start, t_end, policy = _simulation(sim_secs[0], diags)

    slaves, bonds, signals, fus = [], [], [], []
    for sec in sections:
        if sec.kind == "slave":
            spec = _slave(sec, diags)
            if spec is not None:
                slaves.append(spec)
        elif sec.kind == "bond":
            bond = _bond(sec, diags)
            if bond is not None:
                bonds.append(bond)
        elif sec.kind == "signal":
            conn = _signal(sec, diags)
            if conn is not None:
                signals.append(conn)
        elif sec.kind == "fu":
            spec, wiring = _fu(sec, diags)
            if spec is not None:
                fus.append(spec)
            signals.extend(wiring)

    if diags:
        raise ConfigError(diags)
    return SystemDescription(
        slaves=tuple(slaves),
        bonds=tuple(bonds),
        signals=tuple(signals),
        function_units=tuple(fus),
        step_policy=policy,
        t_start=t_start,
        t_end=t_end if t_end is not None else 0.0,
    )


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def emit_config(system: SystemDescription) -> str:
    """Render a description back to config text; parses to an equal system."""
    out = ["[simulation]"]
    out.append(f"t_start = {_fmt(system.t_start)}")
    out.append(f"t_end = {_fmt(system.t_end)}")
    pol = system.step_policy
    out.append(f"step = {'adaptive' if isinstance(pol, AdaptiveStepPolicy) else 'fixed'}")
    for f in fields(pol):
        out.append(f"{f.name} = {_fmt(getattr(pol, f.name))}")

    for spec in system.slaves:
        out += ["", f"[slave {spec.name}]", f"model = {spec.model_id}"]
        if spec.provider:
            out.append(f"provider = {spec.provider}")
        for key, value in spec.parameters.items():
            out.append(f"{key} = {_fmt(value)}")

    for bond in system.bonds:
        a, b = bond.side_a, bond.side_b
        out += ["", f"[bond {bond.name}]",
                f"side_a = {a.slave}.{a.output}, {a.slave}.{a.input}",
                f"side_b = {b.slave}.{b.output}, {b.slave}.{b.input}",
                f"orientation = {bond.positive_side}"]

    for fu in system.function_units:
        out += ["", f"[fu {fu.name}]", f"kind = {fu.kind}"]
        for key, value in fu.params.items():
            out.append(f"{key} = {_fmt(value)}")

    for conn in system.signals:
        out += ["", "[signal]",
                f"source = {conn.source.owner}.{conn.source.var}",
                f"target = {conn.target.owner}.{conn.target.var}"]

    return "\n".join(out) + "\n"

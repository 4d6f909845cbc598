"""The north star's placement claim over generated systems: wherever each
slave runs, in process or on either of two providers, and in whatever
order the system declares its slaves, signals, function units and bonds,
a run gives the bits of the in-process run in declared order."""
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from cosim.master import LocalResolver, initialize_run, run_to_end
from cosim.models import registry as standard_registry
from cosim.net import NetworkResolver, Provider, ProviderConfig
from cosim.observers import MemoryObserver
from cosim.system import (
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

# At most 200 steps a run: t_end / dt_min.
POLICIES = {
    "fixed": FixedStepPolicy(0.01),
    "adaptive": AdaptiveStepPolicy(dt0=0.01, dt_min=0.005, dt_max=0.05,
                                   tolerance=1e-2),
}


@pytest.fixture(scope="module")
def providers():
    provs = [Provider(standard_registry, ProviderConfig(host="127.0.0.1", port=0)).start()
             for _ in range(2)]
    yield tuple(prov.address for prov in provs)
    for prov in provs:
        prov.shutdown()


@st.composite
def systems(draw, policy):
    """1-3 bonded msd pairs, and 0-2 sine sources, each through a gain,
    into a sum that drives one more ``msd_integral``; the first path may
    pass a kN-to-N ``unit_convert``."""
    slaves, bonds, signals, fus = [], [], [], []
    for i in range(draw(st.integers(1, 3))):
        m, k = draw(st.sampled_from(((1.0, 2.0), (0.7, 5.0), (2.5, 0.8))))
        slaves += [
            SlaveSpec(f"int{i}", "msd_integral",
                      {"m": m, "d": 0.5, "k": k, "x0": 1.0 - 0.3 * i}),
            SlaveSpec(f"dif{i}", "msd_differential",
                      {"m": 0.2, "d": 0.1, "k": 0.5, "h": 1e-3}),
        ]
        bonds.append(PowerBond(f"b{i}", BondSide(f"int{i}", "v", "tau"),
                               BondSide(f"dif{i}", "tau", "v"),
                               positive_side=draw(st.sampled_from("ab"))))
    sources = draw(st.integers(0, 2))
    if sources:
        slaves.append(SlaveSpec("load", "msd_integral", {"d": 0.3, "k": 4.0}))
        fus.append(FunctionUnitSpec("sum", "sum", {"n": sources}))
        signals.append(SignalConnection(PortRef("sum", "y"), PortRef("load", "tau")))
    for j in range(sources):
        slaves.append(SlaveSpec(f"src{j}", "sine_source",
                                {"amp": 0.3 + j, "freq": draw(st.sampled_from((0.7, 2.3)))}))
        fus.append(FunctionUnitSpec(f"gain{j}", "gain",
                                    {"c": draw(st.sampled_from((0.1, -1.7)))}))
        signals.append(SignalConnection(PortRef(f"src{j}", "y"), PortRef(f"gain{j}", "u")))
        last = PortRef(f"gain{j}", "y")
        if j == 0 and draw(st.booleans()):
            fus.append(FunctionUnitSpec("kn_to_n", "unit_convert",
                                        {"from": "kN", "to": "N"}))
            signals.append(SignalConnection(last, PortRef("kn_to_n", "u")))
            last = PortRef("kn_to_n", "y")
        signals.append(SignalConnection(last, PortRef("sum", f"u{j + 1}")))
    return SystemDescription(slaves=tuple(slaves), bonds=tuple(bonds),
                             signals=tuple(signals), function_units=tuple(fus),
                             step_policy=policy, t_end=1.0)


def placed(draw, system, addresses):
    """``system`` with each slave drawn in process or on a provider, and
    its slaves, signals, function units and bonds drawn in any order."""
    slaves = [dataclasses.replace(s, provider=draw(st.sampled_from((None, *addresses))))
              for s in system.slaves]
    return dataclasses.replace(
        system,
        slaves=tuple(draw(st.permutations(slaves))),
        signals=tuple(draw(st.permutations(system.signals))),
        function_units=tuple(draw(st.permutations(system.function_units))),
        bonds=tuple(draw(st.permutations(system.bonds))),
    )


def records(system, resolver):
    memory = MemoryObserver()
    run_to_end(initialize_run(system, resolver, observers=[memory]))
    assert memory.end_reason == "completed"
    return [
        (r.index, r.t.hex(), r.dt.hex(), r.t_next.hex(),
         {ref: v.hex() for ref, v in r.outputs.items()},
         {ref: v.hex() for ref, v in r.inputs.items()},
         [(b.bond, *(x.hex() for x in b[1:])) for b in r.energy.bonds],
         r.energy.epsilon.hex())
        for r in memory.records
    ]


@pytest.mark.parametrize("policy", POLICIES.values(), ids=POLICIES)
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_placement_and_declared_order_keep_every_bit(providers, policy, data):
    system = data.draw(systems(policy))
    reference = records(system, LocalResolver(standard_registry))
    with NetworkResolver(registry=standard_registry) as resolver:
        assert records(placed(data.draw, system, providers), resolver) == reference

"""Distributed co-simulation kernel with energy-based coupling-error control.

Independently solved subsimulators advance concurrently between discrete
communication points, exchanging effort/flow pairs over typed power bonds
and plain values over signal connections.  The residual energy each bond
accumulates over a macro step yields a model-agnostic error indicator that
drives an adaptive step-size controller; the same system description runs
in-process or across networked slave providers with bit-identical results.
"""

from .config import ConfigError, Diagnostic, emit_config, parse_config
from .energy import (
    BondEnergy,
    EnergyReport,
    StepController,
    account_step,
    bracket_powers,
    error_indicator,
    residual_energy,
    residual_power,
)
from .errors import (
    AlgebraicLoop,
    BarrierTimeout,
    ConnectionLost,
    CosimError,
    DimensionMismatch,
    InvalidState,
    InvalidSystem,
    NotAnInput,
    NotAnOutput,
    ProtocolError,
    RunAborted,
    SpawnLimitExceeded,
    StepRejected,
    UnknownModel,
    UnknownParameter,
    UnknownVariable,
)
from .function_units import build_plan, evaluate_plan
from .master import (
    LocalResolver,
    SimulationResult,
    SimulationRun,
    StartInfo,
    StepRecord,
    initialize_run,
    run_to_end,
    step_once,
)
from .models import registry
from .observers import CsvObserver, MemoryObserver, Observer
from .slave import (
    ModelRegistry,
    ModelSlave,
    SlaveInstance,
    StepOutcome,
    StepStatus,
)
from .system import (
    AdaptiveStepPolicy,
    BondSide,
    Causality,
    FixedStepPolicy,
    FunctionUnitSpec,
    PortRef,
    PowerBond,
    SignalConnection,
    SlaveDescriptor,
    SlaveSpec,
    SystemDescription,
    ValidationReport,
    VariableDescriptor,
    VarKind,
    validate_system,
)
from .units import (
    Dimension,
    Unit,
    check_power_bond,
    conversion_factor,
    convert_value,
    is_power_conjugate,
    known_units,
    parse_unit,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

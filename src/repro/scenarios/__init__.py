"""Declarative scenario engine with fault injection.

This package turns the event-driven runtime into a scenario *library*: a
:class:`ScenarioSpec` (a plain dataclass tree, loadable from dict/JSON)
describes fleet composition, broker topology, link conditions, a churn
timeline and a fault-injection plan; the compiler wires it into a live
:class:`~repro.runtime.experiment.FLExperiment`; the runner executes it
deterministically (same spec + seed ⇒ identical delivery order, final model
state and result signature) and reports per-scenario metric rows.

* :mod:`repro.scenarios.spec` — the declarative specification tree,
* :mod:`repro.scenarios.sweep` — parameter grids (``SweepSpec`` axes over
  dotted spec paths, expanded into validated cells + named grid registry),
* :mod:`repro.scenarios.faults` — timed fault execution on the scheduler,
* :mod:`repro.scenarios.compiler` — spec → wired experiment,
* :mod:`repro.scenarios.registry` — named built-ins (``baseline``,
  ``heavy-churn``, ``straggler-heavy``, ``degraded-wan``,
  ``bridged-multi-region``, ``flash-crowd``),
* :mod:`repro.scenarios.runner` — deterministic execution (single runs and
  multiprocessing grid fan-out) + reporting,
* :mod:`repro.scenarios.schema` — generated spec field reference (docs).
"""

from repro.scenarios.compiler import CompiledScenario, build_experiment_config, compile_scenario
from repro.scenarios.faults import FaultInjector
from repro.scenarios.registry import (
    get_scenario,
    register_scenario,
    scenario_names,
    scenario_summaries,
)
from repro.scenarios.runner import CellResult, GridResult, ScenarioResult, ScenarioRunner
from repro.scenarios.schema import schema_markdown
from repro.scenarios.store import (
    ResultsStore,
    ResultsStoreError,
    canonical_json,
    default_store_path,
    spec_hash,
    sweep_hash,
)
from repro.scenarios.spec import (
    FAULT_KINDS,
    FaultSpec,
    FleetSpec,
    NetworkSpec,
    ScenarioSpec,
    ScenarioSpecError,
    TopologySpec,
    TrainingSpec,
)
from repro.scenarios.sweep import (
    AxisSpec,
    GridCell,
    SweepSpec,
    get_grid,
    grid_names,
    grid_summaries,
    register_grid,
)

__all__ = [
    "FAULT_KINDS",
    "AxisSpec",
    "CellResult",
    "CompiledScenario",
    "FaultInjector",
    "FaultSpec",
    "FleetSpec",
    "GridCell",
    "GridResult",
    "NetworkSpec",
    "ResultsStore",
    "ResultsStoreError",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "ScenarioSpecError",
    "SweepSpec",
    "TopologySpec",
    "TrainingSpec",
    "build_experiment_config",
    "canonical_json",
    "compile_scenario",
    "default_store_path",
    "get_grid",
    "get_scenario",
    "grid_names",
    "grid_summaries",
    "register_grid",
    "register_scenario",
    "scenario_names",
    "scenario_summaries",
    "schema_markdown",
    "spec_hash",
    "sweep_hash",
]

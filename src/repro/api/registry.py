"""Experiment registry: every runnable study behind one discoverable door.

The paper's figures and tables, the full suite, and the named sweep grids
all register here as :class:`Experiment` records -- a name, a kind, a
*declared parameter schema* (:class:`Param`), a runner and a formatter.
:func:`list_experiments` / :func:`get_experiment` replace the ad-hoc
driver imports the CLI, suite runner, and report builder used to carry:
adding an experiment to this registry makes it reachable from
``ExperimentRequest``, ``python -m repro serve``, and the discovery
endpoints without touching any front-end.

The suite sections (:func:`suite_sections`) are the registry's ordered
view the runner iterates -- same drivers, same titles, same evaluation
order as the historical hard-coded list, so suite output stays
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.api.types import (
    API_SCHEMA_VERSION,
    MAX_SUITE_LOOPS,
    RequestValidationError,
    UnknownExperimentError,
)
from repro.core.models import Model
from repro.core.swapping import SwapEstimator
if TYPE_CHECKING:
    from repro.engine.pool import Engine
    from repro.ir.loop import Loop

from repro.engine.sweep import (
    NAMED_SWEEPS,
    format_outcome,
    named_sweep,
    run_sweep,
)
from repro.experiments import (
    cost,
    example_loop,
    figure6,
    figure7,
    figure8,
    figure9,
    table1,
)
from repro.pipeline.pipelines import PRESSURE_STRATEGIES
from repro.pipeline.policies import II_ESCALATIONS, SPILL_POLICIES
from repro.workloads.kernels import kernel_names
from repro.workloads.suite import DEFAULT_SEED


# ----------------------------------------------------------------------
# Parameter schemas
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Param:
    """One declared experiment parameter: type, default, constraints."""

    name: str
    type: str  # "int" | "str" | "bool"
    default: object = None
    help: str = ""
    choices: tuple[str, ...] | None = None
    minimum: int | None = None
    maximum: int | None = None
    nullable: bool = False

    def coerce(self, value: object) -> object:
        """Validate one supplied value against the schema; returns it."""
        if value is None:
            if not self.nullable:
                raise RequestValidationError(
                    f"parameter {self.name!r} must not be null"
                )
            return None
        if self.type == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise RequestValidationError(
                    f"parameter {self.name!r} must be an integer, got "
                    f"{value!r}"
                )
            if self.minimum is not None and value < self.minimum:
                raise RequestValidationError(
                    f"parameter {self.name!r} must be >= {self.minimum}, "
                    f"got {value}"
                )
            if self.maximum is not None and value > self.maximum:
                raise RequestValidationError(
                    f"parameter {self.name!r} must be <= {self.maximum}, "
                    f"got {value}"
                )
        elif self.type == "bool":
            if not isinstance(value, bool):
                raise RequestValidationError(
                    f"parameter {self.name!r} must be a boolean, got "
                    f"{value!r}"
                )
        elif self.type == "str":
            if not isinstance(value, str):
                raise RequestValidationError(
                    f"parameter {self.name!r} must be a string, got "
                    f"{value!r}"
                )
            if self.choices is not None and value not in self.choices:
                raise RequestValidationError(
                    f"parameter {self.name!r} must be one of "
                    f"{', '.join(self.choices)}; got {value!r}"
                )
        else:  # pragma: no cover - registration-time programming error
            raise RequestValidationError(
                f"parameter {self.name!r} has unknown type {self.type!r}"
            )
        return value

    def describe(self) -> dict:
        """JSON-able schema record for the discovery endpoints."""
        record = {
            "name": self.name,
            "type": self.type,
            "default": self.default,
            "help": self.help,
        }
        if self.choices is not None:
            record["choices"] = list(self.choices)
        if self.minimum is not None:
            record["minimum"] = self.minimum
        if self.maximum is not None:
            record["maximum"] = self.maximum
        if self.nullable:
            record["nullable"] = True
        return record


@dataclass(frozen=True)
class Experiment:
    """One registered study: schema-validated entry to a driver."""

    name: str
    kind: str  # "experiment" | "sweep" | "suite"
    title: str
    description: str
    params: tuple[Param, ...]
    runner: Callable  # (engine=..., **params) -> structured result
    formatter: Callable  # structured result -> report text
    #: Suite hook: ``(loops, spill_subset, engine) -> result`` for entries
    #: that render a section of ``python -m repro run`` (None otherwise).
    suite_runner: Callable | None = None

    def validate(self, params: dict) -> dict:
        """Defaults filled, values coerced, unknown names rejected."""
        known = {p.name: p for p in self.params}
        unknown = set(params) - set(known)
        if unknown:
            raise RequestValidationError(
                f"experiment {self.name!r}: unknown parameter(s) "
                f"{sorted(unknown)} (declared: {sorted(known) or 'none'})"
            )
        validated = {}
        for param in self.params:
            value = params.get(param.name, param.default)
            validated[param.name] = param.coerce(value)
        return validated

    def run(self, engine: "Engine | None" = None, **params: object) -> object:
        """Validate ``params`` and execute the driver."""
        return self.runner(engine=engine, **self.validate(params))

    def format(self, result: object) -> str:
        return self.formatter(result)

    def describe(self) -> dict:
        """JSON-able registry record for the discovery endpoints."""
        return {
            "name": self.name,
            "kind": self.kind,
            "title": self.title,
            "description": self.description,
            "params": [p.describe() for p in self.params],
            "schema_version": API_SCHEMA_VERSION,
        }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
EXPERIMENTS: dict[str, Experiment] = {}


def register_experiment(experiment: Experiment) -> Experiment:
    """Add an experiment to the registry (name must be unused)."""
    if experiment.name in EXPERIMENTS:
        raise ValueError(
            f"experiment {experiment.name!r} already registered"
        )
    EXPERIMENTS[experiment.name] = experiment
    return experiment


def list_experiments(kind: str | None = None) -> list[Experiment]:
    """Registered experiments, in registration (= suite section) order."""
    return [
        e for e in EXPERIMENTS.values() if kind is None or e.kind == kind
    ]


def get_experiment(name: str) -> Experiment:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise UnknownExperimentError(
            f"unknown experiment {name!r} (known: {known})"
        ) from None


def suite_sections() -> list[tuple[str, str, Callable]]:
    """``(name, title, suite_runner)`` for every suite-section entry."""
    return [
        (e.name, e.title, e.suite_runner)
        for e in EXPERIMENTS.values()
        if e.suite_runner is not None
    ]


def capabilities() -> dict:
    """Everything a client can name, computed live from the registries.

    This is what ``GET /v1/capabilities`` serves and what the CLI derives
    its ``--policy``/``--escalation``/``--name`` choices from, so a policy
    registered at import time shows up everywhere at once.
    """
    return {
        "schema_version": API_SCHEMA_VERSION,
        "experiments": [e.describe() for e in list_experiments()],
        "sweeps": sorted(NAMED_SWEEPS),
        "spill_policies": sorted(SPILL_POLICIES),
        "ii_escalations": sorted(II_ESCALATIONS),
        "pressure_strategies": list(PRESSURE_STRATEGIES),
        "models": [m.value for m in Model],
        "swap_estimators": [e.value for e in SwapEstimator],
        "kernels": kernel_names(),
    }


# ----------------------------------------------------------------------
# Registrations
# ----------------------------------------------------------------------
def _suite(loops: int, seed: int) -> "list[Loop]":
    # Reuses the spec-resolution cache: repeated experiment requests for
    # the same (size, seed) must not regenerate the synthetic suite.
    from repro.api.types import _suite_loops

    return list(_suite_loops(loops, seed))


_LOOPS = Param(
    "loops",
    "int",
    default=200,
    minimum=1,
    maximum=MAX_SUITE_LOOPS,
    help="synthetic suite size",
)
_SEED = Param(
    "seed", "int", default=DEFAULT_SEED, help="suite generation seed"
)
_POLICY = Param(
    "victim_policy",
    "str",
    default="longest",
    choices=tuple(sorted(SPILL_POLICIES)),
    help="spill victim selection policy",
)
_ESCALATION = Param(
    "ii_escalation",
    "str",
    default="increment",
    choices=tuple(sorted(II_ESCALATIONS)),
    help="II escalation strategy when nothing is spillable",
)

register_experiment(
    Experiment(
        name="example",
        kind="experiment",
        title="Tables 2/3/4 -- example loop",
        description=(
            "The Section 4.1 worked example: schedule, lifetimes, and the "
            "42/29/23 register-requirement progression."
        ),
        params=(),
        runner=lambda engine=None: example_loop.run_example(),
        formatter=example_loop.format_report,
        suite_runner=lambda loops, spill, engine: example_loop.run_example(),
    )
)

register_experiment(
    Experiment(
        name="table1",
        kind="experiment",
        title="Table 1 -- PxLy allocatable loops",
        description=(
            "Percentage of loops (and of cycles) allocatable without "
            "spilling at 16/32/64 registers on the PxLy machines."
        ),
        params=(_LOOPS, _SEED),
        runner=lambda engine=None, loops=200, seed=DEFAULT_SEED: (
            table1.run_table1(_suite(loops, seed), engine=engine)
        ),
        formatter=table1.format_report,
        suite_runner=lambda loops, spill, engine: table1.run_table1(
            loops, engine=engine
        ),
    )
)

register_experiment(
    Experiment(
        name="figure6",
        kind="experiment",
        title="Figure 6 -- static distributions",
        description=(
            "Static cumulative distribution of loops vs registers "
            "required, per model and latency."
        ),
        params=(_LOOPS, _SEED),
        runner=lambda engine=None, loops=200, seed=DEFAULT_SEED: (
            figure6.run_figure6(_suite(loops, seed), engine=engine)
        ),
        formatter=figure6.format_report,
        suite_runner=lambda loops, spill, engine: figure6.run_figure6(
            loops, engine=engine
        ),
    )
)

register_experiment(
    Experiment(
        name="figure7",
        kind="experiment",
        title="Figure 7 -- dynamic distributions",
        description=(
            "Cycle-weighted (dynamic) cumulative distributions; free on a "
            "shared engine once Figure 6 has run."
        ),
        params=(_LOOPS, _SEED),
        runner=lambda engine=None, loops=200, seed=DEFAULT_SEED: (
            figure7.run_figure7(_suite(loops, seed), engine=engine)
        ),
        formatter=figure7.format_report,
        suite_runner=lambda loops, spill, engine: figure7.run_figure7(
            loops, engine=engine
        ),
    )
)

register_experiment(
    Experiment(
        name="figure8",
        kind="experiment",
        title="Figure 8 -- performance",
        description=(
            "Performance of the four models with limited register files, "
            "relative to infinite registers."
        ),
        params=(_LOOPS, _SEED, _POLICY, _ESCALATION),
        runner=lambda engine=None, loops=200, seed=DEFAULT_SEED,
        victim_policy="longest", ii_escalation="increment": (
            figure8.run_figure8(
                _suite(loops, seed),
                engine=engine,
                victim_policy=victim_policy,
                ii_escalation=ii_escalation,
            )
        ),
        formatter=figure8.format_report,
        suite_runner=lambda loops, spill, engine: figure8.run_figure8(
            spill, engine=engine
        ),
    )
)

register_experiment(
    Experiment(
        name="figure9",
        kind="experiment",
        title="Figure 9 -- traffic density",
        description=(
            "Memory-bus traffic density per model; identical engine jobs "
            "to Figure 8's."
        ),
        params=(_LOOPS, _SEED, _POLICY, _ESCALATION),
        runner=lambda engine=None, loops=200, seed=DEFAULT_SEED,
        victim_policy="longest", ii_escalation="increment": (
            figure9.run_figure9(
                _suite(loops, seed),
                engine=engine,
                victim_policy=victim_policy,
                ii_escalation=ii_escalation,
            )
        ),
        formatter=figure9.format_report,
        suite_runner=lambda loops, spill, engine: figure9.run_figure9(
            spill, engine=engine
        ),
    )
)

register_experiment(
    Experiment(
        name="cost",
        kind="experiment",
        title="Cost model -- Section 3.2",
        description=(
            "Register-file organization cost comparison (area, access "
            "time, specifier bits)."
        ),
        params=(
            Param(
                "registers",
                "int",
                default=32,
                minimum=1,
                help="register count per (sub)file",
            ),
        ),
        runner=lambda engine=None, registers=32: [
            cost.run_cost_study(registers)
        ],
        formatter=cost.format_report,
        suite_runner=lambda loops, spill, engine: [
            cost.run_cost_study(32),
            cost.run_cost_study(64),
        ],
    )
)


def _run_validate_entry(
    engine: "Engine | None" = None,
    loops: int = 200,
    samples: int = 6,
    seed: int = DEFAULT_SEED,
    latency: int = 6,
    iterations: int | None = None,
) -> object:
    # Imported lazily: repro.validate drives the pipeline and simulator;
    # the registry must stay importable without either.  The engine is
    # deliberately unused -- validation verdicts must come from executing
    # this build, never from cached analytical results.
    from repro.validate import run_sampled_validation

    return run_sampled_validation(
        n_loops=loops,
        samples=samples,
        seed=seed,
        latency=latency,
        iterations=iterations,
    )


register_experiment(
    Experiment(
        name="validate",
        kind="experiment",
        title="Simulator cross-check -- sampled differential validation",
        description=(
            "Execute a seeded sample of suite points cycle-by-cycle under "
            "every model and kernel tier and check observed II, register "
            "occupancy, and bus traffic against the analytical claims."
        ),
        params=(
            _LOOPS,
            Param(
                "samples",
                "int",
                default=6,
                minimum=1,
                maximum=256,
                help="sampled suite loops to execute",
            ),
            Param(
                "seed",
                "int",
                default=DEFAULT_SEED,
                help="sample-selection seed (suite seed stays the default)",
            ),
            Param(
                "latency",
                "int",
                default=6,
                minimum=1,
                maximum=64,
                help="paper-machine FP latency to validate under",
            ),
            Param(
                "iterations",
                "int",
                default=None,
                minimum=1,
                maximum=4096,
                nullable=True,
                help="simulated iterations per point (default: auto)",
            ),
        ),
        runner=_run_validate_entry,
        formatter=lambda result: result.format(),
    )
)


def _run_check_entry(
    engine: "Engine | None" = None, loops: int = 200, latency: int = 6
) -> object:
    # Imported lazily, like validate's: repro.check drives the batch
    # chain.  The engine is unused -- proofs must come from evaluating
    # this build, never from cached results.
    from repro.check import run_static_validation

    return run_static_validation(n_loops=loops, latency=latency)


register_experiment(
    Experiment(
        name="check",
        kind="experiment",
        title="Static proof -- full-grid schedule/allocation verification",
        description=(
            "Statically prove every suite point under every model: "
            "dependence legality, modulo reservation table, allocation "
            "disjointness and register-count minimality, and spill/"
            "traffic accounting -- O(ops) per point, no simulation, "
            "100% coverage."
        ),
        params=(
            _LOOPS,
            Param(
                "latency",
                "int",
                default=6,
                minimum=1,
                maximum=64,
                help="paper-machine FP latency to prove under",
            ),
        ),
        runner=_run_check_entry,
        formatter=lambda result: result.format(),
    )
)


def _run_suite_entry(
    engine: "Engine | None" = None,
    loops: int = 200,
    spill_loops: int | None = None,
) -> object:
    # Imported lazily: the runner iterates this registry for its sections,
    # so the import must happen at call time to keep the layering one-way.
    from repro.experiments.runner import run_suite

    return run_suite(loops, spill_loops, engine=engine)


def _format_suite_entry(result: object) -> str:
    from repro.experiments.runner import format_suite

    return format_suite(result)


register_experiment(
    Experiment(
        name="suite",
        kind="suite",
        title="Full experiment suite",
        description=(
            "Every section above through one shared engine -- the "
            "programmatic form of ``python -m repro run``."
        ),
        params=(
            _LOOPS,
            Param(
                "spill_loops",
                "int",
                default=None,
                minimum=1,
                maximum=MAX_SUITE_LOOPS,
                nullable=True,
                help="subset size for the spill-pipeline figures",
            ),
        ),
        runner=_run_suite_entry,
        formatter=_format_suite_entry,
    )
)


def _sweep_entry(name: str) -> Experiment:
    spec = NAMED_SWEEPS[name]
    params = [
        Param(
            "loops", "int", default=None, minimum=1,
            maximum=MAX_SUITE_LOOPS, nullable=True,
            help="suite size override",
        ),
        Param(
            "seed", "int", default=None, nullable=True,
            help="suite seed override",
        ),
    ]
    if spec.kind == "evaluate":
        params.append(
            Param(
                "victim_policy", "str", default=None, nullable=True,
                choices=tuple(sorted(SPILL_POLICIES)),
                help="spill victim policy override",
            )
        )
        params.append(
            Param(
                "ii_escalation", "str", default=None, nullable=True,
                choices=tuple(sorted(II_ESCALATIONS)),
                help="II escalation override",
            )
        )

    def run(
        engine: "Engine | None" = None,
        loops: int | None = None,
        seed: int | None = None,
        victim_policy: str | None = None,
        ii_escalation: str | None = None,
    ) -> object:
        overrides: dict = {}
        if loops is not None:
            overrides["n_loops"] = loops
        if seed is not None:
            overrides["seeds"] = (seed,)
        if victim_policy is not None:
            overrides["victim_policies"] = (victim_policy,)
        if ii_escalation is not None:
            overrides["ii_escalation"] = ii_escalation
        return run_sweep(named_sweep(name, **overrides), engine=engine)

    return Experiment(
        name=name,
        kind="sweep",
        title=f"Named sweep {name!r}",
        description=spec.describe(),
        params=tuple(params),
        runner=run,
        formatter=format_outcome,
    )


for _name in NAMED_SWEEPS:
    register_experiment(_sweep_entry(_name))


__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "Param",
    "capabilities",
    "get_experiment",
    "list_experiments",
    "register_experiment",
    "suite_sections",
]

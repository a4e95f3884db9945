"""RunConfig: the declarative, serializable description of one run setup.

A :class:`RunConfig` names every ingredient of a run — workload (and
optionally the component a workload *template* is instantiated with),
scheduler, seed / decision prefix, detector set, trace retention,
metrics, per-run timeout — as plain strings and numbers resolved through
the :mod:`repro.run.registry` registries.  That makes one object the
single currency of run assembly everywhere:

* the CLI parses flags into a ``RunConfig`` (or loads one from a
  ``scenario.toml``);
* the campaign engine pickles it across the worker process boundary
  (it replaces the old ``WorkerTask`` parallel field set);
* :class:`~repro.run.executor.RunExecutor` turns it into kernels.

A config crosses the process boundary as a pickle (it is a plain frozen
dataclass).  The one config-file format is the scenario file
(:func:`load_scenario`, TOML read with the stdlib ``tomllib``, Python
3.11+), whose ``[run]`` table :meth:`RunConfig.from_dict` reads,
rejecting unknown keys so a typoed scenario file fails loudly instead of
silently running defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.faults.plan import FaultPlan, FaultPlanError

from .registry import (
    COMPONENTS,
    DETECTORS,
    FAULTS,
    SCHEDULERS,
    UnknownNameError,
    load_builtins,
)

try:  # Python 3.11+
    import tomllib as _tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.10 fallback path
    _tomllib = None  # type: ignore[assignment]

__all__ = [
    "DETECTOR_ORDER",
    "RunConfig",
    "RunConfigError",
    "Scenario",
    "load_scenario",
    "normalize_detect",
    "parse_seed_spec",
]

#: Canonical (report) order of the built-in detectors; a config's
#: ``detect`` tuple is normalized to this order so equal detector *sets*
#: compare, pickle, and fingerprint identically.
DETECTOR_ORDER: Tuple[str, ...] = (
    "lockset",
    "hb",
    "lockgraph",
    "waitgraph",
    "starvation",
    "completion",
)

#: Valid kernel trace-retention modes (mirrors ``Kernel.TRACE_MODES``).
TRACE_MODES: Tuple[str, ...] = ("full", "none")

_BRANCHES: Tuple[str, ...] = ("shallow", "deep")


class RunConfigError(ValueError):
    """A run configuration is malformed or names unknown ingredients."""


def normalize_detect(
    value: Union[bool, str, Sequence[str], None],
) -> Tuple[str, ...]:
    """Coerce any spelling of "which detectors" to a canonical tuple.

    ``True`` / ``"all"`` mean every built-in detector; ``False`` /
    ``None`` / ``()`` mean detection off; a name or sequence of names is
    deduplicated and sorted into :data:`DETECTOR_ORDER` (names outside
    the built-in set keep a stable sorted tail).  Unknown names are *not*
    rejected here — :meth:`RunConfig.validate` does that, with the
    registry's full known-name list in the error.
    """
    if value is True or value == "all":
        return DETECTOR_ORDER
    if not value:
        return ()
    names = [value] if isinstance(value, str) else [str(v) for v in value]
    unique = list(dict.fromkeys(names))
    known = [name for name in DETECTOR_ORDER if name in unique]
    extra = sorted(name for name in unique if name not in DETECTOR_ORDER)
    return tuple(known + extra)


def parse_seed_spec(value: Union[int, str, Sequence[int]]) -> List[int]:
    """Parse a seed spec: ``7``, ``"0:100"`` (half-open), ``"1,5,9"``,
    or an explicit integer list."""
    if isinstance(value, bool):
        raise RunConfigError(f"seed spec must be int/str/list, got {value!r}")
    if isinstance(value, int):
        return [value]
    if isinstance(value, (list, tuple)):
        try:
            return [int(v) for v in value]
        except (TypeError, ValueError):
            raise RunConfigError(f"seed list {value!r} must hold integers") from None
    text = str(value)
    try:
        if ":" in text:
            lo_text, hi_text = text.split(":", 1)
            lo, hi = int(lo_text or 0), int(hi_text)
            if hi <= lo:
                raise RunConfigError(f"empty seed range {text!r}")
            return list(range(lo, hi))
        if "," in text:
            return [int(part) for part in text.split(",") if part.strip()]
        return [int(text)]
    except RunConfigError:
        raise
    except ValueError:
        raise RunConfigError(
            f"seed spec {text!r} must be an int, 'lo:hi', or comma-separated ints"
        ) from None


def _coerce_faults(value: Any) -> Optional[FaultPlan]:
    """Canonicalize any spelling of a fault plan to a :class:`FaultPlan`:
    an instance passes through, a dict is parsed, a string is looked up
    in the ``FAULTS`` registry."""
    if value is None or isinstance(value, FaultPlan):
        return value
    if isinstance(value, str):
        load_builtins()
        try:
            plan = FAULTS.get(value)
        except UnknownNameError as exc:
            raise RunConfigError(str(exc)) from None
        if not isinstance(plan, FaultPlan):  # pragma: no cover - registry misuse
            raise RunConfigError(f"registered fault plan {value!r} is not a FaultPlan")
        return plan
    if isinstance(value, dict):
        try:
            return FaultPlan.from_dict(value)
        except FaultPlanError as exc:
            raise RunConfigError(f"bad [faults] table: {exc}") from None
    raise RunConfigError(
        f"faults must be a FaultPlan, plan name, or table, got {value!r}"
    )


def _resolve_workload_entry(spec: str) -> Callable[..., Any]:
    """Resolve a workload spec (registry name or ``module:function``) to
    its registered entry, wrapping resolution failures as config errors."""
    load_builtins()
    from repro.engine.workloads import resolve_factory

    try:
        return resolve_factory(spec)
    except ValueError as exc:
        raise RunConfigError(str(exc)) from None


@dataclass(frozen=True)
class RunConfig:
    """Everything that defines how one run (or one shard of runs) is
    assembled.  Frozen, hashable-by-parts, and picklable."""

    #: workload registry name (``"pc-bug"``) or ``module:function``
    workload: str
    #: component registry name, required by *template* workloads
    #: (``workload="pc", component="SingleNotifyProducerConsumer"``)
    component: Optional[str] = None
    #: scheduler registry name, or ``"systematic"`` for DFS enumeration
    scheduler: str = "random"
    #: seed for seeded schedulers (random/PCT); None = caller supplies
    seed: Optional[int] = None
    #: decision prefix: replay decisions, or the DFS subtree root
    prefix: Tuple[int, ...] = ()
    #: detector names to stream every run through (empty = detection off)
    detect: Tuple[str, ...] = ()
    #: kernel trace retention; ``"none"`` requires a non-empty detect set
    trace_mode: str = "full"
    #: attach the instrumentation sink to every run
    metrics: bool = False
    #: per-run wall-clock timeout in seconds (0 disables the alarm)
    timeout: float = 10.0
    #: ``module:Class`` whose CoFG arc coverage to extract per run
    coverage: Optional[str] = None
    #: systematic mode: deepest decision index to branch on
    max_depth: int = 400
    #: systematic mode: ``"shallow"`` or ``"deep"`` branch order
    branch: str = "shallow"
    #: PCT bug depth ``d``
    pct_depth: int = 3
    #: PCT expected step budget ``k``
    pct_expected_steps: int = 200
    #: per-step probability of a spurious wake-up (0.0 = off); drawn from
    #: a dedicated RNG seeded with the run's scheduler seed
    spurious_rate: float = 0.0
    #: deterministic fault plan: a :class:`~repro.faults.FaultPlan`, its
    #: dict form, or the name of a registered plan (``"interrupt-consumer"``)
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        # Coerce sequence/bool spellings (JSON lists, detect=True) so a
        # config is canonical however it was built.
        object.__setattr__(self, "prefix", tuple(int(d) for d in self.prefix))
        object.__setattr__(self, "detect", normalize_detect(self.detect))
        object.__setattr__(self, "faults", _coerce_faults(self.faults))

    # -- validation --------------------------------------------------------

    def validate(self) -> "RunConfig":
        """Check every name against its registry and every coupling rule;
        raises :class:`RunConfigError` with the known-name list on a miss.
        Returns self for chaining."""
        load_builtins()
        if self.trace_mode not in TRACE_MODES:
            raise RunConfigError(
                f"trace_mode must be one of {TRACE_MODES}, got {self.trace_mode!r}"
            )
        if self.branch not in _BRANCHES:
            raise RunConfigError(
                f"branch must be 'shallow' or 'deep', got {self.branch!r}"
            )
        if self.timeout < 0:
            raise RunConfigError(f"timeout must be >= 0, got {self.timeout}")
        if self.max_depth < 1:
            raise RunConfigError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.pct_depth < 1 or self.pct_expected_steps < 1:
            raise RunConfigError(
                f"pct_depth/pct_expected_steps must be >= 1, got "
                f"{self.pct_depth}/{self.pct_expected_steps}"
            )
        if not 0.0 <= self.spurious_rate <= 1.0:
            raise RunConfigError(
                f"spurious_rate must be in [0, 1], got {self.spurious_rate}"
            )
        if self.scheduler != "systematic" and self.scheduler not in SCHEDULERS:
            known = sorted(SCHEDULERS.names() + ["systematic"])
            raise RunConfigError(
                str(UnknownNameError("scheduler", self.scheduler, known))
            )
        for name in self.detect:
            if name not in DETECTORS:
                raise RunConfigError(
                    str(UnknownNameError("detector", name, DETECTORS.names()))
                )
        if self.trace_mode != "full" and not self.detect:
            raise RunConfigError("trace_mode 'none' without detect observes nothing")
        if self.trace_mode != "full" and self.coverage:
            raise RunConfigError(
                "coverage tracking reads the stored trace; use trace_mode 'full'"
            )
        if self.component is not None and self.component not in COMPONENTS:
            raise RunConfigError(
                str(
                    UnknownNameError(
                        "component", self.component, COMPONENTS.names()
                    )
                )
            )
        entry = _resolve_workload_entry(self.workload)
        if getattr(entry, "needs_component", False):
            if not self.component:
                raise RunConfigError(
                    f"workload {self.workload!r} is a template: "
                    f"set component= to instantiate it"
                )
        elif self.component:
            raise RunConfigError(
                f"workload {self.workload!r} does not take a component"
            )
        return self

    # -- assembly ----------------------------------------------------------

    def build_factory(self) -> Callable[..., Any]:
        """Resolve the workload (instantiating a template with the named
        component) to a ``ProgramFactory``."""
        entry = _resolve_workload_entry(self.workload)
        if getattr(entry, "needs_component", False):
            if not self.component:
                raise RunConfigError(
                    f"workload {self.workload!r} is a template: "
                    f"set component= to instantiate it"
                )
            try:
                component_cls = COMPONENTS.get(self.component)
            except UnknownNameError as exc:
                raise RunConfigError(str(exc)) from None
            factory: Callable[..., Any] = entry(component_cls)
            if not callable(factory):
                raise RunConfigError(
                    f"workload template {self.workload!r} did not return a factory"
                )
            return factory
        if self.component:
            raise RunConfigError(
                f"workload {self.workload!r} does not take a component"
            )
        return entry

    def make_scheduler(self, seed: Optional[int] = None) -> Any:
        """Build one scheduler instance (``seed`` overrides the config's).

        Builders receive the uniform keyword set ``prefix`` /
        ``pct_depth`` / ``pct_expected_steps`` and ignore what they don't
        need, so this never special-cases scheduler names.
        """
        load_builtins()
        if self.scheduler == "systematic":
            raise RunConfigError(
                "scheduler 'systematic' enumerates a schedule tree; "
                "drive it through RunExecutor.explore()"
            )
        try:
            builder = SCHEDULERS.get(self.scheduler)
        except UnknownNameError as exc:
            raise RunConfigError(str(exc)) from None
        return builder(
            seed if seed is not None else self.seed,
            prefix=self.prefix,
            pct_depth=self.pct_depth,
            pct_expected_steps=self.pct_expected_steps,
        )

    # -- plain data --------------------------------------------------------

    @classmethod
    def from_dict(
        cls, payload: Dict[str, Any], *, source: str = "run config"
    ) -> "RunConfig":
        """Build from plain data, rejecting unknown keys loudly."""
        if not isinstance(payload, dict):
            raise RunConfigError(f"{source} must be a table/object, got {payload!r}")
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise RunConfigError(
                f"{source} has unknown key(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        if "workload" not in payload:
            raise RunConfigError(f"{source} needs a 'workload' key")
        try:
            return cls(**payload)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, RunConfigError):
                raise
            raise RunConfigError(f"{source} is malformed: {exc}") from None


# -- scenario files --------------------------------------------------------

#: keys allowed in a scenario's ``[explore]`` table -> their value type
_EXPLORE_KEYS: Dict[str, type] = {"runs": int, "seeds": object, "stop_on_failure": bool}
#: keys allowed in a scenario's ``[campaign]`` table -> their value type
_CAMPAIGN_KEYS: Dict[str, type] = {
    "budget": int,
    "workers": int,
    "shard_size": int,
    "seed_start": int,
    "goal": str,
    "journal": str,
    "resume": bool,
    "max_retries": int,
    "metrics_out": str,
    "metrics_prom": str,
    "quiet": bool,
}


@dataclass(frozen=True)
class Scenario:
    """A parsed ``scenario.toml``: the run config plus (at most) one
    driver table saying how many schedules to push through it."""

    run: RunConfig
    #: ``[explore]`` table: single-process exploration parameters
    explore: Optional[Dict[str, Any]] = None
    #: ``[campaign]`` table: parallel campaign parameters
    campaign: Optional[Dict[str, Any]] = None
    source: str = field(default="scenario", compare=False)


def _parse_toml(text: str, *, source: str) -> Dict[str, Any]:
    if _tomllib is None:  # pragma: no cover - Python 3.10 only
        raise RunConfigError(
            f"parsing {source} needs the stdlib 'tomllib' (Python 3.11+)"
        )
    try:
        return _tomllib.loads(text)
    except _tomllib.TOMLDecodeError as exc:
        raise RunConfigError(f"cannot parse {source}: {exc}") from None


def _check_keys(
    table: Dict[str, Any], allowed: Dict[str, type], *, source: str
) -> Dict[str, Any]:
    """A copy of a driver table whose keys are all ``allowed`` and whose
    values have the allowed key's type (an int is not a bool here); a
    ``seeds`` value must parse as a seed spec."""
    unknown = sorted(set(table) - set(allowed))
    if unknown:
        raise RunConfigError(
            f"{source} has unknown key(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(allowed))})"
        )
    for key, value in table.items():
        expected = allowed[key]
        if key == "seeds":
            parse_seed_spec(value)
        elif not isinstance(value, expected) or (
            expected is int and isinstance(value, bool)
        ):
            raise RunConfigError(
                f"{source} {key} must be {_TYPE_NAMES[expected]}, got {value!r}"
            )
    return dict(table)


_TYPE_NAMES = {int: "an integer", str: "a string", bool: "true or false"}


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Load and validate a ``scenario.toml``.

    Schema: a required ``[run]`` table (the :class:`RunConfig` fields)
    plus at most one of ``[explore]`` / ``[campaign]``; no driver table
    means "execute exactly one run".  An optional ``[faults]`` table (a
    serialized :class:`~repro.faults.FaultPlan`: ``name`` plus
    ``[[faults.rules]]`` entries) attaches a deterministic fault plan to
    the run — equivalent to setting ``faults`` inside ``[run]``.
    """
    path = Path(path)
    data = _parse_toml(path.read_text(), source=f"scenario {path}")
    known_tables = {"run", "explore", "campaign", "faults"}
    unknown = sorted(set(data) - known_tables)
    if unknown:
        raise RunConfigError(
            f"scenario {path} has unknown table(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known_tables))})"
        )
    if "run" not in data:
        raise RunConfigError(f"scenario {path} needs a [run] table")
    run = RunConfig.from_dict(dict(data["run"]), source=f"scenario {path} [run]")
    faults_table = data.get("faults")
    if faults_table is not None:
        if run.faults is not None:
            raise RunConfigError(
                f"scenario {path} sets faults both in [run] and as a "
                f"[faults] table; pick one"
            )
        if not isinstance(faults_table, dict):
            raise RunConfigError(f"scenario {path} [faults] must be a table")
        try:
            plan = FaultPlan.from_dict(faults_table)
        except FaultPlanError as exc:
            raise RunConfigError(
                f"scenario {path} [faults] is malformed: {exc}"
            ) from None
        run = dataclasses.replace(run, faults=plan)
    explore = data.get("explore")
    campaign = data.get("campaign")
    if explore is not None and campaign is not None:
        raise RunConfigError(
            f"scenario {path} cannot drive both [explore] and [campaign]"
        )
    if explore is not None:
        explore = _check_keys(
            explore, _EXPLORE_KEYS, source=f"scenario {path} [explore]"
        )
    if campaign is not None:
        campaign = _check_keys(
            campaign, _CAMPAIGN_KEYS, source=f"scenario {path} [campaign]"
        )
    run.validate()
    return Scenario(run=run, explore=explore, campaign=campaign, source=str(path))

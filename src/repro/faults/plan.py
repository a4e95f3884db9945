"""Declarative fault plans: serializable trigger × action rules.

A :class:`FaultPlan` is a frozen, order-significant list of
:class:`FaultRule` entries, each binding one *trigger* (when to fire) to
one *action* (which environment deviation to inject):

=============== ====================================================
Action          Kernel effect
=============== ====================================================
``interrupt``   ``Kernel.interrupt(thread)`` — ``Thread.interrupt()``
``timeout``     ``Kernel.expire_wait(thread)`` — force the wait to
                expire with ``reason="timeout"``
``spurious``    ``Kernel.spurious_wake(monitor, waiter)`` — wake one
                waiter with no notify
=============== ====================================================

Which parked threads an action can reach depends on the primitive:
``interrupt`` reaches every live thread; ``timeout`` reaches a monitor
waiter or a timed semaphore acquirer (the primitive's ``expirable``);
``spurious`` reaches a monitor waiter only.  A rule whose target is
parked anywhere else stays armed and never fires.

Triggers (exactly one per rule):

* ``at_step = N`` — fire at the first step boundary where the kernel's
  step counter has reached ``N`` *and* the action is applicable (the
  target is waiting, for ``timeout``/``spurious``);
* ``at_wait = N`` — fire when the target thread is inside its ``N``-th
  wait (counted per thread, 1-based);
* ``after_waiting = K`` — fire once the target thread has been waiting
  ``K`` virtual-time units continuously.

Every quantity a trigger counts is deterministic (kernel steps, per-thread
wait ordinals, virtual time), and the injector draws no randomness, so a
plan deterministically maps (program, scheduler seed) to a faulted trace.
Plans serialize to plain JSON-compatible dicts; the canonical JSON form is
the campaign-fingerprint key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = ["ACTIONS", "FaultPlan", "FaultPlanError", "FaultRule", "TRIGGERS"]

#: The legal ``FaultRule.action`` values.
ACTIONS: Tuple[str, ...] = ("interrupt", "timeout", "spurious")

#: The trigger field names, of which each rule sets exactly one.
TRIGGERS: Tuple[str, ...] = ("at_step", "at_wait", "after_waiting")


class FaultPlanError(ValueError):
    """A fault plan or rule is malformed."""


@dataclass(frozen=True)
class FaultRule:
    """One trigger × action injection rule.  Fires at most once per run.

    Attributes:
        action: ``"interrupt"``, ``"timeout"``, or ``"spurious"``.
        thread: target thread name.  Required for ``interrupt`` and
            ``timeout``; for ``spurious`` it names the waiter to wake
            (optional when ``monitor`` is given — the injector then wakes
            the longest-waiting thread in that monitor's wait set).
        monitor: monitor whose wait set a ``spurious`` rule targets.
            Inferred from the thread's wait when omitted; meaningless for
            the other actions.
        at_step / at_wait / after_waiting: the trigger (see module docs).
    """

    action: str
    thread: Optional[str] = None
    monitor: Optional[str] = None
    at_step: Optional[int] = None
    at_wait: Optional[int] = None
    after_waiting: Optional[int] = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise FaultPlanError(
                f"unknown fault action {self.action!r} "
                f"(expected one of {', '.join(ACTIONS)})"
            )
        set_triggers = [t for t in TRIGGERS if getattr(self, t) is not None]
        if len(set_triggers) != 1:
            raise FaultPlanError(
                f"fault rule must set exactly one of {', '.join(TRIGGERS)} "
                f"(got {set_triggers or 'none'})"
            )
        trigger = set_triggers[0]
        value = getattr(self, trigger)
        if not isinstance(value, int) or isinstance(value, bool):
            raise FaultPlanError(f"{trigger} must be an integer, got {value!r}")
        minimum = 1 if trigger == "at_wait" else 0
        if value < minimum:
            raise FaultPlanError(f"{trigger} must be >= {minimum}, got {value}")
        if self.action in ("interrupt", "timeout"):
            if not self.thread:
                raise FaultPlanError(
                    f"{self.action!r} rules must name a target thread"
                )
            if self.monitor is not None:
                raise FaultPlanError(
                    f"{self.action!r} rules target a thread, not a monitor"
                )
        else:  # spurious
            if not self.thread and not self.monitor:
                raise FaultPlanError(
                    "'spurious' rules must name a thread and/or a monitor"
                )
        if trigger in ("at_wait", "after_waiting") and not self.thread:
            raise FaultPlanError(
                f"{trigger} counts a thread's waits; the rule must name one"
            )

    @property
    def trigger(self) -> Tuple[str, int]:
        """The (name, value) of this rule's one set trigger."""
        for t in TRIGGERS:
            value = getattr(self, t)
            if value is not None:
                return (t, value)
        raise AssertionError("validated rule has a trigger")  # pragma: no cover

    def to_dict(self) -> Dict[str, Any]:
        """A plain dict with only the fields that are set."""
        out: Dict[str, Any] = {"action": self.action}
        for f in ("thread", "monitor", *TRIGGERS):
            value = getattr(self, f)
            if value is not None:
                out[f] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise FaultPlanError(
                f"unknown fault-rule key(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        if "action" not in data:
            raise FaultPlanError("fault rule is missing 'action'")
        return cls(**dict(data))


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, named sequence of :class:`FaultRule` entries.

    Rules are consulted in order at every step boundary; each fires at
    most once.  The plan is immutable and serializable, so it can ride in
    a :class:`~repro.run.config.RunConfig`, a scenario file's ``[faults]``
    table, and a campaign fingerprint.
    """

    name: str = "faults"
    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultPlanError("fault plan needs a non-empty name")
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise FaultPlanError(f"not a FaultRule: {rule!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        unknown = sorted(set(data) - {"name", "rules"})
        if unknown:
            raise FaultPlanError(
                f"unknown fault-plan key(s): {', '.join(unknown)} "
                f"(known: name, rules)"
            )
        rules_raw = data.get("rules", [])
        if isinstance(rules_raw, Mapping) or not hasattr(rules_raw, "__iter__"):
            raise FaultPlanError("'rules' must be a list of rule tables")
        rules = []
        for entry in rules_raw:
            if not isinstance(entry, Mapping):
                raise FaultPlanError(f"fault rule must be a table: {entry!r}")
            rules.append(FaultRule.from_dict(entry))
        return cls(name=str(data.get("name", "faults")), rules=tuple(rules))

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace) — also the
        campaign-fingerprint key for the fault-plan axis."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise FaultPlanError("fault plan JSON must be an object")
        return cls.from_dict(data)

    def fingerprint_key(self) -> str:
        """Alias of :meth:`to_json`, named for its fingerprint role."""
        return self.to_json()

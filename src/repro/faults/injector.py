"""The deterministic fault injector: a plan interpreter over kernel state.

A :class:`FaultInjector` wraps one :class:`~repro.faults.plan.FaultPlan`
and plugs into ``Kernel.fault_injector``; the kernel calls
:meth:`on_step` at the top of every scheduling step.  Rule triggers are
evaluated against purely deterministic kernel quantities — the step
counter, per-thread wait ordinals, virtual time — and the injector draws
no randomness of its own, so the same (program, seed, plan) triple always
produces the same faulted trace.

An injector is reusable across runs: call :meth:`reset` before each one
(the executor does this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

# thread.py is import-cycle-free (stdlib only); the kernel import must be
# typing-only because the kernel itself pulls in this package via the
# scheduler -> run-registry chain.
from repro.vm.thread import SimThread, ThreadState

from .plan import FaultPlan, FaultRule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.kernel import Kernel

__all__ = ["FaultInjector"]


class FaultInjector:
    """Fires a :class:`FaultPlan`'s rules against a running kernel."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._fired: List[bool] = [False] * len(plan.rules)

    def reset(self) -> "FaultInjector":
        """Forget which rules have fired (call between runs); returns
        self for chaining."""
        self._fired = [False] * len(self.plan.rules)
        return self

    @property
    def fired(self) -> Tuple[bool, ...]:
        """Per-rule fired flags, in plan order."""
        return tuple(self._fired)

    # Kernel hook -------------------------------------------------------

    def on_step(self, kernel: Kernel) -> None:
        """Consulted by the kernel at every step boundary."""
        for i, rule in enumerate(self.plan.rules):
            if self._fired[i]:
                continue
            if self._triggered(rule, kernel) and self._applicable(rule, kernel):
                self._fired[i] = True
                self._fire(rule, kernel)

    # Trigger evaluation ------------------------------------------------

    def _triggered(self, rule: FaultRule, kernel: Kernel) -> bool:
        trigger, value = rule.trigger
        if trigger == "at_step":
            return kernel.steps >= value
        # Both remaining triggers count properties of the target thread's
        # current wait, so it must actually be waiting.
        thread = kernel.threads.get(rule.thread or "")
        if thread is None or thread.state is not ThreadState.WAITING:
            return False
        if trigger == "at_wait":
            return thread.waits_entered >= value
        # after_waiting
        if thread.waiting_since is None:
            return False
        return kernel.time - thread.waiting_since >= value

    def _applicable(self, rule: FaultRule, kernel: Kernel) -> bool:
        """Whether the action can take effect right now.

        ``at_step`` triggers stay armed past their step until the target
        becomes eligible (a timeout cannot expire a wait that has not
        started yet); the per-wait triggers already imply eligibility.
        """
        if rule.action == "interrupt":
            thread = kernel.threads.get(rule.thread or "")
            return thread is not None and thread.is_live()
        if rule.action == "timeout":
            # A forced timeout can end whatever park the target's primitive
            # lets expire: a monitor wait or a *timed* semaphore acquire (an
            # untimed acquire has no deadline to force, exactly as in j.u.c,
            # and a barrier await here is never timed).
            thread = kernel.threads.get(rule.thread or "")
            if thread is None:
                return False
            primitive = kernel.primitive_of(thread)
            return primitive is not None and primitive.expirable(thread)
        # spurious: the named waiter (or any waiter of the monitor)
        waiter = self._spurious_target(rule, kernel)
        return waiter is not None

    def _spurious_target(
        self, rule: FaultRule, kernel: Kernel
    ) -> Optional[Tuple[str, str]]:
        """Resolve a spurious rule to ``(monitor, waiter)``, or ``None``
        when nothing matching is waiting."""
        if rule.thread:
            thread: Optional[SimThread] = kernel.threads.get(rule.thread)
            if thread is None or thread.state is not ThreadState.WAITING:
                return None
            # Only a monitor wait can wake spuriously (not a barrier).
            monitor_name = thread.waiting_on
            if monitor_name is None or monitor_name not in kernel.monitors:
                return None
            if rule.monitor is not None and rule.monitor != monitor_name:
                return None
            return (monitor_name, rule.thread)
        assert rule.monitor is not None  # validated by FaultRule
        monitor = kernel.monitors.get(rule.monitor)
        if monitor is None or not monitor.wait_set:
            return None
        # wait_set is FIFO-ordered: index 0 is the longest-waiting thread,
        # a deterministic choice that needs no randomness.
        return (rule.monitor, monitor.wait_set[0])

    # Actions -----------------------------------------------------------

    def _fire(self, rule: FaultRule, kernel: Kernel) -> None:
        if rule.action == "interrupt":
            assert rule.thread is not None
            kernel.interrupt(rule.thread, by="<fault>")
            return
        if rule.action == "timeout":
            assert rule.thread is not None
            kernel.expire_wait(rule.thread, by="<fault>")
            return
        target = self._spurious_target(rule, kernel)
        assert target is not None  # checked by _applicable
        monitor_name, waiter = target
        kernel.spurious_wake(monitor_name, waiter)

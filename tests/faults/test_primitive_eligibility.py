"""Which parked threads each fault action can reach, per primitive.

A ``timeout`` rule reaches only a park its primitive calls expirable (a
monitor wait or a timed semaphore acquire); a ``spurious`` rule reaches
only a monitor waiter.  A rule aimed at any other park — a barrier
party, an untimed semaphore acquirer — stays armed and never fires, and
the run goes on undisturbed.
"""

import pytest

from repro.components import NativeBarrier
from repro.engine import CampaignSpec, run_campaign
from repro.engine.workloads import barrier_template
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.vm import (
    BarrierAwait,
    EventKind,
    FifoScheduler,
    Kernel,
    RandomScheduler,
    RunStatus,
    SemAcquire,
    SemRelease,
    ThreadState,
    Yield,
)
from repro.vm.errors import UnknownSyscallError

BARRIER_PLAN = FaultPlan(
    name="barrier-faults",
    rules=(
        FaultRule(action="timeout", thread="t0", at_wait=1),
        FaultRule(action="spurious", thread="t1", at_wait=1),
    ),
)


def _barrier_kernel(plan, scheduler=None):
    kernel = barrier_template(NativeBarrier)(scheduler or FifoScheduler())
    injector = kernel.fault_injector = FaultInjector(plan)
    return kernel, injector


class TestBarrierWaiters:
    @pytest.mark.parametrize("action", ["timeout", "spurious"])
    def test_rule_at_barrier_waiter_stays_armed(self, action):
        plan = FaultPlan(
            name=action, rules=(FaultRule(action=action, thread="t0", at_wait=1),)
        )
        kernel, injector = _barrier_kernel(plan)
        result = kernel.run()
        assert result.status is RunStatus.COMPLETED and not result.crashed
        assert injector.fired == (False,)
        assert sorted(result.thread_results.values()) == [0, 1, 2]

    @pytest.mark.parametrize("seed", range(5))
    def test_timeout_and_spurious_plan_completes(self, seed):
        kernel, injector = _barrier_kernel(BARRIER_PLAN, RandomScheduler(seed))
        result = kernel.run()
        assert result.status is RunStatus.COMPLETED and not result.crashed
        assert injector.fired == (False, False)
        kinds = {e.kind for e in result.trace}
        assert EventKind.WAIT_TIMEOUT not in kinds
        assert EventKind.SPURIOUS_WAKEUP not in kinds

    def _parked_party(self):
        kernel = Kernel(scheduler=FifoScheduler())
        kernel.new_barrier("b", parties=2)

        def party():
            yield BarrierAwait("b")

        kernel.spawn(party, name="t0")
        kernel.step()
        assert kernel.threads["t0"].state is ThreadState.WAITING
        return kernel

    def test_expire_wait_rejects_barrier_waiter(self):
        kernel = self._parked_party()
        with pytest.raises(UnknownSyscallError):
            kernel.expire_wait("t0")
        assert kernel.threads["t0"].state is ThreadState.WAITING

    def test_spurious_wake_rejects_barrier_waiter(self):
        kernel = self._parked_party()
        with pytest.raises(UnknownSyscallError):
            kernel.spurious_wake("b", "t0")
        assert kernel.threads["t0"].state is ThreadState.WAITING

    def test_faulted_campaign_runs_clean_and_resumes(self, tmp_path):
        def spec(journal):
            return CampaignSpec(
                factory="barrier-meet",
                component="NativeBarrier",
                budget=20,
                workers=0,
                shard_size=10,
                detect=True,
                faults=BARRIER_PLAN,
                journal_path=str(journal),
            )

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        first = run_campaign(spec(a))
        run_campaign(spec(b))
        assert a.read_bytes() == b.read_bytes()
        assert dict(first.statuses()) == {"completed": first.n_executed}
        resumed = run_campaign(spec(a), resume=True)
        assert a.read_bytes() == b.read_bytes()
        assert resumed.shards_resumed == first.shards_total


class TestSemaphoreAcquirers:
    def _kernel(self, timeout):
        kernel = Kernel(scheduler=FifoScheduler(), max_steps=200)
        kernel.new_semaphore("s", permits=1)
        kernel.new_semaphore("gate", permits=0)

        def holder():
            yield SemAcquire("s")
            yield SemAcquire("gate")
            yield SemRelease("s")

        def opener():
            for _ in range(3):
                yield Yield()
            yield SemRelease("gate")

        def acquirer():
            got = yield SemAcquire("s", timeout=timeout)
            if got:
                yield SemRelease("s")
            return got

        kernel.spawn(holder, name="h")
        kernel.spawn(acquirer, name="a")
        kernel.spawn(opener, name="o")
        plan = FaultPlan(
            name="t", rules=(FaultRule(action="timeout", thread="a", at_step=2),)
        )
        injector = kernel.fault_injector = FaultInjector(plan)
        return kernel, injector

    def test_timeout_rule_expires_timed_acquire(self):
        kernel, injector = self._kernel(timeout=100)
        result = kernel.run()
        assert injector.fired == (True,)
        assert result.thread_results["a"] is False
        (expiry,) = [e for e in result.trace if e.kind is EventKind.WAIT_TIMEOUT]
        assert expiry.detail["by"] == "<fault>"

    def test_timeout_rule_skips_untimed_acquire(self):
        kernel, injector = self._kernel(timeout=None)
        result = kernel.run()
        assert injector.fired == (False,)
        assert result.thread_results["a"] is True

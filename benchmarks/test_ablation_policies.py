"""Bench Ext-E: ablations of the design choices DESIGN.md calls out.

1. **Notify-selection policy** (Section 3.2's "arbitrarily select"):
   fraction of random schedules on which the notify-instead-of-notifyAll
   mutant strands a waiter, per policy.  Unfair policies (LIFO /
   adversarial) starve more often — FF-T5's fairness condition made
   quantitative.
2. **Lock-grant policy** (Section 5.2.1's "JVM is not required to be
   fair"): bypass counts of the most-starved thread under contention, per
   policy; the ticket-based FairLock removes the starvation even under
   the worst policy.
3. **Spurious wakeups / lost notifies** (environment fault injection):
   the correct while-guard monitor is robust to spurious wakeups and only
   fails when signals are *dropped*; the if-guard mutant fails already
   under spurious wakeups.
"""

import pytest
from conftest import write_result

from repro.components import FairLock, ProducerConsumer
from repro.components.faulty import IfGuardProducerConsumer, SingleNotifyProducerConsumer
from repro.detect import analyze_starvation
from repro.report import render_table
from repro.vm import (
    Acquire,
    Kernel,
    RandomScheduler,
    Release,
    RunStatus,
    SelectionPolicy,
    Yield,
)

N_SEEDS = 60


def stuck_fraction(cls, notify_policy, seeds=range(N_SEEDS)):
    stuck = 0
    for seed in seeds:
        kernel = Kernel(
            scheduler=RandomScheduler(seed=seed),
            notify_policy=notify_policy,
            seed=seed,
        )
        pc = kernel.register(cls())

        def consumer():
            yield from pc.receive()

        def producer(payload):
            yield from pc.send(payload)

        for i in range(3):
            kernel.spawn(consumer, name=f"c{i}")
        kernel.spawn(producer, "ab", name="p1")
        kernel.spawn(producer, "c", name="p2")
        if kernel.run().status is not RunStatus.COMPLETED:
            stuck += 1
    return stuck / N_SEEDS


def test_notify_policy_ablation(benchmark, results_dir):
    def study():
        rows = []
        for policy in (
            SelectionPolicy.FIFO,
            SelectionPolicy.LIFO,
            SelectionPolicy.RANDOM,
            SelectionPolicy.ADVERSARIAL_LAST,
        ):
            correct = stuck_fraction(ProducerConsumer, policy)
            mutant = stuck_fraction(SingleNotifyProducerConsumer, policy)
            rows.append((policy.value, f"{correct:.0%}", f"{mutant:.0%}"))
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    rendered = render_table(
        ("notify policy", "notifyAll monitor stuck", "notify() mutant stuck"),
        rows,
        widths=(18, 14, 14),
        title=f"Ext-E(1): stuck fraction over {N_SEEDS} random schedules",
    )
    write_result(results_dir, "extE_notify_policy.txt", rendered)
    print()
    print(rendered)

    by_policy = {r[0]: r for r in rows}
    # the correct monitor never sticks, under any policy
    assert all(r[1] == "0%" for r in rows)
    # the mutant sticks under every policy for this workload
    assert all(r[2] != "0%" for r in rows)


def _plain_monitor_overtakes(lock_policy):
    """Total lock overtakes (earlier arrival bypassed by a later one) on
    a contended plain monitor, per grant policy."""
    kernel = Kernel(
        scheduler=RandomScheduler(seed=7),
        lock_policy=lock_policy,
        notify_policy=lock_policy,
        seed=7,
        max_steps=200_000,
    )
    kernel.new_monitor("m")

    def worker():
        for _ in range(6):
            yield Acquire("m")
            yield Yield()
            yield Release("m")

    for i in range(4):
        kernel.spawn(worker, name=f"w{i}")
    result = kernel.run()
    assert result.ok, result.thread_states
    reports = analyze_starvation(
        result.trace, bypass_threshold=0, include_resolved=True
    )
    return sum(r.bypasses for r in reports if r.kind == "lock")


def _fairlock_resource_overtakes(lock_policy):
    """Overtakes at the *resource* level of the ticket lock: tickets must
    be served strictly in issue order, whatever the monitor policy does."""
    kernel = Kernel(
        scheduler=RandomScheduler(seed=7),
        lock_policy=lock_policy,
        notify_policy=lock_policy,
        seed=7,
        max_steps=200_000,
    )
    lock = kernel.register(FairLock())
    served = []

    def worker():
        for _ in range(6):
            ticket = yield from lock.lock()
            served.append(ticket)
            yield Yield()
            yield from lock.unlock()

    for i in range(4):
        kernel.spawn(worker, name=f"w{i}")
    result = kernel.run()
    assert result.ok, result.thread_states
    return sum(1 for a, b in zip(served, served[1:]) if b < a)


def test_lock_policy_ablation(benchmark, results_dir):
    def study():
        rows = []
        for policy in (
            SelectionPolicy.FIFO,
            SelectionPolicy.LIFO,
            SelectionPolicy.ADVERSARIAL_LAST,
        ):
            plain = _plain_monitor_overtakes(policy)
            fair = _fairlock_resource_overtakes(policy)
            rows.append((policy.value, str(plain), str(fair)))
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    rendered = render_table(
        (
            "lock policy",
            "plain monitor: lock overtakes",
            "FairLock: resource overtakes",
        ),
        rows,
        widths=(18, 16, 16),
        title="Ext-E(2): queue overtakes under contention (24 acquisitions)",
    )
    write_result(results_dir, "extE_lock_policy.txt", rendered)
    print()
    print(rendered)

    by_policy = {r[0]: (int(r[1]), int(r[2])) for r in rows}
    # FIFO never overtakes by construction; unfair policies do
    assert by_policy["fifo"][0] == 0
    assert by_policy["lifo"][0] > 0
    assert by_policy["adversarial_last"][0] > 0
    # the ticket lock serves strictly in order under EVERY policy
    assert all(fair == 0 for _, fair in by_policy.values())


def _run_pc(cls, seed, **kernel_kwargs):
    kernel = Kernel(
        scheduler=RandomScheduler(seed=seed),
        max_steps=50_000,
        seed=seed,
        **kernel_kwargs,
    )
    pc = kernel.register(cls())

    def producer():
        yield from pc.send("ab")
        yield from pc.send("c")

    def consumer():
        out = []
        for _ in range(3):
            out.append((yield from pc.receive()))
        return "".join(out)

    kernel.spawn(producer, name="p")
    kernel.spawn(consumer, name="c")
    return kernel.run()


def test_environment_fault_ablation(benchmark, results_dir):
    def study():
        rows = []
        for label, cls, kwargs, check in (
            ("baseline", ProducerConsumer, {}, "abc"),
            (
                "spurious wakeups (30%)",
                ProducerConsumer,
                {"spurious_wakeup_rate": 0.3},
                "abc",
            ),
            (
                "lost notifies (30%)",
                ProducerConsumer,
                {"lost_notify_rate": 0.3},
                None,
            ),
            (
                "if-guard + spurious (30%)",
                IfGuardProducerConsumer,
                {"spurious_wakeup_rate": 0.3},
                None,
            ),
        ):
            ok = bad = 0
            for seed in range(N_SEEDS):
                result = _run_pc(cls, seed, **kwargs)
                output = result.thread_results.get("c")
                if result.status is RunStatus.COMPLETED and (
                    check is None or output == check
                ):
                    if check is None and output != "abc":
                        bad += 1
                    else:
                        ok += 1
                else:
                    bad += 1
            rows.append((label, f"{ok}/{N_SEEDS}", f"{bad}/{N_SEEDS}"))
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    rendered = render_table(
        ("environment", "correct outcomes", "failures"),
        rows,
        widths=(26, 14, 10),
        title=f"Ext-E(3): robustness under environment faults ({N_SEEDS} seeds)",
    )
    write_result(results_dir, "extE_environment_faults.txt", rendered)
    print()
    print(rendered)

    by_label = dict((r[0], r) for r in rows)
    # while-guards shrug off spurious wakeups completely...
    assert by_label["spurious wakeups (30%)"][2] == f"0/{N_SEEDS}"
    # ...but no guard survives dropped signals
    assert by_label["lost notifies (30%)"][2] != f"0/{N_SEEDS}"
    # and the if-guard mutant fails already under spurious wakeups
    assert by_label["if-guard + spurious (30%)"][2] != f"0/{N_SEEDS}"

"""Property-style sweep of the mutation engine: every site of every
operator on every library component below must produce a well-formed
mutant (builds, has a CoFG for the mutated method, survives a nominal
single-thread call without kernel errors)."""

import pytest

from repro.analysis import build_all_cofgs
from repro.components import (
    BoundedBuffer,
    CountDownLatch,
    ProducerConsumer,
    Semaphore,
    TaskQueue,
)
from repro.corpus import OPERATORS, mutant, mutation_sites
from repro.corpus.operators import PROBE_METHOD
from repro.vm import FifoScheduler, Kernel, RunStatus, VMError

#: component -> (constructor args, nominal args per method)
COMPONENTS = {
    ProducerConsumer: ((), {"receive": (), "send": ("x",)}),
    BoundedBuffer: ((2,), {"put": (1,), "get": (), "size": ()}),
    Semaphore: (
        (1,),
        {"acquire": (), "release": (), "try_acquire": (), "available": ()},
    ),
    CountDownLatch: ((1,), {"count_down": (), "await_zero": (), "get_count": ()}),
    TaskQueue: ((), {"put": ("job",), "take": (), "shutdown": (), "pending": ()}),
}


def mutated_method(site):
    return PROBE_METHOD if OPERATORS[site.operator].class_level else site.method


def all_mutation_targets():
    for cls in COMPONENTS:
        for site in mutation_sites(cls):
            yield pytest.param(cls, site, id=f"{cls.__name__}:{site.label}")


TARGETS = list(all_mutation_targets())


def test_sweep_reaches_every_applicable_operator():
    swept = {site.operator for _, site in (p.values for p in TARGETS)}
    # lock_shuffle, drop_release and sem_release_drop need explicit
    # locks or native semaphores, which none of these monitors use
    assert swept == set(OPERATORS) - {
        "lock_shuffle",
        "drop_release",
        "sem_release_drop",
    }


@pytest.mark.parametrize("cls,site", TARGETS)
class TestMutationSweep:
    def test_mutant_builds_and_analyzes(self, cls, site):
        mutant_cls = mutant(cls, site.label)
        method = mutated_method(site)
        cofgs = build_all_cofgs(mutant_cls)
        assert method in cofgs
        # the mutated method still has a well-formed graph
        assert cofgs[method].arcs

    def test_mutant_runs_without_kernel_errors(self, cls, site):
        """A nominal single-thread, non-blocking call either completes,
        legitimately blocks/waits, or hits the step budget — it must not
        crash the kernel itself."""
        ctor_args, nominal_args = COMPONENTS[cls]
        method = mutated_method(site)
        args = () if method == PROBE_METHOD else nominal_args[method]
        kernel = Kernel(scheduler=FifoScheduler(), max_steps=2_000)
        instance = kernel.register(mutant(cls, site.label)(*ctor_args))

        def body():
            yield from getattr(instance, method)(*args)

        kernel.spawn(body, name="t")
        result = kernel.run()
        assert result.status in (
            RunStatus.COMPLETED,
            RunStatus.STUCK,
            RunStatus.STEP_LIMIT,
        )
        # A mutant may legitimately crash at the *component* level (e.g.
        # drop_wait makes receive index an empty buffer — exactly FF-T3's
        # "erroneously execute in a critical section"), but it must never
        # corrupt the VM's own protocol.
        for exc in result.crashed.values():
            assert not isinstance(exc, VMError), (
                f"mutant broke the VM protocol: {exc!r}"
            )

"""Byte-identity pin for the wait-queue refactor.

The wait-queue core generalizes the kernel's monitor bookkeeping to
serve semaphores, rw-locks, and barriers.  The refactor's contract is
that it is *invisible* where it adds nothing: monitor-only workloads
must produce byte-identical traces (including the schedule log) and
identical detection summaries before and after.

The digests below were captured against the pre-refactor seed kernel
(PR 9 head, commit e48802b) by running exactly this harness.  If this
test fails, the refactor changed observable monitor behaviour — that is
a regression, not an expected update; do not re-pin without
understanding why the bytes moved.
"""

import hashlib
import random

from repro.components import NativeBarrier, NativeReadWriteLock, NativeSemaphore
from repro.detect.online import DetectorPipeline, default_detectors
from repro.engine.workloads import WORKLOADS, resolve_factory
from repro.faults import FaultInjector
from repro.faults.templates import (
    EXPIRE_FIRST_WAIT,
    INTERRUPT_CONSUMER,
    SPURIOUS_FIRST_WAIT,
)
from repro.vm import (
    Acquire,
    BarrierAwait,
    Interrupt,
    Kernel,
    Release,
    RwAcquire,
    RwRelease,
    SelectionPolicy,
    SemAcquire,
    SemRelease,
    Wait,
    Yield,
)
from repro.vm.errors import BrokenBarrierError
from repro.vm.scheduler import FifoScheduler, RandomScheduler
from repro.vm.serialize import dumps_trace

#: (workload, scheduler spec) -> sha256 of dumps_trace + summary repr
PINNED = {
    ("pc-ok", "fifo"):
        "883181719bd5e8b0a0a2a064aa36c06aa8395cfa58dd7587976a669884842e71",
    ("pc-ok", "random:0"):
        "29abfd143bf29f1eca58ef639879a5c8adaf4a2e566cebaa44974e771aaef443",
    ("pc-ok", "random:1"):
        "c46b86e1f1cac4f27a50a068f455087cf3d019f7330e397f133a58bd0b368d6c",
    ("pc-bug", "fifo"):
        "226aa969ef3cc9196508da09138c3528793ba1c54c26b2fefdc8ed81271cfaea",
    ("pc-bug", "random:0"):
        "105948f8516c2d357f9b2259c83fb4aedee01948535c28545268de1643f774c7",
    ("pc-bug", "random:7"):
        "e63fc5d3d776088c6a55fd76d8310b715849111b67907534cec1a4609c6c9c8a",
    ("pc-no-notify", "fifo"):
        "b2ccf8c3d698366c2031e472da27fcc00ea282e55c7ad0361964b92b426117b2",
    ("deadlock-pair", "fifo"):
        "ecb6c9a577cc682a7af7a28006a5b1043cd256bfb5581cfbd65b1dd7f42eedcd",
    ("deadlock-pair", "random:3"):
        "37caab0e67decc1dca3bd7f1a5a7b401597df666cac6cebd8d0328ff42196ed2",
    ("racing-locks", "fifo"):
        "4777b9a35f7ee2b6aa603337dcfb9b259dcb1c1fc77ae84bc4d92e498d11bb53",
    ("racing-locks", "random:2"):
        "31f03de03c6945abb646137b54020845e867292beb516c1dba87fc646233ca85",
}


def _scheduler(spec: str):
    if spec in ("fifo", "lifo"):
        return FifoScheduler()
    kind, _, seed = spec.partition(":")
    assert kind in ("random", "rng", "noisy")
    return RandomScheduler(int(seed))


def _configure(kernel: Kernel, spec: str) -> None:
    """Apply a spec's kernel policies on top of its scheduler.

    * ``lifo`` — LIFO lock grants (the unfair-JVM adversary);
    * ``rng:N`` — RANDOM lock and notify selection from a kernel RNG
      seeded with N, pinning the order of every selection draw;
    * ``noisy:N`` — rate-based spurious wakeups and lost notifies from a
      kernel RNG seeded with N.
    """
    kind, _, seed = spec.partition(":")
    if kind == "lifo":
        kernel.lock_policy = SelectionPolicy.LIFO
    elif kind == "rng":
        kernel.rng = random.Random(int(seed))
        kernel.lock_policy = SelectionPolicy.RANDOM
        kernel.notify_policy = SelectionPolicy.RANDOM
    elif kind == "noisy":
        kernel.rng = random.Random(int(seed))
        kernel.spurious_wakeup_rate = 0.2
        kernel.lost_notify_rate = 0.2


def digest(workload: str, spec: str, outcome: bool = False) -> str:
    """sha256 over the serialized trace (with schedule log) and the
    detection-summary repr — any drift in event content, ordering, RNG
    draws, or detector verdicts changes this digest.  ``outcome`` also
    folds in the kernel's own verdict (status, quiescence wait-for
    cycle, final thread states)."""
    kernel = _program(workload)(_scheduler(spec))
    _configure(kernel, spec)
    pipeline = DetectorPipeline(default_detectors())
    pipeline.attach(kernel)
    result = kernel.run()
    blob = dumps_trace(result.trace, schedule=result.schedule_log)
    blob += "\n" + repr(pipeline.summary(result))
    if outcome:
        blob += "\n" + repr(
            (result.status.value, result.deadlock_cycle, result.thread_states)
        )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_monitor_only_workloads_byte_identical():
    mismatches = {
        key: digest(*key)
        for key, pinned in PINNED.items()
        if digest(*key) != pinned
    }
    assert not mismatches, f"digests moved: {mismatches}"


# -- primitive and fault paths ---------------------------------------------
#
# The second table pins every first-class primitive (semaphore, rw-lock,
# barrier), every environment-fault path (interrupt, forced and natural
# timeout, spurious wakeup — plan-driven and rate-driven), and the
# kernel's quiescence verdict, so a rewrite of the kernel's primitive
# code is checked byte for byte.  Captured against commit 12299e9, before
# that rewrite.


def _timed_sem_expiry(scheduler) -> Kernel:
    """A timed 2-permit request heads the queue and expires, which lets
    the 1-permit request queued behind it through."""
    kernel = Kernel(scheduler=scheduler, max_steps=500)
    kernel.new_semaphore("s", permits=1)

    def holder():
        yield SemAcquire("s")
        for _ in range(6):
            yield Yield()
        yield SemRelease("s")

    def greedy():
        got = yield SemAcquire("s", n=2, timeout=3)
        return "got" if got else "expired"

    def small():
        got = yield SemAcquire("s")
        yield SemRelease("s")
        return got

    kernel.spawn(holder, name="h")
    kernel.spawn(greedy, name="g")
    kernel.spawn(small, name="s1")
    return kernel


def _sem_interrupt(scheduler) -> Kernel:
    """A blocked 2-permit request heads the queue; interrupting it lets
    the 1-permit request queued behind it through.  The holder parks on
    a closed ``gate`` so the interrupt lands under every scheduler."""
    kernel = Kernel(scheduler=scheduler, max_steps=500)
    kernel.new_semaphore("s", permits=2)
    kernel.new_semaphore("gate", permits=0)

    def holder():
        yield SemAcquire("s")
        yield SemAcquire("gate")
        yield SemRelease("s")

    def acquirer():
        try:
            yield SemAcquire("s", n=2)
        except InterruptedError:
            return "interrupted"
        yield SemRelease("s", n=2)
        return "acquired"

    def small():
        yield SemAcquire("s")
        yield SemRelease("s")

    def interrupter():
        yield Interrupt("a")
        yield SemRelease("gate")

    kernel.spawn(holder, name="h")
    kernel.spawn(acquirer, name="a")
    kernel.spawn(small, name="l")
    kernel.spawn(interrupter, name="i")
    return kernel


def _rw_read_interrupt(scheduler) -> Kernel:
    """A reader blocked behind the writer is interrupted."""
    kernel = Kernel(scheduler=scheduler, max_steps=500)
    kernel.new_rwlock("rw")
    kernel.new_semaphore("gate", permits=0)

    def writer():
        yield RwAcquire("rw", "write")
        yield SemAcquire("gate")
        yield RwRelease("rw")

    def reader():
        try:
            yield RwAcquire("rw", "read")
        except InterruptedError:
            return "interrupted"
        yield RwRelease("rw")
        return "read"

    def interrupter():
        yield Interrupt("r0")
        yield SemRelease("gate")

    kernel.spawn(writer, name="w")
    kernel.spawn(reader, name="r0")
    kernel.spawn(reader, name="r1")
    kernel.spawn(interrupter, name="i")
    return kernel


def _rw_write_interrupt(scheduler) -> Kernel:
    """Under writer preference a queued writer holds back a new reader;
    interrupting the writer re-admits that reader."""
    kernel = Kernel(scheduler=scheduler, max_steps=500)
    kernel.new_rwlock("rw", preference="writer")
    kernel.new_semaphore("gate", permits=0)

    def first_reader():
        yield RwAcquire("rw", "read")
        yield SemAcquire("gate")
        yield RwRelease("rw")

    def writer():
        try:
            yield RwAcquire("rw", "write")
        except InterruptedError:
            return "interrupted"
        yield RwRelease("rw")
        return "wrote"

    def second_reader():
        yield RwAcquire("rw", "read")
        yield RwRelease("rw")

    def interrupter():
        yield Interrupt("w")
        yield SemRelease("gate")

    kernel.spawn(first_reader, name="r0")
    kernel.spawn(writer, name="w")
    kernel.spawn(second_reader, name="r1")
    kernel.spawn(interrupter, name="i")
    return kernel


def _barrier_broken(scheduler) -> Kernel:
    """A parked party is interrupted: the barrier breaks for the other
    parked party and for the late arrival."""
    kernel = Kernel(scheduler=scheduler, max_steps=500)
    kernel.new_barrier("b", parties=3)

    def party():
        try:
            index = yield BarrierAwait("b")
        except InterruptedError:
            return "interrupted"
        except BrokenBarrierError:
            return "broken"
        return index

    def interrupter():
        yield Interrupt("t0")

    kernel.spawn(party, name="t0")
    kernel.spawn(party, name="t1")
    kernel.spawn(interrupter, name="i")
    kernel.spawn(party, name="t2")
    return kernel


def _rw_upgrade(scheduler) -> Kernel:
    """The unsupported read->write upgrade: a self-edge deadlock."""
    kernel = Kernel(scheduler=scheduler, max_steps=500)
    kernel.new_rwlock("rw")

    def upgrader():
        yield RwAcquire("rw", "read")
        yield RwAcquire("rw", "write")
        yield RwRelease("rw")
        yield RwRelease("rw")

    def reader():
        yield RwAcquire("rw", "read")
        yield RwRelease("rw")

    kernel.spawn(upgrader, name="u")
    kernel.spawn(reader, name="r")
    return kernel


def _monitor_faults(scheduler) -> Kernel:
    """Monitor timed-wait expiry onto an owned lock, an interrupted
    blocked acquirer, and an interrupt delivered during reacquisition."""
    kernel = Kernel(scheduler=scheduler, max_steps=500)
    kernel.new_monitor("m")
    kernel.new_semaphore("gate", permits=0)

    def timed():
        yield Acquire("m")
        try:
            yield Wait("m", timeout=2)
        except InterruptedError:
            return "interrupted"
        yield Release("m")
        return "timed"

    def owner():
        yield Acquire("m")
        yield SemAcquire("gate")
        yield Release("m")

    def blocked():
        try:
            yield Acquire("m")
        except InterruptedError:
            return "interrupted"
        yield Release("m")
        return "acquired"

    def interrupter():
        yield Interrupt("b")
        yield Yield()
        yield Yield()
        yield Interrupt("t")
        yield SemRelease("gate")

    kernel.spawn(timed, name="t")
    kernel.spawn(owner, name="o")
    kernel.spawn(blocked, name="b")
    kernel.spawn(interrupter, name="i")
    return kernel


def _faulted(workload: str, plan):
    def factory(scheduler) -> Kernel:
        kernel = WORKLOADS[workload](scheduler)
        kernel.fault_injector = FaultInjector(plan)
        return kernel

    return factory


PROGRAMS = {
    "sem/NativeSemaphore": resolve_factory("sem")(NativeSemaphore),
    "rw/NativeReadWriteLock": resolve_factory("rw")(NativeReadWriteLock),
    "barrier-meet/NativeBarrier": resolve_factory("barrier-meet")(NativeBarrier),
    "pc-bug+interrupt-consumer": _faulted("pc-bug", INTERRUPT_CONSUMER),
    "pc-bug+expire-first-wait": _faulted("pc-bug", EXPIRE_FIRST_WAIT),
    "pc-bug+spurious-first-wait": _faulted("pc-bug", SPURIOUS_FIRST_WAIT),
    "timed-sem-expiry": _timed_sem_expiry,
    "sem-interrupt": _sem_interrupt,
    "rw-read-interrupt": _rw_read_interrupt,
    "rw-write-interrupt": _rw_write_interrupt,
    "barrier-broken": _barrier_broken,
    "rw-upgrade": _rw_upgrade,
    "monitor-faults": _monitor_faults,
}


def _program(workload: str):
    return WORKLOADS[workload] if workload in WORKLOADS else PROGRAMS[workload]


PRIMITIVE_SPECS = ("fifo", "random:0", "random:1", "lifo", "rng:5")

#: (workload, spec) -> sha256 of digest(..., outcome=True)
PINNED_PRIMITIVES = {
    ('sem/NativeSemaphore', 'fifo'):
        '1a668f05c1d8908c76729044f361c2321530ab709007a4ce415b342d5e6ae34d',
    ('sem/NativeSemaphore', 'random:0'):
        '5a824ad8f0e7dcdc3d53e39886983dc47ae81628aa666d9b09ac1b440df6c5e7',
    ('sem/NativeSemaphore', 'random:1'):
        'd91e112de2748991f164f5fcd6184d33686380113f5ed27011599071853aafa8',
    ('sem/NativeSemaphore', 'lifo'):
        '1a668f05c1d8908c76729044f361c2321530ab709007a4ce415b342d5e6ae34d',
    ('sem/NativeSemaphore', 'rng:5'):
        '53aa808fcabb654be2f63f2d431347403a58eb1f30a29f0b0135e2050ce8dbe6',
    ('rw/NativeReadWriteLock', 'fifo'):
        '1d36d42ba432f61323d554e7e723e74497c6753da5a3fe74dc74971180ebc384',
    ('rw/NativeReadWriteLock', 'random:0'):
        '787612778edaedf85ee41c57135ea5de269a297b17e13484c4d9643a44781933',
    ('rw/NativeReadWriteLock', 'random:1'):
        '918763a23bcc8beac41d630433e8ba731acbc1f3380a5a1d9d4734e5a5488621',
    ('rw/NativeReadWriteLock', 'lifo'):
        '1d36d42ba432f61323d554e7e723e74497c6753da5a3fe74dc74971180ebc384',
    ('rw/NativeReadWriteLock', 'rng:5'):
        'd7968aa18b1c591b877ab2faf35b52a82ddc4cc2624db7c9d4128dc9788f6c67',
    ('barrier-meet/NativeBarrier', 'fifo'):
        '3e920cc25b53a114a1c34dbb730a45958ed32535779f1fef7928c8787a10f12d',
    ('barrier-meet/NativeBarrier', 'random:0'):
        '7391cd9b953621a57f7336666e6a7223f986c8cf7e46e404ed7d396857a4f19b',
    ('barrier-meet/NativeBarrier', 'random:1'):
        'e15ff09f98f2fbf150919d7c00e549b741ae8d2fbb98a2825f9de45f7057f250',
    ('barrier-meet/NativeBarrier', 'lifo'):
        '3e920cc25b53a114a1c34dbb730a45958ed32535779f1fef7928c8787a10f12d',
    ('barrier-meet/NativeBarrier', 'rng:5'):
        'd151e7d07d217877a168d7be9b3360f0142c8f38b88dee39630f013a27374b08',
    ('pc-bug+interrupt-consumer', 'fifo'):
        '56a02c53e1130e3a2b04469e6bbf3379f2c43dc3e0cc989fbb930e6142179711',
    ('pc-bug+interrupt-consumer', 'random:0'):
        'fe6ba4e1868d498b7c21ffff359b8d1df404a4d28ae0fb693b7027f88dd3d98c',
    ('pc-bug+interrupt-consumer', 'random:1'):
        '43a0d838d9f399c9ff528c5b8402a6e332771207a9480195f1fdb2b0d44c29ba',
    ('pc-bug+interrupt-consumer', 'lifo'):
        '56a02c53e1130e3a2b04469e6bbf3379f2c43dc3e0cc989fbb930e6142179711',
    ('pc-bug+interrupt-consumer', 'rng:5'):
        '5a5c44d57ddd22b65447d2527bfd899d062f5042e922326eddf2fde0868e7230',
    ('pc-bug+expire-first-wait', 'fifo'):
        '139e287e2101c8c96c92c72cb5a7d55b97c003b7e62fa17926bf1d275ac1abb8',
    ('pc-bug+expire-first-wait', 'random:0'):
        '91ea228ee9d452503d9baee4b3b8b52000005b3bae9de0a897c5a3a6f50982ab',
    ('pc-bug+expire-first-wait', 'random:1'):
        '7867fe2bcd0227ba1dfcc02731b0caf5db9285fb87476904c48c0f5f97f0ca31',
    ('pc-bug+expire-first-wait', 'lifo'):
        '139e287e2101c8c96c92c72cb5a7d55b97c003b7e62fa17926bf1d275ac1abb8',
    ('pc-bug+expire-first-wait', 'rng:5'):
        '0940b1e6a5b70b9efd9572dbfca38a2267665e9352fcce08ad6838f53b444e94',
    ('pc-bug+spurious-first-wait', 'fifo'):
        '5b21ea42a98101ae62bc9bf74a914de4f7072e035d8e5928e17df11883c654d1',
    ('pc-bug+spurious-first-wait', 'random:0'):
        'a09ab30ce05576f888d9afcee20c62d20fee92670528697239213d1af7be1410',
    ('pc-bug+spurious-first-wait', 'random:1'):
        'd51e1fcea99301b3e8fa6888d559586ad0812ba04efb1d3665a654b4f187d285',
    ('pc-bug+spurious-first-wait', 'lifo'):
        '5b21ea42a98101ae62bc9bf74a914de4f7072e035d8e5928e17df11883c654d1',
    ('pc-bug+spurious-first-wait', 'rng:5'):
        'efad198cb733cf6c0b0df4a25bdaab6fadec982d4b420f13c70a12dfd2565685',
    ('timed-sem-expiry', 'fifo'):
        'a4ca2c396bb7ee2e5253151501d1ce154efd36b8d460f474b66e73f02fafb829',
    ('timed-sem-expiry', 'random:0'):
        '11e366651a6a8663860b20e8adfe54ec0e75145074312fa293dddec2cc9b5069',
    ('timed-sem-expiry', 'random:1'):
        'e1cedb447ec3c75c2e4afd8ae6128f57be3fa8392f6b793cc4efa67676f71087',
    ('timed-sem-expiry', 'lifo'):
        '4dadd3647cc1e9f34e4daf67ebc2c931254051ba179b32c8232f81b98a6e7a4f',
    ('timed-sem-expiry', 'rng:5'):
        'efd75ebc33c288ada72545c6aa08abfcc8dd659e941c401a4070955d736af463',
    ('sem-interrupt', 'fifo'):
        '4da34745420bd5759693053304712ae93acf45677c8060b65c0fc6a7fa427428',
    ('sem-interrupt', 'random:0'):
        '22592c3471c515e7ff2c1be26ee07715a9d99c3226cdf0627fcfc2cbb4745223',
    ('sem-interrupt', 'random:1'):
        '3764b50b7df1787428d51911bebd1237c047043bbd9b9683b1d85da279310425',
    ('sem-interrupt', 'lifo'):
        'ce8b0b522e8d4bc292e6ae2c6f176dc34f247092dfcb698167e1d8084a726364',
    ('sem-interrupt', 'rng:5'):
        'b4809929959136c4af697e0b320d2f75811a06564fd84accdb9f566f589f3753',
    ('rw-read-interrupt', 'fifo'):
        '00cdc972e3c99037589232207d8bbab7bbc03e12266ac653632c8b17cb1efe59',
    ('rw-read-interrupt', 'random:0'):
        '732591efc0a5c472c5da0b6d965e73187e4bab81e7d180be5b59fe6fc2d1e37d',
    ('rw-read-interrupt', 'random:1'):
        '94dd05794c9e6d4fa1c58423e2cacb3269172f7892a2c39dc9668b9d8ae71420',
    ('rw-read-interrupt', 'lifo'):
        '00cdc972e3c99037589232207d8bbab7bbc03e12266ac653632c8b17cb1efe59',
    ('rw-read-interrupt', 'rng:5'):
        '7e6d5951ac1fbb48440bc7bdc6ce0eaebf559b39dcbbc6c0864927756924c48f',
    ('rw-write-interrupt', 'fifo'):
        '8f8fd29fbc92c8213929dc57eeeae28d73630bca626fe65c73e254e3c50c93f0',
    ('rw-write-interrupt', 'random:0'):
        '5d55a07ba4886983ebe3e1dbcfed4b1bd60bdbb2d5743b4d0ef1cb42f3088e2a',
    ('rw-write-interrupt', 'random:1'):
        '195b1cbdbc3177aa1ef2638f054a679e932ba10c0c52c75c3d9e1a2ff2e10059',
    ('rw-write-interrupt', 'lifo'):
        '8f8fd29fbc92c8213929dc57eeeae28d73630bca626fe65c73e254e3c50c93f0',
    ('rw-write-interrupt', 'rng:5'):
        'a41fd53a51e31e273abda33c75d42c8da639447b05ff274c48bc4532c1143c88',
    ('barrier-broken', 'fifo'):
        '77d8aa71bb43812a553e0b754959570a82f76fc438784339c603ce8a65e6d0fc',
    ('barrier-broken', 'random:0'):
        'e4c9af5621c10e7aa7b1b442ecf600c68f2cd2a8d84208556171a9748de096ce',
    ('barrier-broken', 'random:1'):
        '6a671b285560e5f595a88b3bc650324e04377023e6b1e4f06b81fee8484afdc9',
    ('barrier-broken', 'lifo'):
        '77d8aa71bb43812a553e0b754959570a82f76fc438784339c603ce8a65e6d0fc',
    ('barrier-broken', 'rng:5'):
        '77d6f4a7193b2098fd713f16c6a5a23eac05cbfecc96bfe0c67bf9d679c67534',
    ('rw-upgrade', 'fifo'):
        'b23a89099bfebc7f1759af98ac4bee948e4296562d3abefe348f5668d623686a',
    ('rw-upgrade', 'random:0'):
        'edb139df5c1830fdb876a5fa1020233bdf12c30af9156cb17e2cbc93a7fe0ed8',
    ('rw-upgrade', 'random:1'):
        'b23a89099bfebc7f1759af98ac4bee948e4296562d3abefe348f5668d623686a',
    ('rw-upgrade', 'lifo'):
        'b23a89099bfebc7f1759af98ac4bee948e4296562d3abefe348f5668d623686a',
    ('rw-upgrade', 'rng:5'):
        'edb139df5c1830fdb876a5fa1020233bdf12c30af9156cb17e2cbc93a7fe0ed8',
    ('monitor-faults', 'fifo'):
        'ac6b9fe45ce6c30a89f5822aaef4ebf84b96153af996a88a4081b46b36a7033e',
    ('monitor-faults', 'random:0'):
        'aa800bb461986c7c6ddc75751918f93466113edb312056da8f94f79047c1024b',
    ('monitor-faults', 'random:1'):
        'b37e4c08564974182a34cb089cc9f1294e562cfe9224e050d305ac347c5a44d0',
    ('monitor-faults', 'lifo'):
        'ac6b9fe45ce6c30a89f5822aaef4ebf84b96153af996a88a4081b46b36a7033e',
    ('monitor-faults', 'rng:5'):
        '3b0d9c2c4bb079b681efb891c4f72be02c773ed0bab63c2160cc24beabd29daa',
    ('mixed-deadlock', 'fifo'):
        '9eb1c5005f3a478409b840fec242f2e4005e8266a58ad1f504b7b5d548ef1b35',
    ('mixed-deadlock', 'random:0'):
        '2bf74ba08229aa329f4e888be04200bd6a682a48265d7b42c479b2c119df46b6',
    ('mixed-deadlock', 'random:1'):
        'e545daf70366ee7d088fcc52b9bbbbdcbaf134e04a7b5811ccf812298ebb8e31',
    ('mixed-deadlock', 'lifo'):
        '9eb1c5005f3a478409b840fec242f2e4005e8266a58ad1f504b7b5d548ef1b35',
    ('mixed-deadlock', 'rng:5'):
        '2bf74ba08229aa329f4e888be04200bd6a682a48265d7b42c479b2c119df46b6',
    ('pc-ok', 'noisy:3'):
        'fafb03b832d1ffc4ca03afc1789e4fdb058267f27dc5f7e03d7ba226532309bd',
    ('pc-bug', 'noisy:4'):
        'a8bd6fe5859547d1775d6db1efac29a8c62bf2cc59626bdfa082d5e405c5a066',
    ('mixed-deadlock', 'noisy:2'):
        '634fafedee93c28790ffd4c1dcee6ccb10672831ae06d3b04abce89df8266b52',
}


def test_primitive_and_fault_paths_byte_identical():
    mismatches = {
        key: digest(*key, outcome=True)
        for key, pinned in PINNED_PRIMITIVES.items()
        if digest(*key, outcome=True) != pinned
    }
    assert not mismatches, f"digests moved: {mismatches}"

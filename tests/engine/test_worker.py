"""Tests for the shard worker: timed runs, streaming, coverage hits."""

import multiprocessing
import time

import pytest

import repro.engine.worker as worker_module
from repro.engine.shards import Shard
from repro.engine.worker import (
    FRAME_BATCH,
    FRAME_FLUSH_S,
    WorkerTask,
    execute_shard,
    post_shard,
    worker_main,
)
from repro.engine.workloads import pc_ok
from repro.run import RunConfig
from repro.run.executor import RunTimeoutInterrupt, timed_runner
from repro.vm import Kernel, RandomScheduler, RunStatus, Tick


def run_config(**kwargs):
    defaults = dict(workload="pc-ok")
    defaults.update(kwargs)
    return RunConfig(**defaults)


def spin_factory(scheduler):
    """A program that never finishes (modulo the step limit) — wall-clock
    timeout fodder."""
    kernel = Kernel(scheduler=scheduler, max_steps=50_000_000)

    def spinner():
        while True:
            yield Tick()

    kernel.spawn(spinner, name="spin")
    return kernel


class FakeQueue:
    def __init__(self):
        self.messages = []

    def put(self, message):
        self.messages.append(message)


def random_shard(seeds=(0, 1, 2)):
    return Shard(
        shard_id="random-test",
        mode="random",
        seeds=tuple(seeds),
        max_runs=len(seeds),
    )


class TestTimedRunner:
    def test_timeout_is_base_exception(self):
        # The kernel catches Exception from thread bodies; a timeout must
        # cut through that, so it cannot be an Exception subclass.
        assert issubclass(RunTimeoutInterrupt, BaseException)
        assert not issubclass(RunTimeoutInterrupt, Exception)

    def test_fast_run_unaffected(self):
        runner = timed_runner(10.0)
        result = runner(_quick_kernel())
        assert result.status is RunStatus.COMPLETED

    def test_wedged_run_times_out(self):
        runner = timed_runner(0.2)
        result = runner(spin_factory(RandomScheduler(seed=0)))
        assert result.status is RunStatus.TIMEOUT
        assert "spin" in result.stuck_threads

    def test_body_that_never_yields_times_out(self):
        # The first alarm only requests an abort, which a body looping
        # without a yield never reaches; the grace alarm raises into it.
        kernel = Kernel(scheduler=RandomScheduler(seed=0))

        def busy():
            yield Tick()
            give_up = time.monotonic() + 30.0
            while time.monotonic() < give_up:
                pass

        kernel.spawn(busy, name="busy")
        started = time.monotonic()
        result = timed_runner(0.2)(kernel)
        assert result.status is RunStatus.TIMEOUT
        assert "busy" in result.stuck_threads
        assert time.monotonic() - started < 10.0

    def test_zero_timeout_disables(self):
        runner = timed_runner(0.0)
        assert runner(_quick_kernel()).status is RunStatus.COMPLETED

    def test_alarm_cleared_after_timeout(self):
        import signal

        timed_runner(0.2)(spin_factory(RandomScheduler(seed=0)))
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0

    def test_previous_handler_restored(self):
        # A timeout in one run must not leave the runner's SIGALRM
        # handler (or a live alarm) behind to fire into the next run.
        import signal

        sentinel = []

        def ours(signum, frame):
            sentinel.append(signum)

        previous = signal.signal(signal.SIGALRM, ours)
        try:
            timed_runner(0.2)(spin_factory(RandomScheduler(seed=0)))
            assert signal.getsignal(signal.SIGALRM) is ours
            signal.raise_signal(signal.SIGALRM)
            assert sentinel  # our handler is back in place and live
        finally:
            signal.signal(signal.SIGALRM, previous)
            signal.setitimer(signal.ITIMER_REAL, 0.0)

    def test_handler_restored_on_completion(self):
        import signal

        previous = signal.getsignal(signal.SIGALRM)
        timed_runner(10.0)(_quick_kernel())
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0


def _quick_kernel():
    kernel = Kernel(scheduler=RandomScheduler(seed=0))

    def solo():
        yield Tick()

    kernel.spawn(solo, name="t")
    return kernel


class TestExecuteShard:
    def test_random_shard_summaries(self):
        task = WorkerTask(shard=random_shard((5, 6, 7)), config=run_config())
        streamed = []
        outcome = execute_shard(task, emit=streamed.append)
        assert [s.seed for s in outcome.summaries] == [5, 6, 7]
        assert outcome.summaries == streamed
        assert not outcome.exhausted

    def test_timeout_shard_reports_timeout_status(self):
        task = WorkerTask(
            shard=random_shard((0,)),
            config=run_config(
                workload=f"{__name__}:spin_factory", timeout=0.2
            ),
        )
        outcome = execute_shard(task)
        assert [s.status for s in outcome.summaries] == ["timeout"]

    def test_systematic_shard_exhausts_subtree(self):
        shard = Shard(
            shard_id="dfs-test",
            mode="systematic",
            prefixes=((),),
            max_runs=10_000,
        )
        task = WorkerTask(
            shard=shard, config=run_config(workload="racing-locks")
        )
        outcome = execute_shard(task)
        assert outcome.exhausted
        assert any(s.status == "deadlock" for s in outcome.summaries)

    def test_coverage_hits_attached(self):
        task = WorkerTask(
            shard=random_shard((0, 1)),
            config=run_config(coverage="repro.components:ProducerConsumer"),
        )
        outcome = execute_shard(task)
        assert all(s.arc_hits for s in outcome.summaries)
        method, src, dst, count = outcome.summaries[0].arc_hits[0]
        assert isinstance(method, str) and count >= 1

    def test_unknown_mode_rejected(self):
        shard = Shard(shard_id="x", mode="bogus", max_runs=1)
        with pytest.raises(ValueError, match="unknown shard mode"):
            execute_shard(WorkerTask(shard=shard, config=run_config()))

    def test_bad_coverage_spec_rejected(self):
        task = WorkerTask(
            shard=random_shard((0,)),
            config=run_config(coverage="nodots"),
        )
        with pytest.raises(ValueError, match="module:Class"):
            execute_shard(task)


def inbox_of(*tasks):
    """A worker inbox holding ``tasks`` and then the stop message."""
    reader, writer = multiprocessing.Pipe(duplex=False)
    for task in tasks:
        writer.send(task)
    writer.send(None)
    return reader


_raise_calls = 0


def raise_at_fourth_factory(scheduler):
    """pc-ok, except that its fourth build in this process raises."""
    global _raise_calls
    _raise_calls += 1
    if _raise_calls == 4:
        raise RuntimeError("fourth build")
    return pc_ok(scheduler)


class TestWorkerMain:
    def test_message_protocol(self):
        queue = FakeQueue()
        task = WorkerTask(shard=random_shard((0, 1)), config=run_config())
        worker_main(inbox_of(task), queue)
        kinds = [m[0] for m in queue.messages]
        # the first frame goes alone, the rest go before "done"
        assert kinds == ["frames", "frames", "done"]
        assert all(m[1] == "random-test" for m in queue.messages)
        # frame payloads are lists of plain dicts (picklable / JSON-able),
        # each wrapping one run summary plus shard-local counters
        frames = [f for m in queue.messages[:-1] for f in m[2]]
        assert len(queue.messages[0][2]) == 1
        assert [f["runs"] for f in frames] == [1, 2]
        assert all(isinstance(f, dict) for f in frames)
        assert isinstance(frames[0]["summary"], dict)
        assert "status" in frames[0]["summary"]

    def test_failure_reported_not_raised(self):
        queue = FakeQueue()
        shard = Shard(shard_id="x", mode="bogus", max_runs=1)
        worker_main(inbox_of(WorkerTask(shard=shard, config=run_config())), queue)
        assert queue.messages[-1][0] == "fail"
        assert "bogus" in queue.messages[-1][2]

    def test_worker_serves_shards_until_stopped(self):
        # one process serves many shards, one at a time, and keeps
        # serving after a shard fails
        queue = FakeQueue()
        bad = Shard(shard_id="x", mode="bogus", max_runs=1)
        good = Shard(
            shard_id="random-next", mode="random", seeds=(3, 4), max_runs=2
        )
        worker_main(
            inbox_of(
                WorkerTask(shard=random_shard((0, 1)), config=run_config()),
                WorkerTask(shard=bad, config=run_config()),
                WorkerTask(shard=good, config=run_config()),
            ),
            queue,
        )
        ends = [(m[0], m[1]) for m in queue.messages if m[0] != "frames"]
        assert ends == [
            ("done", "random-test"),
            ("fail", "x"),
            ("done", "random-next"),
        ]


def _sent_frames(messages):
    return [f for m in messages if m[0] == "frames" for f in m[2]]


class TestFrameBatching:
    """Flush rules: a shard's first frame goes alone, later frames go in
    batches of at most FRAME_BATCH or after FRAME_FLUSH_S, and nothing is
    left behind at done or fail."""

    def run_shard(self, monkeypatch, n_runs, tick=0.0, workload="pc-ok"):
        now = [0.0]

        def clock():
            now[0] += tick
            return now[0]

        monkeypatch.setattr(worker_module, "_clock", clock)
        queue = FakeQueue()
        task = WorkerTask(
            shard=random_shard(range(n_runs)), config=run_config(workload=workload)
        )
        post_shard(task, queue)
        return queue.messages

    def test_frozen_clock_batches_by_count(self, monkeypatch):
        messages = self.run_shard(monkeypatch, 2 * FRAME_BATCH + 10)
        sizes = [len(m[2]) for m in messages if m[0] == "frames"]
        assert sizes == [1, FRAME_BATCH, FRAME_BATCH, 9]
        assert messages[-1][0] == "done"
        frames = _sent_frames(messages)
        assert [f["runs"] for f in frames] == list(range(1, 2 * FRAME_BATCH + 11))
        assert [f["summary"]["seed"] for f in frames] == list(
            range(2 * FRAME_BATCH + 10)
        )

    def test_elapsed_time_flushes_before_the_count(self, monkeypatch):
        # every clock read advances 0.3 of the flush interval, so the
        # interval has passed at every fourth run after a post
        messages = self.run_shard(monkeypatch, 40, tick=FRAME_FLUSH_S * 0.3)
        sizes = [len(m[2]) for m in messages if m[0] == "frames"]
        assert sizes[0] == 1
        assert max(sizes) < FRAME_BATCH
        assert sum(sizes) == 40
        assert len(sizes) > 2
        assert [f["runs"] for f in _sent_frames(messages)] == list(range(1, 41))

    def test_pending_frames_go_before_fail(self, monkeypatch):
        global _raise_calls
        _raise_calls = 0
        messages = self.run_shard(
            monkeypatch, 10, workload=f"{__name__}:raise_at_fourth_factory"
        )
        assert [m[0] for m in messages] == ["frames", "frames", "fail"]
        assert [len(m[2]) for m in messages[:2]] == [1, 2]
        assert "fourth build" in messages[-1][2]

"""Tests for the FF-T1 / EF-T1 static checks."""

from repro.analysis import check_component, method_source_ast, shared_accesses
from repro.classify import FailureClass
from repro.components import BoundedBuffer, ProducerConsumer, Semaphore
from repro.components.faulty import OverSynchronized, UnsyncCounter
from repro.vm import MonitorComponent, NotifyAll, synchronized, unsynchronized


def accesses(method):
    return shared_accesses(method_source_ast(method)[0])


class TestSharedAccesses:
    def test_producer_consumer_fields(self):
        reads, writes = accesses(ProducerConsumer.receive)
        assert "cur_pos" in reads
        assert "cur_pos" in writes
        assert "contents" in reads

    def test_pure_method_has_none(self):
        reads, writes = accesses(OverSynchronized.scale)
        assert reads == [] and writes == []

    def test_underscore_fields_excluded(self):
        class WithPrivate(MonitorComponent):
            @synchronized
            def touch(self):
                self._x = 1
                return self._x

        reads, writes = accesses(WithPrivate.touch)
        assert reads == [] and writes == []


class TestCheckComponent:
    def test_clean_components(self):
        for component in (ProducerConsumer, BoundedBuffer, Semaphore):
            assert check_component(component) == []

    def test_ff_t1_flagged(self):
        findings = check_component(UnsyncCounter)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.failure_class is FailureClass.FF_T1
        assert finding.method == "increment"
        assert "value" in finding.detail

    def test_ef_t1_flagged(self):
        findings = check_component(OverSynchronized)
        assert [f.failure_class for f in findings] == [FailureClass.EF_T1]
        assert findings[0].method == "scale"

    def test_sync_only_waiter_not_flagged_ef_t1(self):
        """A synchronized method that waits but touches no state is still
        using the monitor protocol: not unnecessary synchronization."""

        class PureWaiter(MonitorComponent):
            @synchronized
            def pause(self):
                from repro.vm import Wait

                yield Wait()

        assert check_component(PureWaiter) == []

    def test_unsync_pure_not_flagged(self):
        class PureUnsync(MonitorComponent):
            @unsynchronized
            def calc(self, x):
                return x * 2

        assert check_component(PureUnsync) == []

    def test_finding_str(self):
        finding = check_component(UnsyncCounter)[0]
        assert "FF-T1" in str(finding)
        assert "UnsyncCounter.increment" in str(finding)

    def test_instance_accepted(self):
        assert check_component(UnsyncCounter())[0].method == "increment"

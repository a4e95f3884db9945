"""``fold_record``'s contract under its per-registry name resolution.

``fold_record`` resolves each record name against ``RECORD_SCHEMA`` and
the registry once per registry (``MetricsRegistry.fold_slots``), builds
each label set once, and then folds later records straight into the
resolved series.  These tests hold it to a generic fold that resolves
nothing ahead and goes through each metric's public API, over every
record behind ``tests/obs/record_pin.json``, and check that a name
outside the schema and a name the registry holds as another kind still
raise ``ValueError``, before and after a name has been resolved.
"""

import pytest

from repro.obs.metrics import Gauge, MetricsRegistry
from repro.obs.sink import RECORD_SCHEMA, fold_record
from repro.run import RunExecutor
from tests.obs.test_record_pin import CONFIGS, SEEDS, SYSTEMATIC_RUNS


def generic_fold(registry: MetricsRegistry, record) -> None:
    """The fold spelled through the registry's get-or-create and each
    metric's ``inc``/``get``/``set``/``observe``, one entry at a time."""
    for name, value in record.items():
        kind, help_text, label, options = RECORD_SCHEMA[name]
        metric = getattr(registry, kind)(name, help_text, **options)
        if kind == "histogram":
            status, seconds = value
            metric.observe(seconds, **{label: status})
            continue
        entries = [({}, value)] if label is None else [
            ({label: key}, v) for key, v in value.items()
        ]
        for labels, v in entries:
            if kind == "counter":
                metric.inc(v, **labels)
            else:
                peak = metric.get(**labels)
                if peak is None or v > peak:
                    metric.set(v, **labels)


def pinned_records():
    """label -> the metrics records of the runs record_pin.json hashes."""
    records = {}
    for label, config in sorted(CONFIGS.items()):
        executor = RunExecutor(config)
        runs = records[label] = []

        def on_run(run, runs=runs, executor=executor):
            runs.append(executor.summarize(run).metrics)

        executor.explore("random", seeds=SEEDS, on_run=on_run, keep_runs=False)
        executor.explore(
            "systematic", max_runs=SYSTEMATIC_RUNS, on_run=on_run, keep_runs=False
        )
        executor.release()
    return records


@pytest.fixture(scope="module")
def records():
    return pinned_records()


def test_fold_equals_the_generic_fold_over_the_pinned_records(records):
    folded, generic = MetricsRegistry(), MetricsRegistry()
    for runs in records.values():
        for record in runs:
            fold_record(folded, record)
            generic_fold(generic, record)
    assert folded.to_dict() == generic.to_dict()
    assert set(folded.fold_slots) == set(RECORD_SCHEMA)


def test_each_config_folds_alone_as_the_generic_fold(records):
    """A fresh registry per config: its names resolve afresh, and label
    values of one config never leak into another's series."""
    for label, runs in records.items():
        folded, generic = MetricsRegistry(), MetricsRegistry()
        for record in runs:
            fold_record(folded, record)
            generic_fold(generic, record)
        assert folded.to_dict() == generic.to_dict(), label


def test_unknown_name_raises_before_and_after_resolving_others():
    registry = MetricsRegistry()
    with pytest.raises(ValueError, match="unknown metric 'vm_bogus_total'"):
        fold_record(registry, {"vm_bogus_total": 1})
    fold_record(registry, {"vm_steps_total": 3})
    with pytest.raises(ValueError, match="unknown metric 'vm_bogus_total'"):
        fold_record(registry, {"vm_steps_total": 1, "vm_bogus_total": 1})
    assert "vm_bogus_total" not in registry.fold_slots


def test_other_kind_raises_before_resolving():
    registry = MetricsRegistry()
    registry.gauge("vm_steps_total").set(5)
    with pytest.raises(ValueError, match="already registered as gauge"):
        fold_record(registry, {"vm_steps_total": 1})
    assert registry.gauge("vm_steps_total").get() == 5


def test_other_kind_raises_after_the_name_was_resolved():
    """Replacing a resolved metric empties the registry's slots, so the
    next fold resolves the name again and meets the other kind."""
    registry = MetricsRegistry()
    fold_record(registry, {"vm_steps_total": 1})
    assert "vm_steps_total" in registry.fold_slots
    registry.add(Gauge("vm_steps_total"))
    assert not registry.fold_slots
    with pytest.raises(ValueError, match="already registered as gauge"):
        fold_record(registry, {"vm_steps_total": 1})


def test_a_document_copy_resolves_afresh(records):
    """``from_dict`` builds new metrics: the copy folds into its own
    series, never into the original's."""
    runs = next(iter(records.values()))
    original = MetricsRegistry()
    for record in runs:
        fold_record(original, record)
    before = original.to_dict()
    copy = MetricsRegistry.from_dict(before)
    for record in runs:
        fold_record(copy, record)
    assert original.to_dict() == before
    doubled = MetricsRegistry()
    for record in runs + runs:
        generic_fold(doubled, record)
    assert copy.to_dict() == doubled.to_dict()

"""Bench: regenerate Table 1 (the concurrency failure classification).

Paper artifact: Table 1, Section 5.  The HAZOP engine derives one
(transition x deviation) cell per Figure-1 transition and joins the
curated taxonomy; the emitter prints the table in the paper's layout.

Reproduction check: 10 failure classes, 11 printed rows (FF-T4 has two
causes), EF-T2 marked not-applicable, and the Testing Notes column names
completion-time checking for the six T3/T4/T5 rows — all as printed.
"""

from conftest import write_result

from repro.classify import (
    DetectionTechnique,
    FailureClass,
    FailureMode,
    TABLE1_ENTRIES,
    derive_table1,
)
from repro.report import render_table1, table1_rows


def test_table1_regeneration(benchmark, results_dir):
    rows = benchmark(derive_table1)

    # -- structural reproduction checks (the paper's printed table) --------
    assert len(rows) == 10, "one row per transition x deviation"
    assert sum(len(r.entries) for r in rows) == 11, "11 printed rows"
    classes = {r.failure_class for r in rows}
    # the printed table covers Figure 1's transitions T1-T5 only: neither
    # the EV-* environment extension nor the semaphore/rw-lock/barrier
    # (S/R/B) rows are part of it
    paper_classes = {
        c
        for c in FailureClass
        if c.transition in ("T1", "T2", "T3", "T4", "T5")
        and c.mode is not FailureMode.ENVIRONMENTAL_FIRING
    }
    assert classes == paper_classes

    ff_rows = [r for r in rows if r.item.mode is FailureMode.FAILURE_TO_FIRE]
    ef_rows = [r for r in rows if r.item.mode is FailureMode.ERRONEOUS_FIRING]
    assert len(ff_rows) == len(ef_rows) == 5

    ef_t2 = next(r for r in rows if r.failure_class is FailureClass.EF_T2)
    assert not ef_t2.entries[0].applicable

    completion = {
        e.failure_class
        for e in TABLE1_ENTRIES
        if DetectionTechnique.COMPLETION_TIME in e.techniques
    }
    assert completion == {
        FailureClass.FF_T3,
        FailureClass.EF_T3,
        FailureClass.FF_T4,
        FailureClass.EF_T4,
        FailureClass.FF_T5,
        FailureClass.EF_T5,
    }

    rendered = render_table1()
    assert "race condition" in rendered
    write_result(results_dir, "table1.txt", rendered)
    print()
    print(rendered)


def test_table1_row_rendering(benchmark, results_dir):
    rows = benchmark(table1_rows)
    assert len(rows) == 11
    # continuation row of FF-T4 leaves the transition cell blank
    transitions = [r[0] for r in rows]
    assert transitions.count("") == 1

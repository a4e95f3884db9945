"""The complete testing workflow as a downstream user would run it.

1. Run ``systematic_test`` on a trusted component: CoFGs + static checks
   + generated covering sequence + golden oracle, in one call.
2. Save the golden suite as JSON and as a human-readable ConAn-style
   script.
3. Re-run the suite against a "new version" of the component — here a
   mutant with a dropped notify — and watch it fail with classified
   Table-1 symptoms.
4. Post-mortem: save the failing trace, reload it, and run the detectors
   and the contention profiler on the artifact alone.

Every file lands in a temporary directory that is removed on exit.

Run:  python examples/regression_workflow.py
"""

import tempfile
from pathlib import Path

from repro.components import BoundedBuffer
from repro.corpus import mutant
from repro.detect import analyze_starvation, detect_races_hb, profile_contention
from repro.method import systematic_test
from repro.testing import CallTemplate, RegressionSuite, TestSequence, render_script
from repro.vm import load_schedule, load_trace, save_trace


def main():
    with tempfile.TemporaryDirectory(prefix="repro-workflow-") as workdir:
        workflow(Path(workdir))


def workflow(workdir: Path) -> None:
    factory = lambda: BoundedBuffer(2)  # noqa: E731

    # -- 1. the paper's method, one call ------------------------------------
    # a hand sequence for the hard re-wait arcs plus a generated one
    covering = (
        TestSequence("bb-covering")
        .add(1, "c1", "get", check_completion=False)
        .add(2, "c2", "get", check_completion=False)
        .add(3, "p1", "put", 1, check_completion=False)
        .add(4, "p2", "put", 2, check_completion=False)
        .add(5, "p3", "put", 3, check_completion=False)
        .add(6, "p4", "put", 4, check_completion=False)
        .add(7, "p5", "put", 5, check_completion=False)
        .add(8, "p6", "put", 6, check_completion=False)
        .add(9, "c3", "get", check_completion=False)
        .add(10, "c4", "get", check_completion=False)
    )
    report = systematic_test(
        factory,
        sequences=[covering],
        alphabet=[CallTemplate("put", lambda i: (i,)), CallTemplate("get")],
        max_generated_length=8,
    )
    print(report.describe())

    # -- 2. persist the golden suite -----------------------------------------
    suite_path = workdir / "bounded_buffer_suite.json"
    report.suite.save(suite_path)
    script_path = workdir / "bounded_buffer_covering.cts"
    script_path.write_text(
        render_script(
            report.suite.sequences[0],
            "repro.components:BoundedBuffer",
            constructor_args=(2,),
        )
    )
    print(f"\nsuite saved:  {suite_path}")
    print(f"script saved: {script_path}")
    print("\nthe covering sequence as a ConAn-style script:\n")
    print(script_path.read_text())

    # -- 3. regression against a broken "new version" ------------------------
    broken = mutant(BoundedBuffer, "drop_notify@get#0")
    regression = RegressionSuite.load(suite_path).run(lambda: broken(2))
    print("new version under the saved suite:")
    print(regression.describe())
    assert not regression.passed

    # -- 4. post-mortem from the stored artifact ------------------------------
    failing = regression.failures()[0]
    trace_path = workdir / "failing_run.jsonl"
    save_trace(
        failing.result.trace,
        trace_path,
        schedule=failing.result.schedule_log,
    )
    trace = load_trace(trace_path)
    print(f"\npost-mortem on {trace_path} ({len(trace)} events, "
          f"{len(load_schedule(trace_path))} scheduled steps):")
    print("  races (happens-before):", detect_races_hb(trace) or "none")
    print("  starvation:", analyze_starvation(trace) or "none")
    print("  contention profile:")
    for line in profile_contention(trace).describe().splitlines():
        print("   ", line)


if __name__ == "__main__":
    main()

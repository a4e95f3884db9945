"""Smoke test of the ledger: every workload at 2% size, with and without
tracing, for seeds 0 and 1 (each repeat in its own child process)."""

import json
import shutil
import subprocess
import sys

import pytest

from ledger import pace, run
from ledger.workloads import SEEDED

SCALE = 0.02
SEEDS = (0, 1)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results():
    found = {}
    for seed in SEEDS:
        for traced in (False, True):
            for result in run.run(
                list(run.WORKLOADS), seed=seed, scale=SCALE, repeats=1, traced=traced
            ):
                found[result["workload"], seed, traced] = result
    return found


def test_workloads_match_the_benchmark_file():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("traced, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_reported_with_its_unit(results, traced, kind):
    for (_workload, _seed, was_traced), result in results.items():
        if was_traced != traced:
            continue
        reported = result["metrics"]
        for metric in BENCHMARK[kind]:
            assert reported[metric["name"]]["unit"] == metric["unit"], metric["name"]
            assert reported[metric["name"]]["value"] is not None, metric["name"]


def test_every_output_check_passes(results):
    for key, result in results.items():
        assert result["correct"], (key, result["problems"])
        assert result["failed"] == 0, key


def test_traced_and_untraced_digests_match(results):
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            assert (
                results[workload, seed, False]["digest"]
                == results[workload, seed, True]["digest"]
            ), (workload, seed)


def test_digests_differ_between_seeds(results):
    for workload in run.WORKLOADS:
        digests = {results[workload, seed, False]["digest"] for seed in SEEDS}
        # sweep_corpus fixes every variant's seeds, so --seed does not apply
        assert len(digests) == (len(SEEDS) if workload in SEEDED else 1), workload


def test_last_line_is_the_result_object(capsys):
    # prims-long's full size is ten runs, a few seconds
    code = run.main(["--workload", "prims-long", "--repeats", "1"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0


def test_untraced_repeats_are_paced(results):
    for (workload, seed, traced), result in results.items():
        if not traced:
            for repeat in result["repeats"]:
                assert repeat["bursts"] > 0, (workload, seed)
                assert repeat["work_s"] > 0, (workload, seed)
                assert (repeat["worker_bursts"] > 0) == (workload == "clean-pool")


def test_rescale_divides_by_the_bursts_harmonic_mean():
    # bursts at twice and at once the reference time: harmonic mean 4/3 of it
    inverse = 1 / (2 * pace.REFERENCE_S) + 1 / pace.REFERENCE_S
    assert pace.rescale(4.0, [(0, 0.0), (2, inverse)]) == pytest.approx(3.0)
    assert pace.rescale(4.0, [(0, 0.0)]) == 4.0


def test_repeats_that_do_not_fit_fail_the_check(monkeypatch):
    record = {
        "problems": [], "digest": "d", "work_s": 0.1, "executed": 1, "steps": 1,
        "setup_s": 0.1, "peak_rss_mb": 1.0, "attempted": 1, "failed": 0,
    }
    monkeypatch.setattr(run, "_child", lambda *args: dict(record))
    # a deadline already past: the first repeat is the last
    result = run.measure("pc-short", 0, 1.0, None, 4, deadline=0.0)
    assert result["samples"] == 1
    assert not result["correct"]
    assert "stopped after 1 of 4 repeats" in result["problems"][0]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    """In a directory holding only the benchmark's own files the command
    fails without printing a result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.LEDGER, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", ".work", "trace_*.jsonl"),
    )
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "pc-short",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

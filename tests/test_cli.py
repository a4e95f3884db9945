"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main


GOOD_SCRIPT = """
component repro.components:ProducerConsumer

thread consumer:
    @1 receive() -> 'a' @2

thread producer:
    @2 send("a") @2
"""


class TestArtifactCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "race condition" in out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "mutual exclusion" in out

    def test_figure1_dot(self, capsys):
        assert main(["figure1", "--dot", "--threads", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"T10"' in out

    def test_figure3(self, capsys):
        assert main(["figure3"]) == 0
        assert "Figure 3" in capsys.readouterr().out


class TestCofgAndCheck:
    def test_cofg_all_methods(self, capsys):
        assert main(["cofg", "repro.components:ProducerConsumer"]) == 0
        out = capsys.readouterr().out
        assert "receive" in out and "send" in out

    def test_cofg_single_method_dot(self, capsys):
        assert (
            main(
                [
                    "cofg",
                    "repro.components:ProducerConsumer",
                    "--method",
                    "receive",
                    "--dot",
                ]
            )
            == 0
        )
        assert "digraph" in capsys.readouterr().out

    def test_cofg_dotted_spec(self, capsys):
        assert main(["cofg", "repro.components.ProducerConsumer"]) == 0

    def test_check_clean(self, capsys):
        assert main(["check", "repro.components:ProducerConsumer"]) == 0
        assert "no static findings" in capsys.readouterr().out

    def test_check_findings_exit_code(self, capsys):
        assert main(["check", "repro.components.faulty:UnsyncCounter"]) == 2
        assert "FF-T1" in capsys.readouterr().out

    def test_unknown_module(self):
        with pytest.raises(SystemExit):
            main(["check", "nosuch.module:Thing"])

    def test_unknown_class(self):
        with pytest.raises(SystemExit):
            main(["check", "repro.components:NoSuchClass"])

    def test_bad_spec(self):
        with pytest.raises(SystemExit):
            main(["check", "justoneword"])


class TestRunAnalyze:
    def test_run_script_pass(self, tmp_path, capsys):
        script = tmp_path / "t.cts"
        script.write_text(GOOD_SCRIPT)
        assert main(["run", str(script)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_run_script_fail_exit_code(self, tmp_path, capsys):
        script = tmp_path / "t.cts"
        script.write_text(GOOD_SCRIPT.replace("@2\n", "@1\n", 1))
        assert main(["run", str(script)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_run_verbose_and_save(self, tmp_path, capsys):
        script = tmp_path / "t.cts"
        trace_path = tmp_path / "run.jsonl"
        script.write_text(GOOD_SCRIPT)
        code = main(
            ["run", str(script), "--verbose", "--save-trace", str(trace_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "coverage" in out
        assert trace_path.exists()

    def test_analyze_clean(self, tmp_path, capsys):
        script = tmp_path / "t.cts"
        trace_path = tmp_path / "run.jsonl"
        script.write_text(GOOD_SCRIPT)
        main(["run", str(script), "--save-trace", str(trace_path)])
        capsys.readouterr()
        assert main(["analyze", str(trace_path)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_contention(self, tmp_path, capsys):
        script = tmp_path / "t.cts"
        trace_path = tmp_path / "run.jsonl"
        script.write_text(GOOD_SCRIPT)
        main(["run", str(script), "--save-trace", str(trace_path)])
        capsys.readouterr()
        assert main(["contention", str(trace_path)]) == 0
        out = capsys.readouterr().out
        # routed through the shared table renderer, not the prose form
        assert "monitor contention" in out
        assert "| monitor" in out
        assert "contended" in out

    def test_run_with_seed_and_policies(self, tmp_path, capsys):
        script = tmp_path / "t.cts"
        script.write_text(GOOD_SCRIPT)
        code = main(
            [
                "run",
                str(script),
                "--seed",
                "7",
                "--lock-policy",
                "lifo",
                "--notify-policy",
                "random",
            ]
        )
        assert code == 0


class TestMethodAndSuiteCommands:
    def test_metrics(self, capsys):
        assert main(["metrics", "repro.components:ProducerConsumer"]) == 0
        out = capsys.readouterr().out
        assert "10 arcs" in out

    def test_method_and_suite_roundtrip(self, tmp_path, capsys):
        suite_path = tmp_path / "suite.json"
        code = main(
            [
                "method",
                "repro.components:ProducerConsumer",
                "--call",
                "receive",
                "--call",
                "send:'ab'",
                "--call",
                "send:'x'",
                "--max-length",
                "8",
                "--save-suite",
                str(suite_path),
            ]
        )
        assert code == 0
        assert suite_path.exists()
        capsys.readouterr()
        assert (
            main(
                [
                    "suite-run",
                    str(suite_path),
                    "repro.components:ProducerConsumer",
                ]
            )
            == 0
        )
        assert "PASS" in capsys.readouterr().out

    def test_suite_run_kills_mutant(self, tmp_path, capsys):
        # Build a suite whose covering sequence definitely needs send's
        # notify (a consumer blocked before the send), save it, and run
        # it against the no-notify component via the CLI.
        from repro.components import ProducerConsumer
        from repro.testing import RegressionSuite, TestSequence

        sequence = (
            TestSequence("kill")
            .add(1, "c", "receive", check_completion=False)
            .add(2, "p", "send", "x", check_completion=False)
        )
        suite = RegressionSuite.build(ProducerConsumer, [sequence])
        suite_path = tmp_path / "suite.json"
        suite.save(suite_path)
        code = main(
            [
                "suite-run",
                str(suite_path),
                "repro.components.faulty:NoNotifyProducerConsumer",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestExploreCommand:
    def test_systematic_finds_deadlock(self, capsys):
        code = main(
            ["explore", "racing-locks", "--mode", "systematic", "--runs", "50"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "explored" in out
        assert "--mode replay --decisions" in out  # replay hint printed

    def test_random_with_seed_range(self, capsys):
        code = main(
            ["explore", "pc-bug", "--mode", "random", "--seeds", "0:40"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "failure at seed" in out
        assert "95% CI" in out

    def test_clean_workload_exits_zero(self, capsys):
        assert main(["explore", "pc-ok", "--mode", "random", "--seeds", "0:5"]) == 0

    def test_pct_mode(self, capsys):
        code = main(
            ["explore", "racing-locks", "--mode", "pct", "--seeds", "0:20"]
        )
        assert code in (0, 2)
        assert "explored 20 schedules" in capsys.readouterr().out

    def test_replay_reproduces_deadlock(self, capsys):
        main(["explore", "racing-locks", "--mode", "systematic", "--runs", "50"])
        out = capsys.readouterr().out
        decisions = [
            line.split("--decisions")[1].strip()
            for line in out.splitlines()
            if "--decisions" in line
        ][0]
        code = main(
            ["explore", "racing-locks", "--mode", "replay", "--decisions", decisions]
        )
        assert code == 2
        assert "deadlock" in capsys.readouterr().out

    def test_replay_requires_decisions(self):
        with pytest.raises(SystemExit):
            main(["explore", "racing-locks", "--mode", "replay"])

    def test_replay_out_of_range_decisions_clean_error(self):
        with pytest.raises(SystemExit, match="does not fit"):
            main(
                [
                    "explore",
                    "racing-locks",
                    "--mode",
                    "replay",
                    "--decisions",
                    "99,99",
                ]
            )

    def test_replay_non_integer_decisions_clean_error(self):
        with pytest.raises(SystemExit, match="comma-separated integers"):
            main(
                [
                    "explore",
                    "racing-locks",
                    "--mode",
                    "replay",
                    "--decisions",
                    "1,x",
                ]
            )

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["explore", "no-such-workload"])

    def test_module_function_factory(self, capsys):
        code = main(
            [
                "explore",
                "repro.engine.workloads:pc_ok",
                "--mode",
                "random",
                "--seeds",
                "3",
            ]
        )
        assert code == 0

    def test_detect_reports_classes(self, capsys):
        code = main(
            ["explore", "pc-bug", "--mode", "random", "--seeds", "0:40", "--detect"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "failure classes:" in out
        assert "FF-T5" in out

    def test_detect_clean_workload(self, capsys):
        code = main(
            ["explore", "pc-ok", "--mode", "random", "--seeds", "0:5", "--detect"]
        )
        assert code == 0
        assert "failure classes: none detected" in capsys.readouterr().out

    def test_detect_replay_prints_report(self, capsys):
        main(["explore", "racing-locks", "--mode", "systematic", "--runs", "50"])
        out = capsys.readouterr().out
        decisions = [
            line.split("--decisions")[1].strip()
            for line in out.splitlines()
            if "--decisions" in line
        ][0]
        code = main(
            [
                "explore",
                "racing-locks",
                "--mode",
                "replay",
                "--decisions",
                decisions,
                "--detect",
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "deadlock cycle:" in out
        assert "classification:" in out


class TestCampaignCommand:
    def test_inline_campaign(self, capsys):
        code = main(
            [
                "campaign",
                "pc-bug",
                "--budget",
                "40",
                "--workers",
                "0",
                "--quiet",
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "unique schedules" in out
        assert "replay:" in out

    def test_clean_campaign_exits_zero(self, capsys):
        code = main(
            ["campaign", "pc-ok", "--budget", "10", "--workers", "0", "--quiet"]
        )
        assert code == 0
        assert "goal reached: budget" in capsys.readouterr().out

    def test_journal_and_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "c.jsonl")
        args = [
            "campaign", "pc-ok", "--budget", "20", "--workers", "0",
            "--journal", journal, "--quiet",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        assert "resumed" in capsys.readouterr().out

    def test_unknown_workload_clean_error(self):
        # resolve_factory's ValueError must surface as the CLI's clean
        # SystemExit, not a traceback.
        with pytest.raises(SystemExit, match="unknown workload"):
            main(
                ["campaign", "pc-bgu", "--budget", "5", "--workers", "0", "--quiet"]
            )

    def test_resume_needs_journal(self):
        with pytest.raises(SystemExit):
            main(
                ["campaign", "pc-ok", "--budget", "5", "--workers", "0", "--resume"]
            )

    def test_invalid_goal_combination(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "campaign",
                    "pc-ok",
                    "--goal",
                    "coverage",
                    "--workers",
                    "0",
                    "--quiet",
                ]
            )

    def test_detect_traceless_campaign(self, capsys):
        code = main(
            [
                "campaign", "pc-bug", "--budget", "40", "--workers", "0",
                "--detect", "--trace-mode", "none", "--quiet",
            ]
        )
        assert code == 2
        assert "failure classes: FF-T5:" in capsys.readouterr().out

    def test_first_deadlock_goal(self, capsys):
        code = main(
            [
                "campaign", "deadlock-pair", "--budget", "100", "--workers", "0",
                "--goal", "first-deadlock", "--detect", "--trace-mode", "none",
                "--quiet",
            ]
        )
        assert code == 2
        assert "goal reached: first-deadlock" in capsys.readouterr().out

    def test_trace_mode_none_requires_detect(self):
        with pytest.raises(SystemExit, match="observes nothing"):
            main(
                [
                    "campaign", "pc-ok", "--budget", "5", "--workers", "0",
                    "--trace-mode", "none", "--quiet",
                ]
            )


class TestTelemetryCommands:
    def test_explore_metrics_prints_summary(self, capsys):
        code = main(
            ["explore", "pc-bug", "--mode", "random", "--seeds", "0:10",
             "--metrics"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "metrics:" in out and "kernel events" in out
        assert "contended monitor " in out

    def test_explore_metrics_out_implies_metrics(self, tmp_path, capsys):
        from repro.obs import load_metrics_jsonl

        out_path = tmp_path / "m.jsonl"
        code = main(
            ["explore", "pc-ok", "--mode", "random", "--seeds", "0:5",
             "--metrics-out", str(out_path)]
        )
        assert code == 0
        assert f"metrics written to {out_path}" in capsys.readouterr().out
        registry, header = load_metrics_jsonl(out_path)
        assert registry.counter("vm_events_total").total > 0
        assert header["factory"] == "pc-ok"

    def test_campaign_metrics_out(self, tmp_path, capsys):
        from repro.obs import load_metrics_jsonl

        out_path = tmp_path / "m.jsonl"
        prom_path = tmp_path / "m.prom"
        code = main(
            ["campaign", "pc-bug", "--budget", "20", "--workers", "0",
             "--metrics-out", str(out_path), "--metrics-prom", str(prom_path),
             "--quiet"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert f"metrics written to {out_path}" in out
        assert f"prometheus metrics written to {prom_path}" in out
        registry, _ = load_metrics_jsonl(out_path)
        assert registry.counter("campaign_runs_total").total > 0
        assert "# TYPE vm_events_total counter" in prom_path.read_text()

    def test_profile_renders_report(self, capsys):
        assert main(["profile", "pc-bug", "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "profile: pc-bug — 5 runs" in out
        assert "top monitors by contention" in out
        assert "detector time breakdown" in out

    def test_profile_no_detect_and_metrics_out(self, tmp_path, capsys):
        from repro.obs import load_metrics_jsonl

        out_path = tmp_path / "m.jsonl"
        code = main(
            ["profile", "pc-ok", "--runs", "3", "--no-detect",
             "--metrics-out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "detector time breakdown" not in out
        registry, header = load_metrics_jsonl(out_path)
        assert registry.histogram("run_wall_seconds").count() == 3
        assert header["runs"] == 3

    def test_profile_unknown_workload_clean_error(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["profile", "no-such", "--runs", "2"])


class TestScenarioRun:
    def _write(self, tmp_path, text):
        import pytest as _pytest

        _pytest.importorskip("tomllib")
        path = tmp_path / "scenario.toml"
        path.write_text(text)
        return str(path)

    def test_single_run_scenario(self, tmp_path, capsys):
        path = self._write(
            tmp_path, '[run]\nworkload = "pc-ok"\nscheduler = "fifo"\n'
        )
        assert main(["run", path]) == 0
        assert "pc-ok: completed" in capsys.readouterr().out

    def test_template_scenario(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            '[run]\nworkload = "pc"\ncomponent = "ProducerConsumer"\n'
            'scheduler = "fifo"\n',
        )
        assert main(["run", path]) == 0

    def test_explore_scenario(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            '[run]\nworkload = "pc-bug"\nscheduler = "random"\n'
            '[explore]\nruns = 30\nseeds = "0:30"\n',
        )
        assert main(["run", path]) == 2
        out = capsys.readouterr().out
        assert "explored 30 schedules" in out
        assert "failure rate" in out

    def test_campaign_scenario(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            '[run]\nworkload = "pc-bug"\nscheduler = "random"\ndetect = true\n'
            "[campaign]\nbudget = 30\nworkers = 0\nquiet = true\n",
        )
        assert main(["run", path]) == 2
        out = capsys.readouterr().out
        assert "failure classes:" in out

    def test_campaign_scenario_journal_resume(self, tmp_path, capsys):
        journal = tmp_path / "camp.jsonl"
        path = self._write(
            tmp_path,
            '[run]\nworkload = "pc-ok"\nscheduler = "random"\n'
            f'[campaign]\nbudget = 10\nworkers = 0\nquiet = true\n'
            f'journal = "{journal}"\nresume = true\n',
        )
        assert main(["run", path]) == 0
        capsys.readouterr()
        assert main(["run", path]) == 0  # resume = true skips journaled work
        assert "resumed" in capsys.readouterr().out

    def test_bad_scenario_clean_error(self, tmp_path):
        path = self._write(tmp_path, '[run]\nworkload = "no-such"\n')
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["run", path])

    def test_missing_scenario_clean_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", str(tmp_path / "nope.toml")])

    def test_campaign_budget_of_wrong_type_clean_error(self, tmp_path):
        path = self._write(
            tmp_path,
            '[run]\nworkload = "pc-ok"\n[campaign]\nbudget = "many"\n',
        )
        with pytest.raises(SystemExit, match=r"^error: .*budget must be an integer"):
            main(["run", path])

    def test_explore_runs_of_wrong_type_clean_error(self, tmp_path):
        path = self._write(
            tmp_path, '[run]\nworkload = "pc-ok"\n[explore]\nruns = "x"\n'
        )
        with pytest.raises(SystemExit, match=r"^error: .*runs must be an integer"):
            main(["run", path])


class TestScenarioParity:
    """A job run from flags and from the equivalent scenario file prints
    the same report: only the first line (the job's header) may differ."""

    def _both(self, tmp_path, capsys, flags, scenario):
        pytest.importorskip("tomllib")
        path = tmp_path / "scenario.toml"
        path.write_text(scenario)
        flag_code = main(flags)
        flag_out = capsys.readouterr().out.splitlines()
        file_code = main(["run", str(path)])
        file_out = capsys.readouterr().out.splitlines()
        assert file_code == flag_code
        assert file_out[1:] == flag_out[1:]
        return flag_out

    def test_random_explore_with_detection(self, tmp_path, capsys):
        out = self._both(
            tmp_path,
            capsys,
            ["explore", "pc-bug", "--mode", "random", "--seeds", "0:30", "--detect"],
            '[run]\nworkload = "pc-bug"\nscheduler = "random"\ndetect = true\n'
            'timeout = 0.0\n[explore]\nseeds = "0:30"\n',
        )
        assert any(line.startswith("  failure classes:") for line in out)

    def test_seed_list(self, tmp_path, capsys):
        # formats.md allows a TOML list wherever a seed spec goes
        self._both(
            tmp_path,
            capsys,
            ["explore", "pc-bug", "--mode", "random", "--seeds", "6,7,8"],
            '[run]\nworkload = "pc-bug"\nscheduler = "random"\n'
            "timeout = 0.0\n[explore]\nseeds = [6, 7, 8]\n",
        )

    def test_systematic_explore(self, tmp_path, capsys):
        out = self._both(
            tmp_path,
            capsys,
            ["explore", "racing-locks", "--mode", "systematic", "--runs", "50"],
            '[run]\nworkload = "racing-locks"\nscheduler = "systematic"\n'
            "timeout = 0.0\n[explore]\nruns = 50\n",
        )
        assert any("--mode replay --decisions" in line for line in out)

    def test_replay_against_a_single_run(self, tmp_path, capsys):
        out = self._both(
            tmp_path,
            capsys,
            [
                "explore",
                "racing-locks",
                "--mode",
                "replay",
                "--decisions",
                "1,0,0,0,0,0",
                "--detect",
                "--metrics",
            ],
            '[run]\nworkload = "racing-locks"\nscheduler = "replay"\n'
            "prefix = [1, 0, 0, 0, 0, 0]\ndetect = true\nmetrics = true\n"
            "timeout = 0.0\n",
        )
        assert "deadlock cycle:" in "\n".join(out)
        assert any(line.startswith("  metrics:") for line in out)


class TestShippedScript:
    def test_examples_script_passes(self, capsys):
        import pathlib

        script = (
            pathlib.Path(__file__).parent.parent
            / "examples"
            / "pc_regression.cts"
        )
        assert main(["run", str(script)]) == 0
        assert "PASS" in capsys.readouterr().out


class TestRegistryList:
    def test_single_kind_bare_names(self, capsys):
        assert main(["registry", "list", "detectors"]) == 0
        names = capsys.readouterr().out.split()
        assert "lockset" in names and "reentry" in names
        assert names == sorted(names)

    def test_components_listed(self, capsys):
        assert main(["registry", "list", "components"]) == 0
        out = capsys.readouterr().out
        assert "BoundedBuffer" in out and "ProducerConsumer" in out

    def test_all_kinds_grouped(self, capsys):
        assert main(["registry", "list"]) == 0
        out = capsys.readouterr().out
        for kind in ("components (", "workloads (", "schedulers (", "detectors ("):
            assert kind in out

    def test_unknown_kind_rejected(self):
        with pytest.raises(SystemExit):
            main(["registry", "list", "gizmos"])

    def test_primitive_components_listed(self, capsys):
        """The first-class-primitive components (native references and
        their faulty exemplars) surface alongside the monitor-built ones."""
        assert main(["registry", "list", "components"]) == 0
        names = capsys.readouterr().out.split()
        for name in (
            "NativeSemaphore",
            "NativeReadWriteLock",
            "NativeBarrier",
            "LostPermitSemaphore",
            "WriterStarvingRwLock",
            "LeakyBarrier",
        ):
            assert name in names

    def test_primitive_workloads_listed(self, capsys):
        assert main(["registry", "list", "workloads"]) == 0
        names = capsys.readouterr().out.split()
        for name in ("sem", "barrier-meet", "mixed-deadlock"):
            assert name in names

    def test_misspelled_primitive_component_suggests(self):
        """A near-miss component name gets a did-you-mean pointing at the
        newly registered primitive component."""
        from repro.run.config import RunConfig, RunConfigError

        with pytest.raises(RunConfigError) as err:
            RunConfig(
                workload="sem", component="NativeSemaphor"
            ).validate()
        assert "did you mean" in str(err.value)
        assert "NativeSemaphore" in str(err.value)


class TestCorpusCLI:
    def test_generate_sweep_report(self, capsys, tmp_path):
        from repro.corpus import read_manifest, write_manifest

        manifest = str(tmp_path / "corpus.jsonl")
        assert (
            main(
                [
                    "corpus",
                    "generate",
                    "--components",
                    "bounded_buffer,readers_writers",
                    "--out",
                    manifest,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wrote" in out and "faulty" in out and "controls" in out
        records = read_manifest(manifest)
        assert len(records) >= 50  # the issue's acceptance floor

        # sweep a hand-trimmed slice so the CLI path stays fast
        subset = [
            r
            for r in records
            if r.parent == "BoundedBuffer"
            and r.operators in ((), ("wait_if@put#0",), ("unsync@size#0",))
        ]
        assert len(subset) == 3
        write_manifest(subset, manifest)
        sweep_dir = str(tmp_path / "sweep")
        assert (
            main(
                [
                    "corpus",
                    "sweep",
                    "--manifest",
                    manifest,
                    "--out",
                    sweep_dir,
                    "--seeds",
                    "6",
                    "--quiet",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "results written to" in out
        assert "corpus report: 3 variants (2 faulty, 1 controls)" in out

        results = str(tmp_path / "sweep" / "results.jsonl")
        assert main(["corpus", "report", "--results", results]) == 0
        assert "corpus report:" in capsys.readouterr().out

        assert main(["corpus", "report", "--results", results, "--json"]) == 0
        import json

        data = json.loads(capsys.readouterr().out)
        assert data["variants"] == 3 and data["controls"] == 1

    def test_generate_unknown_component_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown component"):
            main(
                [
                    "corpus",
                    "generate",
                    "--components",
                    "bounded_bufer",
                    "--out",
                    str(tmp_path / "c.jsonl"),
                ]
            )

    def test_sweep_rejects_non_manifest(self, tmp_path):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"schema": "something"}\n')
        with pytest.raises(SystemExit, match="not a corpus manifest"):
            main(
                [
                    "corpus",
                    "sweep",
                    "--manifest",
                    str(bogus),
                    "--out",
                    str(tmp_path / "sweep"),
                ]
            )

    def test_report_missing_file_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="error"):
            main(
                ["corpus", "report", "--results", str(tmp_path / "none.jsonl")]
            )


class TestLiveTelemetryCommands:
    def _deadlock_decisions(self, capsys):
        main(["explore", "racing-locks", "--mode", "systematic", "--runs", "50"])
        out = capsys.readouterr().out
        return [
            line.split("--decisions")[1].strip()
            for line in out.splitlines()
            if "--decisions" in line
        ][0]

    def test_chrome_trace_on_replay(self, tmp_path, capsys):
        import json

        decisions = self._deadlock_decisions(capsys)
        target = tmp_path / "run.chrome.json"
        code = main(
            [
                "explore", "racing-locks", "--mode", "replay",
                "--decisions", decisions, "--chrome-trace", str(target),
            ]
        )
        assert code == 2
        assert "chrome trace written" in capsys.readouterr().out
        document = json.loads(target.read_text())
        assert document["otherData"]["format"] == "repro-chrome-trace"
        assert document["otherData"]["status"] == "deadlock"
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_chrome_trace_ignored_outside_replay(self, tmp_path, capsys):
        code = main(
            [
                "explore", "pc-ok", "--mode", "random", "--seeds", "0:3",
                "--chrome-trace", str(tmp_path / "x.json"),
            ]
        )
        assert code == 0
        assert "--chrome-trace only applies" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_trace_subcommand_converts_saved_trace(self, tmp_path, capsys):
        import json

        decisions = self._deadlock_decisions(capsys)
        saved = tmp_path / "run.jsonl"
        main(
            [
                "explore", "racing-locks", "--mode", "replay",
                "--decisions", decisions, "--save-trace", str(saved),
            ]
        )
        capsys.readouterr()
        assert main(["trace", str(saved)]) == 0
        out = capsys.readouterr().out
        assert "open in ui.perfetto.dev" in out
        converted = tmp_path / "run.chrome.json"
        document = json.loads(converted.read_text())
        assert document["otherData"]["source"] == str(saved)

    def test_trace_subcommand_explicit_out(self, tmp_path, capsys):
        decisions = self._deadlock_decisions(capsys)
        saved = tmp_path / "run.jsonl"
        main(
            [
                "explore", "racing-locks", "--mode", "replay",
                "--decisions", decisions, "--save-trace", str(saved),
            ]
        )
        target = tmp_path / "deep" / "out.json"
        assert main(["trace", str(saved), "--out", str(target)]) == 0
        assert target.exists()

    def test_trace_subcommand_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot load trace"):
            main(["trace", str(tmp_path / "nope.jsonl")])

    def test_campaign_serve_announces_endpoint(self, capsys):
        code = main(
            [
                "campaign", "pc-ok", "--budget", "10", "--workers", "0",
                "--serve", "127.0.0.1:0", "--quiet",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "live telemetry at http://127.0.0.1:" in err
        assert "/status /metrics /events" in err

    def test_campaign_serve_bad_address(self):
        with pytest.raises(SystemExit, match="--serve"):
            main(
                [
                    "campaign", "pc-ok", "--budget", "5", "--workers", "0",
                    "--serve", "not-a-port", "--quiet",
                ]
            )

    def test_campaign_progress_json_heartbeats(self, capsys):
        import json

        code = main(
            [
                "campaign", "pc-ok", "--budget", "10", "--workers", "0",
                "--progress-json",
            ]
        )
        assert code == 0
        lines = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        records = [json.loads(line) for line in lines]
        assert records, "expected JSONL heartbeats on stderr"
        assert records[-1]["final"] is True
        assert records[-1]["runs"] == 10

    def test_campaign_progress_json_wins_over_quiet(self, capsys):
        # --progress-json is an explicit request for machine-readable
        # output, so it must not be silenced by --quiet.
        import json

        code = main(
            [
                "campaign", "pc-ok", "--budget", "10", "--workers", "0",
                "--progress-json", "--quiet",
            ]
        )
        assert code == 0
        lines = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        assert lines, "expected JSONL heartbeats despite --quiet"
        assert json.loads(lines[-1])["final"] is True

    def test_campaign_dash_renders_final_frame(self, capsys):
        code = main(
            [
                "campaign", "pc-bug", "--budget", "20", "--workers", "0",
                "--dash",
            ]
        )
        assert code == 2  # pc-bug fails
        err = capsys.readouterr().err
        assert "campaign 'pc-bug'" in err
        assert "runs 20 unique" in err

    def test_dash_unreachable_endpoint(self, capsys):
        code = main(
            ["dash", "--url", "http://127.0.0.1:9", "--polls", "1",
             "--no-clear"]
        )
        assert code == 1
        assert "unreachable" in capsys.readouterr().out

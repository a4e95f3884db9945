"""Tests for RunConfig: normalization, validation, and the three
serialization formats (pickle / JSON / TOML) round-tripping to equal
configs."""

import pickle

import pytest

from repro.detect import ContentionReport
from repro.run import (
    DETECTOR_ORDER,
    RunConfig,
    RunConfigError,
    RunExecutor,
    load_scenario,
    normalize_detect,
    parse_seed_spec,
)
from repro.vm import RandomScheduler


class TestNormalizeDetect:
    def test_true_and_all_mean_everything(self):
        assert normalize_detect(True) == DETECTOR_ORDER
        assert normalize_detect("all") == DETECTOR_ORDER

    def test_falsy_means_off(self):
        assert normalize_detect(False) == ()
        assert normalize_detect(None) == ()
        assert normalize_detect(()) == ()

    def test_single_name(self):
        assert normalize_detect("hb") == ("hb",)

    def test_canonical_order_and_dedup(self):
        assert normalize_detect(["hb", "lockset", "hb"]) == ("lockset", "hb")

    def test_unknown_names_kept_for_validate(self):
        # normalize passes unknowns through; validate() rejects them
        assert "bogus" in normalize_detect(["bogus", "hb"])

    def test_contention_is_opt_in(self):
        assert "contention" not in normalize_detect(True)
        config = RunConfig(workload="pc-bug", detect=("contention",))
        config.validate()
        executor = RunExecutor(config)
        executor(RandomScheduler(seed=0)).run()
        report = executor.pipeline.findings()["contention"]
        assert isinstance(report, ContentionReport)
        assert report.monitors["SingleNotifyProducerConsumer"].acquisitions > 0


class TestParseSeedSpec:
    def test_int(self):
        assert parse_seed_spec(7) == [7]

    def test_int_string(self):
        assert parse_seed_spec("7") == [7]

    def test_half_open_range(self):
        assert parse_seed_spec("3:6") == [3, 4, 5]
        assert parse_seed_spec(":3") == [0, 1, 2]

    def test_comma_list(self):
        assert parse_seed_spec("1,5,9") == [1, 5, 9]

    def test_explicit_list(self):
        assert parse_seed_spec([2, 4]) == [2, 4]

    def test_empty_range_rejected(self):
        with pytest.raises(RunConfigError, match="empty seed range"):
            parse_seed_spec("5:5")

    def test_garbage_rejected(self):
        with pytest.raises(RunConfigError):
            parse_seed_spec("abc")


class TestValidation:
    def test_minimal_config_validates(self):
        RunConfig(workload="pc-bug").validate()

    def test_unknown_workload(self):
        with pytest.raises(RunConfigError, match="unknown workload"):
            RunConfig(workload="no-such").validate()

    def test_unknown_scheduler_lists_known(self):
        with pytest.raises(RunConfigError, match="systematic"):
            RunConfig(workload="pc-ok", scheduler="bogus").validate()

    def test_unknown_detector_lists_known(self):
        with pytest.raises(RunConfigError, match="unknown detector 'bogus'"):
            RunConfig(workload="pc-ok", detect=["bogus"]).validate()

    def test_trace_none_needs_detect(self):
        with pytest.raises(RunConfigError, match="observes nothing"):
            RunConfig(workload="pc-ok", trace_mode="none").validate()

    def test_trace_none_rejects_coverage(self):
        with pytest.raises(RunConfigError, match="coverage"):
            RunConfig(
                workload="pc-ok",
                detect=True,
                trace_mode="none",
                coverage="repro.components:ProducerConsumer",
            ).validate()

    def test_template_needs_component(self):
        with pytest.raises(RunConfigError, match="is a template"):
            RunConfig(workload="pc").validate()

    def test_plain_workload_rejects_component(self):
        with pytest.raises(RunConfigError, match="does not take a component"):
            RunConfig(workload="pc-ok", component="ProducerConsumer").validate()

    def test_unknown_component(self):
        with pytest.raises(RunConfigError, match="unknown component"):
            RunConfig(workload="pc", component="NoSuch").validate()

    def test_template_with_component_validates(self):
        RunConfig(workload="pc", component="SingleNotifyProducerConsumer").validate()

    def test_negative_timeout_rejected(self):
        with pytest.raises(RunConfigError, match="timeout"):
            RunConfig(workload="pc-ok", timeout=-1).validate()

    def test_error_is_value_error(self):
        # callers that matched ValueError before the run layer keep working
        with pytest.raises(ValueError):
            RunConfig(workload="no-such").validate()


class TestAssembly:
    def test_build_factory_plain(self):
        factory = RunConfig(workload="pc-ok").build_factory()
        kernel = factory(RunConfig(workload="pc-ok").make_scheduler(seed=0))
        assert kernel.run().ok

    def test_build_factory_template(self):
        config = RunConfig(workload="pc", component="ProducerConsumer")
        kernel = config.build_factory()(config.make_scheduler(seed=0))
        assert kernel.run().ok

    def test_make_scheduler_replay_prefix(self):
        config = RunConfig(workload="pc-ok", scheduler="replay", prefix=(0, 1))
        scheduler = config.make_scheduler()
        assert scheduler is not None

    def test_make_scheduler_systematic_refused(self):
        with pytest.raises(RunConfigError, match="explore"):
            RunConfig(workload="pc-ok", scheduler="systematic").make_scheduler()


FULL = dict(
    workload="pc",
    component="SingleNotifyProducerConsumer",
    scheduler="pct",
    seed=17,
    prefix=(2, 0, 1),
    detect=("hb", "lockset"),
    trace_mode="full",
    metrics=True,
    timeout=2.5,
    coverage="repro.components:ProducerConsumer",
    max_depth=99,
    branch="deep",
    pct_depth=4,
    pct_expected_steps=123,
)


class TestRoundTrips:
    def test_detect_true_coerces_to_all(self):
        assert RunConfig(workload="pc-ok", detect=True).detect == DETECTOR_ORDER

    def test_prefix_list_coerces_to_tuple(self):
        assert RunConfig(workload="pc-ok", prefix=[1, 2]).prefix == (1, 2)

    def test_pickle_round_trip(self):
        config = RunConfig(**FULL)
        assert pickle.loads(pickle.dumps(config)) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(RunConfigError, match="unknown key"):
            RunConfig.from_dict({"workload": "pc-ok", "sheduler": "random"})

    def test_from_dict_requires_workload(self):
        with pytest.raises(RunConfigError, match="workload"):
            RunConfig.from_dict({"scheduler": "random"})


class TestScenarioFiles:
    def _write(self, tmp_path, text):
        path = tmp_path / "scenario.toml"
        path.write_text(text)
        return path

    def test_minimal_scenario(self, tmp_path):
        pytest.importorskip("tomllib")
        path = self._write(tmp_path, '[run]\nworkload = "pc-ok"\n')
        scenario = load_scenario(path)
        assert scenario.run.workload == "pc-ok"
        assert scenario.explore is None and scenario.campaign is None

    def test_explore_table(self, tmp_path):
        pytest.importorskip("tomllib")
        path = self._write(
            tmp_path,
            '[run]\nworkload = "pc-bug"\nscheduler = "random"\n'
            '[explore]\nruns = 10\nseeds = "0:10"\n',
        )
        scenario = load_scenario(path)
        assert scenario.explore == {"runs": 10, "seeds": "0:10"}

    def test_campaign_table(self, tmp_path):
        pytest.importorskip("tomllib")
        path = self._write(
            tmp_path,
            '[run]\nworkload = "pc-bug"\n[campaign]\nbudget = 20\nworkers = 0\n',
        )
        scenario = load_scenario(path)
        assert scenario.campaign == {"budget": 20, "workers": 0}

    def test_missing_run_table(self, tmp_path):
        pytest.importorskip("tomllib")
        path = self._write(tmp_path, '[explore]\nruns = 5\n')
        with pytest.raises(RunConfigError, match=r"needs a \[run\] table"):
            load_scenario(path)

    def test_unknown_table(self, tmp_path):
        pytest.importorskip("tomllib")
        path = self._write(
            tmp_path, '[run]\nworkload = "pc-ok"\n[surprise]\nx = 1\n'
        )
        with pytest.raises(RunConfigError, match="unknown table"):
            load_scenario(path)

    def test_both_drivers_rejected(self, tmp_path):
        pytest.importorskip("tomllib")
        path = self._write(
            tmp_path,
            '[run]\nworkload = "pc-ok"\n[explore]\nruns = 5\n'
            '[campaign]\nbudget = 5\n',
        )
        with pytest.raises(RunConfigError, match="both"):
            load_scenario(path)

    def test_unknown_explore_key(self, tmp_path):
        pytest.importorskip("tomllib")
        path = self._write(
            tmp_path, '[run]\nworkload = "pc-ok"\n[explore]\nrnus = 5\n'
        )
        with pytest.raises(RunConfigError, match="unknown key"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "table",
        [
            '[explore]\nstop_on_failure = 1\n',
            '[explore]\nseeds = "a:b"\n',
            '[campaign]\nworkers = true\n',
            '[campaign]\njournal = 3\n',
            '[campaign]\nquiet = "yes"\n',
        ],
    )
    def test_driver_value_of_wrong_type_rejected(self, tmp_path, table):
        pytest.importorskip("tomllib")
        path = self._write(tmp_path, '[run]\nworkload = "pc-ok"\n' + table)
        with pytest.raises(RunConfigError, match="must be|seed spec"):
            load_scenario(path)

    def test_invalid_run_table_rejected(self, tmp_path):
        pytest.importorskip("tomllib")
        path = self._write(tmp_path, '[run]\nworkload = "no-such"\n')
        with pytest.raises(RunConfigError, match="unknown workload"):
            load_scenario(path)

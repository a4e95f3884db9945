"""Command-line interface.

::

    python -m repro table1                      # print Table 1
    python -m repro figure1 [--threads N] [--dot]
    python -m repro figure3
    python -m repro cofg repro.components:ProducerConsumer [--method receive] [--dot]
    python -m repro check repro.components.faulty:UnsyncCounter
    python -m repro run script.cts [--save-trace run.jsonl] [--verbose]
    python -m repro run scenario.toml
    python -m repro analyze run.jsonl
    python -m repro contention run.jsonl
    python -m repro explore pc-bug --mode random --seeds 0:100 [--detect] [--metrics]
    python -m repro campaign pc-bug --workers 4 --budget 400 \\
        --journal camp.jsonl [--resume] [--detect --trace-mode none] \\
        [--metrics-out metrics.jsonl] [--serve 127.0.0.1:8000] [--dash] \\
        [--progress-json]
    python -m repro dash --url http://127.0.0.1:8000
    python -m repro trace run.jsonl [--out run.chrome.json]
    python -m repro profile pc-bug --runs 50
    python -m repro registry list [components|workloads|schedulers|detectors|faults]
    python -m repro corpus generate --components bounded_buffer,readers_writers
    python -m repro corpus sweep --manifest corpus.jsonl --out sweep/ [--resume]
    python -m repro corpus report --results sweep/results.jsonl [--json]

The ``run`` command executes a ConAn-style test script (see
:mod:`repro.testing.script` for the format) — or, given a ``.toml``
path, a declarative scenario file (see :func:`repro.run.load_scenario`
for the schema).  ``analyze`` re-runs every trace-based detector over a
saved run.  ``explore`` drives the single-process schedule explorer
over a named workload or any ``module:function`` program factory;
``campaign`` shards the same schedule space across a multiprocessing
pool with journaling and resume (see :mod:`repro.engine`).  Both share
one set of run flags, parsed into one :class:`repro.run.RunConfig`, and a
scenario file parses into the same objects; each job (one run, an
exploration, a campaign) then has one driver that flags and files both
call.  Runs are assembled by :class:`repro.run.RunExecutor`, and the CLI
reads detection and metrics only from its summaries and its last run's
report and sink snapshot.

``campaign --serve`` exposes live telemetry over an embedded HTTP
endpoint while the campaign runs, ``dash`` renders a terminal dashboard
against that endpoint, and ``trace`` converts a saved run trace into
Chrome trace-event JSON loadable in Perfetto (see
:mod:`repro.obs.live`).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Type

from repro.vm.api import MonitorComponent

__all__ = ["main", "build_parser"]


def _resolve_component(spec: str) -> Type[MonitorComponent]:
    """Resolve ``module:ClassName`` (or ``module.ClassName``) to a class."""
    if ":" in spec:
        module_name, class_name = spec.split(":", 1)
    elif "." in spec:
        module_name, class_name = spec.rsplit(".", 1)
    else:
        raise SystemExit(f"error: component spec {spec!r} must be module:Class")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise SystemExit(f"error: cannot import {module_name!r}: {exc}")
    try:
        cls = getattr(module, class_name)
    except AttributeError:
        raise SystemExit(f"error: {module_name!r} has no class {class_name!r}")
    return cls


def _resolve_faults(spec: Optional[str]):
    """Resolve a ``--faults`` value: a registered plan name (coerced later
    by the run layer, with did-you-mean on typos) or a path to a
    fault-plan JSON file."""
    if spec is None:
        return None
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        from repro.faults.plan import FaultPlan

        try:
            return FaultPlan.from_json(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: --faults {spec!r}: {exc}")
    return spec


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.report import render_table1

    print(render_table1(width=args.width))
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    if args.dot:
        from repro.petri import build_concurrency_net, net_to_dot

        net, m0 = build_concurrency_net(args.threads)
        print(net_to_dot(net, m0))
    else:
        from repro.report import render_figure1

        print(render_figure1(args.threads))
    return 0


def _cmd_figure3(_args: argparse.Namespace) -> int:
    from repro.report import render_figure3

    print(render_figure3())
    return 0


def _cmd_cofg(args: argparse.Namespace) -> int:
    from repro.analysis import build_all_cofgs, build_cofg, cofg_to_dot

    cls = _resolve_component(args.component)
    if args.method:
        cofgs = {args.method: build_cofg(cls, args.method)}
    else:
        cofgs = build_all_cofgs(cls)
        if not cofgs:
            print(f"{cls.__name__} declares no @synchronized/@unsynchronized methods")
            return 1
    for name, cofg in cofgs.items():
        if args.dot:
            print(cofg_to_dot(cofg))
        else:
            print(cofg.describe())
        print()
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis import check_component

    cls = _resolve_component(args.component)
    findings = check_component(cls)
    if not findings:
        print(f"{cls.__name__}: no static findings")
        return 0
    for finding in findings:
        print(finding)
    return 2


def _cmd_run(args: argparse.Namespace) -> int:
    if args.script.endswith(".toml"):
        return _cmd_run_scenario(args)
    from repro.testing.script import parse_script
    from repro.vm.monitor import SelectionPolicy
    from repro.vm.scheduler import FifoScheduler, RandomScheduler

    text = Path(args.script).read_text()
    parsed = parse_script(text, name=Path(args.script).stem)

    scheduler = (
        RandomScheduler(args.seed) if args.seed is not None else FifoScheduler()
    )
    outcome = parsed.run(
        scheduler=scheduler,
        lock_policy=SelectionPolicy(args.lock_policy),
        notify_policy=SelectionPolicy(args.notify_policy),
    )
    print(outcome.describe())
    if args.verbose:
        print()
        print(outcome.coverage.describe())
        print()
        print(outcome.report.describe())
    if args.save_trace:
        from repro.vm.serialize import save_trace

        save_trace(
            outcome.result.trace,
            args.save_trace,
            schedule=outcome.result.schedule_log,
        )
        print(f"\ntrace saved to {args.save_trace}")
    return 0 if outcome.passed else 1


def _cmd_run_scenario(args: argparse.Namespace) -> int:
    """Execute a declarative ``scenario.toml``: a ``[run]`` table plus at
    most one of ``[explore]`` / ``[campaign]``, each handed to the driver
    the matching command uses."""
    from repro.run import RunConfigError, load_scenario

    try:
        scenario = load_scenario(args.script)
    except (OSError, RunConfigError) as exc:
        raise SystemExit(f"error: {exc}")
    config = scenario.run

    if scenario.campaign is not None:
        from repro.engine import CampaignSpec

        params = dict(scenario.campaign)
        resume = bool(params.pop("resume", False))
        quiet = bool(params.pop("quiet", False))
        journal = params.pop("journal", None)
        if journal is not None:
            params["journal_path"] = str(journal)
        spec = CampaignSpec.from_run_config(config, **params)
        return _campaign(spec, resume, quiet=quiet)

    executor = _executor(config)
    if scenario.explore is not None:
        params = scenario.explore
        seeds = params.get("seeds")
        return _explore(
            executor,
            runs=int(params.get("runs", 200)),
            seeds=_parse_seeds(seeds) if seeds is not None else None,
            stop_on_failure=bool(params.get("stop_on_failure", False)),
        )

    # no driver table: execute exactly one run as configured
    result = _execute(executor)
    print(f"{config.workload}: {result.status.value} after {result.steps} steps")
    return _report_run(executor, result)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.detect import (
        analyze_starvation,
        detect_lock_cycles,
        detect_races,
        find_deadlock_cycle,
    )
    from repro.vm.serialize import load_trace

    trace = load_trace(args.trace)
    print(f"loaded {len(trace)} events, threads: {', '.join(trace.threads())}")
    clean = True
    for race in detect_races(trace):
        print("race:", race)
        clean = False
    for cycle in detect_lock_cycles(trace):
        print("lock-order hazard:", cycle)
        clean = False
    deadlock = find_deadlock_cycle(trace)
    if deadlock:
        print("deadlock cycle:", " -> ".join(deadlock))
        clean = False
    for starved in analyze_starvation(trace):
        print("starvation:", starved)
        clean = False
    if clean:
        print("no findings")
    return 0 if clean else 2


def _cmd_contention(args: argparse.Namespace) -> int:
    from repro.detect.contention import profile_contention
    from repro.vm.serialize import load_trace

    report = profile_contention(load_trace(args.trace))
    print(report.table())
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.analysis.metrics import component_metrics

    cls = _resolve_component(args.component)
    print(component_metrics(cls).describe())
    return 0


def _parse_alphabet(specs: List[str]):
    """Turn ``method`` / ``method:arg1,arg2`` specs into CallTemplates."""
    import ast as ast_module

    from repro.testing.generator import CallTemplate

    templates = []
    for spec in specs:
        if ":" in spec:
            method, args_text = spec.split(":", 1)
            args = tuple(ast_module.literal_eval(f"({args_text},)"))
            templates.append(
                CallTemplate(method, lambda i, a=args: a, label=spec)
            )
        else:
            templates.append(CallTemplate(spec))
    return templates


def _cmd_method(args: argparse.Namespace) -> int:
    from repro.method import systematic_test

    cls = _resolve_component(args.component)
    report = systematic_test(
        cls,
        alphabet=_parse_alphabet(args.call),
        max_generated_length=args.max_length,
    )
    print(report.describe())
    if args.save_suite:
        report.suite.save(args.save_suite)
        print(f"\ngolden suite saved to {args.save_suite}")
    return 0 if report.passed else 1


def _cmd_suite_run(args: argparse.Namespace) -> int:
    from repro.testing.regression import RegressionSuite

    cls = _resolve_component(args.component)
    suite = RegressionSuite.load(args.suite)
    report = suite.run(cls)
    print(report.describe())
    return 0 if report.passed else 1


def _parse_seeds(spec) -> List[int]:
    """Parse a seed spec: ``7``, ``0:100`` (half-open), or ``1,5,9``."""
    from repro.run import RunConfigError, parse_seed_spec

    try:
        return list(parse_seed_spec(spec))
    except RunConfigError as exc:
        raise SystemExit(f"error: {exc}")


def _run_config(args: argparse.Namespace, **fields):
    """The :class:`repro.run.RunConfig` of the shared run flags, plus the
    command's own ``fields``."""
    from repro.run import RunConfig, RunConfigError

    try:
        return RunConfig(
            workload=args.factory,
            component=args.component,
            scheduler=args.mode,
            detect=args.detect,
            metrics=args.metrics or bool(args.metrics_out),
            max_depth=args.max_depth,
            branch=args.branch,
            pct_depth=args.pct_depth,
            pct_expected_steps=args.pct_steps,
            spurious_rate=args.spurious_rate,
            faults=_resolve_faults(args.faults),
            **fields,
        )
    except RunConfigError as exc:
        raise SystemExit(f"error: {exc}")


def _executor(config):
    from repro.run import RunConfigError
    from repro.run.executor import RunExecutor

    try:
        return RunExecutor(config)
    except RunConfigError as exc:
        raise SystemExit(f"error: {exc}")


def _execute(executor):
    """One run of the config's own scheduler (seed, replay prefix, and all)."""
    from repro.run import RunConfigError
    from repro.vm.scheduler import ChoiceExhaustedError

    try:
        return executor.execute()
    except RunConfigError as exc:
        raise SystemExit(f"error: {exc}")
    except ChoiceExhaustedError as exc:
        raise SystemExit(
            f"error: decision sequence does not fit this program: {exc}"
        )


def _print_metrics(registry, metrics_out: Optional[str], config) -> None:
    events = registry.get("vm_events_total")
    total = int(events.total) if events is not None else 0
    print(f"  metrics: {total} kernel events")
    contended = registry.get("vm_monitor_contended_ticks_total")
    if contended is not None:
        for name, ticks in contended.top(3, label="monitor"):
            print(f"    contended monitor {name}: {int(ticks)} ticks")
    if metrics_out:
        from repro.obs import write_metrics_jsonl

        write_metrics_jsonl(
            registry,
            metrics_out,
            meta={"factory": config.workload, "mode": config.scheduler},
        )
        print(f"  metrics written to {metrics_out}")


def _report_run(executor, result, metrics_out: Optional[str] = None) -> int:
    """Report one executed run: stuck and crashed threads, the detection
    report and the metrics summary; returns the exit code."""
    if result.stuck_threads:
        print(f"  stuck threads: {', '.join(result.stuck_threads)}")
    for name, exc in result.crashed.items():
        print(f"  crashed {name}: {exc!r}")
    if executor.pipeline is not None:
        print()
        print(executor.pipeline.report(result).describe())
    if executor.sink is not None:
        from repro.obs import MetricsRegistry
        from repro.obs.sink import fold_record

        registry = MetricsRegistry()
        fold_record(registry, executor.sink.snapshot())
        _print_metrics(registry, metrics_out, executor.config)
    return 0 if result.ok else 2


def _explore(
    executor,
    runs: int,
    seeds: Optional[List[int]],
    stop_on_failure: bool,
    metrics_out: Optional[str] = None,
) -> int:
    """The exploration driver: ``runs`` bounds a systematic enumeration
    and, without ``seeds``, sets the seed count of a random/PCT one.
    Classes and metrics are folded per run by a
    :class:`~repro.engine.ProgressTracker`, as a campaign folds them."""
    from repro.engine import ProgressTracker
    from repro.run import RunConfigError

    config = executor.config
    tracker = ProgressTracker()

    def on_run(run) -> None:
        tracker.note_run(executor.summarize(run))

    try:
        if config.scheduler == "systematic":
            result = executor.explore(
                max_runs=runs, stop_on_failure=stop_on_failure, on_run=on_run
            )
        else:
            result = executor.explore(
                seeds=seeds if seeds is not None else list(range(runs)),
                stop_on_failure=stop_on_failure,
                on_run=on_run,
            )
    except RunConfigError as exc:
        raise SystemExit(f"error: {exc}")
    print(result.describe())
    if config.detect:
        class_bits = ", ".join(
            f"{code}: {count}" for code, count in sorted(tracker.classes.items())
        )
        print(f"  failure classes: {class_bits or 'none detected'}")
    if config.metrics:
        _print_metrics(tracker.metrics, metrics_out, config)
    lo, hi = result.failure_rate_interval()
    print(f"  failure rate: {result.failure_rate():.1%} (95% CI [{lo:.1%}, {hi:.1%}])")
    for run in result.failures():
        if run.seed is not None:
            print(f"  failure at seed {run.seed}: {run.result.status.value}")
        else:
            decisions = ",".join(str(d) for d in run.decisions)
            print(
                f"  failure ({run.result.status.value}) — replay with "
                f"--mode replay --decisions {decisions}"
            )
        break  # first failure is enough for the console
    return 0 if not result.failures() else 2


def _cmd_explore(args: argparse.Namespace) -> int:
    decisions: List[int] = []
    if args.mode == "replay":
        if args.decisions is None:
            raise SystemExit("error: --mode replay requires --decisions")
        try:
            decisions = [int(d) for d in args.decisions.split(",") if d.strip()]
        except ValueError:
            raise SystemExit(
                f"error: --decisions must be comma-separated integers, "
                f"got {args.decisions!r}"
            )
    executor = _executor(_run_config(args, prefix=tuple(decisions), timeout=0.0))

    if args.mode == "replay":
        result = _execute(executor)
        print(f"replayed {len(decisions)} decisions: {result.status.value}")
        code = _report_run(executor, result, args.metrics_out)
        if args.save_trace:
            from repro.vm.serialize import save_trace

            save_trace(result.trace, args.save_trace, schedule=result.schedule_log)
            print(f"trace saved to {args.save_trace}")
        if args.chrome_trace:
            from repro.obs.live import write_chrome_trace

            write_chrome_trace(
                result.trace,
                args.chrome_trace,
                meta={
                    "factory": args.factory,
                    "status": result.status.value,
                    "decisions": len(decisions),
                },
            )
            print(
                f"chrome trace written to {args.chrome_trace} "
                "(open in ui.perfetto.dev)"
            )
        return code

    for flag, value in (
        ("--save-trace", args.save_trace),
        ("--chrome-trace", args.chrome_trace),
    ):
        if value:
            print(
                f"warning: {flag} only applies to --mode replay; ignoring "
                "(replay a failure's decisions or seed to capture its trace)",
                file=sys.stderr,
            )
    return _explore(
        executor,
        runs=args.runs,
        seeds=_parse_seeds(args.seeds) if args.seeds else None,
        stop_on_failure=args.stop_on_failure,
        metrics_out=args.metrics_out,
    )


def _campaign(
    spec,
    resume: bool,
    *,
    quiet: bool = False,
    progress_json: bool = False,
    serve: Optional[str] = None,
    dash: bool = False,
) -> int:
    """The campaign driver: heartbeat, optional live telemetry, the
    report and the metrics-path lines; returns the exit code."""
    from repro.engine import CampaignError, ProgressTracker, run_campaign
    from repro.engine.journal import JournalError

    # --progress-json is an explicit request for machine-readable
    # heartbeats, so it wins over --quiet and --dash; the plain text
    # heartbeat stays off under either (--dash owns the terminal).
    heartbeat = progress_json or not (quiet or dash)
    progress = ProgressTracker(
        total_runs=spec.budget,
        stream=sys.stderr if heartbeat else None,
        json_mode=progress_json,
    )

    telemetry = None
    server = None
    dashboard = None
    if serve or dash:
        from repro.obs.live import LiveAggregator
        from repro.obs.live.dash import LocalDashboard
        from repro.obs.live.server import TelemetryServer, parse_serve_address

        telemetry = LiveAggregator(total_runs=spec.budget)
        if serve:
            try:
                host, port = parse_serve_address(serve)
                server = TelemetryServer(telemetry, host, port).start()
            except (ValueError, OSError) as exc:
                raise SystemExit(f"error: --serve {serve}: {exc}")
            print(
                f"live telemetry at {server.url} (/status /metrics /events)",
                file=sys.stderr,
            )
        if dash:
            dashboard = LocalDashboard(telemetry, sys.stderr).start()
    try:
        result = run_campaign(
            spec, resume=resume, progress=progress, telemetry=telemetry
        )
    except (CampaignError, JournalError) as exc:
        raise SystemExit(f"error: {exc}")
    finally:
        if dashboard is not None:
            dashboard.stop()
        if server is not None:
            server.close()
    print(result.describe())
    if spec.metrics_out:
        print(f"metrics written to {spec.metrics_out}")
    if spec.metrics_prom:
        print(f"prometheus metrics written to {spec.metrics_prom}")
    return 2 if result.failures() else 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.engine import CampaignSpec

    config = _run_config(
        args,
        coverage=args.coverage,
        trace_mode=args.trace_mode,
        timeout=args.timeout,
    )
    spec = CampaignSpec.from_run_config(
        config,
        budget=args.budget,
        workers=args.workers,
        shard_size=args.shard_size,
        seed_start=args.seed_start,
        goal=args.goal,
        max_retries=args.retries,
        journal_path=args.journal,
        metrics_out=args.metrics_out,
        metrics_prom=args.metrics_prom,
    )
    return _campaign(
        spec,
        args.resume,
        quiet=args.quiet,
        progress_json=args.progress_json,
        serve=args.serve,
        dash=args.dash,
    )


def _cmd_dash(args: argparse.Namespace) -> int:
    from repro.obs.live.dash import run_dashboard

    try:
        return run_dashboard(
            args.url,
            stream=sys.stdout,
            interval=args.interval,
            clear=not args.no_clear,
            max_polls=args.polls,
        )
    except BrokenPipeError:
        return 0  # downstream pager/head closed the pipe; not an error


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.obs.live import to_chrome_trace
    from repro.vm.serialize import load_trace

    try:
        trace = load_trace(args.trace)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"error: cannot load trace {args.trace!r}: {exc}")
    out = Path(args.out) if args.out else Path(args.trace).with_suffix(".chrome.json")
    document = to_chrome_trace(trace, meta={"source": str(args.trace)})
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(_json.dumps(document) + "\n")
    print(
        f"chrome trace written to {out} "
        f"({len(document['traceEvents'])} events; open in ui.perfetto.dev)"
    )
    return 0


def _cmd_registry_list(args: argparse.Namespace) -> int:
    from repro.run.registry import (
        COMPONENTS,
        DETECTORS,
        FAULTS,
        SCHEDULERS,
        WORKLOADS,
        load_builtins,
    )

    load_builtins()
    registries = {
        "components": COMPONENTS,
        "workloads": WORKLOADS,
        "schedulers": SCHEDULERS,
        "detectors": DETECTORS,
        "faults": FAULTS,
    }
    kinds = [args.kind] if args.kind else list(registries)
    for kind in kinds:
        names = registries[kind].names()
        if args.kind:
            for name in names:
                print(name)
        else:
            print(f"{kind} ({len(names)}):")
            for name in names:
                print(f"  {name}")
    return 0


def _cmd_corpus_generate(args: argparse.Namespace) -> int:
    from repro.corpus import CorpusError, generate_corpus, write_manifest

    components = [c.strip() for c in args.components.split(",") if c.strip()]
    if not components:
        raise SystemExit("error: --components needs at least one name")
    try:
        records = generate_corpus(components, pair_cap=args.pair_cap)
    except CorpusError as exc:
        raise SystemExit(f"error: {exc}")
    write_manifest(records, args.out)
    faulty = sum(1 for r in records if not r.is_control)
    print(
        f"wrote {len(records)} variants ({faulty} faulty, "
        f"{len(records) - faulty} controls) to {args.out}"
    )
    return 0


def _cmd_corpus_sweep(args: argparse.Namespace) -> int:
    import os

    from repro.corpus import (
        CorpusError,
        SweepResult,
        build_report,
        load_corpus,
        read_manifest,
        sweep_corpus,
        write_results,
    )
    from repro.engine import CampaignError
    from repro.engine.journal import JournalError

    try:
        records = read_manifest(args.manifest)
        load_corpus(records)
    except (OSError, CorpusError) as exc:
        raise SystemExit(f"error: {exc}")

    def on_variant(result: SweepResult) -> None:
        if args.quiet:
            return
        mark = "." if result.is_control else ("+" if result.caught else "!")
        detected = ", ".join(result.detected) or "clean"
        print(f"  [{mark}] {result.variant_id}: {detected}", file=sys.stderr)

    try:
        results = sweep_corpus(
            records,
            args.out,
            seeds=args.seeds,
            resume=args.resume,
            timeout=args.timeout,
            on_variant=on_variant,
        )
    except (CorpusError, CampaignError, JournalError) as exc:
        raise SystemExit(f"error: {exc}")
    results_path = os.path.join(args.out, "results.jsonl")
    write_results(results, results_path, seeds=args.seeds)
    print(f"results written to {results_path}")
    print()
    print(build_report(results).describe())
    return 0


def _cmd_corpus_report(args: argparse.Namespace) -> int:
    from repro.corpus import CorpusError, build_report, read_results

    try:
        report = build_report(read_results(args.results))
    except (OSError, CorpusError) as exc:
        raise SystemExit(f"error: {exc}")
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.engine.workloads import resolve_factory
    from repro.obs import profile_workload

    try:
        factory = resolve_factory(args.factory)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    report = profile_workload(
        factory,
        workload=args.factory,
        runs=args.runs,
        seed_start=args.seed_start,
        detect=not args.no_detect,
    )
    print(report.describe())
    if args.metrics_out:
        from repro.obs import write_metrics_jsonl

        write_metrics_jsonl(
            report.registry,
            args.metrics_out,
            meta={"workload": args.factory, "runs": args.runs},
        )
        print(f"\nmetrics written to {args.metrics_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Classification of Concurrency Failures in "
            "Java Components' (Long & Strooper, IPPS 2003)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table1 = sub.add_parser("table1", help="print the Table-1 classification")
    p_table1.add_argument("--width", type=int, default=24, help="column wrap width")
    p_table1.set_defaults(func=_cmd_table1)

    p_fig1 = sub.add_parser("figure1", help="print the Figure-1 Petri-net model")
    p_fig1.add_argument("--threads", type=int, default=1)
    p_fig1.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p_fig1.set_defaults(func=_cmd_figure1)

    p_fig3 = sub.add_parser("figure3", help="print the Figure-3 CoFG tables")
    p_fig3.set_defaults(func=_cmd_figure3)

    p_cofg = sub.add_parser("cofg", help="build CoFGs for a component")
    p_cofg.add_argument("component", help="module:ClassName")
    p_cofg.add_argument("--method", help="single method (default: all)")
    p_cofg.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p_cofg.set_defaults(func=_cmd_cofg)

    p_check = sub.add_parser(
        "check", help="run the FF-T1/EF-T1 static checks on a component"
    )
    p_check.add_argument("component", help="module:ClassName")
    p_check.set_defaults(func=_cmd_check)

    p_run = sub.add_parser(
        "run",
        help="execute a ConAn-style test script (.cts) or a declarative "
        "scenario file (.toml)",
    )
    p_run.add_argument("script", help="path to the script or scenario file")
    p_run.add_argument("--seed", type=int, help="random scheduler seed")
    from repro.vm.monitor import SelectionPolicy

    policy_names = [p.value for p in SelectionPolicy]
    p_run.add_argument("--lock-policy", default="fifo", choices=policy_names)
    p_run.add_argument("--notify-policy", default="fifo", choices=policy_names)
    p_run.add_argument("--save-trace", help="write the trace to this JSONL path")
    p_run.add_argument("--verbose", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_analyze = sub.add_parser("analyze", help="run detectors over a saved trace")
    p_analyze.add_argument("trace", help="path to a .jsonl trace")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_cont = sub.add_parser(
        "contention", help="monitor-contention profile of a saved trace"
    )
    p_cont.add_argument("trace", help="path to a .jsonl trace")
    p_cont.set_defaults(func=_cmd_contention)

    p_metrics = sub.add_parser(
        "metrics", help="CoFG complexity metrics of a component"
    )
    p_metrics.add_argument("component", help="module:ClassName")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_method = sub.add_parser(
        "method",
        help="run the paper's full method: CoFGs, static checks, "
        "generated covering sequence, golden oracle",
    )
    p_method.add_argument("component", help="module:ClassName")
    p_method.add_argument(
        "--call",
        action="append",
        default=[],
        required=True,
        help="alphabet entry: 'method' or 'method:arg1,arg2' (repeatable)",
    )
    p_method.add_argument("--max-length", type=int, default=16)
    p_method.add_argument(
        "--save-suite", help="write the golden suite JSON to this path"
    )
    p_method.set_defaults(func=_cmd_method)

    p_suite = sub.add_parser(
        "suite-run", help="run a saved golden suite against a component"
    )
    p_suite.add_argument("suite", help="path to a suite .json")
    p_suite.add_argument("component", help="module:ClassName to test")
    p_suite.set_defaults(func=_cmd_suite_run)

    # the run flags ``explore`` and ``campaign`` share (see _run_config)
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument(
        "factory", help="workload name (e.g. pc-bug) or module:function factory"
    )
    run_flags.add_argument(
        "--component",
        help="component name to instantiate a workload template with "
        "(e.g. 'pc' + --component BoundedBuffer)",
    )
    run_flags.add_argument(
        "--detect",
        action="store_true",
        help="stream every run through the online detector pipeline "
        "and report per-failure-class counts",
    )
    run_flags.add_argument("--max-depth", type=int, default=400)
    run_flags.add_argument("--branch", default="shallow", choices=["shallow", "deep"])
    run_flags.add_argument("--pct-depth", type=int, default=3)
    run_flags.add_argument("--pct-steps", type=int, default=200)
    run_flags.add_argument(
        "--metrics",
        action="store_true",
        help="attach the instrumentation sink to every run and report "
        "the merged metrics",
    )
    run_flags.add_argument(
        "--metrics-out",
        help="write the merged metrics registry to this JSONL path "
        "(implies --metrics)",
    )
    run_flags.add_argument(
        "--spurious-rate",
        type=float,
        default=0.0,
        help="per-step probability that one waiting thread wakes "
        "spuriously (drawn from each run's seeded RNG, so runs stay "
        "reproducible; folded into a campaign's journal fingerprint)",
    )
    run_flags.add_argument(
        "--faults",
        help="deterministic fault plan: a registered plan name (see "
        "'registry list faults') or a path to a fault-plan JSON file",
    )

    p_explore = sub.add_parser(
        "explore",
        parents=[run_flags],
        help="single-process schedule exploration of a workload "
        "(systematic DFS, random, PCT, or exact replay)",
    )
    p_explore.add_argument(
        "--mode",
        default="systematic",
        choices=["systematic", "random", "pct", "replay"],
    )
    p_explore.add_argument(
        "--runs", type=int, default=200, help="run budget (seed count if no --seeds)"
    )
    p_explore.add_argument(
        "--seeds", help="seed spec for random/pct: '7', '0:100', or '1,5,9'"
    )
    p_explore.add_argument("--stop-on-failure", action="store_true")
    p_explore.add_argument(
        "--decisions", help="comma-separated decision indices for --mode replay"
    )
    p_explore.add_argument(
        "--save-trace", help="(replay mode) write the trace to this JSONL path"
    )
    p_explore.add_argument(
        "--chrome-trace",
        help="(replay mode) write a Perfetto-loadable Chrome trace-event "
        "JSON of the replayed run to this path (open in ui.perfetto.dev)",
    )
    p_explore.set_defaults(func=_cmd_explore)

    p_campaign = sub.add_parser(
        "campaign",
        parents=[run_flags],
        help="parallel, resumable schedule-exploration campaign "
        "(shards across a multiprocessing pool; see repro.engine)",
    )
    p_campaign.add_argument(
        "--mode", default="random", choices=["random", "pct", "systematic"]
    )
    p_campaign.add_argument("--budget", type=int, default=200, help="total runs")
    p_campaign.add_argument(
        "--workers", type=int, default=1, help="worker processes (0 = inline)"
    )
    p_campaign.add_argument("--shard-size", type=int, default=25)
    p_campaign.add_argument("--seed-start", type=int, default=0)
    p_campaign.add_argument(
        "--goal",
        default="budget",
        choices=["budget", "first-failure", "first-deadlock", "coverage"],
        help="early-stop condition",
    )
    p_campaign.add_argument(
        "--coverage", help="module:Class whose CoFG arc coverage to track"
    )
    p_campaign.add_argument(
        "--trace-mode",
        default="full",
        choices=["full", "none"],
        help="kernel trace retention; 'none' keeps memory O(detector "
        "state) and requires --detect",
    )
    p_campaign.add_argument(
        "--timeout", type=float, default=10.0, help="per-run wall-clock seconds"
    )
    p_campaign.add_argument(
        "--retries", type=int, default=2, help="max requeues of a crashed shard"
    )
    p_campaign.add_argument("--journal", help="JSONL checkpoint path")
    p_campaign.add_argument(
        "--metrics-prom",
        help="write the merged campaign metrics in Prometheus text "
        "format to this path (implies --metrics)",
    )
    p_campaign.add_argument(
        "--resume",
        action="store_true",
        help="skip shards already journaled (requires --journal)",
    )
    p_campaign.add_argument(
        "--quiet", action="store_true", help="suppress live progress on stderr"
    )
    p_campaign.add_argument(
        "--progress-json",
        action="store_true",
        help="emit machine-readable JSONL heartbeats on stderr instead of "
        "the human progress line",
    )
    p_campaign.add_argument(
        "--serve",
        metavar="HOST:PORT",
        help="expose live campaign telemetry over HTTP while the campaign "
        "runs: GET /status (JSON), /metrics (Prometheus), /events (SSE); "
        "port 0 picks a free port",
    )
    p_campaign.add_argument(
        "--dash",
        action="store_true",
        help="render a live terminal dashboard on stderr (suppresses the "
        "one-line heartbeat)",
    )
    p_campaign.set_defaults(func=_cmd_campaign)

    p_dash = sub.add_parser(
        "dash",
        help="terminal dashboard for a campaign served with "
        "'campaign --serve' (polls its /status endpoint)",
    )
    p_dash.add_argument(
        "--url",
        required=True,
        help="base URL of the telemetry server (e.g. http://127.0.0.1:8000)",
    )
    p_dash.add_argument(
        "--interval", type=float, default=1.0, help="poll interval in seconds"
    )
    p_dash.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen between polls",
    )
    p_dash.add_argument(
        "--polls",
        type=int,
        default=None,
        help="stop after this many polls (default: until the campaign ends)",
    )
    p_dash.set_defaults(func=_cmd_dash)

    p_trace = sub.add_parser(
        "trace",
        help="convert a saved run trace (JSONL, from --save-trace) to "
        "Chrome trace-event JSON for Perfetto",
    )
    p_trace.add_argument("trace", help="trace JSONL path (from --save-trace)")
    p_trace.add_argument(
        "--out",
        help="output path (default: <trace>.chrome.json alongside the input)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_registry = sub.add_parser(
        "registry", help="inspect the run-assembly registries"
    )
    registry_sub = p_registry.add_subparsers(dest="registry_command", required=True)
    p_reg_list = registry_sub.add_parser(
        "list",
        help="list registered names (all five registries, or one kind)",
    )
    p_reg_list.add_argument(
        "kind",
        nargs="?",
        choices=["components", "workloads", "schedulers", "detectors", "faults"],
        help="restrict to one registry (bare names, one per line)",
    )
    p_reg_list.set_defaults(func=_cmd_registry_list)

    p_corpus = sub.add_parser(
        "corpus",
        help="mutation-based component corpus: generate labeled variants, "
        "sweep them through detection campaigns, report per-class rates",
    )
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)

    p_cgen = corpus_sub.add_parser(
        "generate", help="generate a labeled variant corpus manifest"
    )
    p_cgen.add_argument(
        "--components",
        required=True,
        help="comma-separated component names (e.g. bounded_buffer,readers_writers)",
    )
    p_cgen.add_argument(
        "--out", default="corpus.jsonl", help="manifest path (JSONL)"
    )
    p_cgen.add_argument(
        "--pair-cap",
        type=int,
        default=20,
        help="max second-order (paired-operator) variants per component",
    )
    p_cgen.set_defaults(func=_cmd_corpus_generate)

    p_csweep = corpus_sub.add_parser(
        "sweep",
        help="run one detection campaign per manifest variant "
        "(resumable; journals live under --out)",
    )
    p_csweep.add_argument("--manifest", required=True, help="corpus manifest path")
    p_csweep.add_argument(
        "--out", required=True, help="sweep directory (journals + results.jsonl)"
    )
    p_csweep.add_argument(
        "--seeds", type=int, default=40, help="random schedules per variant"
    )
    p_csweep.add_argument(
        "--timeout", type=float, default=10.0, help="per-run wall-clock seconds"
    )
    p_csweep.add_argument(
        "--resume",
        action="store_true",
        help="skip variants/shards already journaled under --out",
    )
    p_csweep.add_argument(
        "--quiet", action="store_true", help="suppress per-variant progress"
    )
    p_csweep.set_defaults(func=_cmd_corpus_sweep)

    p_creport = corpus_sub.add_parser(
        "report",
        help="per-failure-class precision/recall and confusion table "
        "from sweep results",
    )
    p_creport.add_argument(
        "--results", required=True, help="results.jsonl from a sweep"
    )
    p_creport.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p_creport.set_defaults(func=_cmd_corpus_report)

    p_profile = sub.add_parser(
        "profile",
        help="profile a workload under random schedules: hot monitors, "
        "starved threads, detector time breakdown",
    )
    p_profile.add_argument(
        "factory", help="workload name (e.g. pc-bug) or module:function factory"
    )
    p_profile.add_argument(
        "--runs", type=int, default=20, help="random schedules to profile"
    )
    p_profile.add_argument("--seed-start", type=int, default=0)
    p_profile.add_argument(
        "--no-detect",
        action="store_true",
        help="skip the detector pipeline (pure VM profile)",
    )
    p_profile.add_argument(
        "--metrics-out", help="write the merged registry to this JSONL path"
    )
    p_profile.set_defaults(func=_cmd_profile)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

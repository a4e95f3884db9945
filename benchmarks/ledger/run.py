"""Run the performance ledger.

Usage, from the repository root::

    PYTHONPATH=src:benchmarks python -m ledger [--workload NAME] [--seed N]
        [--seconds S | --repeats N] [--trace [0|1]] [--json PATH]
    python3 benchmarks/ledger/run.py ...        # the same, as a script

Every repeat of every workload runs in a fresh child process
(:mod:`ledger.child`), one at a time.  Without ``--trace`` the command
reports the end-to-end metrics, each a median over the repeats; with
``--seconds`` it keeps starting repeats (at least three) while the next
one is expected to end within that many seconds.  Times are CPU times
rescaled to the host's reference pace (:mod:`ledger.pace`), so a shared
host's slow spells do not show as the program's.  A workload whose
repeats cannot fit in :data:`WORKLOAD_S` seconds fails its output check
with the number it got.  ``--trace`` instead
runs one untraced reference repeat and one traced repeat and reports the
per-layer metrics.  Outputs are checked on every repeat.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Exit codes: 0 all
checks passed, 1 an output check failed, 2 the ledger could not run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

LEDGER = Path(__file__).resolve().parent
BENCHMARKS = LEDGER.parent
ROOT = BENCHMARKS.parent
SRC = ROOT / "src"

WORKLOADS = ("pc-short", "prims-long", "clean-pool", "corpus-sweep")

#: end-to-end metrics: name -> unit
END_TO_END = {
    "runs_per_s": "runs/s",
    "steps_per_s": "steps/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: a timed run takes at least this many repeats, so medians mean something
MIN_REPEATS = 3
#: repeats when neither --seconds nor --repeats is given
DEFAULT_REPEATS = 5
#: no workload's repeats may run longer than this many seconds in all
WORKLOAD_S = 170.0


class LedgerError(RuntimeError):
    """A child process failed to produce a result; ``finished`` holds the
    workloads measured before it."""

    def __init__(self, message: str, finished: Sequence[Dict[str, Any]] = ()) -> None:
        super().__init__(message)
        self.finished = list(finished)


def _child(
    workload: str, seed: int, scale: float, trace: int, deadline: float, pace: int = 1
) -> Dict[str, Any]:
    """Run one repeat in a fresh process (its own process group, so pool
    workers die with it on a timeout) and return its JSON record."""
    env = dict(os.environ)
    path = [str(SRC), str(BENCHMARKS)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    command = [
        sys.executable, "-m", "ledger.child",
        "--workload", workload, "--seed", str(seed),
        "--scale", repr(scale), "--trace", str(trace), "--pace", str(pace),
    ]
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise LedgerError(f"{workload}: repeat did not finish before the deadline") from None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
    if process.returncode != 0:
        raise LedgerError(f"{workload}: child exited {process.returncode}\n{stderr[-3000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(
    workload: str,
    seed: int,
    scale: float,
    seconds: Optional[float],
    repeats: Optional[int],
    deadline: float,
) -> Dict[str, Any]:
    """Untraced, paced repeats; every metric is the median over them."""
    samples: List[Dict[str, Any]] = []
    problems: List[str] = []
    started = time.monotonic()
    while True:
        samples.append(_child(workload, seed, scale, 0, deadline))
        now = time.monotonic()
        next_end = now + (now - started) / len(samples)
        if repeats is not None:
            if len(samples) >= repeats:
                break
        elif len(samples) >= MIN_REPEATS and next_end - started > (seconds or 0.0):
            break
        if next_end > deadline:
            problems.append(
                f"stopped after {len(samples)} of {repeats or MIN_REPEATS} repeats:"
                f" the next would pass the {WORKLOAD_S:.0f}-s limit"
            )
            break
    problems += [p for s in samples for p in s["problems"]]
    if len({s["digest"] for s in samples}) > 1:
        problems.append("repeats disagree on the output digest")
    values = {
        "runs_per_s": statistics.median(s["executed"] / s["work_s"] for s in samples),
        "steps_per_s": statistics.median(s["steps"] / s["work_s"] for s in samples),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()
    }
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": 0,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "samples": len(samples),
        "digest": samples[0]["digest"],
        "metrics": metrics,
        "repeats": samples,
    }


def trace(workload: str, seed: int, scale: float, deadline: float) -> Dict[str, Any]:
    """One untraced, unpaced reference repeat, then one traced repeat."""
    reference = _child(workload, seed, scale, 0, deadline, pace=0)
    traced = _child(workload, seed, scale, 1, deadline)
    problems = reference["problems"] + traced["problems"]
    if reference["digest"] != traced["digest"]:
        problems.append("traced and untraced digests differ")
    metrics = traced.pop("per_layer")
    metrics["engine.parent_cpu_share"]["value"] = reference["cpu_s"] / reference["root_s"]
    metrics["engine.worker_cpu_ms_per_run"]["value"] = (
        reference["children_cpu_s"] / reference["executed"] * 1e3
    )
    metrics["ledger.trace_overhead_share"]["value"] = (
        traced["root_s"] / reference["root_s"] - 1.0
    )
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": 1,
        "correct": not problems,
        "problems": problems,
        "attempted": reference["attempted"] + traced["attempted"],
        "failed": reference["failed"] + traced["failed"],
        "samples": 1,
        "digest": traced["digest"],
        "metrics": metrics,
        "reference": reference,
        "traced": traced,
    }


def run(
    workloads: List[str],
    seed: int = 0,
    scale: float = 1.0,
    seconds: Optional[float] = None,
    repeats: Optional[int] = None,
    traced: bool = False,
) -> List[Dict[str, Any]]:
    """Measure (or trace) each workload in turn; one result per workload."""
    if not (SRC / "repro").is_dir():
        raise LedgerError(f"no source tree at {SRC}: run from a repository checkout")
    # compile the sources once, so no repeat pays for writing bytecode
    for tree in (SRC / "repro", LEDGER):
        compileall.compile_dir(str(tree), quiet=1)
    if seconds is None and repeats is None:
        repeats = DEFAULT_REPEATS
    results: List[Dict[str, Any]] = []
    for workload in workloads:
        deadline = time.monotonic() + WORKLOAD_S
        try:
            if traced:
                results.append(trace(workload, seed, scale, deadline))
            else:
                results.append(measure(workload, seed, scale, seconds, repeats, deadline))
        except LedgerError as exc:
            raise LedgerError(str(exc), finished=results) from None
    return results


def summary_line(results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The final JSON object; metric names are prefixed with the workload
    when more than one ran."""
    correct = all(r["correct"] for r in results)
    metrics = {}
    for r in results:
        for name, metric in r["metrics"].items():
            key = name if len(results) == 1 else f"{r['workload']}.{name}"
            metrics[key] = {"value": metric["value"], "unit": metric["unit"]}
    attempted = sum(r["attempted"] for r in results)
    # a failed output check fails every operation of its workload
    failed = sum(r["attempted"] if not r["correct"] else r["failed"] for r in results)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def render(result: Dict[str, Any]) -> str:
    mode = "traced" if result["trace"] else f"{result['samples']} repeats"
    lines = [
        f"{result['workload']}  seed {result['seed']}  scale {result['scale']}  "
        f"{mode}  digest {result['digest'][:16]}"
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    for problem in result["problems"]:
        lines.append(f"  CHECK FAILED: {problem}")
    return "\n".join(lines)


def environment() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="ledger", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, in order")
    parser.add_argument("--seed", type=int, default=0, help="CampaignSpec.seed_start")
    timing = parser.add_mutually_exclusive_group()
    timing.add_argument("--seconds", type=float, help="measure for about this long")
    timing.add_argument("--repeats", type=int, help="exactly this many repeats")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from a traced run",
    )
    parser.add_argument("--json", type=Path, help="write every repeat's record here")
    args = parser.parse_args(argv)
    if args.seconds is not None and not 0 < args.seconds <= WORKLOAD_S:
        parser.error(f"--seconds must be in (0, {WORKLOAD_S:.0f}]")
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    # on SIGTERM, unwind so the running child's process group is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        results = run(
            workloads, args.seed, seconds=args.seconds, repeats=args.repeats,
            traced=bool(args.trace),
        )
    except LedgerError as exc:
        for result in exc.finished:
            print(render(result))
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(render(result))
    if args.json:
        args.json.write_text(
            json.dumps({"environment": environment(), "results": results}, indent=1) + "\n"
        )
    line = summary_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

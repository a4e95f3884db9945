"""One repeat of one workload, in a fresh process.

Run by :mod:`ledger.run` as ``python -m ledger.child --workload NAME
--seed N --scale F --trace 0|1 --pace 0|1``; prints one JSON object on
stdout.  The first statement stamps the CPU clock, so ``setup_s`` (from
here to the first merged run) includes importing ``repro``.  With
``--pace 1`` (untraced runs only) the process and its pool workers sample
the host's pace, and ``setup_s`` and ``work_s`` are in reference seconds
(see :mod:`ledger.pace`).
"""

import time

STARTED = time.thread_time()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from ledger.pace import Mark, Pace  # noqa: E402

#: scratch space for journals and sweep output, inside the checkout
WORK_DIR = Path(__file__).resolve().parent / ".work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ledger.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pace = Pace()
    if args.pace and not args.trace:
        pace.start()

    started = time.perf_counter()
    import repro.corpus  # noqa: F401
    import repro.engine  # noqa: F401

    import_s = time.perf_counter() - started

    from ledger.workloads import execute, pinned_digest_problems

    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        if args.trace:
            from ledger.trace import traced_child

            outcome, report = traced_child(args.workload, args.seed, args.scale, workdir)
            report["per_layer"]["setup.import_s"]["value"] = import_s
        else:
            outcome = execute(args.workload, args.seed, args.scale, workdir, pace=pace)
            report = {}
    finally:
        pace.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    problems = outcome.problems + pinned_digest_problems(
        args.workload, args.seed, args.scale, outcome.digest
    )
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "correct": not problems,
        "problems": problems,
        "attempted": outcome.attempted,
        "failed": outcome.attempted - outcome.completed,
        "executed": outcome.executed,
        "steps": outcome.steps,
        "wall_s": outcome.wall_s,
        "work_s": outcome.work_s,
        "root_s": outcome.root_s,
        "cpu_s": outcome.cpu_s,
        "children_cpu_s": workers.ru_utime + workers.ru_stime,
        "setup_s": pace.reference_s(Mark(STARTED, 0, 0.0, 0.0), outcome.first_merge),
        "bursts": pace.count,
        "worker_bursts": outcome.worker_bursts,
        "import_s": import_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": max(own.ru_maxrss, workers.ru_maxrss) / 1024,
        "digest": outcome.digest,
        **report,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

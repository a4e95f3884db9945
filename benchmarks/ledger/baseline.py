"""Record a baseline: two full sets of runs plus one traced run per workload.

    PYTHONPATH=src:benchmarks python -m ledger.baseline \\
        --out benchmarks/ledger/results/BENCH_seed.json

Each set runs every workload once per seed for ``run_seconds`` (from
BENCHMARK.json), the way a checker of the benchmark does; the second set
uses fresh seeds.  Per set, workload and end-to-end metric the file
holds the values, their median and their spread (interquartile range
over median), and how far the second set's median moved from the
first's, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Any, Dict, List

from ledger import run

#: runs per set and workload, one seed each
SEEDS = 10
SETS = 2


def _spread(values: List[float]) -> Dict[str, Any]:
    low, _, high = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "spread": (high - low) / median}


def main(argv=None) -> int:
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="ledger.baseline")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    sets: List[Dict[str, Any]] = []
    for index in range(SETS):
        seeds = range(index * SEEDS, (index + 1) * SEEDS)
        workloads: Dict[str, Any] = {}
        for workload in run.WORKLOADS:
            values: Dict[str, List[float]] = {name: [] for name in bounds}
            for seed in seeds:
                (result,) = run.run([workload], seed=seed, seconds=benchmark["run_seconds"])
                if not result["correct"]:
                    raise SystemExit(f"{workload} seed {seed}: {result['problems']}")
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
            workloads[workload] = {name: _spread(v) for name, v in values.items()}
        sets.append({"seeds": [seeds.start, seeds.stop - 1], "workloads": workloads})

    agreement = {
        workload: {
            name: {
                "moved": sets[-1]["workloads"][workload][name]["median"]
                / sets[0]["workloads"][workload][name]["median"]
                - 1.0,
                "bound": bound,
            }
            for name, bound in bounds.items()
        }
        for workload in run.WORKLOADS
    }
    traced = {}
    for workload in run.WORKLOADS:
        (result,) = run.run([workload], seed=0, traced=True)
        if not result["correct"]:
            raise SystemExit(f"{workload} traced: {result['problems']}")
        traced[workload] = {
            "per_layer": {k: m["value"] for k, m in result["metrics"].items()},
            "layers_s": result["traced"]["layers_s"],
            "shares": result["traced"]["shares"],
            "digest": result["digest"],
        }
    record = {
        "environment": run.environment(),
        "run_seconds": benchmark["run_seconds"],
        "sets": sets,
        "agreement": agreement,
        "traced": traced,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

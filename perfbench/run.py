"""revledger benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-tall --seed 1 --seconds 20 --trace 0

Run from the repository root. `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics (and the tracing overhead among the
detail lines). The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Scratch files live under
`.perfbench/` in the current directory and are removed at exit; a traced
run leaves its spans there as `spans-<workload>-<seed>.tsv.gz`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("cli-tall", "sim-wide", "sim-tall")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time budget")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "revledger" / "__init__.py").is_file():
        print(f"error: revledger sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    out_dir = Path(".perfbench")
    work_dir = out_dir / f"work-{args.workload}-{args.seed}"
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    try:
        with workloads.SpeedTrace() as speed:
            if args.workload == "cli-tall":
                res = workloads.run_cli_tall(args.seed, args.seconds, bool(args.trace),
                                             work_dir, speed)
            else:
                res = workloads.run_sim(args.workload, args.seed, args.seconds,
                                        bool(args.trace), speed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in res.lines:
        print(line)
    for problem in res.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if res.tracer is not None:
        spans = out_dir / f"spans-{args.workload}-{args.seed}.tsv.gz"
        res.tracer.write(spans)
        print(f"spans written to {spans}")
    wanted = (workloads.per_layer_units() if args.trace
              else workloads.END_TO_END)
    metrics = {}
    for name, unit in wanted:
        value, got_unit = res.metrics[name]
        if got_unit != unit:
            raise AssertionError(f"{name} measured in {got_unit}, declared {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

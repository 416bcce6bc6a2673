"""Paired perfbench runs of two commits, written as one BENCH_*.json file.

    python3 tools/bench_pairs.py --parent ab5b71b --change HEAD \
        --scratch /tmp/pairs --out BENCH_name.json --title "what changed" \
        --claim sim-wide:commit_ms:0.10

Each commit is exported with `git archive` into its own directory under
`--scratch` and every run starts there, so neither side sees the other's
files or the working tree. Every workload BENCHMARK.json declares runs
for seeds 1-10, each run as long as its `run_seconds`, and each seed is
one pair: one run of each side, one after the other, with the parent
first on odd seeds and the change first on even seeds. `--held-out` runs
the claimed workload once more per side on seeds not used while the
change was written, by the same order rule, and `--trace-workload` adds
one traced 10 s run of seed 11 per side, whose per-layer metrics go to
the file's `trace` section. Nothing but the output file is written
outside `--scratch`.

Each (workload, end-to-end metric) gets a no-regression verdict, with the
metric's `bound` from BENCHMARK.json: `worse` when the change's median is
worse than the parent's by more than bound x the parent's median;
otherwise `unresolved` when the parent's interquartile range exceeds
bound x its median, unless every change run beats every parent run; and
`ok` otherwise.

A claim `workload:metric:min_drop` is met when the change is better in at
least 9 of the 10 pairs, the medians are further apart than the parent's
interquartile range, and the change's median is at least `min_drop`
better than the parent's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACE_SEED = 11
TRACE_SECONDS = 10
COMMAND = "python3 perfbench/run.py --workload {w} --seed {s} --seconds {t} --trace {trace}"
METHOD = (
    "Parent and change exported side by side with git archive, each run from its own "
    "root. One pair per seed; the parent runs first on odd seeds and the change on even "
    "seeds. Values are perfbench's end-to-end metrics as printed; quartiles are "
    "statistics.quantiles(n=4, method='inclusive'). A win is a pair where the change's "
    "value is strictly better; equal values are ties."
)


def export(rev: str, dest: Path) -> str:
    """Unpack commit rev into dest; returns its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=REPO, check=True,
                           capture_output=True, text=True).stdout.strip()
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", rev], cwd=REPO, check=True, stdout=tar)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(dest, filter="data")
    return short


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = COMMAND.format(w=workload, s=seed, t=seconds, trace=trace).split()
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {root} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def verdict(parent: list[float], change: list[float], direction: str, bound: float) -> str:
    """`worse`, `unresolved` or `ok`: the no-regression rule of the module docstring."""
    p_q1, p_median, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_median = statistics.quantiles(change, n=4, method="inclusive")[1]
    allowed = bound * abs(p_median)
    if better(p_median, c_median, direction) and abs(c_median - p_median) > allowed:
        return "worse"
    if p_q3 - p_q1 > allowed and not all(better(c, p, direction) for c in change for p in parent):
        return "unresolved"
    return "ok"


def summarize(runs: list[dict], declared: dict[str, dict]) -> dict:
    metrics = {}
    for name, spec in declared.items():
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        p, c = quartiles(parent), quartiles(change)
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": p, "change": c,
            "change_over_parent": round(c["median"] / p["median"], 4) if p["median"] else None,
            "change_wins": sum(better(b, a, spec["better"]) for a, b in zip(parent, change)),
            "ties": sum(a == b for a, b in zip(parent, change)),
            "verdict": verdict(parent, change, spec["better"], spec["bound"]),
        }
    return metrics


def judge(claim: str, workloads: dict) -> dict:
    workload, metric, min_drop = claim.split(":")
    record = workloads[workload]
    m = record["metrics"][metric]
    p, c = m["parent"]["median"], m["change"]["median"]
    drop = (p - c) / p if m["better"] == "lower" else (c - p) / p
    rule = (
        f"change better in at least 9 of {len(SEEDS)} pairs, medians apart by more than the "
        f"parent's interquartile range, and the change's median at least "
        f"{float(min_drop):.0%} better than the parent's"
    )
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    met = m["change_wins"] >= 9 and abs(p - c) > iqr and drop >= float(min_drop)
    return {"workload": workload, "metric": metric, "rule": rule, "wins": m["change_wins"],
            "pairs": record["pairs"], "median_difference": round(abs(p - c), 4),
            "parent_iqr": round(iqr, 4), "drop": round(drop, 4), "met": met}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="commit to compare against")
    p.add_argument("--change", default="HEAD", help="commit under test")
    p.add_argument("--scratch", required=True, type=Path, help="directory for the two trees")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--title", required=True)
    p.add_argument("--claim", help="workload:metric:min_drop, e.g. sim-wide:commit_ms:0.10")
    p.add_argument("--held-out", default="", help="comma-separated seeds for the claim")
    p.add_argument("--trace-workload")
    args = p.parse_args(argv)

    roots = {side: args.scratch.resolve() / side for side in ("parent", "change")}
    revs = {side: export(getattr(args, side), root) for side, root in roots.items()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    doc = {
        "title": args.title, "parent": revs["parent"], "change": revs["change"],
        "command": COMMAND.format(w="<w>", s="<s>", t=seconds, trace=0),
        "method": METHOD,
        "hardware": f"{os.cpu_count()} vCPU, Python {platform.python_version()}, "
                    f"{platform.machine()}, no other benchmark running",
    }

    def pair(workload: str, seed: int, failed: dict) -> dict:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        record = {"seed": seed, "first": order[0]}
        for side in order:
            out = run(roots[side], workload, seed, seconds, 0)
            if not out["correct"]:
                sys.exit(f"{side} run of {workload} seed {seed} is not correct")
            failed[side][0] += out["failed"]
            failed[side][1] += out["attempted"]
            record[side] = {k: v["value"] for k, v in out["metrics"].items()}
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{side} commit_ms {record[side]['commit_ms']:.4f}" for side in order),
            file=sys.stderr)
        return record

    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        failed = {"parent": [0, 0], "change": [0, 0]}
        runs = [pair(workload, seed, failed) for seed in SEEDS]
        workloads[workload] = {
            "pairs": len(runs), "seeds": [r["seed"] for r in runs],
            "metrics": summarize(runs, declared),
            "failed": {s: {"failed": f, "attempted": a} for s, (f, a) in failed.items()},
            "runs": runs,
        }
    if args.claim:
        doc["claim"] = judge(args.claim, workloads)
        workload, metric, _ = args.claim.split(":")
        failed = {"parent": [0, 0], "change": [0, 0]}
        held = [pair(workload, int(seed), failed) for seed in args.held_out.split(",") if seed]
        if held:
            doc["held_out_seeds"] = {
                "method": f"{workload} on seeds not used while the change was written, one "
                          "pair each, same command and order rule as the pairs above",
                "failed": {s: {"failed": f, "attempted": a} for s, (f, a) in failed.items()},
                "runs": [{"seed": r["seed"], "first": r["first"],
                          **{side: r[side][metric] for side in ("parent", "change")}}
                         for r in held],
            }
    doc["workloads"] = workloads
    if args.trace_workload:
        doc["trace"] = {
            "method": "One traced run per side of "
                      + COMMAND.format(w=args.trace_workload, s=TRACE_SEED,
                                       t=TRACE_SECONDS, trace=1)
                      + "; counts are per round, seconds are self time per round.",
            **{side: {k: v["value"] for k, v in run(roots[side], args.trace_workload,
                                                     TRACE_SEED, TRACE_SECONDS,
                                                     1)["metrics"].items()}
               for side in ("parent", "change")},
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

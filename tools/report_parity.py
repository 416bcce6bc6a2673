"""SHA-256 digests of simulation reports, for comparing two checkouts.

    python3 tools/report_parity.py [--root CHECKOUT]

Prints two digests for the checkout at `--root` (default: the one this
file is in), each over one report per run, in run order:

- `random-runs`: `cli._report_text` of `random_run(seed)` from
  `tests/runs.py`, for seeds 0 to 399;
- `scenarios`: `cli._report_text` of each bundled scenario, by name.

A report's `committed_digests` lists every replica's block hashes, so the
digests cover the chains too. A change that keeps every report
byte-identical prints the same two lines as its parent. Nothing is written.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

SEEDS = range(400)


def digests() -> dict[str, str]:
    from revledger.cli import _report_text, bundled_scenarios
    from revledger.sim import Simulation, parse_scenario
    from tests.runs import random_run

    reports, scenarios = hashlib.sha256(), hashlib.sha256()
    runs = [(reports, random_run(seed)) for seed in SEEDS]
    texts = bundled_scenarios()
    runs += [(scenarios, parse_scenario(texts[name])) for name in sorted(texts)]
    for sink, (config, workload) in runs:
        sim = Simulation(config, workload)
        sink.update(_report_text(sim, sim.run()).encode())
    return {"random-runs": reports.hexdigest(), "scenarios": scenarios.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and tests/ are imported")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    for name, digest in digests().items():
        print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

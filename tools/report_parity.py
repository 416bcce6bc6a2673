"""SHA-256 digests of simulation reports, for comparing two checkouts.

    python3 tools/report_parity.py [--root CHECKOUT]

Prints three digests for the checkout at `--root` (default: the one this
file is in), each over one report per run, in run order:

- `random-runs`: `cli._report_text` of `random_run(seed)` from
  `tests/runs.py`, for seeds 0 to 399;
- `scenarios`: `cli._report_text` of each bundled scenario, by name;
- `tampered-runs`: for seeds 0 to 99 of `random_run`, six damages to the
  replicas after the run, each kept as the next is made, and
  `cli._report_text` after each. Four hit a blob store: an entry replaced
  by other bytes; one damaged bytes object placed in two replicas; an
  entry replaced by an equal copy; an entry deleted. The fifth hits one
  replica's chain: a committed transaction replaced by a copy with one
  byte of its first endorsement token flipped, in a copy of its block.
  The sixth hits a blob store again: an entry replaced by the bytes
  object that the stores' records of hashed bytes (`MemoryStore._hashed`)
  hold under another key. Each damage hits an entry or transaction drawn
  from `random.Random(seed)`.

A report's `committed_digests` lists every replica's block hashes, so the
digests cover the chains too, and its `verify` section covers the damages.
A change that keeps every report byte-identical prints the same three lines
as its parent. Nothing is written.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from dataclasses import replace
from pathlib import Path

SEEDS = range(400)
TAMPER_SEEDS = range(100)


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
    tampered = hashlib.sha256()
    for seed in TAMPER_SEEDS:
        sim = Simulation(*random_run(seed))
        report = sim.run()
        for _ in damages(sim.nodes, random.Random(seed)):
            tampered.update(_report_text(sim, report).encode())
    return {
        "random-runs": reports.hexdigest(),
        "scenarios": scenarios.hexdigest(),
        "tampered-runs": tampered.hexdigest(),
    }


def damages(nodes, rng: random.Random):
    """Damage one or two of the replicas' blob dicts four times, then one
    replica's chain, then one blob dict, yielding after each damage; a
    damage is skipped when no replica holds a blob, or a committed
    transaction, or when the records hold no other key."""
    from revledger.ledger import Chain

    stores = [node.store._blobs for node in nodes]
    for kind in ("other-bytes", "damaged-in-two", "equal-copy", "deleted"):
        held = [(i, key) for i, blobs in enumerate(stores) for key in sorted(blobs)]
        if held:
            i, key = rng.choice(held)
            data = stores[i][key]
            if kind == "other-bytes":
                stores[i][key] = data + b"!"
            elif kind == "damaged-in-two":
                other = rng.choice([j for j in range(len(stores)) if j != i] or [i])
                stores[i][key] = stores[other][key] = b"damaged " + data
            elif kind == "equal-copy":
                stores[i][key] = bytes(bytearray(data))
            else:
                del stores[i][key]
        yield kind
    held = [
        (i, at, j)
        for i, node in enumerate(nodes)
        for at, block in enumerate(node.chain.blocks)
        for j in range(len(block.transactions))
    ]
    if held:
        i, at, j = rng.choice(held)
        blocks = list(nodes[i].chain.blocks)
        txs = list(blocks[at].transactions)
        (node_id, token), *rest = txs[j].endorsements
        k = rng.randrange(len(token))
        flipped = token[:k] + bytes([token[k] ^ 1]) + token[k + 1:]
        txs[j] = replace(txs[j], endorsements=((node_id, flipped), *rest))
        blocks[at] = replace(blocks[at], transactions=tuple(txs))
        nodes[i].chain = Chain(blocks)
    yield "token"
    # The union of the records: one shared dict, or one per store.
    record = {key: data for node in nodes for key, data in node.store._hashed.items()}
    held = [(i, key) for i, blobs in enumerate(stores) for key in sorted(blobs)]
    if held:
        i, key = rng.choice(held)
        others = sorted(set(record) - {key})
        if others:
            stores[i][key] = record[rng.choice(others)]
    yield "record-of-other-key"


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

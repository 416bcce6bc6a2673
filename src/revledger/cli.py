"""Command line interface for the revision ledger.

Commands: init a workspace of simulated nodes, commit revisions through
full consensus, query history, extract payloads, verify integrity,
deliberately tamper with one replica (to demo detection), and run
simulation scenarios.

Exit codes are strict: 0 exactly when the command's success condition
held, and nonzero otherwise. A command that cannot do its work says why
in one `error:` (or `warning:`) line: a handler names the refusals it
checks for, and `main` is the one boundary that turns any other
workspace, config, store or OS error into that line. `verify` prints
`Workspace.verify`'s reports.
Tampering is the only code path that ever rewrites an existing block or
blob byte; every other command only appends blocks and blobs. Each node's
checkpoint is derived state, never a block or blob byte: init writes it,
and a commit that appended blocks replaces it whole.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path

from .content_store import StoreError
from .digests import from_hex, to_hex
from .ledger import chain_lines, write_chain_file
from .pbft import ConfigError, GroupConfig
from .revisions import check_endorsement_policy, show
from .sim import (
    MAX_TICKS,
    ScenarioError,
    SimConfig,
    SimReport,
    Simulation,
    Submission,
    parse_scenario,
)
from .workspace import Workspace, WorkspaceError


def _err(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _warn(msg: str) -> int:
    print(f"warning: {msg}", file=sys.stderr)
    return 1


# -- init ----------------------------------------------------------------------


def cmd_init(args) -> int:
    config = GroupConfig(
        n=args.nodes,
        f=args.faulty,
        seed=args.seed,
        timeout_ticks=args.timeout_ticks,
        max_batch=args.max_batch,
        endorsement_m=args.endorsements,
    )
    Workspace.init(args.dir, config)
    print(
        f"initialized workspace {args.dir}: nodes={args.nodes} faulty={args.faulty} "
        f"seed={args.seed}"
    )
    return 0


# -- commit --------------------------------------------------------------------


def _run_local_consensus(ws: Workspace, submissions: list[Submission]):
    cfg = ws.config
    sim_config = SimConfig(**asdict(cfg), max_ticks=min(50 * cfg.timeout_ticks, MAX_TICKS))
    sim = Simulation(sim_config, submissions, nodes=ws.load_all_nodes())
    return sim, sim.run()


def _tx_height(chain, tx_id_hex: str | None) -> int | None:
    if tx_id_hex is None:
        return None
    # A receipt's transaction was almost always committed by this run, near the tip.
    for block in reversed(chain.blocks):
        for tx in block.transactions:
            if to_hex(tx.tx_id) == tx_id_hex:
                return block.header.height
    return None


def cmd_commit(args) -> int:
    ws = Workspace.load(args.dir)
    payloads = []
    for path in [args.file] + (args.also_file or []):
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            return _err(f"cannot read {path}: {exc}")
        # Equal bytes of one work and author make the same transaction.
        earlier = next((name for name, other in payloads if other == data), None)
        if earlier is not None:
            return _err(f"{path} holds the same bytes as {earlier}; nothing was committed")
        payloads.append((path, data))
    submissions = [
        Submission(tick=0, node=0, work_id=args.work, author_id=args.author, payload=data)
        for _, data in payloads
    ]
    with ws.lock():
        sim, report = _run_local_consensus(ws, submissions)
        for node in sim.nodes:
            ws.persist_new_blocks(node)
        if report.stalled:
            # The stalled report lists and audits whole chains, where a
            # replica loaded from its checkpoint held only its old tip on:
            # each node and its replica read one persisted chain, under the lock.
            for i, node in enumerate(sim.nodes):
                node.chain = node.replica.chain = ws.read_chain(i)
            print(_report_text(sim, sim.report(report.ticks_elapsed)), end="")
            return _err("consensus stalled; workspace left as committed so far")
    all_valid = True
    chain = sim.nodes[0].chain
    for (path, _), row in zip(payloads, report.receipts):
        height = _tx_height(chain, row.tx_id)
        if row.status == "Rejected":
            all_valid = False
            print(f"rejected file={path} reason={row.flag}")
            continue
        print(
            f"committed tx={row.tx_id} work={row.work_id} "
            f"flag={row.flag} height={height} file={path}"
        )
        if row.flag != "Valid":
            all_valid = False
    return 0 if all_valid else 1


# -- history / show --------------------------------------------------------------


def cmd_history(args) -> int:
    ws = Workspace.load(args.dir)
    with ws.lock():
        entries = ws.read_history(0, args.work)
    for e in entries:
        print(
            f"revision={e.revision_number} hash={to_hex(e.content_hash)} "
            f"author={e.author_id} height={e.block_height} tick={e.block_tick}"
        )
    return 0


def cmd_show(args) -> int:
    ws = Workspace.load(args.dir)
    with ws.lock():
        data = show(ws.read_history(0, args.work), args.work, args.revision, ws.store(0))
    try:
        Path(args.out).write_bytes(data)
    except OSError as exc:
        return _err(f"cannot write {args.out}: {exc}")
    print(f"wrote {len(data)} bytes to {args.out}")
    return 0


# -- verify ----------------------------------------------------------------------


def cmd_verify(args) -> int:
    ws = Workspace.load(args.dir)
    with ws.lock():
        reports = ws.verify()
    for i, report in enumerate(reports):
        if report.ok:
            print(f"node {i}: ok")
            continue
        for d in report.defects:
            print(f"node {i}: defect height={d.height} kind={d.kind} {d.detail}".rstrip())
        for a in report.audit:
            print(f"node {i}: blob-defect key={a.key} kind={a.kind}")
    all_ok = all(report.ok for report in reports)
    print("verify: ok" if all_ok else "verify: tampering detected")
    return 0 if all_ok else 1


# -- tamper -----------------------------------------------------------------------


def _flip_byte(path: Path, data: bytes, start: int, size: int, args, what: str, record: str) -> int:
    """Rewrite path's `data` with the byte at args.offset of its `size`
    bytes from `start` xored, and report it as `what`; `record` names those
    bytes when the offset falls outside them."""
    if not 0 <= args.offset < size:
        return _err(f"offset {args.offset} out of range for {record} ({size} bytes)")
    at = start + args.offset
    old, new = data[at], data[at] ^ args.xor
    path.write_bytes(data[:at] + bytes([new]) + data[at + 1 :])
    print(f"tampered {what} offset={args.offset} xor={args.xor:#x} byte {old:#04x} -> {new:#04x}")
    return 0


def cmd_tamper(args) -> int:
    if args.xor == 0:
        return _warn("xor value 0 would be a no-op; nothing was changed")
    if not 0 < args.xor < 256:
        return _err("xor value must be in 1..255")
    if (args.block is None) == (args.blob is None):
        return _err("choose exactly one of --block or --blob")
    ws = Workspace.load(args.dir)
    if not 0 <= args.node < ws.config.n:
        return _err(f"node {args.node} outside 0..{ws.config.n - 1}")
    with ws.lock():
        if args.block is not None:
            chain_path = ws.chain_path(args.node)
            if not chain_path.exists():
                return _err(f"{chain_path} does not exist")
            raw = chain_path.read_bytes()
            lines = chain_lines(raw)
            if not 0 <= args.block < len(lines):
                return _err(f"block {args.block} out of range (chain has {len(lines)} blocks)")
            start = sum(len(line) + 1 for line in lines[: args.block])
            what = f"node={args.node} block={args.block}"
            return _flip_byte(
                chain_path, raw, start, len(lines[args.block]), args, what, "block record"
            )
        try:
            blob_path = Path(ws.store(args.node).blob_path(from_hex(args.blob)))
        except ValueError as exc:
            return _err(f"bad blob hash: {exc}")
        if not blob_path.exists():
            return _err(f"node {args.node} has no blob {args.blob}")
        data = blob_path.read_bytes()
        what = f"node={args.node} blob={args.blob[:12]}"
        return _flip_byte(blob_path, data, 0, len(data), args, what, what)


# -- simulate ----------------------------------------------------------------------


def bundled_scenarios() -> dict[str, str]:
    out = {}
    base = resources.files("revledger").joinpath("scenarios")
    for entry in base.iterdir():
        if entry.name.endswith(".json"):
            out[entry.name[: -len(".json")]] = entry.read_text(encoding="utf-8")
    return out


def _load_scenario_text(spec: str) -> str | None:
    path = Path(spec)
    if path.exists():
        try:
            return path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"scenario file is not UTF-8: {exc}") from exc
    return bundled_scenarios().get(spec)


def _report_text(sim: Simulation, report: SimReport) -> str:
    """The run's report as JSON, with a `verify` section holding each
    replica's verify after the run: its own check_chain (genesis, heights,
    links, and each block's structural verdict, computed once per block
    object and shared by the replicas holding it), content checks, blob
    audit, and endorsement checks under the group's one policy object: the
    gates kept a pass on each transaction object the replicas share under
    it, so this verify computes no token for them."""
    policy = sim.nodes[0].policy
    verify = {}
    for i, node in enumerate(sim.nodes):
        chain_report, audit = node.verify(lambda tx: check_endorsement_policy(tx, policy))
        verify[str(i)] = {
            "ok": chain_report.ok,
            "chain_defects": len(chain_report.defects),
            "store_defects": len(audit),
        }
    return json.dumps({**report.to_obj(), "verify": verify}, sort_keys=True, indent=2) + "\n"


def cmd_simulate(args) -> int:
    try:
        text = _load_scenario_text(args.scenario)
        if text is None:
            names = ", ".join(sorted(bundled_scenarios()))
            return _err(
                f"no scenario file or bundled scenario {args.scenario!r} (bundled: {names})"
            )
        sim = Simulation(*parse_scenario(text))
    except ScenarioError as exc:
        where = (
            f" at line {exc.line} column {exc.column}"
            if exc.line is not None
            else ""
        )
        return _err(f"scenario parse failed{where}: {exc}")
    report = sim.run()
    out_path = Path(args.report)
    # The chains directory first: a run that cannot keep its chains leaves no report.
    chains_dir = Path(args.chains_dir) if args.chains_dir else Path(str(out_path) + ".chains")
    chains_dir.mkdir(parents=True, exist_ok=True)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(_report_text(sim, report), encoding="utf-8")
    for i, node in enumerate(sim.nodes):
        write_chain_file(chains_dir / f"node-{i}.chain", node.chain)
    print(
        f"simulated seed={report.seed}: ticks={report.ticks_elapsed} "
        f"safety={'ok' if report.safety_ok else 'VIOLATED'} "
        f"stalled={report.stalled} report={out_path}"
    )
    return 0 if report.safety_ok else 1


# -- argument parsing -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revledger",
        description="Tamper-evident replicated revision ledger for creative works.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a workspace of simulated ledger nodes")
    p.add_argument("--dir", required=True, help="workspace directory (must be empty)")
    p.add_argument("--nodes", type=int, required=True, help="number of nodes (>= 3*faulty+1)")
    p.add_argument("--faulty", type=int, required=True, help="tolerated Byzantine nodes")
    p.add_argument("--seed", type=int, default=1, help="workspace seed")
    p.add_argument("--timeout-ticks", type=int, default=30)
    p.add_argument("--max-batch", type=int, default=100)
    p.add_argument("--endorsements", type=int, default=1, help="required endorsement count")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("commit", help="commit a revision through consensus")
    p.add_argument("--dir", required=True)
    p.add_argument("--work", required=True, help="work id")
    p.add_argument("--file", required=True, help="payload file")
    p.add_argument("--author", required=True)
    p.add_argument(
        "--also-file",
        action="append",
        help="submit another payload for the same work in the same batch "
        "(demonstrates stale-read conflicts)",
    )
    p.set_defaults(func=cmd_commit)

    p = sub.add_parser("history", help="list committed revisions of a work")
    p.add_argument("--dir", required=True)
    p.add_argument("--work", required=True)
    p.set_defaults(func=cmd_history)

    p = sub.add_parser("show", help="extract one revision's payload bytes")
    p.add_argument("--dir", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--revision", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("verify", help="verify every node's chain and blob store")
    p.add_argument("--dir", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tamper", help="flip a byte in one replica (detection demo)")
    p.add_argument("--dir", required=True)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--block", type=int, help="block height to corrupt")
    p.add_argument("--blob", help="content hash (hex) of a blob to corrupt")
    p.add_argument("--offset", type=int, required=True)
    p.add_argument("--xor", type=int, required=True, help="nonzero xor mask for the byte")
    p.set_defaults(func=cmd_tamper)

    p = sub.add_parser("simulate", help="run a fault scenario and write its report")
    p.add_argument("--scenario", required=True, help="scenario file or bundled name")
    p.add_argument("--report", required=True, help="report output path")
    p.add_argument("--chains-dir", help="directory for per-node chain dumps")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WorkspaceError, ConfigError, StoreError, OSError) as exc:
        return _err(str(exc))


if __name__ == "__main__":
    sys.exit(main())

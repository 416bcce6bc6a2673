"""Command line interface for the revision ledger.

Commands: init a workspace of simulated nodes, commit revisions through
full consensus, query history, extract payloads, verify integrity,
deliberately tamper with one replica (to demo detection), and run
simulation scenarios.

Exit codes are strict: 0 exactly when the command's success condition
held, otherwise nonzero with a one-line `error:` (or `warning:`) reason.
Tampering is the only code path that ever rewrites an existing block or
blob byte; every other command only appends blocks and blobs. Each node's
checkpoint is derived state, never a block or blob byte: init writes it,
and a commit that appended blocks replaces it whole.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .content_store import NotFoundError, StoreError
from .digests import from_hex, to_hex
from .ledger import verify_chain, write_chain_file
from .pbft import ConfigError
from .revisions import check_endorsement_policy
from .sim import (
    ScenarioError,
    SimConfig,
    SimReport,
    Simulation,
    Submission,
    parse_scenario,
)
from .workspace import Workspace, WorkspaceConfig, WorkspaceError


def _err(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _warn(msg: str) -> int:
    print(f"warning: {msg}", file=sys.stderr)
    return 1


# -- init ----------------------------------------------------------------------


def cmd_init(args) -> int:
    config = WorkspaceConfig(
        n=args.nodes,
        f=args.faulty,
        seed=args.seed,
        timeout_ticks=args.timeout_ticks,
        max_batch=args.max_batch,
        endorsement_m=args.endorsements,
    )
    try:
        Workspace.init(args.dir, config)
    except ConfigError as exc:
        return _err(f"bad node count: {exc}")
    except WorkspaceError as exc:
        return _err(str(exc))
    print(
        f"initialized workspace {args.dir}: nodes={args.nodes} faulty={args.faulty} "
        f"seed={args.seed}"
    )
    return 0


# -- commit --------------------------------------------------------------------


def _run_local_consensus(ws: Workspace, submissions: list[Submission]):
    cfg = ws.config
    sim_config = SimConfig(
        n=cfg.n,
        f=cfg.f,
        seed=cfg.seed,
        delay_min=1,
        delay_max=1,
        drop_prob=0.0,
        timeout_ticks=cfg.timeout_ticks,
        max_batch=cfg.max_batch,
        endorsement_m=cfg.endorsement_m,
        max_ticks=50 * cfg.timeout_ticks,
    )
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
    try:
        ws = Workspace.load(args.dir)
    except WorkspaceError as exc:
        return _err(str(exc))
    payloads = []
    for path in [args.file] + (args.also_file or []):
        try:
            payloads.append((path, Path(path).read_bytes()))
        except OSError as exc:
            return _err(f"cannot read {path}: {exc}")
    submissions = [
        Submission(tick=0, node=0, work_id=args.work, author_id=args.author, payload=data)
        for _, data in payloads
    ]
    try:
        with ws.lock():
            sim, report = _run_local_consensus(ws, submissions)
            stalled_text = None
            if report.stalled:
                # The stalled report lists and audits whole chains, where a
                # replica loaded from its checkpoint holds only its old tip
                # on: each reads its chain in full. The report audits the
                # stores, so it is taken under the lock.
                for i, node in enumerate(sim.nodes):
                    chain = ws.read_chain(i)
                    for block in node.blocks_since_load:
                        chain.append(block)
                    node.chain = chain
                report = sim.report(report.ticks_elapsed)
                stalled_text = _report_text(sim, report)
            for node in sim.nodes:
                ws.persist_new_blocks(node)
    except WorkspaceError as exc:
        return _err(str(exc))
    if stalled_text is not None:
        print(stalled_text, end="")
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
    try:
        ws = Workspace.load(args.dir)
        with ws.lock():
            node = ws.load_node(0)
            entries = node.history(args.work)
    except WorkspaceError as exc:
        return _err(str(exc))
    for e in entries:
        print(
            f"revision={e.revision_number} hash={to_hex(e.content_hash)} "
            f"author={e.author_id} height={e.block_height} tick={e.block_tick}"
        )
    return 0


def cmd_show(args) -> int:
    try:
        ws = Workspace.load(args.dir)
        with ws.lock():
            node = ws.load_node(0)
            data = node.show(args.work, args.revision)
    except (WorkspaceError, NotFoundError, StoreError) as exc:
        return _err(str(exc))
    try:
        Path(args.out).write_bytes(data)
    except OSError as exc:
        return _err(f"cannot write {args.out}: {exc}")
    print(f"wrote {len(data)} bytes to {args.out}")
    return 0


# -- verify ----------------------------------------------------------------------


def verify_workspace(ws: Workspace) -> dict[int, dict]:
    """Per-node integrity results: chain defects, a trusted checkpoint's
    disagreement with its chain, and the store audit."""
    checker = ws.endorsement_checker()
    results: dict[int, dict] = {}
    for i in range(ws.config.n):
        chain, parse_defects = ws.load_chain(i)
        store = ws.store(i)
        if chain is None:
            results[i] = {"ok": False, "defects": parse_defects, "audit": []}
            continue
        report = verify_chain(chain, store, checker, extra_defects=parse_defects)
        defects = sorted(report.defects + ws.checkpoint_defects(i, chain), key=lambda d: d.height)
        audit = store.audit()
        results[i] = {
            "ok": not defects and not audit,
            "defects": defects,
            "audit": audit,
        }
    return results


def cmd_verify(args) -> int:
    try:
        ws = Workspace.load(args.dir)
        with ws.lock():
            results = verify_workspace(ws)
    except WorkspaceError as exc:
        return _err(str(exc))
    all_ok = True
    for i, res in sorted(results.items()):
        if res["ok"]:
            print(f"node {i}: ok")
            continue
        all_ok = False
        for d in res["defects"]:
            print(f"node {i}: defect height={d.height} kind={d.kind} {d.detail}".rstrip())
        for a in res["audit"]:
            print(f"node {i}: blob-defect key={a.key} kind={a.kind}")
    print("verify: ok" if all_ok else "verify: tampering detected")
    return 0 if all_ok else 1


# -- tamper -----------------------------------------------------------------------


def _flip_byte_in_file(path: Path, offset: int, xor: int, what: str) -> int:
    data = bytearray(path.read_bytes())
    if offset < 0 or offset >= len(data):
        return _err(f"offset {offset} out of range for {what} ({len(data)} bytes)")
    old = data[offset]
    data[offset] = old ^ xor
    path.write_bytes(bytes(data))
    print(f"tampered {what} offset={offset} xor={xor:#x} byte {old:#04x} -> {data[offset]:#04x}")
    return 0


def cmd_tamper(args) -> int:
    if args.xor == 0:
        return _warn("xor value 0 would be a no-op; nothing was changed")
    if not 0 < args.xor < 256:
        return _err("xor value must be in 1..255")
    if (args.block is None) == (args.blob is None):
        return _err("choose exactly one of --block or --blob")
    try:
        ws = Workspace.load(args.dir)
    except WorkspaceError as exc:
        return _err(str(exc))
    if not 0 <= args.node < ws.config.n:
        return _err(f"node {args.node} outside 0..{ws.config.n - 1}")
    try:
        with ws.lock():
            if args.block is not None:
                chain_path = ws.chain_path(args.node)
                if not chain_path.exists():
                    return _err(f"{chain_path} does not exist")
                raw = chain_path.read_bytes()
                lines = raw.split(b"\n")
                if lines and lines[-1] == b"":
                    lines = lines[:-1]
                if not 0 <= args.block < len(lines):
                    return _err(
                        f"block {args.block} out of range (chain has {len(lines)} blocks)"
                    )
                line = bytearray(lines[args.block])
                if not 0 <= args.offset < len(line):
                    return _err(
                        f"offset {args.offset} out of range for block record "
                        f"({len(line)} bytes)"
                    )
                old = line[args.offset]
                line[args.offset] = old ^ args.xor
                lines[args.block] = bytes(line)
                chain_path.write_bytes(b"\n".join(lines) + b"\n")
                print(
                    f"tampered node={args.node} block={args.block} offset={args.offset} "
                    f"xor={args.xor:#x} byte {old:#04x} -> {line[args.offset]:#04x}"
                )
                return 0
            try:
                from_hex(args.blob)
            except ValueError as exc:
                return _err(f"bad blob hash: {exc}")
            blob_path = ws.node_dir(args.node) / "blobs" / args.blob[:2] / args.blob
            if not blob_path.exists():
                return _err(f"node {args.node} has no blob {args.blob}")
            return _flip_byte_in_file(
                blob_path, args.offset, args.xor, f"node={args.node} blob={args.blob[:12]}"
            )
    except WorkspaceError as exc:
        return _err(str(exc))


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
        return path.read_text(encoding="utf-8")
    return bundled_scenarios().get(spec)


def _report_text(sim: Simulation, report: SimReport) -> str:
    """The run's report as JSON, with a `verify` section holding each
    replica's full chain check and blob audit, taken after the run."""
    verify = {}
    for i, node in enumerate(sim.nodes):
        chain_report, audit = node.verify(lambda tx: check_endorsement_policy(tx, node.policy))
        verify[str(i)] = {
            "ok": chain_report.ok and not audit,
            "chain_defects": len(chain_report.defects),
            "store_defects": len(audit),
        }
    return json.dumps({**report.to_obj(), "verify": verify}, sort_keys=True, indent=2) + "\n"


def cmd_simulate(args) -> int:
    text = _load_scenario_text(args.scenario)
    if text is None:
        names = ", ".join(sorted(bundled_scenarios()))
        return _err(f"no scenario file or bundled scenario {args.scenario!r} (bundled: {names})")
    try:
        config, workload = parse_scenario(text)
    except ScenarioError as exc:
        where = (
            f" at line {exc.line} column {exc.column}"
            if exc.line is not None
            else ""
        )
        return _err(f"scenario parse failed{where}: {exc}")
    sim = Simulation(config, workload)
    report = sim.run()
    out_path = Path(args.report)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(_report_text(sim, report), encoding="utf-8")
    chains_dir = Path(args.chains_dir) if args.chains_dir else Path(str(out_path) + ".chains")
    chains_dir.mkdir(parents=True, exist_ok=True)
    for i, node in enumerate(sim.nodes):
        write_chain_file(chains_dir / f"node-{i}.chain", node.chain)
    print(
        f"simulated seed={report.seed}: ticks={report.ticks_elapsed} "
        f"safety={'ok' if report.safety_ok else 'VIOLATED'} "
        f"stalled={report.stalled} report={out_path}"
    )
    return 0 if report.safety_ok else 1


# -- argument parsing -----------------------------------------------------------------


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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

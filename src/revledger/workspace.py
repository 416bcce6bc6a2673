"""On-disk workspace: one directory holding every simulated node's replica.

Layout:

    <root>/
      config.json          immutable after init (n, f, seed, ...)
      node-0/
        chain.jsonl        one block per line (ledger format)
        blobs/             content store (payload bytes by hash)
      node-1/ ...

Concurrent invocations on one workspace are excluded by a lock file; a
second invocation fails fast instead of corrupting state.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from .content_store import ContentStore
from .ledger import (
    Chain,
    Defect,
    append_chain_file,
    check_chain,
    read_chain_file,
    write_chain_file,
)
from .node import NodeRuntime
from .pbft import NodeConfig, quorum_size
from .revisions import Transaction, check_endorsement_policy
from .sim import make_policy

CONFIG_NAME = "config.json"
LOCK_NAME = ".lock"
CHAIN_NAME = "chain.jsonl"


class WorkspaceError(Exception):
    pass


@dataclass(frozen=True)
class WorkspaceConfig:
    n: int
    f: int
    seed: int
    timeout_ticks: int = 30
    max_batch: int = 100
    endorsement_m: int = 1


class Workspace:
    def __init__(self, root: Path, config: WorkspaceConfig):
        self.root = Path(root)
        self.config = config

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def init(cls, root: Path | str, config: WorkspaceConfig) -> "Workspace":
        """Create a fresh workspace; refuses a non-empty directory."""
        quorum_size(config.n, config.f)  # raises on n < 3f+1
        root = Path(root)
        if root.exists() and any(root.iterdir()):
            raise WorkspaceError(f"directory {root} is not empty")
        root.mkdir(parents=True, exist_ok=True)
        (root / CONFIG_NAME).write_text(
            json.dumps(asdict(config), sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        ws = cls(root, config)
        for i in range(config.n):
            node_dir = ws.node_dir(i)
            (node_dir / "blobs").mkdir(parents=True)
            write_chain_file(ws.chain_path(i), Chain())
        return ws

    @classmethod
    def load(cls, root: Path | str) -> "Workspace":
        root = Path(root)
        config_path = root / CONFIG_NAME
        if not config_path.exists():
            raise WorkspaceError(f"{root} is not a ledger workspace (no {CONFIG_NAME})")
        try:
            raw = json.loads(config_path.read_text(encoding="utf-8"))
            config = WorkspaceConfig(**raw)
        except (json.JSONDecodeError, TypeError) as exc:
            raise WorkspaceError(f"unreadable workspace config: {exc}") from exc
        return cls(root, config)

    @contextmanager
    def lock(self):
        """Exclusive workspace lock; a held lock makes us fail fast."""
        lock_path = self.root / LOCK_NAME
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise WorkspaceError(
                f"workspace is locked by another invocation ({lock_path}); "
                "remove the file if that process is gone"
            ) from None
        try:
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            yield self
        finally:
            try:
                lock_path.unlink()
            except OSError:
                pass

    # -- paths -------------------------------------------------------------------

    def node_dir(self, node_id: int) -> Path:
        return self.root / f"node-{node_id}"

    def chain_path(self, node_id: int) -> Path:
        return self.node_dir(node_id) / CHAIN_NAME

    def store(self, node_id: int) -> ContentStore:
        return ContentStore(self.node_dir(node_id))

    # -- endorsement -------------------------------------------------------------

    def endorsement_checker(self):
        cfg = self.config
        policy = make_policy(cfg.n, cfg.seed, cfg.endorsement_m)

        def check(tx: Transaction) -> bool:
            return check_endorsement_policy(tx, policy)

        return check

    # -- node state ----------------------------------------------------------------

    def load_chain(self, node_id: int) -> tuple[Chain | None, list[Defect]]:
        if not self.node_dir(node_id).exists():
            return None, [Defect(0, "missing-replica", f"node-{node_id} directory absent")]
        return read_chain_file(self.chain_path(node_id))

    def load_node(self, node_id: int) -> NodeRuntime:
        """Rebuild a node runtime from its persisted chain and blobs.

        The chain goes through ledger.check_chain here, once; the replay
        that decides validity and rebuilds heads then trusts it, and reads
        no blob, only asks which ones the store holds. A chain that fails to
        parse or has any defect is refused, so a damaged replica fails
        loudly instead of dropping revisions or proposing on a tip the
        other replicas reject.
        """
        chain, defects = self.load_chain(node_id)
        if chain is not None and not defects:
            defects = check_chain(chain)
        if chain is None or defects:
            first = defects[0] if defects else Defect(0, "unknown")
            raise WorkspaceError(
                f"node-{node_id} chain is damaged ({first.kind} at height {first.height}); "
                "run the verify command for details"
            )
        cfg = self.config
        return NodeRuntime(
            NodeConfig(node_id, cfg.n, cfg.f, cfg.timeout_ticks),
            self.store(node_id),
            make_policy(cfg.n, cfg.seed, cfg.endorsement_m),
            chain=chain,
            max_batch=cfg.max_batch,
        )

    def load_all_nodes(self) -> list[NodeRuntime]:
        return [self.load_node(i) for i in range(self.config.n)]

    def persist_new_blocks(self, node: NodeRuntime) -> None:
        """Append blocks committed this run; existing bytes stay untouched."""
        if node.blocks_since_load:
            append_chain_file(self.chain_path(node.config.node_id), node.blocks_since_load)
            node.blocks_since_load = []

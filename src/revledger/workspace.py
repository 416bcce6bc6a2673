"""On-disk workspace: one directory holding every simulated node's replica.

Layout:

    <root>/
      config.json          immutable after init (n, f, seed, ...)
      node-0/
        chain.jsonl        one block per line (ledger format)
        checkpoint.json    derived state: the replica's heads and validity flags
        blobs/             content store (payload bytes by hash)
      node-1/ ...

The checkpoint records the byte length and SHA-256 of the chain file it was
made for, the tip's height and hash, the heads, and each block's
[tx id, flag] list. The node runtime supplies the heads and the recorded
decisions; the workspace keeps only each loaded chain file's length and
running SHA-256. `init` writes the checkpoint, and so does a commit that
appended blocks, after the chain file, as a whole new file. It is trusted
only while the chain file's bytes still hash to it; any other checkpoint, or
none, is ignored, and the node is rebuilt by a full check and replay of its
chain, which stays the only recovery path.

Concurrent invocations on one workspace are excluded by a lock file; a
second invocation fails fast instead of corrupting state.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

from .content_store import ContentStore
from .digests import from_hex, to_hex
from .encoding import MalformedError, u64
from .ledger import (
    Block,
    Chain,
    ChainParseError,
    Defect,
    append_chain_file,
    block_from_line,
    check_chain,
    read_chain_file,
    write_chain_file,
)
from .node import NodeRuntime
from .pbft import ConfigError, NodeConfig, quorum_size
from .revisions import (
    HeadState,
    Transaction,
    ValidityFlag,
    apply_block,
    check_endorsement_policy,
)
from .sim import make_policy

CONFIG_NAME = "config.json"
LOCK_NAME = ".lock"
CHAIN_NAME = "chain.jsonl"
CHECKPOINT_NAME = "checkpoint.json"

_FLAGS = {flag.value: flag for flag in ValidityFlag}
_CHECKPOINT_KEYS = {"blocks", "chain_bytes", "chain_sha256", "heads", "height", "tip_hash"}


class WorkspaceError(Exception):
    pass


@dataclass(frozen=True)
class _Checkpoint:
    chain_bytes: int
    chain_sha256: str
    height: int
    tip_hash: bytes
    heads: HeadState
    decisions: list[list[tuple[bytes, ValidityFlag]]]  # the stored "blocks"


def _checkpoint_text(size: int, sha256: str, tip: Block, heads: HeadState, decisions) -> str:
    obj = {
        "blocks": [[[to_hex(tx_id), flag.value] for tx_id, flag in pairs] for pairs in decisions],
        "chain_bytes": size,
        "chain_sha256": sha256,
        "heads": {work: [rev, to_hex(digest)] for work, (rev, digest) in heads.items()},
        "height": tip.header.height,
        "tip_hash": to_hex(tip.block_hash),
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _parse_checkpoint(data: bytes) -> _Checkpoint:
    """Parse a checkpoint file; raises ValueError where it is not shaped as written."""
    obj = json.loads(data)
    if not isinstance(obj, dict) or set(obj) != _CHECKPOINT_KEYS:
        raise ValueError("not a checkpoint object")
    blocks = obj["blocks"]
    try:
        heads = {work: (rev, from_hex(digest)) for work, (rev, digest) in obj["heads"].items()}
        decisions = [
            [(bytes.fromhex(tx_id), _FLAGS[flag]) for tx_id, flag in pairs] for pairs in blocks
        ]
        tip_hash = from_hex(obj["tip_hash"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed checkpoint: {exc}") from exc
    counts = [obj["chain_bytes"], obj["height"], *(rev for rev, _ in heads.values())]
    if any(type(v) is not int or v < 0 for v in counts):
        raise ValueError("checkpoint counts must be non-negative integers")
    if not isinstance(blocks, list) or len(blocks) != obj["height"]:
        raise ValueError("checkpoint needs one flag list per block after genesis")
    return _Checkpoint(
        obj["chain_bytes"], obj["chain_sha256"], obj["height"], tip_hash, heads, decisions
    )


@dataclass(frozen=True)
class WorkspaceConfig:
    n: int
    f: int
    seed: int
    timeout_ticks: int = 30
    max_batch: int = 100
    endorsement_m: int = 1

    def __post_init__(self):
        """Refuse, with ConfigError, a config no workspace could run."""
        try:
            quorum_size(self.n, self.f)
        except ConfigError as exc:
            raise ConfigError(f"bad node count: {exc}") from exc
        if self.timeout_ticks < 1:
            raise ConfigError("timeout_ticks must be positive")
        try:
            u64(self.seed, "seed")
        except MalformedError as exc:
            raise ConfigError(str(exc)) from exc
        if not 1 <= self.endorsement_m <= self.n:
            raise ConfigError(f"endorsement_m={self.endorsement_m} outside 1..{self.n}")


class Workspace:
    def __init__(self, root: Path, config: WorkspaceConfig):
        self.root = Path(root)
        self.config = config
        # Each loaded node's chain file length and running SHA-256, extended
        # as blocks persist.
        self._chains: dict[int, tuple[int, "hashlib._Hash"]] = {}
        # The chain bytes, checkpoint bytes and parse of the last trusted checkpoint.
        self._last_trusted: tuple[bytes, bytes, tuple] | None = None
        self._last_written: tuple[tuple, str] | None = None

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def init(cls, root: Path | str, config: WorkspaceConfig) -> "Workspace":
        """Create a fresh workspace; refuses a non-empty directory."""
        root = Path(root)
        if root.exists() and any(root.iterdir()):
            raise WorkspaceError(f"directory {root} is not empty")
        root.mkdir(parents=True, exist_ok=True)
        (root / CONFIG_NAME).write_text(
            json.dumps(asdict(config), sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        ws = cls(root, config)
        for i in range(config.n):
            (ws.node_dir(i) / "blobs").mkdir(parents=True)
            write_chain_file(ws.chain_path(i), Chain())
            ws._write_checkpoint(ws.load_node(i))
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
        except (json.JSONDecodeError, TypeError, ConfigError) as exc:
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

    def checkpoint_path(self, node_id: int) -> Path:
        return self.node_dir(node_id) / CHECKPOINT_NAME

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

    def read_chain(self, node_id: int) -> Chain:
        """The node's whole chain, through ledger.check_chain; a chain that
        fails to parse or has any defect is refused, so a damaged replica
        fails loudly instead of dropping revisions or proposing on a tip the
        other replicas reject."""
        chain, defects = self.load_chain(node_id)
        if chain is not None and not defects:
            defects = check_chain(chain)
        if chain is None or defects:
            first = defects[0] if defects else Defect(0, "unknown")
            raise WorkspaceError(
                f"node-{node_id} chain is damaged ({first.kind} at height {first.height}); "
                "run the verify command for details"
            )
        return chain

    def _chain_bytes(self, node_id: int) -> bytes:
        """The node's chain file; empty where it cannot be read."""
        try:
            return self.chain_path(node_id).read_bytes()
        except OSError:
            return b""

    def _trusted_checkpoint(
        self, node_id: int, raw: bytes
    ) -> tuple[_Checkpoint, Block, "hashlib._Hash"] | None:
        """The node's checkpoint, the tip block parsed from the last line of
        its chain file's bytes `raw`, and the running SHA-256 of `raw`, when
        `raw` hashes to the checkpoint and its tip agrees; None otherwise.
        Honest replicas hold byte-identical files, so a replica whose chain
        and checkpoint bytes equal the last trusted ones shares their parse."""
        try:
            data = self.checkpoint_path(node_id).read_bytes()
        except OSError:
            return None
        last = self._last_trusted
        if last is not None and last[0] == raw and last[1] == data:
            checkpoint, tip, sha256 = last[2]
            return checkpoint, tip, sha256.copy()
        try:
            checkpoint = _parse_checkpoint(data)
        except ValueError:
            return None
        sha256 = hashlib.sha256(raw)
        if checkpoint.chain_bytes != len(raw) or checkpoint.chain_sha256 != sha256.hexdigest():
            return None
        start = raw.rfind(b"\n", 0, len(raw) - 1) + 1
        try:
            tip = block_from_line(raw[start:].decode("utf-8"))
        except (UnicodeDecodeError, ChainParseError):
            return None
        if tip.header.height != checkpoint.height or tip.block_hash != checkpoint.tip_hash:
            return None
        self._last_trusted = (raw, data, (checkpoint, tip, sha256.copy()))
        return checkpoint, tip, sha256

    def load_node(self, node_id: int, tip_only: bool = False) -> NodeRuntime:
        """Rebuild a node runtime from its persisted chain and checkpoint.

        With a trusted checkpoint the runtime takes its heads and flags from
        it, and with `tip_only` its chain is the tip alone, parsed from the
        chain file's last line: no other block is read. Otherwise the whole
        chain goes through `read_chain`; without a trusted checkpoint the
        runtime then replays it, deciding validity from which blobs the store
        holds (none is read).
        """
        raw = self._chain_bytes(node_id)
        trusted = self._trusted_checkpoint(node_id, raw)
        if trusted is None:
            chain, recorded, sha256 = self.read_chain(node_id), None, hashlib.sha256(raw)
        else:
            checkpoint, tip, sha256 = trusted
            chain = Chain([tip]) if tip_only else self.read_chain(node_id)
            recorded = (checkpoint.heads, checkpoint.decisions)
        self._chains[node_id] = (len(raw), sha256)
        cfg = self.config
        return NodeRuntime(
            NodeConfig(node_id, cfg.n, cfg.f, cfg.timeout_ticks),
            self.store(node_id),
            make_policy(cfg.n, cfg.seed, cfg.endorsement_m),
            chain=chain,
            max_batch=cfg.max_batch,
            recorded=recorded,
        )

    def load_all_nodes(self) -> list[NodeRuntime]:
        """Every replica, each holding only its tip where its checkpoint is
        trusted. Replicas at one height must agree on their tip and heads:
        those outside the largest agreeing group are named and refused."""
        nodes = [self.load_node(i, tip_only=True) for i in range(self.config.n)]
        groups: dict[tuple, list[int]] = {}
        for i, node in enumerate(nodes):
            key = (node.chain.height, node.chain.tip.block_hash, tuple(sorted(node.heads.items())))
            groups.setdefault(key, []).append(i)
        largest: dict[int, list[int]] = {}  # height -> first largest group
        for (height, *_), members in groups.items():
            if len(members) > len(largest.get(height, [])):
                largest[height] = members
        agreeing = {i for members in largest.values() for i in members}
        outliers = [f"node-{i}" for i in range(len(nodes)) if i not in agreeing]
        if outliers:
            raise WorkspaceError(
                f"replicas disagree at load: the tip or heads of {', '.join(outliers)} differ "
                "from the other replicas' at the same height; run the verify command for details"
            )
        return nodes

    def persist_new_blocks(self, node: NodeRuntime) -> None:
        """Append the node's blocks committed this run, then replace its
        checkpoint to match; existing chain bytes stay untouched."""
        if not node.blocks_since_load:
            return
        node_id = node.config.node_id
        appended = append_chain_file(self.chain_path(node_id), node.blocks_since_load)
        if node_id not in self._chains:  # not loaded here: leave the checkpoint stale
            return
        size, sha256 = self._chains[node_id]
        sha256.update(appended)
        self._chains[node_id] = (size + len(appended), sha256)
        self._write_checkpoint(node)

    def _write_checkpoint(self, node: NodeRuntime) -> None:
        """Replace the node's checkpoint with one made from the runtime's
        heads and decisions, for its chain file as this workspace last read
        or wrote it."""
        node_id = node.config.node_id
        size, sha256 = self._chains[node_id]
        tip, heads, decisions = node.chain.tip, node.heads, node.decisions()
        # Honest replicas write identical checkpoints: encode each once.
        key = (size, sha256.digest(), tip.block_hash, heads, decisions)
        if self._last_written is None or self._last_written[0] != key:
            text = _checkpoint_text(size, sha256.hexdigest(), tip, heads, decisions)
            self._last_written = (key, text)
        path = self.checkpoint_path(node_id)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(self._last_written[1], encoding="utf-8")
        os.replace(tmp, path)

    def checkpoint_defects(self, node_id: int, chain: Chain) -> list[Defect]:
        """The first disagreement between the node's chain and a checkpoint
        that a reader would trust, as one record-mismatch defect.

        Reads no blob: every flag that does not depend on blob presence is
        recomputed (stale exactly when read_version differs from the folded
        head), and a recorded InvalidMissingContent is taken as given. A
        checkpoint that does not match the chain file is ignored by every
        reader, so it is no defect.
        """
        trusted = self._trusted_checkpoint(node_id, self._chain_bytes(node_id))
        if trusted is None:
            return []
        checkpoint = trusted[0]
        heads: HeadState = {}
        blocks = chain.blocks[1:]
        for height, (block, pairs) in enumerate(zip(blocks, checkpoint.decisions), start=1):
            if [tx.tx_id for tx in block.transactions] != [tx_id for tx_id, _ in pairs]:
                return [Defect(height, "record-mismatch", "tx ids differ from the block's")]
            recorded = [flag for _, flag in pairs]
            # Blob presence as the replica saw it when it applied the block.
            missing = {
                tx.record.content_hash
                for tx, flag in zip(block.transactions, recorded)
                if flag is ValidityFlag.MISSING_CONTENT
            }
            presence = SimpleNamespace(has=lambda digest: digest not in missing)
            heads, flags = apply_block(heads, block, presence)
            for j, (flag, want) in enumerate(zip(recorded, flags)):
                if flag is not want:
                    detail = f"tx {j}: {flag.value}, expected {want.value}"
                    return [Defect(height, "record-mismatch", detail)]
        if len(blocks) != checkpoint.height or chain.tip.block_hash != checkpoint.tip_hash:
            return [Defect(chain.height, "record-mismatch", "tip differs from the chain's")]
        if heads != checkpoint.heads:
            return [Defect(chain.height, "record-mismatch", "heads differ from the chain's")]
        return []


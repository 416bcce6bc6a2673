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
decisions; the workspace keeps only each loaded chain file's length,
running SHA-256 and height. A commit appends the node's chain blocks above
that height, so a repeated persist writes nothing. `init` writes the
checkpoint, and so does a commit that appended blocks, after the chain
file, as a whole new file. It is trusted only while the chain file's bytes
still hash to it. A trusted checkpoint lets load_node parse only the tip,
and read_history only the lines that can hold the work asked for. Any
other checkpoint, or none, is ignored, and the node is rebuilt by a full
check and replay of its chain, which stays the only recovery path.
`verify` checks every replica's chain, store and checkpoint, and this is
the only module that reads checkpoint files.

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
from typing import NoReturn

from .content_store import ContentStore, audit_stores
from .digests import from_hex, to_hex
from .ledger import (
    Block,
    Chain,
    ChainParseError,
    Defect,
    VerifyReport,
    append_chain_file,
    block_from_line,
    chain_lines,
    check_block,
    check_chain,
    parse_chain,
    read_chain_file,
    verify_chain,
    write_chain_file,
)
from .node import NodeRuntime, make_policy
from .pbft import ConfigError, GroupConfig
from .revisions import (
    HeadState,
    HistoryEntry,
    ValidityFlag,
    apply_block,
    check_endorsement_policy,
    history,
)

CONFIG_NAME = "config.json"
LOCK_NAME = ".lock"
CHAIN_NAME = "chain.jsonl"
CHECKPOINT_NAME = "checkpoint.json"

_FLAGS = {flag.value: flag for flag in ValidityFlag}
_CHECKPOINT_KEYS = {"blocks", "chain_bytes", "chain_sha256", "heads", "height", "tip_hash"}


class WorkspaceError(Exception):
    pass


def _refuse(node_id: int, defect: Defect) -> NoReturn:
    """Refuse a damaged replica loudly, naming its first defect."""
    raise WorkspaceError(
        f"node-{node_id} chain is damaged ({defect.kind} at height {defect.height}); "
        "run the verify command for details"
    )


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
            [(from_hex(tx_id), _FLAGS[flag]) for tx_id, flag in pairs] for pairs in blocks
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


class Workspace:
    def __init__(self, root: Path, config: GroupConfig):
        self.root = Path(root)
        self.config = config
        # The one endorsement policy of every replica this workspace loads and verifies.
        self.policy = make_policy(config)
        # Each loaded node's chain file length, running SHA-256 and height,
        # advanced as a commit appends the chain's blocks above that height.
        self._chains: dict[int, tuple[int, "hashlib._Hash", int]] = {}
        # The chain bytes, checkpoint bytes and parse of the last trusted checkpoint.
        self._last_trusted: tuple[bytes, bytes, tuple] | None = None
        self._last_written: tuple[tuple, str] | None = None

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def init(cls, root: Path | str, config: GroupConfig) -> "Workspace":
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
            config = GroupConfig(**raw)
        except (UnicodeDecodeError, json.JSONDecodeError, TypeError, ConfigError) as exc:
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

    # -- node state ----------------------------------------------------------------

    def read_chain_bytes(self, node_id: int) -> tuple[bytes | None, list[Defect]]:
        """The node's chain file, or None and a missing-replica defect where it cannot be read."""
        if not self.node_dir(node_id).exists():
            return None, [Defect(0, "missing-replica", f"node-{node_id} directory absent")]
        return read_chain_file(self.chain_path(node_id))

    def read_chain(self, node_id: int) -> Chain:
        """The node's whole chain, refused as _checked_chain refuses it."""
        return self._checked_chain(node_id, *self.read_chain_bytes(node_id))

    def _checked_chain(self, node_id: int, raw: bytes | None, missing: list[Defect]) -> Chain:
        """The chain parsed from its file's bytes `raw` (None where `missing`
        says why), through ledger.check_chain; a chain that fails to parse or
        has any defect is refused, so a damaged replica fails loudly instead of
        dropping revisions or proposing on a tip the other replicas reject."""
        chain, defects = (None, missing) if missing else parse_chain(raw)
        if chain is not None and not defects:
            defects = check_chain(chain)
        if chain is None or defects:
            _refuse(node_id, defects[0] if defects else Defect(0, "unknown"))
        return chain

    def read_checkpoint_bytes(self, node_id: int) -> bytes | None:
        """The node's checkpoint file, or None where it cannot be read."""
        try:
            return self.checkpoint_path(node_id).read_bytes()
        except OSError:
            return None

    def _trusted_checkpoint(
        self, raw: bytes, data: bytes | None
    ) -> tuple[_Checkpoint, Block, "hashlib._Hash"] | None:
        """The checkpoint parsed from the checkpoint file's bytes `data`, the
        tip block parsed from the last line of the chain file's bytes `raw`,
        and the running SHA-256 of `raw`, when `raw` hashes to the checkpoint
        and its tip agrees; None otherwise. Honest replicas hold
        byte-identical files, so a replica whose chain and checkpoint bytes
        equal the last trusted ones shares their parse."""
        if data is None:
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

    def _read_trusted(self, node_id: int) -> tuple[bytes, list[Defect], tuple | None]:
        """The node's chain file bytes (empty where unreadable), their
        missing-replica defects, and _trusted_checkpoint's result for them."""
        raw, missing = self.read_chain_bytes(node_id)
        raw = raw or b""
        return raw, missing, self._trusted_checkpoint(raw, self.read_checkpoint_bytes(node_id))

    def _replayed_node(self, node_id: int, raw: bytes, missing: list[Defect]) -> NodeRuntime:
        """A runtime holding the whole chain parsed from `raw`, refused as
        `_checked_chain` refuses it, that replays every block, deciding
        validity from which blobs the store holds (none is read)."""
        chain = self._checked_chain(node_id, raw, missing)
        self._chains[node_id] = (len(raw), hashlib.sha256(raw), chain.height)
        return NodeRuntime(node_id, self.config, self.store(node_id), self.policy, chain=chain)

    def load_node(self, node_id: int) -> NodeRuntime:
        """Rebuild a node runtime from its persisted chain and checkpoint.

        With a trusted checkpoint the runtime takes its heads and flags from
        it, and its chain is the tip alone, parsed from the chain file's last
        line: no other block is read. Otherwise the runtime holds and
        replays the whole chain (`_replayed_node`), parsed from the bytes
        read for the trust check.
        """
        raw, missing, trusted = self._read_trusted(node_id)
        if trusted is None:
            return self._replayed_node(node_id, raw, missing)
        checkpoint, tip, sha256 = trusted
        self._chains[node_id] = (len(raw), sha256, checkpoint.height)
        recorded = (checkpoint.heads, checkpoint.decisions)
        return NodeRuntime(
            node_id, self.config, self.store(node_id), self.policy, Chain([tip]), recorded
        )

    def read_history(self, node_id: int, work_id: str) -> list[HistoryEntry]:
        """The work's valid revisions on one replica, as a runtime holding
        its whole chain lists them.

        With a trusted checkpoint the flags come from it, and only the chain
        lines that can hold the work are parsed: those holding the work id
        as a JSON string written without escapes, which is its literal UTF-8
        text in quotes, and those holding a backslash, because any other
        spelling of the work id needs one. Each line read must parse, carry
        its line position as its header height, pass check_block there and
        hold the tx ids the checkpoint recorded for that height; otherwise
        the replica is refused as `_checked_chain` refuses it. This trusts
        the unread lines as a commit's tip-only load does: a replica writes
        a checkpoint only for chain bytes it has checked. Without a trusted
        checkpoint the whole chain is checked and replayed, as load_node
        does.
        """
        raw, missing, trusted = self._read_trusted(node_id)
        if trusted is None:
            return self._replayed_node(node_id, raw, missing).history(work_id)
        decisions = trusted[0].decisions
        lines = chain_lines(raw)
        if len(lines) != len(decisions) + 1:
            _refuse(node_id, Defect(len(lines) - 1, "height-mismatch"))
        # A surrogate (from a command line argument) has no literal UTF-8
        # spelling in a parsed line, so its needle matches none.
        needle = b'"' + work_id.encode("utf-8", "surrogatepass") + b'"'
        decided = []
        for height, line in enumerate(lines[1:], start=1):
            if needle not in line and b"\\" not in line:
                continue
            try:
                block = block_from_line(line.decode("utf-8"))
            except (UnicodeDecodeError, ChainParseError):
                _refuse(node_id, Defect(height, "unparseable-record"))
            if block.header.height != height:
                _refuse(node_id, Defect(height, "height-mismatch"))
            defects = check_block(block, height)
            if defects:
                _refuse(node_id, defects[0])
            pairs = decisions[height - 1]
            if [tx.tx_id for tx in block.transactions] != [tx_id for tx_id, _ in pairs]:
                _refuse(node_id, Defect(height, "record-mismatch"))
            decided.append((block, pairs))
        entries = history(decided, work_id)
        head = trusted[0].heads.get(work_id, (0, None))[0]
        if [e.revision_number for e in entries] != list(range(1, head + 1)):
            _refuse(node_id, Defect(len(lines) - 1, "record-mismatch"))
        return entries

    def load_all_nodes(self) -> list[NodeRuntime]:
        """Every replica, each holding only its tip where its checkpoint is
        trusted. Replicas at one height must agree on their tip, heads and
        recorded decisions: those outside the largest agreeing group are
        named and refused."""
        nodes = [self.load_node(i) for i in range(self.config.n)]
        keys = [(n.chain.height, n.chain.tip.block_hash, n.heads, n.decisions) for n in nodes]
        largest: dict[int, list[int]] = {}  # height -> first largest group
        for key in keys:
            members = [i for i, other in enumerate(keys) if other == key]
            if len(members) > len(largest.get(key[0], [])):
                largest[key[0]] = members
        agreeing = {i for members in largest.values() for i in members}
        outliers = [f"node-{i}" for i in range(len(nodes)) if i not in agreeing]
        if outliers:
            raise WorkspaceError(
                "replicas disagree at load: the tip, heads or validity record of "
                f"{', '.join(outliers)} differ from the other replicas' at the same height; "
                "run the verify command for details"
            )
        return nodes

    def persist_new_blocks(self, node: NodeRuntime) -> None:
        """Append the node's chain blocks above its file's recorded height,
        then replace its checkpoint; a chain no taller writes nothing."""
        node_id = node.node_id
        size, sha256, height = self._chains[node_id]
        if node.chain.height <= height:
            return
        new = [block for block in node.chain.blocks if block.header.height > height]
        appended = append_chain_file(self.chain_path(node_id), new)
        sha256.update(appended)
        self._chains[node_id] = (size + len(appended), sha256, node.chain.height)
        self._write_checkpoint(node)

    def _write_checkpoint(self, node: NodeRuntime) -> None:
        """Replace the node's checkpoint with one made from the runtime's
        heads and decisions, for its chain file as this workspace last read
        or wrote it."""
        node_id = node.node_id
        size, sha256, _ = self._chains[node_id]
        tip, heads, decisions = node.chain.tip, node.heads, node.decisions
        # Honest replicas write identical checkpoints: encode each once.
        key = (size, sha256.digest(), tip.block_hash, heads, decisions)
        if self._last_written is None or self._last_written[0] != key:
            text = _checkpoint_text(size, sha256.hexdigest(), tip, heads, decisions)
            self._last_written = (key, text)
        path = self.checkpoint_path(node_id)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(self._last_written[1], encoding="utf-8")
        os.replace(tmp, path)

    def checkpoint_defects(self, raw: bytes, data: bytes | None, chain: Chain) -> list[Defect]:
        """The first disagreement between a chain, parsed from its file's
        bytes `raw`, and the checkpoint file's bytes `data` (None where there
        is none) when a reader would trust them, as one record-mismatch defect.

        Reads no blob: every flag that does not depend on blob presence is
        recomputed (stale exactly when read_version differs from the folded
        head), and a recorded InvalidMissingContent is taken as given. A
        checkpoint that does not match the chain file is ignored by every
        reader, so it is no defect.
        """
        trusted = self._trusted_checkpoint(raw, data)
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

    def verify(self) -> list[VerifyReport]:
        """Each replica's integrity report, by node id: its chain's defects,
        a trusted checkpoint's disagreement with that chain, and its store's
        audit; a replica whose chain file cannot be read or whose genesis is
        unusable reports that alone. Replicas whose chain files hold equal
        bytes share one parse and check_chain, and those whose checkpoint
        files are equal too share one checkpoint comparison; the stores are
        audited together, so a key's copies that agree are hashed once. The
        presence check is per replica; the endorsement check runs under the
        workspace's one policy object, which each transaction that meets it
        keeps, so a transaction of a shared parse is checked once for all its
        replicas."""

        def checker(tx) -> bool:
            return check_endorsement_policy(tx, self.policy)

        structural: dict[bytes, tuple] = {}
        chains: dict[int, tuple] = {}
        reports: dict[int, VerifyReport] = {}
        for i in range(self.config.n):
            raw, missing = self.read_chain_bytes(i)
            if raw is not None and raw not in structural:
                chain, defects = parse_chain(raw)
                structural[raw] = chain, defects + (check_chain(chain) if chain else [])
            chain, defects = structural.get(raw, (None, missing))
            if chain is None:
                reports[i] = VerifyReport(list(defects))
            else:
                chains[i] = raw, chain, defects
        stores = [self.store(i) for i in chains]
        compared: dict[tuple, list] = {}
        for (i, (raw, chain, defects)), store, audit in zip(
            chains.items(), stores, audit_stores(stores)
        ):
            report = verify_chain(chain, store, defects, audit, checker)
            pair = raw, self.read_checkpoint_bytes(i)
            if pair not in compared:
                compared[pair] = self.checkpoint_defects(*pair, chain)
            report.defects += compared[pair]
            report.defects.sort(key=lambda d: d.height)
            reports[i] = report
        return [reports[i] for i in range(self.config.n)]

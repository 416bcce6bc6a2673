"""Blocks, hash chaining, and whole-chain verification.

Each block header commits to the previous block's hash and to the
Merkle root of its transaction ids, so editing any historical byte
invalidates everything after it. check_chain, run on every loaded chain,
trusts no stored digest: every hash (tx ids, Merkle root, block hash,
linkage) is recomputed from raw fields, and the only result it keeps is a
block's own check_block verdict, on that block object (Block.verdict). A
block cannot change after it is built, so replicas holding the same object
share that verdict; a parsed, damaged or equivocated block is a new object
with a verdict of its own. verify_chain adds the blob store's
audit, run by its caller as the one read of each blob, the presence of
referenced content the audit did not read whole, and the endorsement
checks.

Chain file format: one block per line, compact JSON with sorted keys,
hashes as lowercase hex. Payload bytes are never embedded (they live in
the content store); canonical hashing is over the binary encoding, never
over this text form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from . import encoding
from .content_store import AuditDefect, StoreAudit, StoreError
from .digests import ZERO_DIGEST, from_hex, to_hex
from .merkle import merkle_root
from .revisions import RevisionRecord, Transaction

GENESIS_PROPOSER = "genesis"


@dataclass(frozen=True)
class BlockHeader:
    height: int
    prev_hash: bytes
    merkle_root: bytes
    proposer_id: str
    view: int
    tick: int
    tx_count: int


@dataclass(frozen=True)
class Block:
    """Nothing changes a block's header, transactions or hash once it is
    built: a damaged, equivocated or re-parsed block is a new object. So
    check_block computes `verdict` once per object, and every replica
    holding the object reads it."""

    header: BlockHeader
    transactions: tuple[Transaction, ...]
    block_hash: bytes
    # check_block's (kind, detail) pairs, without a height; None until its
    # first call on this object. A declared field, not a cached_property:
    # writing the instance __dict__ would slow every later attribute read.
    verdict: tuple[tuple[str, str], ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )


def genesis_block() -> Block:
    """The fixed genesis: zero prev hash, zero Merkle root, no transactions."""
    header = BlockHeader(
        height=0,
        prev_hash=ZERO_DIGEST,
        merkle_root=ZERO_DIGEST,
        proposer_id=GENESIS_PROPOSER,
        view=0,
        tick=0,
        tx_count=0,
    )
    return Block(header=header, transactions=(), block_hash=encoding.header_hash(header))


def build_block(
    height: int,
    prev_hash: bytes,
    txs: Iterable[Transaction],
    proposer_id: str,
    view: int,
    tick: int,
) -> Block:
    """Assemble a non-genesis block; empty transaction lists are rejected."""
    transactions = tuple(txs)
    if height < 1:
        raise ValueError("non-genesis blocks start at height 1")
    if not transactions:
        raise ValueError("non-genesis blocks must carry at least one transaction")
    header = BlockHeader(
        height=height,
        prev_hash=prev_hash,
        merkle_root=merkle_root([tx.tx_id for tx in transactions]),
        proposer_id=proposer_id,
        view=view,
        tick=tick,
        tx_count=len(transactions),
    )
    return Block(header=header, transactions=transactions, block_hash=encoding.header_hash(header))


class Chain:
    """Append-only block sequence starting at genesis, or at the tip of a
    longer chain when a workspace loads a node from its checkpoint.

    The only mutation exposed is appending a block whose prev_hash
    matches the current tip; nothing removes or edits blocks.
    """

    def __init__(self, blocks: list[Block] | None = None):
        if blocks is None:
            blocks = [genesis_block()]
        if not blocks:
            raise ValueError("a chain always contains at least genesis")
        self._blocks: list[Block] = list(blocks)

    @property
    def blocks(self) -> tuple[Block, ...]:
        """A new tuple of the blocks, O(height); `tip` and `height` are O(1)."""
        return tuple(self._blocks)

    @property
    def tip(self) -> Block:
        return self._blocks[-1]

    @property
    def height(self) -> int:
        return self._blocks[-1].header.height

    def append(self, block: Block) -> None:
        tip = self.tip
        if block.header.height != tip.header.height + 1:
            raise ValueError(
                f"append at height {block.header.height}, tip is {tip.header.height}"
            )
        if block.header.prev_hash != tip.block_hash:
            raise ValueError("appended block does not link to the current tip")
        self._blocks.append(block)


# --- verification -----------------------------------------------------------


@dataclass(frozen=True)
class Defect:
    height: int
    kind: str
    detail: str = ""


@dataclass
class VerifyReport:
    defects: list[Defect] = field(default_factory=list)
    audit: list[AuditDefect] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.defects and not self.audit


def check_genesis(block: Block) -> list[Defect]:
    """Defects of a chain's first block against the fixed genesis, in a fixed order."""
    if block.header.height != 0:
        return [Defect(0, "missing-genesis")]
    defects: list[Defect] = []
    if (
        block.header.prev_hash != ZERO_DIGEST
        or block.header.merkle_root != ZERO_DIGEST
        or block.header.tx_count != 0
        or block.transactions
    ):
        defects.append(Defect(0, "genesis-invariant"))
    if encoding.header_hash(block.header) != block.block_hash:
        defects.append(Defect(0, "block-hash-mismatch"))
    return defects


def check_block(block: Block, height: int) -> list[Defect]:
    """Structural defects of one non-genesis block at `height`, in a fixed order.

    Covers what a block's own fields must satisfy: at least one
    transaction, the block hash, the Merkle root, tx_count, and per
    transaction its record bounds (check_record), its tx id and the
    revision gap. It trusts the field shapes block_from_line checks, reads
    no store and no chain position. The first call on a block object keeps
    the verdict on it (Block.verdict), and every later call on that object,
    by any replica, reads it; each call reports it at `height`. Consensus
    runs it on each
    pre-prepare, check_chain on each block of a chain, at its line position
    (a forged header height is check_chain's height-mismatch); apply_block
    trusts what passed.
    """
    verdict = block.verdict
    if verdict is None:
        defects: list[tuple[str, str]] = []
        if not block.transactions:
            defects.append(("empty-block", ""))
        if encoding.header_hash(block.header) != block.block_hash:
            defects.append(("block-hash-mismatch", ""))
        if merkle_root([tx.tx_id for tx in block.transactions]) != block.header.merkle_root:
            defects.append(("merkle-root-mismatch", ""))
        if block.header.tx_count != len(block.transactions):
            defects.append(("tx-count-mismatch", f"header says {block.header.tx_count}"))
        for i, tx in enumerate(block.transactions):
            try:
                encoding.check_record(tx.record)
            except encoding.MalformedError as exc:
                defects.append(("record-malformed", f"tx {i}: {exc}"))
                continue
            if encoding.transaction_id(tx.record, tx.read_version) != tx.tx_id:
                defects.append(("tx-id-mismatch", f"tx {i}"))
            if tx.record.revision_number != tx.read_version + 1:
                defects.append(("record-malformed", f"tx {i}: revision gap"))
        verdict = tuple(defects)
        object.__setattr__(block, "verdict", verdict)  # the one write; Block is frozen
    return [Defect(height, kind, detail) for kind, detail in verdict]


def check_chain(chain: Chain) -> list[Defect]:
    """Structural defects of a whole chain in a fixed order: check_genesis,
    then for each later block its height against its position, its link
    and check_block. A workspace refuses to load a chain with any of them.
    """
    blocks = chain.blocks
    defects = check_genesis(blocks[0])
    prev_clean = not defects
    for i, block in enumerate(blocks[1:], start=1):
        if block.header.height != i:
            defects.append(Defect(i, "height-mismatch", f"header says {block.header.height}"))
        # A block that just passed its own check holds its recomputed hash,
        # so each header is hashed once and no unchecked digest is trusted.
        prev = blocks[i - 1]
        prev_hash = prev.block_hash if prev_clean else encoding.header_hash(prev.header)
        if block.header.prev_hash != prev_hash:
            defects.append(Defect(i, "link-mismatch"))
        block_defects = check_block(block, i)
        defects.extend(block_defects)
        prev_clean = not block_defects
    return defects


def verify_chain(
    chain: Chain,
    store,
    structural: Iterable[Defect],
    audit: StoreAudit,
    endorsement_checker: Callable[[Transaction], bool],
) -> VerifyReport:
    """The content and endorsement checks against the store, given its
    `audit()` (the only read of blob bytes, which a replica group can run
    together), merged with `structural`, the chain's parse and check_chain
    defects (shareable by replicas of one chain), by height.

    Referenced content the audit read whole is present and intact, so only
    the rest is looked up: content that is absent is content-missing;
    content the audit found damaged, or whose lookup fails, is
    content-hash-mismatch. A present blob the audit did not read whole is
    one it could not list, so it is read and hashed here, once.
    `endorsement_checker` re-verifies each transaction's endorsements
    against the replica group's policy.
    """
    # Only a blob at its own fan-out path is read, so a stray copy is no content defect.
    damaged = {a.key for a in audit.defects if a.kind in ("key-mismatch", "unreadable")}
    whole = set(audit.whole)
    defects: list[Defect] = list(structural)
    for i, block in enumerate(chain.blocks[1:], start=1):
        for j, tx in enumerate(block.transactions):
            content_hash = tx.record.content_hash
            if content_hash in whole:
                continue
            key = to_hex(content_hash)
            try:
                if not store.has(content_hash):
                    kind = "content-missing"
                elif key in damaged:
                    kind = "content-hash-mismatch"
                else:
                    store.get(content_hash)  # unlisted: the audit never read it
                    whole.add(content_hash)
                    continue
            except StoreError:
                damaged.add(key)
                kind = "content-hash-mismatch"
            defects.append(Defect(i, kind, f"tx {j}: {key}"))
        for j, tx in enumerate(block.transactions):
            if not endorsement_checker(tx):
                defects.append(Defect(i, "endorsement-invalid", f"tx {j}"))

    defects.sort(key=lambda d: d.height)
    return VerifyReport(defects=defects, audit=audit.defects)


# --- chain file I/O ---------------------------------------------------------


class ChainParseError(ValueError):
    """A chain file line is not a well-formed block record."""


def _require_keys(obj: dict, keys: set[str], what: str) -> None:
    if not isinstance(obj, dict) or set(obj.keys()) != keys:
        raise ChainParseError(f"{what} must have exactly keys {sorted(keys)}")


def _require_uint(value, what: str) -> int:
    if type(value) is not int or value < 0 or value >= 1 << 64:
        raise ChainParseError(f"{what} must be an unsigned 64-bit integer")
    return value


def _require_digest(value, what: str) -> bytes:
    if not isinstance(value, str):
        raise ChainParseError(f"{what} must be a hex string")
    try:
        return from_hex(value)
    except ValueError as exc:
        raise ChainParseError(f"{what}: {exc}") from exc


def _require_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise ChainParseError(f"{what} must be a string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate such as "\ud800"
        raise ChainParseError(f"{what} is not encodable as UTF-8: {exc.reason}") from exc
    return value


def block_to_obj(block: Block) -> dict:
    return {
        "block_hash": to_hex(block.block_hash),
        "header": {
            "height": block.header.height,
            "merkle_root": to_hex(block.header.merkle_root),
            "prev_hash": to_hex(block.header.prev_hash),
            "proposer_id": block.header.proposer_id,
            "tick": block.header.tick,
            "tx_count": block.header.tx_count,
            "view": block.header.view,
        },
        "transactions": [
            {
                "author_id": tx.record.author_id,
                "content_hash": to_hex(tx.record.content_hash),
                "endorsements": [[nid, token.hex()] for nid, token in tx.endorsements],
                "read_version": tx.read_version,
                "revision_number": tx.record.revision_number,
                "submit_tick": tx.record.submit_tick,
                "tx_id": to_hex(tx.tx_id),
                "work_id": tx.record.work_id,
            }
            for tx in block.transactions
        ],
    }


def block_to_line(block: Block) -> str:
    return json.dumps(block_to_obj(block), sort_keys=True, separators=(",", ":"))


_HEADER_KEYS = {"height", "merkle_root", "prev_hash", "proposer_id", "tick", "tx_count", "view"}
_BLOCK_KEYS = {"block_hash", "header", "transactions"}
_TX_KEYS = {
    "author_id",
    "content_hash",
    "endorsements",
    "read_version",
    "revision_number",
    "submit_tick",
    "tx_id",
    "work_id",
}


def block_from_line(line: str) -> Block:
    """Strict parse of one chain file line; raises ChainParseError on any
    shape deviation so tampering can never hide inside an unparsed field.

    The one check of every field's shape: u64 integers, 64 lowercase hex
    digits for each digest, UTF-8 encodable text and the proposer bound, so
    the encoders can hash any block it returns. Record bounds are left to
    check_block, which reports them at the block's line."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ChainParseError(f"invalid JSON: {exc}") from exc
    _require_keys(obj, _BLOCK_KEYS, "block record")
    _require_keys(obj["header"], _HEADER_KEYS, "header")
    h = obj["header"]
    proposer_id = _require_str(h["proposer_id"], "proposer_id")
    if len(proposer_id.encode("utf-8")) > encoding.MAX_PROPOSER_ID_BYTES:
        raise ChainParseError(f"proposer_id exceeds {encoding.MAX_PROPOSER_ID_BYTES} bytes")
    header = BlockHeader(
        height=_require_uint(h["height"], "height"),
        prev_hash=_require_digest(h["prev_hash"], "prev_hash"),
        merkle_root=_require_digest(h["merkle_root"], "merkle_root"),
        proposer_id=proposer_id,
        view=_require_uint(h["view"], "view"),
        tick=_require_uint(h["tick"], "tick"),
        tx_count=_require_uint(h["tx_count"], "tx_count"),
    )
    if not isinstance(obj["transactions"], list):
        raise ChainParseError("transactions must be a list")
    txs = []
    for t in obj["transactions"]:
        _require_keys(t, _TX_KEYS, "transaction")
        if not isinstance(t["endorsements"], list):
            raise ChainParseError("endorsements must be a list")
        endorsements = []
        for pair in t["endorsements"]:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ChainParseError("endorsement must be a [node_id, token] pair")
            nid = _require_uint(pair[0], "endorsement node_id")
            token = _require_digest(pair[1], "endorsement token")
            endorsements.append((nid, token))
        record = RevisionRecord(
            work_id=_require_str(t["work_id"], "work_id"),
            revision_number=_require_uint(t["revision_number"], "revision_number"),
            content_hash=_require_digest(t["content_hash"], "content_hash"),
            author_id=_require_str(t["author_id"], "author_id"),
            submit_tick=_require_uint(t["submit_tick"], "submit_tick"),
        )
        txs.append(
            Transaction(
                tx_id=_require_digest(t["tx_id"], "tx_id"),
                record=record,
                read_version=_require_uint(t["read_version"], "read_version"),
                endorsements=tuple(endorsements),
            )
        )
    return Block(
        header=header,
        transactions=tuple(txs),
        block_hash=_require_digest(obj["block_hash"], "block_hash"),
    )


def write_chain_file(path: Path, chain: Chain) -> None:
    text = "".join(block_to_line(b) + "\n" for b in chain.blocks)
    path.write_text(text, encoding="utf-8")


def append_chain_file(path: Path, blocks: Iterable[Block]) -> bytes:
    """Append new blocks without rewriting existing bytes; returns the bytes appended."""
    data = "".join(block_to_line(block) + "\n" for block in blocks).encode("utf-8")
    with path.open("ab") as fh:
        fh.write(data)
    return data


def read_chain_file(path: Path) -> tuple[bytes | None, list[Defect]]:
    """A chain file's bytes; an unreadable file is a missing replica."""
    try:
        return path.read_bytes(), []
    except OSError as exc:
        return None, [Defect(0, "missing-replica", str(exc))]


def chain_lines(raw: bytes) -> list[bytes]:
    """A chain file's lines, one block record each, without their newlines."""
    lines = raw.split(b"\n")
    return lines[:-1] if lines[-1] == b"" else lines


def parse_chain(raw: bytes) -> tuple[Chain | None, list[Defect]]:
    """Parse a chain file's bytes; an unparseable line becomes a defect at its height.

    Returns (chain, defects). Line position is the authoritative height
    (a tampered height field cannot relocate a block). Parsing stops at
    the first unparseable line: without it the link to later blocks is
    broken anyway, and the defect already pins the earliest bad height.
    The chain is None when genesis itself is unusable.
    """
    lines = chain_lines(raw)
    if not lines:
        return None, [Defect(0, "missing-genesis", "empty chain file")]
    blocks: list[Block] = []
    defects: list[Defect] = []
    for i, line_bytes in enumerate(lines):
        # Decode per line: a bad byte must pin a defect at its own height,
        # not poison the whole file.
        try:
            blocks.append(block_from_line(line_bytes.decode("utf-8")))
        except (UnicodeDecodeError, ChainParseError) as exc:
            defects.append(Defect(i, "unparseable-record", str(exc)))
            break
    if not blocks:
        return None, defects
    return Chain(blocks), defects

"""Works, revisions, endorsements, and MVCC validation.

A revision of a work is committed as a transaction carrying the
(work id, revision number, content hash) triple plus author and timing
metadata. Transactions record the head revision the client observed
(`read_version`); after ordering, each one is validated against the
then-current head state and flagged (optimistic concurrency control).
Invalid transactions stay in their block, flagged, never deleted:
blocks are immutable once ordered.

Validity is decided once per replica, when the replica applies a block
(NodeRuntime runs apply_block and records each block's (tx id, flag)
pairs in its `decisions`, by height); history reads those recorded flags
and never decides validity again.

Revision numbers per work are 1, 2, 3, ... with no gaps: a transaction
is only Valid when its read_version still equals the committed head, so
exactly one writer wins each slot.

Validation trusts block structure (tx ids, record bounds, the revision
gap), which ledger checks once: check_block when consensus accepts a
pre-prepare, check_chain when a workspace loads a chain file. A new
record's fields are checked once, by propose_revision, which stores
nothing. Validity reads blob presence, never blob bytes, so a damaged
blob changes no replica's flags or heads; show and verify re-hash bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping

from . import encoding
from .content_store import NotFoundError
from .digests import sha256
from .encoding import MalformedError

HeadState = dict[str, tuple[int, bytes]]  # work_id -> (head revision, head content hash)


class ValidityFlag(Enum):
    VALID = "Valid"
    STALE_READ = "InvalidStaleRead"
    MISSING_CONTENT = "InvalidMissingContent"
    MALFORMED = "InvalidMalformed"


# The per-transaction loops compare with this global: an Enum class attribute
# lookup per transaction costs several times more.
VALID = ValidityFlag.VALID


@dataclass(frozen=True)
class RevisionRecord:
    work_id: str
    revision_number: int
    content_hash: bytes
    author_id: str
    submit_tick: int


@dataclass(frozen=True)
class Transaction:
    tx_id: bytes
    record: RevisionRecord
    read_version: int
    endorsements: tuple[tuple[int, bytes], ...] = ()


@dataclass(frozen=True)
class EndorsementPolicy:
    """`required`-of-n endorsement rule: the n nodes are those holding one of
    `secrets`, which re-verify their tokens."""

    required: int
    secrets: Mapping[int, bytes]


def propose_revision(
    work_id: str,
    author_id: str,
    payload: bytes,
    heads: HeadState,
    submit_tick: int = 0,
) -> Transaction:
    """Propose the next revision of a work against the observed head.

    Refuses, with MalformedError, ids that break their bounds and a
    revision number outside u64 (SimConfig bounds the tick). Otherwise
    returns an unendorsed transaction naming the payload by its SHA-256,
    with read_version = current head, or 0 for a work not yet created.
    """
    encoding.check_work_id(work_id)
    encoding.check_author_id(author_id)
    read_version = heads[work_id][0] if work_id in heads else 0
    if read_version + 1 >= 1 << 64:
        raise MalformedError(f"revision_number out of u64 range: {read_version + 1}")
    content_hash = sha256(payload)
    record = RevisionRecord(
        work_id=work_id,
        revision_number=read_version + 1,
        content_hash=content_hash,
        author_id=author_id,
        submit_tick=submit_tick,
    )
    tx_id = encoding.transaction_id(record, read_version)
    return Transaction(tx_id=tx_id, record=record, read_version=read_version)


def endorsement_token(node_secret: bytes, tx_id: bytes) -> bytes:
    """Keyed-hash attestation: SHA-256(secret || tx_id).

    These are simulation-local tokens, not signatures; forgery resistance
    against an adversary who knows the secrets is not claimed.
    """
    return sha256(node_secret + tx_id)


def endorse(tx: Transaction, node_id: int, node_secret: bytes) -> Transaction:
    """Append this node's attestation; a repeat endorsement is a no-op.

    tx_id is unchanged because endorsements are outside the canonical
    transaction encoding.
    """
    if any(nid == node_id for nid, _ in tx.endorsements):
        return tx
    token = endorsement_token(node_secret, tx.tx_id)
    return replace(tx, endorsements=tx.endorsements + ((node_id, token),))


def check_endorsement_policy(tx: Transaction, policy: EndorsementPolicy) -> bool:
    """True iff >= required valid tokens from distinct nodes holding a secret."""
    valid_nodes: set[int] = set()
    for node_id, token in tx.endorsements:
        secret = policy.secrets.get(node_id)
        if secret is None or node_id in valid_nodes:
            continue
        if token == endorsement_token(secret, tx.tx_id):
            valid_nodes.add(node_id)
    return len(valid_nodes) >= policy.required


def validate_transaction(tx: Transaction, heads: HeadState, store) -> ValidityFlag:
    """Post-order validation of a structurally checked transaction: a stale
    read, then blob presence (no blob is read). Never mutates heads or raises."""
    current_head = heads[tx.record.work_id][0] if tx.record.work_id in heads else 0
    if tx.read_version != current_head:
        return ValidityFlag.STALE_READ
    if not store.has(tx.record.content_hash):
        return ValidityFlag.MISSING_CONTENT
    return VALID


def apply_block(heads: HeadState, block, store) -> tuple[HeadState, list[ValidityFlag]]:
    """Fold validation over a committed block's transactions in order.

    The block's structure was checked once by ledger.check_block, at
    pre-prepare or at load, so only stale reads and missing content are
    decided here. Valid transactions update the head immediately, so
    intra-block conflicts resolve first-wins. Pure function of (heads,
    block, blob presence): honest replicas derive identical results.
    """
    new_heads = dict(heads)
    flags: list[ValidityFlag] = []
    for tx in block.transactions:
        flag = validate_transaction(tx, new_heads, store)
        if flag is VALID:
            new_heads[tx.record.work_id] = (
                tx.record.revision_number,
                tx.record.content_hash,
            )
        flags.append(flag)
    return new_heads, flags


@dataclass(frozen=True)
class HistoryEntry:
    revision_number: int
    content_hash: bytes
    author_id: str
    block_height: int
    block_tick: int


def history(decided, work_id: str) -> list[HistoryEntry]:
    """Valid revisions of a work in revision order, read from recorded flags.

    `decided` yields (block, decision list) pairs in height order, the list
    holding the block's (tx id, flag) pairs as the replica recorded them
    when it applied the block. A block that does not hold the work may be
    left out, so a caller can pass only the blocks it read. Nothing is
    re-validated, so history cannot disagree with the heads and receipts.
    Unknown works yield an empty list. The returned numbers are 1..k,
    gap-free, because only head-extending transactions validate.
    """
    # The work is compared first: other works' flags are then never read.
    return [
        HistoryEntry(
            revision_number=tx.record.revision_number,
            content_hash=tx.record.content_hash,
            author_id=tx.record.author_id,
            block_height=block.header.height,
            block_tick=block.header.tick,
        )
        for block, pairs in decided
        for tx, pair in zip(block.transactions, pairs)
        if tx.record.work_id == work_id and pair[1] is VALID
    ]


def show(entries: list[HistoryEntry], work_id: str, revision_number: int, store) -> bytes:
    """Payload bytes of revision `revision_number` among a work's history
    `entries`, re-hashed on read by store.get; NotFoundError where the
    work has no such valid revision."""
    for entry in entries:
        if entry.revision_number == revision_number:
            return store.get(entry.content_hash)
    raise NotFoundError(f"no valid revision {revision_number} of {work_id!r}")

"""Per-node pipeline: endorse, order, validate.

A node accepts client submissions (endorsing them per policy), forwards
endorsed transactions to the current primary, hands batches to the
consensus layer when it is the primary itself, and on every commit
appends the block to its chain, runs MVCC validation, updates client
receipts, and replicates payload blobs into its own content store.

Validity is decided once per replica, when _apply_block applies a block
committed in this run, and recorded in `bitmaps`, one flag list per
non-genesis block; heads fold those decisions and every reader (history,
show, the simulator's report) reads the record. A workspace hands a loaded
replica the decisions its checkpoint recorded; only a replica loaded without
a trusted checkpoint replays its chain through _apply_block. apply_block
trusts block structure: ledger.check_block checked it once, in the consensus
gate before the pre-prepare was prepared, or in ledger.check_chain when the
workspace loaded the chain. Validity reads blob presence, never blob bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from . import revisions
from .content_store import NotFoundError
from .encoding import MalformedError
from .ledger import Block, Chain, VerifyReport, build_block, verify_chain
from .pbft import CommitEvent, NodeConfig, PbftMessage, Replica, primary_of
from .revisions import (
    EndorsementPolicy,
    Transaction,
    ValidityFlag,
    apply_block,
    check_endorsement_policy,
    endorse,
    history,
    propose_revision,
)


class ReceiptStatus(Enum):
    PENDING = "Pending"
    COMMITTED_VALID = "CommittedValid"
    COMMITTED_INVALID = "CommittedInvalid"
    REJECTED = "Rejected"


@dataclass
class ClientReceipt:
    tx_id: bytes | None
    status: ReceiptStatus
    submit_tick: int
    commit_tick: int | None = None
    flag: ValidityFlag | None = None


@dataclass(frozen=True)
class TxForward:
    """An endorsed transaction relayed to the primary, payload bytes attached
    so the primary can ship them with its proposal."""

    tx: Transaction
    payload: bytes
    submit_tick: int


@dataclass(frozen=True)
class Outbound:
    """dst None means broadcast to every other node."""

    dst: int | None
    payload: PbftMessage | TxForward


@dataclass
class MempoolEntry:
    tx: Transaction
    payload: bytes
    arrival_tick: int
    forwarded_view: int | None = None
    forwarded_tick: int | None = None


class NodeRuntime:
    """One simulated node: replica state machine plus ledger replica."""

    def __init__(
        self,
        config: NodeConfig,
        store,
        policy: EndorsementPolicy,
        chain: Chain | None = None,
        max_batch: int = 100,
        recorded: tuple[revisions.HeadState, list[list[tuple[bytes, ValidityFlag]]]]
        | None = None,
    ):
        """`recorded`, when given, is (heads, one (tx id, flag) list per block
        after genesis) as this replica decided them earlier, and nothing is
        replayed. `chain` may then start at a later block than genesis, such
        as the tip: `bitmaps` covers only the blocks after its first."""
        self.config = config
        self.store = store
        self.policy = policy
        self.max_batch = max_batch
        self.chain = chain if chain is not None else Chain()
        self.heads: revisions.HeadState = {}
        self.bitmaps: list[list[ValidityFlag]] = []
        self.committed_flags: dict[bytes, ValidityFlag] = {}  # tx id index for dedup
        if recorded is None:
            for block in self.chain.blocks[1:]:
                self._apply_block(block)
        else:
            heads, blocks = recorded
            self.heads = dict(heads)
            self._index(pair for pairs in blocks for pair in pairs)
            base = self.chain.blocks[0].header.height
            self.bitmaps = [[flag for _, flag in pairs] for pairs in blocks[base:]]
        self.replica = Replica(
            config,
            tip_hash=self.chain.tip.block_hash,
            last_committed_seq=self.chain.height,
            proposal_validator=lambda block: all(
                check_endorsement_policy(tx, self.policy) for tx in block.transactions
            ),
        )
        self.mempool: dict[bytes, MempoolEntry] = {}
        self.receipts: dict[bytes, ClientReceipt] = {}
        self.blocks_since_load: list[Block] = []

    def _apply_block(self, block: Block) -> list[ValidityFlag]:
        """Decide the validity of a chained block's transactions and record it."""
        self.heads, flags = apply_block(self.heads, block, self.store)
        self.bitmaps.append(flags)
        self._index(zip((tx.tx_id for tx in block.transactions), flags))
        return flags

    def _index(self, decisions: Iterable[tuple[bytes, ValidityFlag]]) -> None:
        """Note committed (tx id, flag) decisions; a Valid one sticks."""
        committed = self.committed_flags
        for tx_id, flag in decisions:
            if committed.get(tx_id) is not ValidityFlag.VALID:
                committed[tx_id] = flag

    # -- client entry ----------------------------------------------------------

    def submit(self, work_id: str, author_id: str, payload: bytes, now: int) -> ClientReceipt:
        """Endorse and enqueue a revision proposal; returns a Pending receipt.

        Malformed ids are rejected up front and never enter consensus.
        """
        try:
            tx = propose_revision(work_id, author_id, payload, self.heads, self.store, now)
        except MalformedError:
            return ClientReceipt(
                tx_id=None,
                status=ReceiptStatus.REJECTED,
                submit_tick=now,
                flag=ValidityFlag.MALFORMED,
            )
        for endorser in self._endorser_order():
            if check_endorsement_policy(tx, self.policy):
                break
            secret = self.policy.secrets.get(endorser)
            if secret is not None:
                tx = endorse(tx, endorser, secret)
        if tx.tx_id in self.receipts:
            return self.receipts[tx.tx_id]
        already = self.committed_flags.get(tx.tx_id)
        if already is not None:
            # byte-identical to something already on the chain; resolve the
            # receipt immediately instead of stranding a mempool entry the
            # primary would refuse forever
            receipt = ClientReceipt(
                tx_id=tx.tx_id,
                status=ReceiptStatus.COMMITTED_VALID
                if already is ValidityFlag.VALID
                else ReceiptStatus.COMMITTED_INVALID,
                submit_tick=now,
                commit_tick=now,
                flag=already,
            )
            self.receipts[tx.tx_id] = receipt
            return receipt
        receipt = ClientReceipt(tx_id=tx.tx_id, status=ReceiptStatus.PENDING, submit_tick=now)
        self.receipts[tx.tx_id] = receipt
        self.mempool.setdefault(
            tx.tx_id, MempoolEntry(tx=tx, payload=payload, arrival_tick=now)
        )
        return receipt

    def _endorser_order(self) -> list[int]:
        me = self.config.node_id
        others = sorted(self.policy.eligible - {me})
        return ([me] if me in self.policy.eligible else []) + others

    # -- messaging -------------------------------------------------------------

    def on_message(self, src: int, payload: PbftMessage | TxForward, now: int) -> list[Outbound]:
        if isinstance(payload, TxForward):
            self._accept_forward(payload)
            return []
        more, committed = self.replica.handle_message(payload, now)
        for event in committed:
            self._apply_commit(event, now)
        return self._drain(more, now)

    def _accept_forward(self, fwd: TxForward) -> None:
        tx = fwd.tx
        if tx.tx_id in self.mempool or tx.tx_id in self.committed_flags:
            return
        if not check_endorsement_policy(tx, self.policy):
            return
        entry = MempoolEntry(tx=tx, payload=fwd.payload, arrival_tick=fwd.submit_tick)
        if primary_of(self.replica.current_view, self.config.n) == self.config.node_id:
            entry.forwarded_view = self.replica.current_view
        self.mempool[tx.tx_id] = entry

    def _drain(self, msgs: list[PbftMessage], now: int) -> list[Outbound]:
        """Self-deliver locally generated messages, cascading until settled.

        Every emitted message is both handed back to our own replica (own
        Prepares and Commits count toward quorums) and queued for the
        network.
        """
        network: list[Outbound] = []
        pending = list(msgs)
        while pending:
            msg = pending.pop(0)
            network.append(Outbound(dst=None, payload=msg))
            more, committed = self.replica.handle_message(msg, now)
            for event in committed:
                self._apply_commit(event, now)
            pending.extend(more)
        return network

    # -- per-tick duties ---------------------------------------------------------

    def tick_duties(self, now: int) -> list[Outbound]:
        out: list[Outbound] = []
        pending_work = bool(self.mempool) or self.replica.has_open_work()
        if pending_work:
            self.replica.arm_timer(now)
        else:
            self.replica.disarm_timer()
        deadline = self.replica.timer_deadline
        if deadline is not None and now >= deadline:
            out.extend(self._drain(self.replica.on_timeout(now), now))
        out.extend(self._forward_pending(now))
        out.extend(self._maybe_propose(now))
        return out

    def _forward_pending(self, now: int) -> list[Outbound]:
        """Relay pending transactions to the current primary.

        Forwarded once per view, then re-sent on a timeout-derived retry
        interval: a single forward could be lost to drops, but re-sending
        every tick would flood large backlogs.
        """
        if self.replica.in_view_change:
            return []
        view = self.replica.current_view
        leader = primary_of(view, self.config.n)
        retry = max(1, self.config.timeout_ticks // 2)
        out: list[Outbound] = []
        for entry in self._mempool_in_order():
            if entry.forwarded_view == view and (
                entry.forwarded_tick is None or now - entry.forwarded_tick < retry
            ):
                continue
            entry.forwarded_view = view
            entry.forwarded_tick = now
            if leader != self.config.node_id:
                out.append(
                    Outbound(
                        dst=leader,
                        payload=TxForward(
                            tx=entry.tx, payload=entry.payload, submit_tick=entry.arrival_tick
                        ),
                    )
                )
        return out

    def _mempool_in_order(self) -> list[MempoolEntry]:
        return sorted(self.mempool.values(), key=lambda e: (e.arrival_tick, e.tx.tx_id))

    def _maybe_propose(self, now: int) -> list[Outbound]:
        replica = self.replica
        if replica.in_view_change:
            return []
        if primary_of(replica.current_view, self.config.n) != self.config.node_id:
            return []
        if replica.has_open_work() or not self.mempool:
            return []
        proposal = self.form_batch(now)
        if proposal is None:
            return []
        block, blobs = proposal
        return self._drain(replica.on_propose(block, blobs), now)

    def form_batch(self, now: int) -> tuple[Block, dict[bytes, bytes]] | None:
        """Select up to max_batch endorsed transactions in arrival order.

        Entries stay in the mempool until commit so an abandoned proposal
        (view change mid-flight) loses nothing.
        """
        chosen: list[MempoolEntry] = []
        for entry in self._mempool_in_order():
            if not check_endorsement_policy(entry.tx, self.policy):
                continue
            chosen.append(entry)
            if len(chosen) >= self.max_batch:
                break
        if not chosen:
            return None
        block = build_block(
            height=self.chain.height + 1,
            prev_hash=self.chain.tip.block_hash,
            txs=[e.tx for e in chosen],
            proposer_id=f"node-{self.config.node_id}",
            view=self.replica.current_view,
            tick=now,
        )
        blobs = {e.tx.record.content_hash: e.payload for e in chosen}
        return block, blobs

    # -- commit path -------------------------------------------------------------

    def _apply_commit(self, event: CommitEvent, now: int) -> None:
        block = event.block
        if block.header.height != self.chain.height + 1:
            raise AssertionError(
                f"consensus committed height {block.header.height}, tip is {self.chain.height}"
            )
        for digest, data in event.blobs.items():
            if not self.store.has(digest):
                self.store.put(data)
        self.chain.append(block)
        self.blocks_since_load.append(block)
        flags = self._apply_block(block)
        for tx, flag in zip(block.transactions, flags):
            receipt = self.receipts.get(tx.tx_id)
            if receipt is not None and receipt.status is ReceiptStatus.PENDING:
                receipt.commit_tick = now
                receipt.flag = flag
                receipt.status = (
                    ReceiptStatus.COMMITTED_VALID
                    if flag is ValidityFlag.VALID
                    else ReceiptStatus.COMMITTED_INVALID
                )
            self.mempool.pop(tx.tx_id, None)
        # A commit is progress: the timer restarts rather than firing on a
        # deadline armed while older work was still in flight.
        if not self.mempool and not self.replica.has_open_work():
            self.replica.disarm_timer()
        else:
            self.replica.timer_deadline = now + self.config.timeout_ticks

    # -- queries -----------------------------------------------------------------

    def history(self, work_id: str) -> list[revisions.HistoryEntry]:
        return history(self.chain, self.bitmaps, work_id)

    def show(self, work_id: str, revision_number: int) -> bytes:
        """Payload bytes of a committed revision, hash re-verified on read."""
        for entry in self.history(work_id):
            if entry.revision_number == revision_number:
                return self.store.get(entry.content_hash)
        raise NotFoundError(f"no valid revision {revision_number} of {work_id!r}")

    def verify(self, endorsement_checker=None) -> tuple[VerifyReport, list]:
        report = verify_chain(self.chain, self.store, endorsement_checker)
        return report, self.store.audit()

"""Per-node pipeline: endorse, order, validate.

A node accepts client submissions (endorsing them per policy), forwards
endorsed transactions to the current primary, hands batches to the
consensus layer when it is the primary itself, and on every block its
replica commits onto the chain they share stores the block's payloads in
its own content store, runs MVCC validation and updates client receipts.
A payload enters the store there only, under the content hash its
transaction claims and only where it hashes to it: a node holds what it
committed, and bytes that do not match their claim leave the transaction
InvalidMissingContent. The stores of one simulation share a record of the
bytes already hashed to each key, so a payload is hashed once for them all.

The nodes of one group share one endorsement policy object, built once by
make_policy where the group is built (Simulation, Workspace). Every
pre-prepare gate, _accept_forward and verify checks under it, and a pass
is kept on the transaction object (Transaction.met_policy), so each
transaction's tokens are computed once for the whole group.

Validity is decided once per replica, when _apply_block applies a block,
and recorded in `decisions`, one (tx id, flag) list per block after genesis
by height, whatever part of the chain the runtime holds; heads fold those
decisions and every reader (history, show, the simulator's report) reads
the record. A workspace hands a loaded replica the decisions its checkpoint
recorded and writes the next checkpoint from them; only a replica loaded
without a trusted checkpoint replays its chain through _apply_block.
apply_block trusts block structure: ledger.check_block checked it once, in
the consensus gate before the pre-prepare was prepared, or in
ledger.check_chain when the workspace loaded the chain. Validity reads blob
presence, never blob bytes. In one simulation a replica appends the block
object it was sent, shared with the others that were sent it, so the
check_block verdict kept on that object is computed once, in the first
gate that checks it, and every later gate and verify reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from . import revisions
from .digests import sha256
from .encoding import MalformedError
from .ledger import Block, Chain, VerifyReport, build_block, check_chain, verify_chain
from .pbft import CommitEvent, GroupConfig, PbftMessage, Replica, primary_of
from .revisions import (
    VALID,
    EndorsementPolicy,
    Transaction,
    ValidityFlag,
    apply_block,
    check_endorsement_policy,
    endorse,
    history,
    propose_revision,
    show,
)


def endorsement_secret(seed: int, node_id: int) -> bytes:
    """Simulation-local endorsement key, derivable by anyone holding the
    workspace seed. Not a signature scheme and not claimed to be one."""
    return sha256(b"revledger/endorse/" + seed.to_bytes(8, "big") + node_id.to_bytes(8, "big"))


def make_policy(config: GroupConfig) -> EndorsementPolicy:
    """`endorsement_m`-of-n endorsement over every node, with the seed's
    secrets. Build it once per group and hand the one object to each of the
    group's nodes: a pass kept on a transaction holds for that object only."""
    return EndorsementPolicy(
        required=config.endorsement_m,
        secrets={i: endorsement_secret(config.seed, i) for i in range(config.n)},
    )


class ReceiptStatus(Enum):
    PENDING = "Pending"
    COMMITTED_VALID = "CommittedValid"
    COMMITTED_INVALID = "CommittedInvalid"
    REJECTED = "Rejected"


@dataclass
class ClientReceipt:
    """A submission's outcome: no tx id when it was rejected before
    consensus, otherwise no flag until its transaction committed."""

    tx_id: bytes | None
    submit_tick: int
    commit_tick: int | None = None
    flag: ValidityFlag | None = None

    @property
    def status(self) -> ReceiptStatus:
        if self.tx_id is None:
            return ReceiptStatus.REJECTED
        if self.flag is None:
            return ReceiptStatus.PENDING
        if self.flag is ValidityFlag.VALID:
            return ReceiptStatus.COMMITTED_VALID
        return ReceiptStatus.COMMITTED_INVALID


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
        node_id: int,
        config: GroupConfig,
        store,
        policy: EndorsementPolicy,
        chain: Chain | None = None,
        recorded: tuple[revisions.HeadState, list[list[tuple[bytes, ValidityFlag]]]]
        | None = None,
    ):
        """`policy` is the group's one endorsement policy (make_policy).
        `recorded`, when given, is (heads, one (tx id, flag) list per block
        after genesis) as this replica decided them earlier, and nothing is
        replayed. `chain` may then start at a later block than genesis, such
        as the tip."""
        self.node_id = node_id
        self.config = config
        self.store = store
        self.policy = policy
        self.chain = chain if chain is not None else Chain()
        self.heads: revisions.HeadState = {}
        self.decisions: list[list[tuple[bytes, ValidityFlag]]] = []
        self.committed_flags: dict[bytes, ValidityFlag] = {}  # tx id index for dedup
        if recorded is None:
            for block in self.chain.blocks[1:]:
                self._apply_block(block)
        else:
            self.heads = dict(recorded[0])
            # A copy: byte-identical replicas share one checkpoint parse.
            self.decisions = list(recorded[1])
            self._index(pair for pairs in self.decisions for pair in pairs)

        def endorsed(block: Block) -> bool:
            return all(check_endorsement_policy(tx, self.policy) for tx in block.transactions)

        self.replica = Replica(node_id, config, self.chain, proposal_validator=endorsed)
        self.mempool: dict[bytes, MempoolEntry] = {}
        self.receipts: dict[bytes, ClientReceipt] = {}

    def _apply_block(self, block: Block) -> list[ValidityFlag]:
        """Decide the validity of a chained block's transactions and record it."""
        self.heads, flags = apply_block(self.heads, block, self.store)
        pairs = list(zip((tx.tx_id for tx in block.transactions), flags))
        self.decisions.append(pairs)
        self._index(pairs)
        return flags

    def _index(self, decisions: Iterable[tuple[bytes, ValidityFlag]]) -> None:
        """Note committed (tx id, flag) decisions; a Valid one sticks."""
        committed = self.committed_flags
        for tx_id, flag in decisions:
            if committed.get(tx_id) is not VALID:
                committed[tx_id] = flag

    # -- client entry ----------------------------------------------------------

    def submit(self, work_id: str, author_id: str, payload: bytes, now: int) -> ClientReceipt:
        """Endorse and enqueue a revision proposal; returns a Pending receipt.

        Malformed ids are rejected up front and never enter consensus. The
        policy's `required` endorsements come from this node, then the
        others in ascending id, so the transaction meets the policy.
        """
        try:
            tx = propose_revision(work_id, author_id, payload, self.heads, now)
        except MalformedError:
            return ClientReceipt(tx_id=None, submit_tick=now, flag=ValidityFlag.MALFORMED)
        me = self.node_id
        endorsers = [me] + [i for i in range(self.config.n) if i != me]
        for endorser in endorsers[: self.policy.required]:
            tx = endorse(tx, endorser, self.policy.secrets[endorser])
        if tx.tx_id in self.receipts:
            return self.receipts[tx.tx_id]
        # byte-identical to something already on the chain; resolve the
        # receipt immediately instead of stranding a mempool entry the
        # primary would refuse forever
        already = self.committed_flags.get(tx.tx_id)
        receipt = ClientReceipt(
            tx_id=tx.tx_id,
            submit_tick=now,
            commit_tick=None if already is None else now,
            flag=already,
        )
        self.receipts[tx.tx_id] = receipt
        if already is None:
            self.mempool.setdefault(
                tx.tx_id, MempoolEntry(tx=tx, payload=payload, arrival_tick=now)
            )
        return receipt

    # -- messaging -------------------------------------------------------------

    def on_message(self, src: int, payload: PbftMessage | TxForward, now: int) -> list[Outbound]:
        if isinstance(payload, TxForward):
            self._accept_forward(payload)
            return []
        more, committed = self.replica.handle_message(payload, now)
        for event in committed:
            self._apply_commit(event, now)
        return self._drain(more, now) if more else []

    def _accept_forward(self, fwd: TxForward) -> None:
        tx = fwd.tx
        if tx.tx_id in self.mempool or tx.tx_id in self.committed_flags:
            return
        if not check_endorsement_policy(tx, self.policy):
            return
        entry = MempoolEntry(tx=tx, payload=fwd.payload, arrival_tick=fwd.submit_tick)
        if primary_of(self.replica.current_view, self.config.n) == self.node_id:
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
        if self._has_work():
            self.replica.arm_timer(now)
        else:
            self.replica.disarm_timer()
        deadline = self.replica.timer_deadline
        if deadline is not None and now >= deadline:
            out.extend(self._drain(self.replica.on_timeout(now), now))
        out.extend(self._forward_pending(now))
        out.extend(self._maybe_propose(now))
        return out

    def next_due(self, now: int) -> int | None:
        """The next tick at which tick_duties would act if no event reached
        this node first, or None while it holds no work: the next tick while
        its work has no armed timer or while _can_propose holds, otherwise
        the earliest of its timer deadline and each entry's _forward_due.
        Called after this tick's duties, so every deadline lies past now."""
        if not self._has_work():
            return None
        due = self.replica.timer_deadline
        if due is None or self._can_propose():
            return now + 1
        if self.replica.in_view_change:
            return due
        view = self.replica.current_view
        ats = [self._forward_due(e, view, now + 1) for e in self.mempool.values()]
        return min([due] + [at for at in ats if at is not None])

    def _has_work(self) -> bool:
        """A mempool entry or open consensus work keeps the timer armed."""
        return bool(self.mempool) or self.replica.has_open_work()

    def _can_propose(self) -> bool:
        """Whether _maybe_propose forms a batch: the primary outside a view
        change, with a mempool and nothing in flight."""
        r = self.replica
        mine = primary_of(r.current_view, self.config.n) == self.node_id
        return mine and not r.in_view_change and bool(self.mempool) and not r.has_open_work()

    def _forward_due(self, entry: MempoolEntry, view: int, now: int) -> int | None:
        """The first tick from now on at which _forward_pending sends entry in
        view: now, half a timeout after its last send, or None if forwarded to us."""
        if entry.forwarded_view != view:
            return now
        if entry.forwarded_tick is None:
            return None
        return entry.forwarded_tick + max(1, self.config.timeout_ticks // 2)

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
        out: list[Outbound] = []
        for entry in self._mempool_in_order():
            at = self._forward_due(entry, view, now)
            if at is None or at > now:
                continue
            entry.forwarded_view = view
            entry.forwarded_tick = now
            if leader != self.node_id:
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
        if not self._can_propose():
            return []
        block, blobs = self.form_batch(now)
        return self._drain(self.replica.on_propose(block, blobs), now)

    def form_batch(self, now: int) -> tuple[Block, dict[bytes, bytes]]:
        """A block of up to max_batch transactions in arrival order, and their
        payloads, from the non-empty mempool that _can_propose requires. Each
        meets the policy: submit endorsed it, or _accept_forward checked it.

        Entries stay in the mempool until commit so an abandoned proposal
        (view change mid-flight) loses nothing.
        """
        chosen = self._mempool_in_order()[: self.config.max_batch]
        block = build_block(
            height=self.chain.height + 1,
            prev_hash=self.chain.tip.block_hash,
            txs=[e.tx for e in chosen],
            proposer_id=f"node-{self.node_id}",
            view=self.replica.current_view,
            tick=now,
        )
        blobs = {e.tx.record.content_hash: e.payload for e in chosen}
        return block, blobs

    # -- commit path -------------------------------------------------------------

    def _apply_commit(self, event: CommitEvent, now: int) -> None:
        """Take in a block the replica has just appended to this node's chain."""
        block = event.block
        for digest, data in event.blobs.items():
            self.store.put(digest, data)
        flags = self._apply_block(block)
        for tx, flag in zip(block.transactions, flags):
            receipt = self.receipts.get(tx.tx_id)
            if receipt is not None and receipt.flag is None:
                receipt.commit_tick = now
                receipt.flag = flag
            self.mempool.pop(tx.tx_id, None)
        # A commit is progress: the timer restarts rather than firing on a
        # deadline armed while older work was still in flight.
        if not self._has_work():
            self.replica.disarm_timer()
        else:
            self.replica.timer_deadline = now + self.config.timeout_ticks

    # -- queries -----------------------------------------------------------------

    def history(self, work_id: str) -> list[revisions.HistoryEntry]:
        """The work's valid revisions; raises ValueError for a chain that
        does not start at genesis, such as a replica's tip: its earlier
        revisions are not there to list."""
        blocks = self.chain.blocks
        if blocks[0].header.height != 0:
            raise ValueError("history needs the whole chain, from genesis on")
        return history(zip(blocks[1:], self.decisions), work_id)

    def show(self, work_id: str, revision_number: int) -> bytes:
        """Payload bytes of a committed revision, hash re-verified on read."""
        return show(self.history(work_id), work_id, revision_number, self.store)

    def verify(self, endorsement_checker) -> tuple[VerifyReport, list]:
        """verify_chain over this replica: its store's audit, then its chain."""
        structural = check_chain(self.chain)
        report = verify_chain(
            self.chain, self.store, structural, self.store.audit(), endorsement_checker
        )
        return report, report.audit

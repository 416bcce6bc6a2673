"""Byzantine fault tolerant replication of the block chain.

Each block is agreed through three phases. The view's primary broadcasts
PrePrepare carrying the block; every replica that accepts it broadcasts
Prepare; a replica that logs a quorum (2f+1, own message included) of
matching Prepares plus the PrePrepare broadcasts Commit; a quorum of
matching Commits commits the block. Quorums of 2f+1 out of n >= 3f+1
pairwise intersect in at least f+1 nodes, so at least one honest node
sits in any two quorums and no two conflicting blocks can both gather
commits at the same sequence number.

When the primary stalls, replicas time out and broadcast ViewChange for
view v+1, carrying proof of anything they prepared but did not commit.
The new view's primary collects 2f+1 ViewChanges, broadcasts NewView
with that set, and re-issues PrePrepares for every sequence number the
proofs show prepared (highest view wins per sequence). Replicas validate
the NewView against the same rule and reject a primary that re-proposes
a different digest than the proofs dictate.

Committed blocks live in the node's chain, which the replica extends as it
commits them; its height is PBFT's low-water mark, the stable checkpoint. A
replica keeps all it holds about one sequence number in one record, whose
accepted PrePrepares are the one holder of the block and its payloads, and
when a block commits it deletes every record at or below the chain height.
Messages at or below that mark are dropped on arrival and proofs below it
are ignored, so no record is made again for a committed sequence, and
replica memory stays bounded by the in-flight window, not the chain height.

Replica state machines are strictly single threaded: all transitions go
through handle_message / on_timeout, driven by the simulator's event
loop. Sender identity is trusted from the delivery envelope; Byzantine
behaviors are injected at the behavior layer, not by forging envelopes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from enum import IntEnum
from typing import Callable

from .digests import ZERO_DIGEST
from .ledger import Block, Chain, check_block


class ConfigError(ValueError):
    """Replica group parameters no group could run with: a non-int count, n
    below 3f+1 or a negative f, a seed outside u64, a timeout or batch size
    below 1, or an endorsement count outside 1..n; or a replica id outside 0..n-1."""


class MessageKind(IntEnum):
    PRE_PREPARE = 0x20
    PREPARE = 0x21
    COMMIT = 0x22
    VIEW_CHANGE = 0x23
    NEW_VIEW = 0x24


# (seq, digest, view) of a prepared-but-uncommitted instance.
PreparedEntry = tuple[int, bytes, int]


@dataclass(frozen=True)
class PbftMessage:
    kind: MessageKind
    view: int
    seq: int
    digest: bytes
    sender: int
    block: Block | None = None
    blobs: dict[bytes, bytes] | None = None
    prepared_proof: tuple[PreparedEntry, ...] | None = None
    view_changes: tuple["PbftMessage", ...] | None = None


def check_field_types(record, error: type[Exception], what: str = "") -> None:
    """Refuse, with `error`, a dataclass field declared int or str that holds
    another type (a bool is no int): the one type check of outside input."""
    declared = {"int": (int, "an int"), "str": (str, "a string")}
    for spec in fields(record):
        want = declared.get(spec.type)
        if want is not None and type(getattr(record, spec.name)) is not want[0]:
            raise error(f"{what}{spec.name} must be {want[1]}")


@dataclass(frozen=True)
class GroupConfig:
    """The replica group's parameters: the keys of a workspace's config.json."""

    n: int
    f: int
    seed: int
    timeout_ticks: int = 30
    max_batch: int = 100
    endorsement_m: int = 1

    def __post_init__(self):
        """Refuse, with ConfigError, a config no workspace could run or a
        field (a subclass's too) that check_field_types refuses."""
        check_field_types(self, ConfigError)
        try:
            quorum_size(self.n, self.f)
        except ConfigError as exc:
            raise ConfigError(f"bad node count: {exc}") from exc
        if self.timeout_ticks < 1:
            raise ConfigError("timeout_ticks must be positive")
        if self.max_batch < 1:
            raise ConfigError("max_batch must be positive")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError(f"seed out of u64 range: {self.seed}")
        if not 1 <= self.endorsement_m <= self.n:
            raise ConfigError(f"endorsement_m={self.endorsement_m} outside 1..{self.n}")


def primary_of(view: int, n: int) -> int:
    """Rotating primary: the replica whose id is view mod n."""
    return view % n


def quorum_size(n: int, f: int) -> int:
    """2f+1, defined only where f >= 0 and n >= 3f+1 hold."""
    if f < 0:
        raise ConfigError(f"f={f} is negative")
    if n < 3 * f + 1:
        raise ConfigError(f"n={n} cannot tolerate f={f}: need n >= 3f+1")
    return 2 * f + 1


@dataclass(frozen=True)
class Evidence:
    kind: str
    view: int
    seq: int
    sender: int
    detail: str = ""


@dataclass(frozen=True)
class CommitEvent:
    block: Block
    blobs: dict[bytes, bytes]


def block_structurally_valid(block: Block, seq: int) -> bool:
    """A proposed block sits at its sequence number and check_block finds
    no defect in it.

    The header's view is not compared to the message view, because a
    block prepared in one view is re-proposed verbatim in later views.
    """
    return block.header.height == seq and not check_block(block, seq)


_NORMAL_KINDS = (MessageKind.PRE_PREPARE, MessageKind.PREPARE, MessageKind.COMMIT)


@dataclass(slots=True)
class _Instance:
    """All a replica holds about one uncommitted sequence number. Views only
    rise, so `accepted` holds its PrePrepares oldest first."""

    accepted: dict[int, PbftMessage] = field(default_factory=dict)  # view -> PrePrepare
    # (view, kind, sender) of each sender's first Prepare or Commit
    log: set[tuple[int, MessageKind, int]] = field(default_factory=set)
    # (view, kind, digest) -> logged messages carrying digest
    counts: dict[tuple[int, MessageKind, bytes], int] = field(default_factory=dict)
    # (view, sender) -> first digest seen in any message kind; flagged once a
    # conflicting one was reported: the one record of an equivocation
    digests: dict[tuple[int, int], bytes] = field(default_factory=dict)
    flagged: set[tuple[int, int]] = field(default_factory=set)
    prepared: tuple[int, bytes] | None = None  # (view, digest) of the last view Commit went in
    commit_ready: bytes | None = None  # digest with a commit quorum, awaiting release

    def matching(self, view: int, kind: MessageKind, digest: bytes) -> int:
        """Logged messages of one view and kind that carry digest: a count
        raised as each sender's first message is logged, not a log scan."""
        return self.counts.get((view, kind, digest), 0)

    def proposal(self, digest: bytes) -> PbftMessage | None:
        """The newest accepted PrePrepare carrying digest: endorsements lie
        outside the block hash, so two of one digest may differ there."""
        return next((pp for pp in reversed(self.accepted.values()) if pp.digest == digest), None)


class Replica:
    """PBFT replica state machine for one node.

    handle_message and on_timeout mutate the replica and return the
    messages to broadcast plus any blocks that became committed. Commits
    are appended to `chain`, the node's, strictly in sequence order;
    out-of-order quorums wait in a buffer until the gap fills.
    """

    def __init__(
        self,
        node_id: int,
        config: GroupConfig,
        chain: Chain,
        proposal_validator: Callable[[Block], bool],
    ):
        if not 0 <= node_id < config.n:
            raise ConfigError(f"node_id {node_id} outside 0..{config.n - 1}")
        self.node_id = node_id
        self.config = config
        self.chain = chain
        self.current_view = 0
        self.pending_view = 0  # current_view outside a view change
        self.timer_deadline: int | None = None
        self.evidence: list[Evidence] = []
        # application-level acceptance check for proposed blocks (the
        # endorsement policy); must be deterministic across replicas
        self.proposal_validator = proposal_validator

        self._quorum = quorum_size(config.n, config.f)
        self._instances: dict[int, _Instance] = {}
        # view above current_view -> sender -> its first ViewChange for that view
        self._view_change_log: dict[int, dict[int, PbftMessage]] = {}
        self._must_repropose: dict[int, bytes] = {}
        self._future: dict[int, list[PbftMessage]] = {}

    @property
    def in_view_change(self) -> bool:
        return self.pending_view > self.current_view

    # -- public interface ----------------------------------------------------

    def on_propose(self, block: Block, blobs: dict[bytes, bytes]) -> list[PbftMessage]:
        """Primary-only: open a consensus instance for the next height."""
        me = self.node_id
        if self.in_view_change or primary_of(self.current_view, self.config.n) != me:
            return []
        if block.header.height != self.chain.height + 1:
            return []
        return [
            PbftMessage(
                kind=MessageKind.PRE_PREPARE,
                view=self.current_view,
                seq=block.header.height,
                digest=block.block_hash,
                sender=me,
                block=block,
                blobs=blobs,
            )
        ]

    def handle_message(self, msg: PbftMessage, now: int) -> tuple[list[PbftMessage], list[CommitEvent]]:
        out: list[PbftMessage] = []
        committed: list[CommitEvent] = []
        queue: deque[PbftMessage] = deque()
        self._dispatch(msg, now, out, committed, queue)
        while queue:
            self._dispatch(queue.popleft(), now, out, committed, queue)
        return out, committed

    def on_timeout(self, now: int) -> list[PbftMessage]:
        """Timer expiry: move (or escalate) to the next view."""
        return [self._start_view_change(self.pending_view + 1, now)]

    def has_open_work(self) -> bool:
        """Uncommitted instances still able to commit, or a view change.

        Accepted PrePrepares from abandoned views do not count: only the
        current view can still move them. Prepared-but-uncommitted
        sequences always count, whatever view prepared them, because they
        constrain what may commit and must keep the timer armed until a
        re-proposal lands.

        Records at or below the chain's height are dropped on commit (the
        chain holds the committed blocks), so this scans only the
        in-flight instances.
        """
        if self.in_view_change:
            return True
        return any(
            inst.prepared is not None or self.current_view in inst.accepted
            for inst in self._instances.values()
        )

    def arm_timer(self, now: int) -> None:
        if self.timer_deadline is None:
            self.timer_deadline = now + self.config.timeout_ticks

    def disarm_timer(self) -> None:
        self.timer_deadline = None

    # -- dispatch --------------------------------------------------------------

    def _dispatch(
        self,
        msg: PbftMessage,
        now: int,
        out: list[PbftMessage],
        committed: list[CommitEvent],
        queue: deque[PbftMessage],
    ) -> None:
        if msg.kind is MessageKind.VIEW_CHANGE:
            self._on_view_change(msg, now, out, queue)
        elif msg.kind is MessageKind.NEW_VIEW:
            self._on_new_view(msg, now, out, queue)
        elif msg.kind in _NORMAL_KINDS:
            self._on_normal(msg, now, out, committed, queue)

    def _buffer_future(self, msg: PbftMessage) -> None:
        self._future.setdefault(msg.view, []).append(msg)

    def _replay_view(self, view: int, queue: deque[PbftMessage]) -> None:
        for stale in [v for v in self._future if v < view]:
            del self._future[stale]
        for m in self._future.pop(view, []):
            queue.append(m)

    def _enter_view(self, view: int, queue: deque[PbftMessage]) -> None:
        self.current_view = view
        self.pending_view = view
        self.timer_deadline = None
        for stale in [v for v in self._view_change_log if v <= view]:
            del self._view_change_log[stale]
        self._replay_view(view, queue)

    def _record_digest(self, inst: _Instance, msg: PbftMessage) -> None:
        key = (msg.view, msg.sender)
        seen = inst.digests.setdefault(key, msg.digest)
        if seen != msg.digest and key not in inst.flagged:
            inst.flagged.add(key)
            self.evidence.append(
                Evidence(
                    kind="conflicting-digest",
                    view=msg.view,
                    seq=msg.seq,
                    sender=msg.sender,
                    detail=f"{seen.hex()[:16]} vs {msg.digest.hex()[:16]}",
                )
            )

    def _on_normal(
        self,
        msg: PbftMessage,
        now: int,
        out: list[PbftMessage],
        committed: list[CommitEvent],
        queue: deque[PbftMessage],
    ) -> None:
        if msg.view > self.current_view:
            self._buffer_future(msg)
            return
        if msg.view < self.current_view or self.in_view_change:
            return
        if msg.seq <= self.chain.height:
            return
        inst = self._instances.get(msg.seq)
        if inst is None:
            inst = self._instances[msg.seq] = _Instance()
        self._record_digest(inst, msg)
        if msg.kind is MessageKind.PRE_PREPARE:
            self._on_pre_prepare(inst, msg, out)
        else:
            first = (msg.view, msg.kind, msg.sender)
            if first in inst.log:
                return  # first message per sender wins
            inst.log.add(first)
            key = (msg.view, msg.kind, msg.digest)
            inst.counts[key] = inst.counts.get(key, 0) + 1
        self._try_prepare(inst, msg.view, msg.seq, out)
        self._try_commit(inst, msg.view, committed)

    def _on_pre_prepare(self, inst: _Instance, msg: PbftMessage, out: list[PbftMessage]) -> None:
        me = self.node_id
        if msg.sender != primary_of(msg.view, self.config.n):
            return
        if msg.block is None or msg.digest != msg.block.block_hash:
            return
        if not block_structurally_valid(msg.block, msg.seq):
            return
        if not self.proposal_validator(msg.block):
            self.evidence.append(Evidence("proposal-rejected", msg.view, msg.seq, msg.sender))
            return
        tip = self.chain.tip
        if msg.seq == tip.header.height + 1 and msg.block.header.prev_hash != tip.block_hash:
            return
        want = self._must_repropose.get(msg.seq)
        if want is not None and msg.digest != want:
            self.evidence.append(
                Evidence("reproposal-mismatch", msg.view, msg.seq, msg.sender)
            )
            return
        if msg.view in inst.accepted:
            return  # the view's first PrePrepare wins; _record_digest reported a different one
        inst.accepted[msg.view] = msg
        out.append(
            PbftMessage(
                kind=MessageKind.PREPARE,
                view=msg.view,
                seq=msg.seq,
                digest=msg.digest,
                sender=me,
            )
        )

    def _try_prepare(self, inst: _Instance, view: int, seq: int, out: list[PbftMessage]) -> None:
        # Only the current view gets here, so prepared names no later view.
        pp = inst.accepted.get(view)
        if pp is None or (inst.prepared is not None and inst.prepared[0] == view):
            return
        if inst.matching(view, MessageKind.PREPARE, pp.digest) < self._quorum:
            return
        inst.prepared = (view, pp.digest)
        out.append(
            PbftMessage(
                kind=MessageKind.COMMIT,
                view=view,
                seq=seq,
                digest=pp.digest,
                sender=self.node_id,
            )
        )

    def _try_commit(self, inst: _Instance, view: int, committed: list[CommitEvent]) -> None:
        if inst.commit_ready is not None or inst.prepared is None or inst.prepared[0] != view:
            return
        digest = inst.prepared[1]
        if inst.matching(view, MessageKind.COMMIT, digest) < self._quorum:
            return
        inst.commit_ready = digest
        released = False
        while True:
            nxt = self.chain.height + 1
            ready = self._instances.get(nxt)
            if ready is None or ready.commit_ready is None:
                break
            d, ready.commit_ready = ready.commit_ready, None
            pp = ready.proposal(d)
            block = pp.block
            if block.header.prev_hash != self.chain.tip.block_hash:
                self.evidence.append(
                    Evidence("link-mismatch-at-commit", view, nxt, self.node_id)
                )
                break
            self.chain.append(block)
            committed.append(CommitEvent(block=block, blobs=pp.blobs or {}))
            released = True
        if released:
            self._prune_committed()

    def _prune_committed(self) -> None:
        """Drop every record at or below the chain's height; the module
        docstring gives the invariant that makes this safe."""
        low = self.chain.height
        for held in (self._instances, self._must_repropose):
            for seq in [s for s in held if s <= low]:
                del held[seq]

    # -- view change -----------------------------------------------------------

    def _start_view_change(self, target: int, now: int) -> PbftMessage:
        """Wait for view target with the timer rearmed; the returned
        ViewChange proves every prepared, uncommitted sequence."""
        self.pending_view = target
        self.timer_deadline = now + self.config.timeout_ticks
        proof = tuple(
            (seq, inst.prepared[1], inst.prepared[0])
            for seq, inst in sorted(self._instances.items())
            if inst.prepared is not None
        )
        return PbftMessage(
            kind=MessageKind.VIEW_CHANGE,
            view=target,
            seq=0,
            digest=ZERO_DIGEST,
            sender=self.node_id,
            prepared_proof=proof,
        )

    @staticmethod
    def _reproposals(view_changes: list[PbftMessage], floor_seq: int) -> dict[int, bytes] | None:
        """Digest per sequence from prepared proofs, highest view wins.

        Returns None when two proofs claim the same (seq, view) with
        different digests: impossible for honest proofs, so the whole
        set is rejected.
        """
        best: dict[int, tuple[int, bytes]] = {}
        for vc in view_changes:
            for seq, digest, view in vc.prepared_proof or ():
                if seq <= floor_seq:
                    continue
                cur = best.get(seq)
                if cur is None or view > cur[0]:
                    best[seq] = (view, digest)
                elif view == cur[0] and digest != cur[1]:
                    return None
        return {seq: digest for seq, (view, digest) in best.items()}

    def _on_view_change(
        self, msg: PbftMessage, now: int, out: list[PbftMessage], queue: deque[PbftMessage]
    ) -> None:
        if msg.view <= self.current_view:
            return
        log = self._view_change_log.setdefault(msg.view, {})
        if msg.sender not in log:
            log[msg.sender] = msg

        # Join rule: f+1 distinct nodes asking for views above ours is proof
        # that at least one honest node timed out, so time out with them.
        me = self.node_id
        senders_above = {s for entries in self._view_change_log.values() for s in entries}
        senders_above.discard(me)
        if len(senders_above) >= self.config.f + 1:
            target = min(self._view_change_log)
            if self.pending_view < target:
                out.append(self._start_view_change(target, now))

        # New-primary rule: with a quorum of ViewChanges for a view this node
        # leads, announce NewView and re-issue prepared instances. Entering
        # the view drops every later ViewChange for it, so NewView goes once.
        nv = msg.view
        if primary_of(nv, self.config.n) != me or len(log) < self._quorum:
            return
        chosen = [log[s] for s in list(log)[: self._quorum]]
        repro = self._reproposals(chosen, self.chain.height)
        if repro is None:
            self.evidence.append(Evidence("invalid-proof-set", nv, 0, me))
            return
        self._must_repropose = dict(repro)
        self._enter_view(nv, queue)
        out.append(
            PbftMessage(
                kind=MessageKind.NEW_VIEW,
                view=nv,
                seq=0,
                digest=ZERO_DIGEST,
                sender=me,
                view_changes=tuple(chosen),
            )
        )
        for seq in sorted(repro):
            digest = repro[seq]
            inst = self._instances.get(seq)
            pp = inst.proposal(digest) if inst is not None else None
            if pp is None:
                # Without the block bytes this primary cannot re-propose;
                # replicas holding it will force another view change.
                self.evidence.append(Evidence("reproposal-block-unknown", nv, seq, me))
                continue
            out.append(
                PbftMessage(
                    kind=MessageKind.PRE_PREPARE,
                    view=nv,
                    seq=seq,
                    digest=digest,
                    sender=me,
                    block=pp.block,
                    blobs=pp.blobs or {},
                )
            )

    def _on_new_view(
        self, msg: PbftMessage, now: int, out: list[PbftMessage], queue: deque[PbftMessage]
    ) -> None:
        nv = msg.view
        if nv <= self.current_view:
            return
        if msg.sender != primary_of(nv, self.config.n):
            return
        vcs = list(msg.view_changes or ())
        senders = {vc.sender for vc in vcs}
        valid = (
            len(vcs) >= self._quorum
            and len(senders) == len(vcs)
            and all(vc.kind is MessageKind.VIEW_CHANGE and vc.view == nv for vc in vcs)
        )
        repro = self._reproposals(vcs, self.chain.height) if valid else None
        if not valid or repro is None:
            self.evidence.append(Evidence("invalid-new-view", nv, 0, msg.sender))
            out.append(self._start_view_change(nv + 1, now))
            return
        self._must_repropose = dict(repro)
        self._enter_view(nv, queue)

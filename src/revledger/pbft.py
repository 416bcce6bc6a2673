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

Committed blocks live in each replica's chain, which therefore serves as
the stable checkpoint of PBFT's low-water mark: when a block commits, the
replica drops every per-instance entry (accepted PrePrepares, logged
messages, seen digests, block and payload copies) at or below
last_committed_seq. Every read of that state is guarded by
seq > last_committed_seq, so the prune changes no behaviour, and replica
memory stays bounded by the in-flight window rather than the chain height.

Replica state machines are strictly single threaded: all transitions go
through handle_message / on_timeout, driven by the simulator's event
loop. Sender identity is trusted from the delivery envelope; Byzantine
behaviors are injected at the behavior layer, not by forging envelopes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .digests import ZERO_DIGEST
from .ledger import Block, check_block


class ConfigError(ValueError):
    """Replica group configuration violates the fault-tolerance bound."""


class MessageKind(Enum):
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


@dataclass(frozen=True)
class NodeConfig:
    node_id: int
    n: int
    f: int
    timeout_ticks: int = 30

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("need at least one node")
        if self.n < 3 * self.f + 1:
            raise ConfigError(f"n={self.n} cannot tolerate f={self.f}: need n >= 3f+1")
        if not 0 <= self.node_id < self.n:
            raise ConfigError(f"node_id {self.node_id} outside 0..{self.n - 1}")
        if self.timeout_ticks < 1:
            raise ConfigError("timeout_ticks must be positive")


def primary_of(view: int, n: int) -> int:
    """Rotating primary: the replica whose id is view mod n."""
    if n < 1:
        raise ConfigError("need at least one node")
    return view % n


def quorum_size(n: int, f: int) -> int:
    """2f+1, defined only where n >= 3f+1 holds."""
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
    return block.header.height == seq and not check_block(block)


_NORMAL_KINDS = (MessageKind.PRE_PREPARE, MessageKind.PREPARE, MessageKind.COMMIT)


class Replica:
    """PBFT replica state machine for one node.

    handle_message and on_timeout mutate the replica and return the
    messages to broadcast plus any blocks that became committed. Commits
    are released strictly in sequence order; out-of-order quorums wait in
    a buffer until the gap fills.
    """

    def __init__(
        self,
        config: NodeConfig,
        tip_hash: bytes,
        last_committed_seq: int = 0,
        proposal_validator=None,
    ):
        self.config = config
        self.current_view = 0
        self.last_committed_seq = last_committed_seq
        self.tip_hash = tip_hash
        self.in_view_change = False
        self.pending_view = 0
        self.timer_deadline: int | None = None
        self.evidence: list[Evidence] = []
        # extra application-level acceptance check for proposed blocks
        # (e.g. endorsement policy); must be deterministic across replicas
        self.proposal_validator = proposal_validator

        self._quorum = quorum_size(config.n, config.f)
        self._log: dict[tuple[int, int, MessageKind], dict[int, PbftMessage]] = {}
        self._digest_seen: dict[tuple[int, int, int], bytes] = {}
        self._conflict_flagged: set[tuple[int, int, int]] = set()
        self._accepted: dict[tuple[int, int], PbftMessage] = {}
        self._blocks_seen: dict[bytes, Block] = {}
        self._blobs_seen: dict[bytes, dict[bytes, bytes]] = {}
        self._prepared: dict[int, tuple[int, bytes]] = {}
        self._sent_commit: set[tuple[int, int]] = set()
        self._commit_ready: dict[int, bytes] = {}
        self._view_change_log: dict[int, dict[int, PbftMessage]] = {}
        self._new_view_sent: set[int] = set()
        self._must_repropose: dict[int, bytes] = {}
        self._future: dict[int, list[PbftMessage]] = {}

    # -- public interface ----------------------------------------------------

    def on_propose(self, block: Block, blobs: dict[bytes, bytes]) -> list[PbftMessage]:
        """Primary-only: open a consensus instance for the next height."""
        me = self.config.node_id
        if self.in_view_change or primary_of(self.current_view, self.config.n) != me:
            return []
        if block.header.height != self.last_committed_seq + 1:
            return []
        return [
            PbftMessage(
                kind=MessageKind.PRE_PREPARE,
                view=self.current_view,
                seq=block.header.height,
                digest=block.block_hash,
                sender=me,
                block=block,
                blobs=dict(blobs),
            )
        ]

    def handle_message(self, msg: PbftMessage, now: int) -> tuple[list[PbftMessage], list[CommitEvent]]:
        out: list[PbftMessage] = []
        committed: list[CommitEvent] = []
        queue: deque[PbftMessage] = deque([msg])
        while queue:
            self._dispatch(queue.popleft(), now, out, committed, queue)
        return out, committed

    def on_timeout(self, now: int) -> list[PbftMessage]:
        """Timer expiry: move (or escalate) to the next view."""
        target = (self.pending_view if self.in_view_change else self.current_view) + 1
        self.in_view_change = True
        self.pending_view = target
        self.timer_deadline = now + self.config.timeout_ticks
        return [self._make_view_change(target)]

    def has_open_work(self) -> bool:
        """Uncommitted instances still able to commit, or a view change.

        Accepted PrePrepares from abandoned views do not count: only the
        current view can still move them. Prepared-but-uncommitted
        sequences always count, whatever view prepared them, because they
        constrain what may commit and must keep the timer armed until a
        re-proposal lands.

        State at or below last_committed_seq is dropped on commit (the
        chain holds the committed blocks), so this scans only the
        in-flight instances.
        """
        if self.in_view_change:
            return True
        if any(
            view == self.current_view and seq > self.last_committed_seq
            for view, seq in self._accepted
        ):
            return True
        return any(seq > self.last_committed_seq for seq in self._prepared)

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
        self.in_view_change = False
        self.timer_deadline = None
        for stale in [v for v in self._view_change_log if v <= view]:
            del self._view_change_log[stale]
        self._replay_view(view, queue)

    def _record_digest(self, msg: PbftMessage) -> None:
        key = (msg.view, msg.seq, msg.sender)
        seen = self._digest_seen.get(key)
        if seen is None:
            self._digest_seen[key] = msg.digest
        elif seen != msg.digest and key not in self._conflict_flagged:
            self._conflict_flagged.add(key)
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
        if msg.seq <= self.last_committed_seq:
            return
        self._record_digest(msg)
        if msg.kind is MessageKind.PRE_PREPARE:
            self._on_pre_prepare(msg, out)
        else:
            log = self._log.setdefault((msg.view, msg.seq, msg.kind), {})
            if msg.sender in log:
                return  # first message per sender wins
            log[msg.sender] = msg
        self._try_prepare(msg.view, msg.seq, out)
        self._try_commit(msg.view, msg.seq, committed)

    def _on_pre_prepare(self, msg: PbftMessage, out: list[PbftMessage]) -> None:
        me = self.config.node_id
        if msg.sender != primary_of(msg.view, self.config.n):
            return
        if msg.block is None or msg.digest != msg.block.block_hash:
            return
        if not block_structurally_valid(msg.block, msg.seq):
            return
        if self.proposal_validator is not None and not self.proposal_validator(msg.block):
            self.evidence.append(Evidence("proposal-rejected", msg.view, msg.seq, msg.sender))
            return
        if msg.seq == self.last_committed_seq + 1 and msg.block.header.prev_hash != self.tip_hash:
            return
        want = self._must_repropose.get(msg.seq)
        if want is not None and msg.digest != want:
            self.evidence.append(
                Evidence("reproposal-mismatch", msg.view, msg.seq, msg.sender)
            )
            return
        key = (msg.view, msg.seq)
        existing = self._accepted.get(key)
        if existing is not None:
            if existing.digest != msg.digest:
                self.evidence.append(
                    Evidence("conflicting-digest", msg.view, msg.seq, msg.sender, "pre-prepare")
                )
            return
        self._accepted[key] = msg
        self._blocks_seen[msg.digest] = msg.block
        if msg.blobs:
            self._blobs_seen[msg.digest] = dict(msg.blobs)
        out.append(
            PbftMessage(
                kind=MessageKind.PREPARE,
                view=msg.view,
                seq=msg.seq,
                digest=msg.digest,
                sender=me,
            )
        )

    def _count_matching(self, view: int, seq: int, kind: MessageKind, digest: bytes) -> int:
        log = self._log.get((view, seq, kind), {})
        return sum(1 for m in log.values() if m.digest == digest)

    def _try_prepare(self, view: int, seq: int, out: list[PbftMessage]) -> None:
        pp = self._accepted.get((view, seq))
        if pp is None or (view, seq) in self._sent_commit:
            return
        if self._count_matching(view, seq, MessageKind.PREPARE, pp.digest) < self._quorum:
            return
        current = self._prepared.get(seq)
        if current is None or current[0] <= view:
            self._prepared[seq] = (view, pp.digest)
        self._sent_commit.add((view, seq))
        out.append(
            PbftMessage(
                kind=MessageKind.COMMIT,
                view=view,
                seq=seq,
                digest=pp.digest,
                sender=self.config.node_id,
            )
        )

    def _try_commit(self, view: int, seq: int, committed: list[CommitEvent]) -> None:
        if seq <= self.last_committed_seq or seq in self._commit_ready:
            return
        prepared = self._prepared.get(seq)
        if prepared is None or prepared[0] != view:
            return
        digest = prepared[1]
        if self._count_matching(view, seq, MessageKind.COMMIT, digest) < self._quorum:
            return
        self._commit_ready[seq] = digest
        released = False
        while self.last_committed_seq + 1 in self._commit_ready:
            nxt = self.last_committed_seq + 1
            d = self._commit_ready.pop(nxt)
            block = self._blocks_seen[d]
            if block.header.prev_hash != self.tip_hash:
                self.evidence.append(
                    Evidence("link-mismatch-at-commit", view, nxt, self.config.node_id)
                )
                break
            committed.append(CommitEvent(block=block, blobs=self._blobs_seen.get(d, {})))
            self.last_committed_seq = nxt
            self.tip_hash = block.block_hash
            self._prepared.pop(nxt, None)
            released = True
        if released:
            self._prune_committed()

    def _prune_committed(self) -> None:
        """Drop per-instance state at or below last_committed_seq; the
        module docstring gives the invariant that makes this safe."""
        low = self.last_committed_seq
        # keys are (view, seq) or (view, seq, kind|sender): seq is k[1]
        self._accepted = {k: v for k, v in self._accepted.items() if k[1] > low}
        self._sent_commit = {k for k in self._sent_commit if k[1] > low}
        self._log = {k: v for k, v in self._log.items() if k[1] > low}
        self._digest_seen = {k: v for k, v in self._digest_seen.items() if k[1] > low}
        self._conflict_flagged = {k for k in self._conflict_flagged if k[1] > low}
        self._must_repropose = {s: d for s, d in self._must_repropose.items() if s > low}
        self._blocks_seen = {
            d: b for d, b in self._blocks_seen.items() if b.header.height > low
        }
        self._blobs_seen = {d: p for d, p in self._blobs_seen.items() if d in self._blocks_seen}

    # -- view change -----------------------------------------------------------

    def _make_view_change(self, target: int) -> PbftMessage:
        proof = tuple(
            (seq, digest, view)
            for seq, (view, digest) in sorted(self._prepared.items())
            if seq > self.last_committed_seq
        )
        return PbftMessage(
            kind=MessageKind.VIEW_CHANGE,
            view=target,
            seq=0,
            digest=ZERO_DIGEST,
            sender=self.config.node_id,
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
        me = self.config.node_id
        senders_above: set[int] = set()
        views_above: list[int] = []
        for view, entries in self._view_change_log.items():
            if view > self.current_view:
                senders_above.update(s for s in entries if s != me)
                views_above.append(view)
        if len(senders_above) >= self.config.f + 1:
            target = min(views_above)
            if not (self.in_view_change and self.pending_view >= target):
                self.in_view_change = True
                self.pending_view = target
                self.timer_deadline = now + self.config.timeout_ticks
                out.append(self._make_view_change(target))

        # New-primary rule: with a quorum of ViewChanges for a view this node
        # leads, announce NewView and re-issue prepared instances.
        nv = msg.view
        if primary_of(nv, self.config.n) != me or nv in self._new_view_sent:
            return
        entries = self._view_change_log.get(nv, {})
        if len(entries) < self._quorum or nv <= self.current_view:
            return
        chosen = [entries[s] for s in list(entries)[: self._quorum]]
        repro = self._reproposals(chosen, self.last_committed_seq)
        if repro is None:
            self.evidence.append(Evidence("invalid-proof-set", nv, 0, me))
            return
        self._new_view_sent.add(nv)
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
            block = self._blocks_seen.get(digest)
            if block is None:
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
                    block=block,
                    blobs=self._blobs_seen.get(digest, {}),
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
        repro = self._reproposals(vcs, self.last_committed_seq) if valid else None
        if not valid or repro is None:
            self.evidence.append(Evidence("invalid-new-view", nv, 0, msg.sender))
            self.in_view_change = True
            self.pending_view = nv + 1
            self.timer_deadline = now + self.config.timeout_ticks
            out.append(self._make_view_change(nv + 1))
            return
        self._must_repropose = dict(repro)
        self._enter_view(nv, queue)

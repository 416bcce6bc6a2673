"""Deterministic discrete-event simulation of the replicated ledger.

Hosts N node runtimes on one thread, delivers their messages with
seeded delays, drops, and partitions, drives timers, injects Byzantine
behaviors into outbound traffic, and reports throughput and latency.

Time is integer ticks; there is no wall clock anywhere. All randomness
comes from one splitmix64 stream seeded solely by the scenario seed, and
draws happen in a pinned order per (src, dst, message): the drop draw
first, then (if the message survives drop and partition filtering) the
delay draw. Identical (config, workload) therefore reproduce the run
bit-for-bit, including report and chain files.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import asdict, dataclass, replace

from .content_store import MemoryStore
from .digests import sha256, to_hex
from .encoding import u64
from .ledger import Block, build_block
from .node import NodeRuntime, Outbound, ReceiptStatus
from .pbft import ConfigError, MessageKind, NodeConfig, PbftMessage, quorum_size
from .revisions import EndorsementPolicy, ValidityFlag
from .rng import SplitMix64, derive_stream_seed


class SimError(ValueError):
    """Scenario configuration or workload violates its invariants."""


# -- Byzantine behaviors -------------------------------------------------------


@dataclass(frozen=True)
class Crash:
    at_tick: int


@dataclass(frozen=True)
class Silent:
    pass


@dataclass(frozen=True)
class EquivocatePrePrepare:
    pass


@dataclass(frozen=True)
class DelayAll:
    extra: int


@dataclass(frozen=True)
class CorruptDigest:
    pass


ByzantineBehavior = Crash | Silent | EquivocatePrePrepare | DelayAll | CorruptDigest

# Behaviors that merely suppress or slow a node. Nodes under them never lie,
# so they still count as honest for the safety invariant.
_NON_LYING = (Crash, Silent, DelayAll)


@dataclass(frozen=True)
class Partition:
    """Bipartition active for ticks in [start, end): messages crossing the
    cut are dropped unconditionally."""

    start: int
    end: int
    group: frozenset[int]

    def blocks(self, src: int, dst: int, now: int) -> bool:
        if not (self.start <= now < self.end):
            return False
        return (src in self.group) != (dst in self.group)


@dataclass(frozen=True)
class SimConfig:
    n: int
    f: int
    seed: int
    delay_min: int = 1
    delay_max: int = 1
    drop_prob: float = 0.0
    timeout_ticks: int = 30
    max_batch: int = 100
    endorsement_m: int = 1
    max_ticks: int = 5000
    partitions: tuple[Partition, ...] = ()
    byzantine: tuple[tuple[int, ByzantineBehavior], ...] = ()

    def __post_init__(self):
        if self.delay_min < 1:
            raise SimError("delay_min must be >= 1")
        if self.delay_max < self.delay_min:
            raise SimError("delay_max must be >= delay_min")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise SimError("drop_prob must be in [0, 1]")
        try:
            quorum_size(self.n, self.f)
        except ConfigError as exc:
            raise SimError(str(exc)) from exc
        seen = [nid for nid, _ in self.byzantine]
        if len(seen) != len(set(seen)):
            raise SimError("duplicate byzantine node entries")
        for nid in seen:
            if not 0 <= nid < self.n:
                raise SimError(f"byzantine node {nid} outside 0..{self.n - 1}")

    def is_fault_free(self) -> bool:
        return not self.byzantine and not self.partitions and self.drop_prob == 0.0


@dataclass(frozen=True)
class Submission:
    tick: int
    node: int
    work_id: str
    author_id: str
    payload: bytes


def check_workload(workload: list[Submission], config: SimConfig) -> None:
    last = 0
    for sub in workload:
        if sub.tick < last:
            raise SimError("workload submit ticks must be non-decreasing")
        last = sub.tick
        if not 0 <= sub.node < config.n:
            raise SimError(f"submission targets unknown node {sub.node}")


# -- event queue ---------------------------------------------------------------


class EventQueue:
    """Events ordered by (tick, insertion sequence): FIFO within a tick."""

    def __init__(self):
        self._heap: list[tuple[int, int, tuple]] = []
        self._next_seq = 0
        self.current_tick = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, item: tuple, deliver_tick: int) -> None:
        if deliver_tick < self.current_tick:
            raise SimError(
                f"cannot schedule at tick {deliver_tick}, now is {self.current_tick}"
            )
        heapq.heappush(self._heap, (deliver_tick, self._next_seq, item))
        self._next_seq += 1

    def peek_tick(self) -> int | None:
        return self._heap[0][0] if self._heap else None

    def next_event(self) -> tuple:
        """Pop the earliest event and return its item."""
        return heapq.heappop(self._heap)[2]


def deliver(
    config: SimConfig, rng: SplitMix64, src: int, dst: int, now: int
) -> int | None:
    """Delivery tick for one message hop, or None when dropped.

    Draw order is pinned: drop first, then delay. The partition check
    sits between them and consumes no draws.
    """
    drop_draw = rng.unit_float()
    if drop_draw < config.drop_prob:
        return None
    for part in config.partitions:
        if part.blocks(src, dst, now):
            return None
    return now + rng.uniform_int(config.delay_min, config.delay_max)


# -- behavior application --------------------------------------------------------


def _equivocation_variant(block: Block) -> Block:
    """A second, internally consistent block for the same height: same
    transactions, different tick, hence a different hash."""
    return build_block(
        height=block.header.height,
        prev_hash=block.header.prev_hash,
        txs=block.transactions,
        proposer_id=block.header.proposer_id,
        view=block.header.view,
        tick=block.header.tick + 1,
    )


def _flip_digest(digest: bytes) -> bytes:
    return digest[:-1] + bytes([digest[-1] ^ 0x01])


def apply_behavior(
    behavior: ByzantineBehavior | None,
    src: int,
    receivers: list[int],
    payload,
    now: int,
) -> tuple[list[tuple[int, object]], int]:
    """Rewrite one outbound action into per-receiver sends.

    Returns (sends, extra_delay). Honest nodes pass through unchanged.
    """
    if behavior is None:
        return [(dst, payload) for dst in receivers], 0
    if isinstance(behavior, Crash):
        if now >= behavior.at_tick:
            return [], 0
        return [(dst, payload) for dst in receivers], 0
    if isinstance(behavior, Silent):
        return [], 0
    if isinstance(behavior, DelayAll):
        return [(dst, payload) for dst in receivers], behavior.extra
    if isinstance(behavior, CorruptDigest):
        if isinstance(payload, PbftMessage):
            payload = replace(payload, digest=_flip_digest(payload.digest))
        return [(dst, payload) for dst in receivers], 0
    if isinstance(behavior, EquivocatePrePrepare):
        if (
            isinstance(payload, PbftMessage)
            and payload.kind is MessageKind.PRE_PREPARE
            and payload.block is not None
            and len(receivers) > 1
        ):
            variant_block = _equivocation_variant(payload.block)
            variant = replace(
                payload, digest=variant_block.block_hash, block=variant_block
            )
            ordered = sorted(receivers)
            half = len(ordered) // 2
            sends: list[tuple[int, object]] = [(dst, payload) for dst in ordered[:half]]
            sends += [(dst, variant) for dst in ordered[half:]]
            return sends, 0
        return [(dst, payload) for dst in receivers], 0
    raise SimError(f"unknown behavior {behavior!r}")


# -- endorsement secrets ----------------------------------------------------------


def endorsement_secret(seed: int, node_id: int) -> bytes:
    """Simulation-local endorsement key, derivable by anyone holding the
    workspace seed. Not a signature scheme and not claimed to be one."""
    return sha256(b"revledger/endorse/" + u64(seed) + u64(node_id))


def make_policy(n: int, seed: int, required: int) -> EndorsementPolicy:
    """`required`-of-n endorsement over every node, with the seed's secrets."""
    secrets = {i: endorsement_secret(seed, i) for i in range(n)}
    return EndorsementPolicy(
        required=required,
        eligible=frozenset(range(n)),
        secrets=secrets,
    )


# -- report -----------------------------------------------------------------------


@dataclass
class ReceiptRow:
    node: int
    work_id: str
    author_id: str
    submit_tick: int
    tx_id: str | None
    status: str
    flag: str | None
    commit_tick: int | None


@dataclass
class SimReport:
    """What consensus decided in one run. It holds no audit of the
    replicas: `revledger simulate` adds the report's `verify` section."""

    seed: int
    n: int
    f: int
    ticks_elapsed: int
    stalled: bool
    safety_ok: bool
    committed_heights: dict[int, int]
    committed_digests: dict[int, list[str]]
    final_views: dict[int, int]
    receipts: list[ReceiptRow]
    latencies: list[int]
    throughput: float
    validity_counts: dict[str, int]
    equivocation_evidence: list[dict]
    crashed_nodes: list[int]
    honest_nodes: list[int]

    def to_obj(self) -> dict:
        obj = asdict(self)
        # Node ids become strings here, so JSON sorts them as text.
        for name in ("committed_heights", "committed_digests", "final_views"):
            obj[name] = {str(k): v for k, v in obj[name].items()}
        return obj


class MetricsError(AssertionError):
    """A reported metric contradicts the protocol's structural bounds."""


def metrics(report: SimReport, config: SimConfig | None = None) -> dict:
    """Throughput / latency summary with structural consistency checks.

    In a fault-free run every commit crosses the network at least three
    times (proposal, prepare quorum, commit quorum), so any latency under
    3 x delay_min would prove the clock accounting wrong; that is checked
    here rather than trusted.
    """
    lat = sorted(report.latencies)

    def percentile(q: float) -> int | None:
        if not lat:
            return None
        k = max(1, -(-q * len(lat) // 100))  # nearest-rank, 1-based
        return lat[int(k) - 1]

    summary = {
        "throughput": report.throughput,
        "committed_valid": report.validity_counts.get(ValidityFlag.VALID.value, 0),
        "latency_count": len(lat),
        "latency_mean": (sum(lat) / len(lat)) if lat else None,
        "latency_p50": percentile(50),
        "latency_p99": percentile(99),
        "stalled": report.stalled,
    }
    if config is not None and config.is_fault_free():
        floor = 3 * config.delay_min
        summary["latency_floor"] = floor
        if any(v < floor for v in lat):
            raise MetricsError(
                f"fault-free latency below {floor} ticks: {min(lat)}"
            )
    expect = summary["committed_valid"]
    if report.ticks_elapsed > 0 and report.throughput != expect / report.ticks_elapsed:
        raise MetricsError("throughput * ticks does not equal committed valid count")
    return summary


# -- the simulation loop -----------------------------------------------------------


class Simulation:
    def __init__(
        self,
        config: SimConfig,
        workload: list[Submission],
        nodes: list[NodeRuntime] | None = None,
    ):
        check_workload(workload, config)
        self.config = config
        self.workload = list(workload)
        self.rng = SplitMix64(config.seed)
        self.queue = EventQueue()
        self.behaviors: dict[int, ByzantineBehavior] = dict(config.byzantine)
        self.crashed: set[int] = set()
        if nodes is None:
            policy = make_policy(config.n, config.seed, config.endorsement_m)
            nodes = [
                NodeRuntime(
                    NodeConfig(i, config.n, config.f, config.timeout_ticks),
                    MemoryStore(),
                    policy,
                    max_batch=config.max_batch,
                )
                for i in range(config.n)
            ]
        elif len(nodes) != config.n:
            raise SimError(f"expected {config.n} nodes, got {len(nodes)}")
        self.nodes = nodes
        self.receipt_rows: list[tuple[Submission, object]] = []

    # dispatch one node's outbound actions into the network
    def _dispatch(self, src: int, actions: list[Outbound], now: int) -> None:
        behavior = self.behaviors.get(src)
        for action in actions:
            receivers = (
                [action.dst]
                if action.dst is not None
                else [j for j in range(self.config.n) if j != src]
            )
            sends, extra = apply_behavior(behavior, src, receivers, action.payload, now)
            for dst, payload in sends:
                at = deliver(self.config, self.rng, src, dst, now)
                if at is None:
                    continue
                self.queue.schedule(("deliver", src, dst, payload), at + extra)

    def _mark_crashes(self, now: int) -> None:
        for nid, behavior in self.behaviors.items():
            if isinstance(behavior, Crash) and now >= behavior.at_tick:
                self.crashed.add(nid)

    def _idle(self) -> bool:
        if len(self.queue):
            return False
        for i, node in enumerate(self.nodes):
            if i in self.crashed:
                continue
            if node.mempool or node.replica.has_open_work():
                return False
            if node.replica.timer_deadline is not None:
                return False
        return True

    def run(self) -> SimReport:
        """Run to quiescence or max_ticks. The replicas are not audited;
        `NodeRuntime.verify` on `self.nodes` does that."""
        for sub in self.workload:
            self.queue.schedule(("submit", sub), sub.tick)
        tick = 0
        while tick <= self.config.max_ticks:
            self.queue.current_tick = tick
            self._mark_crashes(tick)
            while self.queue.peek_tick() == tick:
                self._handle_event(self.queue.next_event(), tick)
            for i, node in enumerate(self.nodes):
                if i in self.crashed:
                    continue
                self._dispatch(i, node.tick_duties(tick), tick)
            if self._idle():
                break
            tick += 1
        return self.report(min(tick, self.config.max_ticks))

    def _handle_event(self, item: tuple, now: int) -> None:
        kind = item[0]
        if kind == "submit":
            sub: Submission = item[1]
            if sub.node in self.crashed:
                self.receipt_rows.append((sub, None))
                return
            receipt = self.nodes[sub.node].submit(
                sub.work_id, sub.author_id, sub.payload, now
            )
            self.receipt_rows.append((sub, receipt))
        elif kind == "deliver":
            _, src, dst, payload = item
            if dst in self.crashed:
                return
            out = self.nodes[dst].on_message(src, payload, now)
            self._dispatch(dst, out, now)

    # -- report assembly ---------------------------------------------------------

    def _honest_nodes(self) -> list[int]:
        return [
            i
            for i in range(self.config.n)
            if i not in self.behaviors or isinstance(self.behaviors[i], _NON_LYING)
        ]

    def _safety_ok(self, honest: list[int]) -> bool:
        # Blocks are matched by header height: a replica loaded from a
        # workspace checkpoint holds its chain only from its old tip on.
        seen: dict[int, bytes] = {}
        for i in honest:
            for block in self.nodes[i].chain.blocks:
                if seen.setdefault(block.header.height, block.block_hash) != block.block_hash:
                    return False
        return True

    def report(self, ticks_elapsed: int) -> SimReport:
        """What the run decided so far, read from the nodes as they stand;
        `run` returns it, and a caller that gives the nodes longer chains
        builds it again."""
        honest = self._honest_nodes()

        rows: list[ReceiptRow] = []
        latencies: list[int] = []
        stalled = False
        for sub, receipt in self.receipt_rows:
            if receipt is None:
                rows.append(
                    ReceiptRow(
                        node=sub.node,
                        work_id=sub.work_id,
                        author_id=sub.author_id,
                        submit_tick=sub.tick,
                        tx_id=None,
                        status="Lost",
                        flag=None,
                        commit_tick=None,
                    )
                )
                stalled = True
                continue
            status = receipt.status.value
            if receipt.status is ReceiptStatus.PENDING:
                stalled = True
            if (
                receipt.status is ReceiptStatus.COMMITTED_VALID
                and receipt.commit_tick is not None
            ):
                latencies.append(receipt.commit_tick - receipt.submit_tick)
            rows.append(
                ReceiptRow(
                    node=sub.node,
                    work_id=sub.work_id,
                    author_id=sub.author_id,
                    submit_tick=sub.tick,
                    tx_id=to_hex(receipt.tx_id) if receipt.tx_id else None,
                    status=status,
                    flag=receipt.flag.value if receipt.flag else None,
                    commit_tick=receipt.commit_tick,
                )
            )

        # A crashed replica stopped committing, and a lagging one missed
        # blocks that others committed, so neither can speak for the run:
        # count on the tallest live honest chain, the lowest id on a tie.
        live = [i for i in honest if i not in self.crashed] or honest or [0]
        reference = max((self.nodes[i] for i in live), key=lambda node: node.chain.height)
        # Flags of the blocks committed in this run, as the reference recorded them.
        run_bitmaps = reference.bitmaps[len(reference.bitmaps) - len(reference.blocks_since_load):]
        counts = Counter(flag.value for flags in run_bitmaps for flag in flags)
        validity_counts = dict(sorted(counts.items()))
        committed_valid = validity_counts.get(ValidityFlag.VALID.value, 0)
        throughput = committed_valid / ticks_elapsed if ticks_elapsed else 0.0

        evidence = []
        for i, node in enumerate(self.nodes):
            for ev in node.replica.evidence:
                evidence.append(
                    {
                        "observer": i,
                        "kind": ev.kind,
                        "view": ev.view,
                        "seq": ev.seq,
                        "sender": ev.sender,
                        "detail": ev.detail,
                    }
                )

        return SimReport(
            seed=self.config.seed,
            n=self.config.n,
            f=self.config.f,
            ticks_elapsed=ticks_elapsed,
            stalled=stalled,
            safety_ok=self._safety_ok(honest),
            committed_heights={i: node.chain.height for i, node in enumerate(self.nodes)},
            committed_digests={
                i: [to_hex(b.block_hash) for b in node.chain.blocks]
                for i, node in enumerate(self.nodes)
            },
            final_views={i: node.replica.current_view for i, node in enumerate(self.nodes)},
            receipts=rows,
            latencies=latencies,
            throughput=throughput,
            validity_counts=validity_counts,
            equivocation_evidence=evidence,
            crashed_nodes=sorted(self.crashed),
            honest_nodes=honest,
        )


# -- scenario files -----------------------------------------------------------------


class ScenarioError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


def _parse_behavior(obj: dict) -> tuple[int, ByzantineBehavior]:
    name = obj.get("behavior")
    node = obj.get("node")
    if not isinstance(node, int):
        raise ScenarioError("byzantine entry needs an integer 'node'")
    if name == "crash":
        at = obj.get("at_tick")
        if not isinstance(at, int) or at < 0:
            raise ScenarioError("crash behavior needs non-negative 'at_tick'")
        return node, Crash(at_tick=at)
    if name == "delay_all":
        extra = obj.get("extra")
        if not isinstance(extra, int) or extra < 1:
            raise ScenarioError("delay_all behavior needs positive 'extra'")
        return node, DelayAll(extra=extra)
    if name == "silent":
        return node, Silent()
    if name == "equivocate_pre_prepare":
        return node, EquivocatePrePrepare()
    if name == "corrupt_digest":
        return node, CorruptDigest()
    raise ScenarioError(f"unknown behavior {name!r}")


def generate_payload(seed: int, tag: int, size: int) -> bytes:
    """Reproducible payload bytes for workload entries."""
    return SplitMix64(derive_stream_seed(seed, tag)).bytes(size)


def parse_scenario(text: str) -> tuple[SimConfig, list[Submission]]:
    """Parse a scenario document into (config, workload).

    Raises ScenarioError carrying line/column for JSON syntax problems.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(str(exc), line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict) or "config" not in doc or "workload" not in doc:
        raise ScenarioError("scenario needs 'config' and 'workload' sections")
    c = doc["config"]
    if not isinstance(c, dict):
        raise ScenarioError("'config' must be an object")
    try:
        partitions = tuple(
            Partition(
                start=int(p["start"]), end=int(p["end"]), group=frozenset(p["group"])
            )
            for p in c.get("partitions", [])
        )
        byzantine = tuple(_parse_behavior(b) for b in c.get("byzantine", []))
        config = SimConfig(
            n=c["n"],
            f=c["f"],
            seed=c["seed"],
            delay_min=c.get("delay_min", 1),
            delay_max=c.get("delay_max", 1),
            drop_prob=c.get("drop_prob", 0.0),
            timeout_ticks=c.get("timeout_ticks", 30),
            max_batch=c.get("max_batch", 100),
            endorsement_m=c.get("endorsement_m", 1),
            max_ticks=c.get("max_ticks", 5000),
            partitions=partitions,
            byzantine=byzantine,
        )
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"bad config: {exc}") from exc
    except SimError as exc:
        raise ScenarioError(str(exc)) from exc
    workload = []
    if not isinstance(doc["workload"], list):
        raise ScenarioError("'workload' must be a list")
    for idx, w in enumerate(doc["workload"]):
        try:
            spec = w.get("payload", {})
            size = spec.get("size", 64)
            tag = spec.get("tag", idx)
            workload.append(
                Submission(
                    tick=w["tick"],
                    node=w["node"],
                    work_id=w["work"],
                    author_id=w.get("author", "author"),
                    payload=generate_payload(config.seed, tag, size),
                )
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ScenarioError(f"bad workload entry {idx}: {exc}") from exc
    try:
        check_workload(workload, config)
    except SimError as exc:
        raise ScenarioError(str(exc)) from exc
    return config, workload

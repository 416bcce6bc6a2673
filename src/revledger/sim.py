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

The loop visits only ticks with an event, a crash or a due node, and
ends once no event is pending and no live node is due. A live node runs
its duties when an event reached it, or at the tick `NodeRuntime.next_due`
gave after its last duties (see there for what makes a node due). At a
tick it skips, its duties would change nothing and send nothing, and
draws are made only for sent messages, so no draw moves.

Each scenario field is checked once, where its record is built: every
record's int and str fields by pbft.check_field_types, each behavior's
bound by the behavior, and by SimConfig what needs the group: node ids in
0..n-1, known behaviors, and max_ticks within u64, which bounds every tick
the run reaches. The workload, whose checks need the whole list and the
config, is checked by check_workload when the Simulation is built. Every
refusal is a ScenarioError. The loop and apply_behavior trust what passed.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace

from .content_store import MemoryStore
from .digests import to_hex
from .ledger import Block, build_block
from .node import NodeRuntime, Outbound, ReceiptStatus, make_policy
from .pbft import ConfigError, GroupConfig, MessageKind, PbftMessage, check_field_types
from .revisions import ValidityFlag
from .rng import SplitMix64, derive_stream_seed


class ScenarioError(ValueError):
    """A scenario input breaks its invariants; a JSON syntax error has a position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


# -- Byzantine behaviors -------------------------------------------------------


@dataclass(frozen=True)
class Crash:
    at_tick: int

    def __post_init__(self):
        check_field_types(self, ScenarioError, "crash ")
        if self.at_tick < 0:
            raise ScenarioError("crash behavior needs non-negative 'at_tick'")


@dataclass(frozen=True)
class Silent:
    pass


@dataclass(frozen=True)
class EquivocatePrePrepare:
    pass


@dataclass(frozen=True)
class DelayAll:
    extra: int

    def __post_init__(self):
        check_field_types(self, ScenarioError, "delay_all ")
        if self.extra < 1:
            raise ScenarioError("delay_all behavior needs positive 'extra'")


@dataclass(frozen=True)
class CorruptDigest:
    pass


ByzantineBehavior = Crash | Silent | EquivocatePrePrepare | DelayAll | CorruptDigest

_BEHAVIORS = {"crash": Crash, "silent": Silent, "equivocate_pre_prepare": EquivocatePrePrepare,
              "delay_all": DelayAll, "corrupt_digest": CorruptDigest}  # by scenario name
MAX_TICKS = (1 << 64) - 1  # a block header's tick is a u64

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

    def __post_init__(self):
        check_field_types(self, ScenarioError, "partition ")
        if self.start >= self.end:
            raise ScenarioError(
                f"partition start {self.start} must be below its end {self.end}"
            )

    def blocks(self, src: int, dst: int, now: int) -> bool:
        if not (self.start <= now < self.end):
            return False
        return (src in self.group) != (dst in self.group)


@dataclass(frozen=True)
class SimConfig(GroupConfig):
    """The replica group's parameters plus the network's and the faults'."""

    delay_min: int = 1
    delay_max: int = 1
    drop_prob: float = 0.0
    max_ticks: int = 5000
    partitions: tuple[Partition, ...] = ()
    byzantine: tuple[tuple[int, ByzantineBehavior], ...] = ()

    def __post_init__(self):
        super().__post_init__()
        if self.delay_min < 1:
            raise ScenarioError("delay_min must be >= 1")
        if self.delay_max < self.delay_min:
            raise ScenarioError("delay_max must be >= delay_min")
        if type(self.drop_prob) not in (int, float) or not 0.0 <= self.drop_prob <= 1.0:
            raise ScenarioError("drop_prob must be a number in [0, 1]")
        if self.max_ticks < 1:
            raise ScenarioError("max_ticks must be >= 1")
        if self.max_ticks > MAX_TICKS:
            raise ScenarioError(f"max_ticks out of u64 range: {self.max_ticks}")
        seen = [nid for nid, _ in self.byzantine]
        for nid in seen + [nid for part in self.partitions for nid in part.group]:
            if type(nid) is not int or not 0 <= nid < self.n:
                raise ScenarioError(f"node id {nid!r} outside 0..{self.n - 1}")
        for part in self.partitions:  # a group of none or of every node cuts nothing
            if not 0 < len(part.group) < self.n:
                raise ScenarioError(
                    f"partition group must hold 1..{self.n - 1} of the {self.n} nodes"
                )
        if len(seen) != len(set(seen)):
            raise ScenarioError("duplicate byzantine node entries")
        if not all(isinstance(b, ByzantineBehavior) for _, b in self.byzantine):
            raise ScenarioError("unknown byzantine behavior")

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
        check_field_types(sub, ScenarioError, "workload ")
        if sub.tick < last:
            raise ScenarioError("workload submit ticks must be non-decreasing")
        last = sub.tick
        if not 0 <= sub.node < config.n:
            raise ScenarioError(f"submission targets unknown node {sub.node}")


# -- event queue ---------------------------------------------------------------


class EventQueue:
    """Events by tick, FIFO within a tick: one list per tick plus a heap of
    the distinct ticks that hold one."""

    def __init__(self):
        self._ticks: list[int] = []
        self._by_tick: dict[int, list[tuple]] = {}
        self.current_tick = 0

    def schedule(self, item: tuple, deliver_tick: int) -> None:
        if deliver_tick < self.current_tick:
            raise ScenarioError(
                f"cannot schedule at tick {deliver_tick}, now is {self.current_tick}"
            )
        items = self._by_tick.get(deliver_tick)
        if items is None:
            self._by_tick[deliver_tick] = [item]
            heapq.heappush(self._ticks, deliver_tick)
        else:
            items.append(item)

    def peek_tick(self) -> int | None:
        return self._ticks[0] if self._ticks else None

    def take(self, tick: int) -> list[tuple]:
        """Remove and return the events of tick, in insertion order, when
        tick is the earliest that holds any; otherwise none."""
        if not self._ticks or self._ticks[0] != tick:
            return []
        heapq.heappop(self._ticks)
        return self._by_tick.pop(tick)


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
) -> tuple[list[tuple[int, object]], int]:
    """Rewrite one outbound action into per-receiver sends.

    Returns (sends, extra_delay). Honest nodes pass through unchanged, and
    so does a node under Crash: the simulation runs no crashed node.
    """
    if behavior is None:
        return [(dst, payload) for dst in receivers], 0
    if isinstance(behavior, Silent):
        return [], 0
    if isinstance(behavior, CorruptDigest) and isinstance(payload, PbftMessage):
        payload = replace(payload, digest=_flip_digest(payload.digest))
    if (
        isinstance(behavior, EquivocatePrePrepare)
        and isinstance(payload, PbftMessage)
        and payload.kind is MessageKind.PRE_PREPARE
        and payload.block is not None
        and len(receivers) > 1
    ):
        variant_block = _equivocation_variant(payload.block)
        variant = replace(payload, digest=variant_block.block_hash, block=variant_block)
        ordered = sorted(receivers)
        half = len(ordered) // 2
        sends: list[tuple[int, object]] = [(dst, payload) for dst in ordered[:half]]
        sends += [(dst, variant) for dst in ordered[half:]]
        return sends, 0
    extra = behavior.extra if isinstance(behavior, DelayAll) else 0
    return [(dst, payload) for dst in receivers], extra


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


def metrics(report: SimReport, config: SimConfig) -> dict:
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
    if config.is_fault_free():
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
            policy, hashed = make_policy(config), {}
            nodes = [NodeRuntime(i, config, MemoryStore(hashed), policy) for i in range(config.n)]
        elif len(nodes) != config.n:
            raise ScenarioError(f"expected {config.n} nodes, got {len(nodes)}")
        self.nodes = nodes
        self.start_heights = [node.chain.height for node in nodes]
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
            sends, extra = apply_behavior(behavior, src, receivers, action.payload)
            for dst, payload in sends:
                at = deliver(self.config, self.rng, src, dst, now)
                if at is None:
                    continue
                self.queue.schedule(("deliver", src, dst, payload), at + extra)

    def _mark_crashes(self, now: int) -> None:
        for nid, behavior in self.behaviors.items():
            if isinstance(behavior, Crash) and now >= behavior.at_tick:
                self.crashed.add(nid)

    def run(self) -> SimReport:
        """Run to quiescence or max_ticks. The replicas are not audited;
        `NodeRuntime.verify` on `self.nodes` does that."""
        for sub in self.workload:
            self.queue.schedule(("submit", sub), sub.tick)
        crash_ticks = [b.at_tick for b in self.behaviors.values() if isinstance(b, Crash)]
        due: list[int | None] = [0] * self.config.n
        tick = 0
        while tick <= self.config.max_ticks:
            self.queue.current_tick = tick
            self._mark_crashes(tick)
            reached = {self._handle_event(item, tick) for item in self.queue.take(tick)}
            for i, node in enumerate(self.nodes):
                if i in self.crashed or (due[i] != tick and i not in reached):
                    continue
                self._dispatch(i, node.tick_duties(tick), tick)
                due[i] = node.next_due(tick)
            live = [d for i, d in enumerate(due) if i not in self.crashed]
            upcoming = [t for t in live + [self.queue.peek_tick()] if t is not None]
            if not upcoming:
                break
            # A crash can leave the run idle before anything else happens.
            tick = min(upcoming + [c for c in crash_ticks if c > tick])
        return self.report(min(tick, self.config.max_ticks))

    def _handle_event(self, item: tuple, now: int) -> int:
        """Apply one event; returns the node it reached."""
        if item[0] == "submit":
            sub: Submission = item[1]
            receipt = None
            if sub.node not in self.crashed:
                receipt = self.nodes[sub.node].submit(sub.work_id, sub.author_id, sub.payload, now)
            self.receipt_rows.append((sub, receipt))
            return sub.node
        _, src, dst, payload = item
        if dst not in self.crashed:
            self._dispatch(dst, self.nodes[dst].on_message(src, payload, now), now)
        return dst

    # -- report assembly ---------------------------------------------------------

    def _honest_nodes(self) -> list[int]:
        return [
            i
            for i in range(self.config.n)
            if i not in self.behaviors or isinstance(self.behaviors[i], _NON_LYING)
        ]

    def _safety_ok(self, honest: list[int]) -> bool:
        """Honest replicas agree on the block, and on its decisions, at
        every height two of them hold, and on the heads at equal heights."""
        # Blocks are matched by header height: a replica loaded from a
        # workspace checkpoint holds its chain only from its old tip on.
        seen: dict[int, bytes] = {}
        for i in honest:
            for block in self.nodes[i].chain.blocks:
                if seen.setdefault(block.header.height, block.block_hash) != block.block_hash:
                    return False
        # Two records that differ at a shared height cannot both match the
        # longest there, so each is compared with the longest's prefix.
        nodes = [self.nodes[i] for i in honest]
        longest = max((node.decisions for node in nodes), key=len, default=[])
        heads: dict[int, dict] = {}
        for node in nodes:
            if node.decisions != longest[: len(node.decisions)]:
                return False
            if heads.setdefault(node.chain.height, node.heads) != node.heads:
                return False
        return True

    def report(self, ticks_elapsed: int) -> SimReport:
        """What the run decided so far, read from the nodes as they stand;
        `run` returns it, and a caller that gives the nodes whole chains
        builds it again. Validity counts cover the blocks above the start
        heights, as the reference node decided them."""
        honest = self._honest_nodes()

        rows: list[ReceiptRow] = []
        latencies: list[int] = []
        stalled = False
        # Submissions run in workload order, so those past the run's last tick
        # are its tail; they and a crashed node's have no receipt: Lost.
        unreached = [(sub, None) for sub in self.workload[len(self.receipt_rows) :]]
        for sub, receipt in self.receipt_rows + unreached:
            status = receipt.status if receipt else None
            stalled = stalled or status in (None, ReceiptStatus.PENDING)
            if status is ReceiptStatus.COMMITTED_VALID:
                latencies.append(receipt.commit_tick - receipt.submit_tick)
            rows.append(
                ReceiptRow(
                    node=sub.node,
                    work_id=sub.work_id,
                    author_id=sub.author_id,
                    submit_tick=sub.tick,
                    tx_id=to_hex(receipt.tx_id) if receipt and receipt.tx_id else None,
                    status=status.value if status else "Lost",
                    flag=receipt.flag.value if receipt and receipt.flag else None,
                    commit_tick=receipt.commit_tick if receipt else None,
                )
            )

        # A crashed replica stopped committing, and a lagging one missed
        # blocks that others committed, so neither can speak for the run:
        # count on the tallest live honest chain, the lowest id on a tie.
        live = [i for i in honest if i not in self.crashed] or honest or [0]
        ref = max(live, key=lambda i: self.nodes[i].chain.height)
        # Flags of the blocks committed in this run, as the reference recorded them.
        run = self.nodes[ref].decisions[self.start_heights[ref]:]
        counts = Counter(flag.value for pairs in run for _, flag in pairs)
        validity_counts = dict(sorted(counts.items()))
        committed_valid = validity_counts.get(ValidityFlag.VALID.value, 0)
        throughput = committed_valid / ticks_elapsed if ticks_elapsed else 0.0

        evidence = [
            {"observer": i, **asdict(ev)}
            for i, node in enumerate(self.nodes)
            for ev in node.replica.evidence
        ]

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


def _refuse_unknown_keys(obj, known, what: str) -> None:
    """Refuse a key that no field reads: a misspelled fault would run as none."""
    unknown = sorted(set(obj) - set(known)) if isinstance(obj, dict) else []
    if unknown:
        raise ScenarioError(f"unknown {what} key {unknown[0]!r}")


def _parse_partition(obj: dict) -> Partition:
    _refuse_unknown_keys(obj, ("start", "end", "group"), "partition")
    return Partition(start=obj["start"], end=obj["end"], group=frozenset(obj["group"]))


def _parse_behavior(obj: dict) -> tuple[int, ByzantineBehavior]:
    name = obj.get("behavior")
    kind = _BEHAVIORS.get(name)
    if kind is None:
        raise ScenarioError(f"unknown behavior {name!r}")
    keys = [spec.name for spec in fields(kind)]
    _refuse_unknown_keys(obj, ["node", "behavior", *keys], "byzantine")
    return obj.get("node"), kind(**{key: obj.get(key) for key in keys})


def generate_payload(seed: int, tag: int, size: int) -> bytes:
    """Reproducible payload bytes for workload entries."""
    return SplitMix64(derive_stream_seed(seed, tag)).bytes(size)


def parse_scenario(text: str) -> tuple[SimConfig, list[Submission]]:
    """Parse a scenario document into (config, workload).

    Raises ScenarioError, carrying line/column for JSON syntax problems.
    The config's records check themselves as they are built; the workload's
    ticks and node ids are checked by the Simulation built from it.
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
        _refuse_unknown_keys(c, [spec.name for spec in fields(SimConfig)], "config")
        partitions = tuple(_parse_partition(p) for p in c.get("partitions", []))
        byzantine = tuple(_parse_behavior(b) for b in c.get("byzantine", []))
        config = SimConfig(**{**c, "partitions": partitions, "byzantine": byzantine})
    except (KeyError, TypeError, AttributeError) as exc:
        raise ScenarioError(f"bad config: {exc}") from exc
    except ConfigError as exc:
        raise ScenarioError(str(exc)) from exc
    workload = []
    if not isinstance(doc["workload"], list):
        raise ScenarioError("'workload' must be a list")
    for idx, w in enumerate(doc["workload"]):
        try:
            _refuse_unknown_keys(w, ("tick", "node", "work", "author", "payload"), "workload")
            spec = w.get("payload", {})
            _refuse_unknown_keys(spec, ("size", "tag"), "payload")
            size = spec.get("size", 64)
            tag = spec.get("tag", idx)
            if type(size) is not int or type(tag) is not int or size < 0:
                raise ScenarioError("workload payload needs an int 'tag' and an int 'size' >= 0")
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
    return config, workload

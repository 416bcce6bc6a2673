"""The three benchmark workloads and the inputs they generate from a seed.

Each workload returns a `Result`: whether every check passed, how many
operations were attempted and failed, the end-to-end metrics of an
untraced run or the per-layer metrics of a traced one, and lines of
detail printed before the result.

Operations run in whole rounds until the time budget is spent, so the
share of failed operations is the same in every run whatever its length.
In a traced run even rounds run untraced and odd rounds traced; the
difference between their timings is the tracing overhead.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from revledger.cli import main as cli_main
from revledger.revisions import check_endorsement_policy
from revledger.sim import Crash, SimConfig, Simulation, Submission
from revledger.workspace import Workspace

import checks
from tracer import LAYERS, Tracer

# (metric, unit); every workload reports every one of these untraced.
END_TO_END = [
    ("setup_s", "s"),
    ("commit_ms", "ms"),
    ("history_ms", "ms"),
    ("show_ms", "ms"),
    ("verify_ms", "ms"),
    ("latency_ticks_p50", "ticks"),
    ("latency_ticks_p99", "ticks"),
    ("valid_tx_per_tick", "tx/tick"),
    ("stall_ticks", "ticks"),
    ("peak_rss_mb", "MiB"),
]

# Every traced layer reports its calls and self seconds.
LAYER_NAMES = list(dict.fromkeys(name for name, _, _ in LAYERS))
# Counted inside commit operations and divided by committed transactions.
PER_COMMIT = [
    ("content_store.get.per_commit", "content_store.get"),
    ("revisions.apply_block.per_commit", "revisions.apply_block"),
    ("encoding.transaction_id.per_tx", "encoding.transaction_id"),
    ("sim.messages_per_tx", "sim.deliver"),
]
TICK_LAYER = [
    ("node.txs_per_block", "tx/block"),
    ("node.queue_wait_ticks_p50", "ticks"),
    ("sim.ticks", "ticks"),
    ("pbft.view_changes", "count"),
]


def per_layer_units() -> list[tuple[str, str]]:
    out = []
    for name in LAYER_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
    out += [(name, "count") for name, _ in PER_COMMIT]
    return out + TICK_LAYER


@dataclass
class Result:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    tracer: Tracer | None = None

    def check(self, problems: list[str]) -> None:
        if problems:
            self.correct = False
            self.problems.extend(problems)


def ladder(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """`count` sizes evenly spaced over [lo, hi] in seeded order, so every
    seed moves the same number of payload bytes."""
    sizes = [lo + (hi - lo) * i // max(1, count - 1) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    k = max(1, -(-q * len(ordered) // 100))
    return ordered[int(k) - 1]


def peak_rss_mb() -> float:
    """Peak resident memory so far. Read after the first round, so that the
    number of rounds a run fits in does not move it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Seconds one probe took at the fastest on the reference machine (Intel
# Xeon 2.1 GHz, 2 vCPU, Python 3.11.7), in a loop of its own.
PROBE_REF_S = 0.00018
PROBE_PERIOD_S = 0.02
_PROBE_BLOB = bytes(range(256)) * 256


def probe() -> float:
    """Seconds that one fixed standard-library task takes right now.

    The task mixes interpreter work (dict inserts, sort, JSON) with SHA-256
    of a 64 KiB buffer, as the program does. The fastest of three passes
    counts, so caches the interrupted code left cold do not.
    """
    gc.disable()  # a collection would time the program's heap, not the host
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            rng = random.Random(12345)
            table = {}
            for _ in range(60):
                key = rng.getrandbits(32)
                table[key] = hashlib.sha256(key.to_bytes(8, "big")).digest()
            json.dumps(sorted((k, v.hex()) for k, v in table.items()))
            hashlib.sha256(_PROBE_BLOB).digest()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        gc.enable()


class SpeedTrace:
    """The host's speed over time, from a probe run every PROBE_PERIOD_S.

    The machine this benchmark was written on changes speed by up to 2x
    within minutes as other tenants load the host. The probe slows down
    with the program, so scaling a sample by the probe's reference time
    over its median time during the sample cancels the host's speed, while
    a change to revledger's code still shows. A SIGALRM interval timer runs
    the probe in the benchmark's only thread; it costs about 3% of a run.
    """

    def __init__(self):
        self._at: list[float] = []
        self.took: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self._at.append(time.perf_counter())
        self.took.append(probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Reference speed over the speed seen from `start` to `end`: the
        probes inside the interval, or the three nearest when it is short."""
        lo = bisect.bisect_left(self._at, start)
        hi = bisect.bisect_right(self._at, end)
        if hi - lo < 3:
            lo, hi = max(0, lo - 2), min(len(self._at), hi + 1)
        took = self.took[lo:hi] or [PROBE_REF_S]
        return PROBE_REF_S / statistics.median(took)


class Timings:
    """Wall times of each kind of operation, scaled to the reference speed
    by a SpeedTrace. Samples of traced and untraced rounds are kept apart."""

    def __init__(self, speed: SpeedTrace):
        self.speed = speed
        self.plain: dict[str, list[float]] = {}
        self.traced: dict[str, list[float]] = {}
        self.unscaled: dict[str, list[float]] = {}
        self._pending: list[tuple[str, bool, float, float, int]] = []

    @contextlib.contextmanager
    def measure(self, op: str, traced: bool = False, per: int = 1):
        """Time the body as one sample of `op`, divided by `per` units."""
        start = time.perf_counter()
        yield
        self._pending.append((op, traced, start, time.perf_counter(), per))

    def describe_speed(self, lines: list[str]) -> None:
        took = sorted(self.speed.took)
        if took:
            lines.append(f"speed probe: n={len(took)} median={statistics.median(took) * 1e3:.3f} ms "
                         f"(reference {PROBE_REF_S * 1e3:.3f} ms)")

    def settle(self) -> None:
        """Scale the samples taken so far; probes after them must exist."""
        for op, traced, start, end, per in self._pending:
            elapsed = (end - start) / per
            table = self.traced if traced else self.plain
            table.setdefault(op, []).append(elapsed * self.speed.scale(start, end))
            if not traced:
                self.unscaled.setdefault(op, []).append(elapsed)
        self._pending.clear()

    def median(self, op: str) -> float:
        return statistics.median(self.plain[op])

    def describe(self, lines: list[str]) -> None:
        for label, table in (("untraced", self.plain), ("traced", self.traced),
                             ("unscaled", self.unscaled)):
            for op, values in sorted(table.items()):
                q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                lines.append(
                    f"{label} {op}: n={len(values)} median={statistics.median(values) * 1e3:.3f} ms "
                    f"q1={q[0] * 1e3:.3f} q3={q[2] * 1e3:.3f} min={min(values) * 1e3:.3f}"
                )
        for op in sorted(set(self.plain) & set(self.traced)):
            over = statistics.median(self.traced[op]) - statistics.median(self.plain[op])
            lines.append(f"tracing overhead {op}: {over * 1e3:+.3f} ms per operation "
                         f"({over / statistics.median(self.plain[op]):+.1%})")


def tick_metrics(receipts, valid_committed: int, ticks: int) -> dict[str, tuple[float, str]]:
    lat = [r.commit_tick - r.submit_tick for r in receipts if r.flag == checks.VALID]
    return {
        "latency_ticks_p50": (float(percentile(lat, 50)), "ticks"),
        "latency_ticks_p99": (float(percentile(lat, 99)), "ticks"),
        "valid_tx_per_tick": (valid_committed / ticks, "tx/tick"),
        "stall_ticks": (float(checks.longest_stall(receipts)), "ticks"),
    }


def tick_layer_metrics(chain, ticks: int, view: int) -> dict[str, tuple[float, str]]:
    blocks = chain.blocks[1:]
    waits = [b.header.tick - tx.record.submit_tick for b in blocks for tx in b.transactions]
    return {
        "node.txs_per_block": (len(waits) / len(blocks), "tx/block"),
        "node.queue_wait_ticks_p50": (float(percentile(waits, 50)), "ticks"),
        "sim.ticks": (float(ticks), "ticks"),
        "pbft.view_changes": (float(view), "count"),
    }


def layer_metrics(
    tracer: Tracer, rounds: int, commit_span: str, commits: int
) -> dict[str, tuple[float, str]]:
    """Per-layer counts and self seconds per traced round."""
    total = tracer.summary()
    inside = tracer.summary(within=commit_span)
    out: dict[str, tuple[float, str]] = {}
    for name in LAYER_NAMES:
        rec = total.get(name, {"calls": 0, "s": 0.0})
        out[f"{name}.calls"] = (rec["calls"] / rounds, "count")
        out[f"{name}.s"] = (rec["s"] / rounds, "s")
    for metric, name in PER_COMMIT:
        out[metric] = (inside.get(name, {"calls": 0})["calls"] / commits, "count")
    return out


def describe_layers(tracer: Tracer, rounds: int, lines: list[str]) -> None:
    for name, rec in sorted(tracer.summary().items(), key=lambda kv: -kv[1]["s"]):
        lines.append(f"layer {name}: calls={rec['calls'] / rounds:.1f} "
                     f"self={rec['s'] / rounds * 1e3:.3f} ms per round")


@contextlib.contextmanager
def maybe_traced(tracer: Tracer | None, traced: bool):
    if tracer is not None and traced:
        with tracer.installed():
            yield
    else:
        yield


# -- cli-tall -----------------------------------------------------------------

TALL_HEIGHT = 300
TALL_WORKS = 10
TALL_GAP = 4  # ticks between set-up submissions; a commit takes 3 at delay 1
CLI_PAYLOAD = (4096, 65536)
COMMITS_PER_ROUND = 3
SETUPS = 9
PROBE_PAYLOADS = (b"probe revision 1\n", b"probe revision 2\n")


def cli(argv: list[str]) -> tuple[int, str, float]:
    """Run one CLI command in-process; returns (exit code, stdout, seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        rc = cli_main(argv)
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed


def init_tall_workspace(root: Path, seed: int) -> None:
    rc, _, _ = cli(["init", "--dir", str(root), "--nodes", "4", "--faulty", "1",
                    "--seed", str(seed)])
    if rc != 0:
        raise RuntimeError("init failed")


def build_tall_history(root: Path, seed: int):
    """Write a 300-block history into an initialised n=4, f=1 workspace.

    The history is one simulation over the workspace's own replicas with
    the network `commit` uses (1-tick delays), holding every revision in
    one run: one submission every TALL_GAP ticks to node 0, so each block
    holds one revision. Returns (simulation, report, model) where the
    model maps each work to its payload digests in revision order.
    """
    rng = random.Random(f"cli-tall/{seed}")
    sizes = ladder(rng, TALL_HEIGHT, *CLI_PAYLOAD)
    subs, model = [], {}
    for i, size in enumerate(sizes):
        work = f"work-{i % TALL_WORKS:02d}"
        data = rng.randbytes(size)
        subs.append(Submission(tick=i * TALL_GAP, node=0, work_id=work,
                               author_id="ada", payload=data))
        model.setdefault(work, []).append(checks.digest_hex(data))
    ws = Workspace.load(root)
    cfg = ws.config
    sim_config = SimConfig(
        n=cfg.n, f=cfg.f, seed=cfg.seed, timeout_ticks=cfg.timeout_ticks,
        max_batch=cfg.max_batch, max_ticks=TALL_GAP * TALL_HEIGHT + 50 * cfg.timeout_ticks,
    )
    with ws.lock():
        nodes = ws.load_all_nodes()
        sim = Simulation(sim_config, subs, nodes=nodes)
        report = sim.run()
        for node in nodes:
            ws.persist_new_blocks(node)
    return sim, report, model


def build_probe_workspace(root: Path) -> list[str]:
    """Fixed inputs, independent of the seed: two revisions of `probe`, then
    one byte of revision 1's blob flipped on node 0 (the replica `history`
    reads). Returns the model digests."""
    cli(["init", "--dir", str(root), "--nodes", "4", "--faulty", "1", "--seed", "1"])
    for i, data in enumerate(PROBE_PAYLOADS):
        path = root.parent / f"probe-{i}.bin"
        path.write_bytes(data)
        rc, _, _ = cli(["commit", "--dir", str(root), "--work", "probe", "--file", str(path),
                        "--author", "ada"])
        if rc != 0:
            raise RuntimeError("probe commit failed")
    model = [checks.digest_hex(d) for d in PROBE_PAYLOADS]
    cli(["tamper", "--dir", str(root), "--node", "0", "--blob", model[0],
         "--offset", "0", "--xor", "1"])
    return model


def snapshot(root: Path) -> tuple[set[Path], dict[Path, bytes]]:
    """A workspace's files: the paths under `blobs/` (content-addressed and
    never rewritten) and the bytes of every other file."""
    blobs, others = set(), {}
    for path in root.rglob("*"):
        if path.is_file():
            if "blobs" in path.relative_to(root).parts:
                blobs.add(path)
            else:
                others[path] = path.read_bytes()
    return blobs, others


def restore(root: Path, snap: tuple[set[Path], dict[Path, bytes]]) -> None:
    """Put a workspace back to a snapshot: delete files it did not have and
    rewrite every other file whose bytes changed. This writes a few hundred
    KiB, where copying the workspace would write 40 MiB every round."""
    blobs, others = snap
    for path in root.rglob("*"):
        if path.is_file() and path not in blobs and path not in others:
            path.unlink()
    for path, data in others.items():
        if not path.is_file() or path.read_bytes() != data:
            path.write_bytes(data)


def chain_files(root: Path) -> list[bytes]:
    return [(root / f"node-{i}" / "chain.jsonl").read_bytes() for i in range(4)]


def check_setup_chain(root: Path, model: dict[str, list[str]]) -> list[str]:
    """Every replica's chain file holds one revision per block, matching the
    model in order; read with `json`, not the program's parser."""
    problems = []
    files = chain_files(root)
    if len(set(files)) != 1:
        problems.append("set-up chain files differ between replicas")
    seen: dict[str, list[str]] = {}
    lines = files[0].decode().splitlines()
    for line in lines[1:]:
        txs = json.loads(line)["transactions"]
        if len(txs) != 1:
            problems.append(f"set-up block with {len(txs)} transactions")
            continue
        seen.setdefault(txs[0]["work_id"], []).append(txs[0]["content_hash"])
    if len(lines) != TALL_HEIGHT + 1 or seen != model:
        problems.append("set-up chain does not match the model")
    return problems


def run_cli_tall(
    seed: int, seconds: float, trace: bool, work_dir: Path, speed: SpeedTrace
) -> Result:
    """Set up a 300-block workspace, then time rounds of CLI commands on it.

    Every round starts from the set-up workspace restored byte for byte, so
    each round's commits land at heights 301-303 and every sample measures
    the same history length, however many rounds a run completes.
    """
    res = Result()
    timings = Timings(speed)
    root = work_dir / "tall"
    init_tall_workspace(root, seed)
    after_init = snapshot(root)
    build_tall_history(root, seed)
    # Each timed build starts from the initialised workspace with the
    # history's 40 MiB of blobs already on disk, so `ContentStore.put`
    # finds them and skips the write: the disk's write-back, which the
    # speed probe does not follow, stays out of `setup_s`.
    warm = (snapshot(root)[0], after_init[1])
    for _ in range(SETUPS):
        restore(root, warm)
        with timings.measure("setup"):
            sim, report, setup_model = build_tall_history(root, seed)
    probe_root = work_dir / "probe" / "ws"
    probe_root.parent.mkdir(parents=True)
    probe_model = build_probe_workspace(probe_root)
    res.check(check_setup_chain(root, setup_model))
    pristine = snapshot(root)
    valid = sum(1 for r in report.receipts if r.flag == checks.VALID)
    if report.stalled or not report.safety_ok or valid != TALL_HEIGHT:
        res.check(["set-up simulation stalled, lost safety or flagged a revision invalid"])
    ref = sim.nodes[0]
    ticks = tick_metrics(report.receipts, valid, report.ticks_elapsed)

    rng = random.Random(f"cli-tall/{seed}/loop")
    sizes = ladder(rng, 64, *CLI_PAYLOAD)
    works = sorted(setup_model)
    payload_path = work_dir / "payload.bin"
    show_path = work_dir / "show.bin"
    tracer = Tracer() if trace else None
    traced_rounds = rounds = 0
    start = time.perf_counter()
    while rounds < 1 + trace or time.perf_counter() - start < seconds:
        traced = trace and rounds % 2 == 1
        restore(root, pristine)
        model = {work: list(digests) for work, digests in setup_model.items()}
        height = TALL_HEIGHT
        with maybe_traced(tracer, traced):
            for k in range(COMMITS_PER_ROUND):
                n = rounds * COMMITS_PER_ROUND + k
                work = works[n % len(works)]
                data = rng.randbytes(sizes[n % len(sizes)])
                payload_path.write_bytes(data)
                with timings.measure("commit", traced), (
                    tracer.span("op.commit") if traced else contextlib.nullcontext()
                ):
                    rc, out, _ = cli(["commit", "--dir", str(root), "--work", work,
                                      "--file", str(payload_path), "--author", "ada"])
                height += 1
                model[work].append(checks.digest_hex(data))
                res.check(checks.check_commit(rc, out, work, height))
                with timings.measure("history", traced):
                    rc, out, _ = cli(["history", "--dir", str(root), "--work", work])
                res.check(checks.check_history(rc, out, work, model[work]))
                revision = len(model[work])
                show_path.unlink(missing_ok=True)
                with timings.measure("show", traced):
                    rc, _, _ = cli(["show", "--dir", str(root), "--work", work,
                                    "--revision", str(revision), "--out", str(show_path)])
                data_out = show_path.read_bytes() if show_path.exists() else None
                res.check(checks.check_show(rc, data_out, work, revision, model[work]))
            with timings.measure("verify", traced):
                rc, out, _ = cli(["verify", "--dir", str(root)])
            res.check(checks.check_verify_ok(rc, out))
            # Known fault: a damaged revision-1 blob makes history silently
            # drop revisions instead of failing. Counted failed each round.
            rc, out, _ = cli(["history", "--dir", str(probe_root), "--work", "probe"])
            if not checks.probe_history_ok(rc, out, probe_model):
                res.failed += 1
        if len(set(chain_files(root))) != 1:
            res.check(["chain files differ between replicas after a round"])
        res.attempted += 3 * COMMITS_PER_ROUND + 2
        rounds += 1
        if rounds == 1:
            peak_mb = peak_rss_mb()
        traced_rounds += traced

    res.check(tamper_probes(root, seed, model))
    res.lines.append(f"cli-tall: rounds={rounds} heights {TALL_HEIGHT + 1}-{height} "
                     f"probe failures={res.failed}")
    timings.settle()
    timings.describe(res.lines)
    timings.describe_speed(res.lines)
    if trace:
        res.metrics = layer_metrics(tracer, traced_rounds, "op.commit",
                                    traced_rounds * COMMITS_PER_ROUND)
        res.metrics.update(tick_layer_metrics(ref.chain, report.ticks_elapsed,
                                              ref.replica.current_view))
        describe_layers(tracer, traced_rounds, res.lines)
        res.tracer = tracer
    else:
        res.metrics = {
            "setup_s": (timings.median("setup"), "s"),
            "commit_ms": (timings.median("commit") * 1e3, "ms"),
            "history_ms": (timings.median("history") * 1e3, "ms"),
            "show_ms": (timings.median("show") * 1e3, "ms"),
            "verify_ms": (timings.median("verify") * 1e3, "ms"),
            **ticks,
            "peak_rss_mb": (peak_mb, "MiB"),
        }
    return res


def tamper_probes(root: Path, seed: int, model: dict[str, list[str]]) -> list[str]:
    """Flip a digit of a block's merkle root on one replica and a byte of a
    revision-1 blob on another; `verify` must name exactly those two."""
    rng = random.Random(f"cli-tall/{seed}/tamper")
    block_node, blob_node = rng.sample(range(4), 2)
    chain_path = root / f"node-{block_node}" / "chain.jsonl"
    lines = chain_path.read_bytes().split(b"\n")
    height = rng.randrange(1, TALL_HEIGHT + 1)
    line = lines[height]
    field_at = line.index(b'"merkle_root":"') + len(b'"merkle_root":"')
    digits = [field_at + i for i in range(64) if chr(line[field_at + i]).isdigit()]
    offset = rng.choice(digits)
    work = rng.choice(sorted(model))
    key = model[work][0]
    blob_height = next(
        i for i, raw in enumerate(lines[1:], start=1)
        if json.loads(raw)["transactions"][0]["content_hash"] == key
    )
    rc1, _, _ = cli(["tamper", "--dir", str(root), "--node", str(block_node), "--block",
                     str(height), "--offset", str(offset), "--xor", "1"])
    rc2, _, _ = cli(["tamper", "--dir", str(root), "--node", str(blob_node), "--blob", key,
                     "--offset", "0", "--xor", "1"])
    if rc1 or rc2:
        return ["tamper command failed"]
    rc, out, _ = cli(["verify", "--dir", str(root)])
    return checks.check_verify_tamper(rc, out, block_node, height, blob_node, key, blob_height)


# -- simulator workloads --------------------------------------------------------

SIM_QUERIES = 4  # works whose history and newest revision are read per run
SIM_SETUPS = 9


@dataclass(frozen=True)
class SimInputs:
    config: SimConfig
    submissions: list[Submission]
    digests: set[bytes]
    survivors: list[int]
    latency_floor: int | None
    min_view: int
    queries: list[str]


def sim_wide_inputs(seed: int) -> SimInputs:
    """n=13, f=4, fault-free: 2,000 submissions, two in every three ticks,
    to seeded nodes and to 200 works picked with Zipf(0.8) weights so about
    one in ten meets a write still in flight."""
    rng = random.Random(f"sim-wide/{seed}")
    names = [f"work-{r:03d}" for r in range(200)]
    weights = [1 / (r + 1) ** 0.8 for r in range(200)]
    sizes = ladder(rng, 2000, 512, 8192)
    subs = []
    for j in range(1000):
        for t in sorted(rng.sample(range(3), 2)):
            node = rng.randrange(13)
            subs.append(Submission(tick=3 * j + t + 1, node=node,
                                   work_id=rng.choices(names, weights)[0],
                                   author_id=f"author-{node}",
                                   payload=rng.randbytes(sizes[len(subs)])))
    config = SimConfig(n=13, f=4, seed=seed, delay_min=1, delay_max=3, max_batch=100,
                       max_ticks=3000 + 2000)
    return SimInputs(config, subs, {payload_digest(s.payload) for s in subs},
                     survivors=list(range(13)), latency_floor=3 * config.delay_min,
                     min_view=0, queries=rng.sample(names[:20], SIM_QUERIES))


TALL_CRASH_TICK = 100
# One block takes about 8 ticks to commit at delays 1..3. Pacing at 10
# keeps the queue short, so tail latency is set by the failover rather
# than by a seeded queue random walk and stays steady across seeds.
TALL_PACE = 10


def sim_tall_inputs(seed: int) -> SimInputs:
    """n=4, f=1, max_batch 1: 1,500 submissions, one every TALL_PACE ticks
    in turn to nodes 1-3, over 40 seeded works; primary node 0 crashes at
    tick 100."""
    rng = random.Random(f"sim-tall/{seed}")
    names = [f"work-{r:02d}" for r in range(40)]
    sizes = ladder(rng, 1500, 512, 8192)
    subs = [
        Submission(tick=1 + TALL_PACE * i, node=1 + i % 3, work_id=rng.choice(names),
                   author_id=f"author-{1 + i % 3}", payload=rng.randbytes(size))
        for i, size in enumerate(sizes)
    ]
    config = SimConfig(n=4, f=1, seed=seed, delay_min=1, delay_max=3, max_batch=1,
                       max_ticks=TALL_PACE * 1500 + 5000,
                       byzantine=((0, Crash(at_tick=TALL_CRASH_TICK)),))
    return SimInputs(config, subs, {payload_digest(s.payload) for s in subs},
                     survivors=[1, 2, 3], latency_floor=None, min_view=1,
                     queries=rng.sample(names, SIM_QUERIES))


def payload_digest(data: bytes) -> bytes:
    return bytes.fromhex(checks.digest_hex(data))


SIM_INPUTS = {"sim-wide": sim_wide_inputs, "sim-tall": sim_tall_inputs}


def run_sim(name: str, seed: int, seconds: float, trace: bool, speed: SpeedTrace) -> Result:
    res = Result()
    timings = Timings(speed)
    for _ in range(SIM_SETUPS):
        with timings.measure("setup"):
            inputs = SIM_INPUTS[name](seed)
    tracer = Tracer() if trace else None
    first = first_calls = None
    rounds = traced_rounds = committed_traced = 0
    start = time.perf_counter()
    while rounds < 1 + trace or time.perf_counter() - start < seconds:
        traced = trace and rounds % 2 == 1
        sim = Simulation(inputs.config, inputs.submissions)
        spans_before = tracer.span_count() if traced else 0
        with maybe_traced(tracer, traced):
            with timings.measure("commit", traced, per=len(inputs.submissions)), (
                tracer.span("op.commit") if traced else contextlib.nullcontext()
            ):
                report = sim.run()
            ref = sim.nodes[inputs.survivors[0]]
            problems, facts = checks.check_sim(
                sim.nodes, report.receipts, inputs.survivors, len(inputs.submissions),
                inputs.digests, inputs.latency_floor, inputs.min_view)
            res.check(problems)
            valid = sum(1 for f in facts["flags"].values() if f == checks.VALID)
            res.check(query_replica(ref, inputs, facts, timings, traced))
            checker = (lambda tx, policy=ref.policy: check_endorsement_policy(tx, policy))
            with timings.measure("verify", traced):
                verdicts = [node.verify(checker) for node in sim.nodes]
        if any(not rep.ok or audit for rep, audit in verdicts):
            res.check(["verify found defects on an untampered simulated replica"])
        if report.stalled or not report.safety_ok:
            res.check(["simulation stalled or reported a safety violation"])
        fingerprint = (
            ref.chain.tip.block_hash.hex(), report.ticks_elapsed,
            tuple(sorted(tick_metrics(report.receipts, valid, report.ticks_elapsed).items())),
        )
        if first is None:
            first = (fingerprint, valid, report, ref)
        elif fingerprint != first[0]:
            res.check(["two runs of one seed differ in chain tip or tick metrics"])
        res.attempted += len(inputs.submissions) + 2 * SIM_QUERIES + 1
        rounds += 1
        if rounds == 1:
            peak_mb = peak_rss_mb()
        if traced:
            traced_rounds += 1
            committed_traced += len(facts["txs"])
            calls = tracer.calls_since(spans_before)
            if first_calls is None:
                first_calls = calls
            res.check(checks.check_same_calls(first_calls, calls))

    fingerprint, valid, report, ref = first
    stale = sum(1 for r in report.receipts if r.flag == checks.STALE)
    res.lines.append(f"{name}: runs={rounds} tip={fingerprint[0]} ticks={fingerprint[1]} "
                     f"submissions={len(inputs.submissions)} stale={stale} "
                     f"height={ref.chain.height}")
    timings.settle()
    timings.describe(res.lines)
    timings.describe_speed(res.lines)
    if trace:
        res.metrics = layer_metrics(tracer, traced_rounds, "op.commit", committed_traced)
        res.metrics.update(tick_layer_metrics(ref.chain, report.ticks_elapsed,
                                              ref.replica.current_view))
        describe_layers(tracer, traced_rounds, res.lines)
        res.tracer = tracer
    else:
        res.metrics = {
            "setup_s": (timings.median("setup"), "s"),
            "commit_ms": (timings.median("commit") * 1e3, "ms"),
            "history_ms": (timings.median("history") * 1e3, "ms"),
            "show_ms": (timings.median("show") * 1e3, "ms"),
            "verify_ms": (timings.median("verify") * 1e3, "ms"),
            **tick_metrics(report.receipts, valid, report.ticks_elapsed),
            "peak_rss_mb": (peak_mb, "MiB"),
        }
    return res


def query_replica(ref, inputs: SimInputs, facts, timings: Timings, traced: bool) -> list[str]:
    """History and newest revision of the query works on the reference
    replica, checked against the replay."""
    expected: dict[str, list[bytes]] = {}
    for tx in facts["txs"]:
        if facts["flags"][tx.tx_id.hex()] == checks.VALID:
            expected.setdefault(tx.record.work_id, []).append(tx.record.content_hash)
    problems = []
    for work in inputs.queries:
        with timings.measure("history", traced):
            entries = ref.history(work)
        got = [(e.revision_number, e.content_hash) for e in entries]
        want = list(enumerate(expected.get(work, []), start=1))
        if got != want or not want:
            problems.append(f"history of {work}: {len(got)} entries, replay has {len(want)}")
            continue
        with timings.measure("show", traced):
            data = ref.show(work, len(want))
        if payload_digest(data) != want[-1][1]:
            problems.append(f"show {work} r{len(want)}: bytes differ from the submitted payload")
    return problems

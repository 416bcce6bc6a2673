"""Acceptance suite: one test per release criterion, run at full scale.

Each criterion prints a [PASS]/[FAIL] line (visible with pytest -s) and
fails loudly otherwise. Oracles used here are deliberately independent
re-implementations: a recursive Merkle reference, a from-scratch MVCC
head-state replay, and pairwise prefix comparison of committed digests.
"""

import functools
import hashlib
import itertools
import json
import random

import pytest

from revledger.cli import main
from revledger.digests import to_hex
from revledger.merkle import merkle_proof, merkle_root, verify_proof
from revledger.pbft import ConfigError, quorum_size
from revledger.sim import (
    Crash,
    EquivocatePrePrepare,
    SimConfig,
    Simulation,
    Submission,
    metrics,
)
from revledger.workspace import Workspace
from tests.test_merkle import ref_proof, ref_root


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {name}")
                raise
            print(f"[PASS] {name}")
            return result

        return wrapper

    return deco


# -- 1. tamper evidence sweep ---------------------------------------------------------


def _build_workspace(tmp_path, works=3, revisions=30):
    """Workspace with `revisions` total revisions batched `works` per block."""
    ws_dir = tmp_path / "ledger"
    assert main([
        "init", "--dir", str(ws_dir), "--nodes", "4", "--faulty", "1", "--seed", "77",
    ]) == 0
    ws = Workspace.load(ws_dir)
    rounds = revisions // works
    for r in range(rounds):
        # one batch per round: one new revision of every work, unique payloads
        subs = [
            Submission(
                tick=0,
                node=0,
                work_id=f"work-{w}",
                author_id=f"author-{w}",
                payload=f"round {r} of work {w}: unique body {r * works + w}".encode(),
            )
            for w in range(works)
        ]
        cfg = ws.config
        sim_config = SimConfig(
            n=cfg.n, f=cfg.f, seed=cfg.seed, delay_min=1, delay_max=1,
            timeout_ticks=cfg.timeout_ticks, max_batch=cfg.max_batch,
            endorsement_m=cfg.endorsement_m, max_ticks=50 * cfg.timeout_ticks,
        )
        with ws.lock():
            nodes = ws.load_all_nodes()
            sim = Simulation(sim_config, subs, nodes=nodes)
            report = sim.run()
            assert not report.stalled
            assert all(row.status == "CommittedValid" for row in report.receipts)
            for node in nodes:
                ws.persist_new_blocks(node)
    return ws


def _protected_files(ws):
    files = {}
    for i in range(ws.config.n):
        chain = ws.chain_path(i)
        files[chain] = chain.read_bytes()
        for blob in (ws.node_dir(i) / "blobs").rglob("*"):
            if blob.is_file():
                files[blob] = blob.read_bytes()
    return files


@criterion("1. tamper-evidence sweep: 100 corruptions, 0 false negatives")
def test_criterion_1_tamper_evidence(tmp_path, capsys):
    ws = _build_workspace(tmp_path)
    chain_lines = ws.chain_path(0).read_bytes().split(b"\n")[:-1]
    n_blocks = len(chain_lines)
    assert n_blocks == 11  # genesis + 10 blocks of 3 revisions

    # map height -> blob hashes introduced there (unique payloads, so 1:1)
    blob_at_height = {}
    for block in ws.read_chain(0).blocks[1:]:
        for tx in block.transactions:
            blob_at_height.setdefault(block.header.height, []).append(
                to_hex(tx.record.content_hash)
            )

    pristine = _protected_files(ws)
    rnd = random.Random(424242)
    checked = 0
    for _ in range(100):
        node = rnd.randrange(4)
        if rnd.random() < 0.5:
            height = rnd.randrange(n_blocks)
            line = ws.chain_path(node).read_bytes().split(b"\n")[height]
            offset = rnd.randrange(len(line))
            xor = rnd.randrange(1, 256)
            rc = main([
                "tamper", "--dir", str(ws.root), "--node", str(node),
                "--block", str(height), "--offset", str(offset), "--xor", str(xor),
            ])
            expected_height = height
        else:
            height = rnd.randrange(1, n_blocks)
            blob = rnd.choice(blob_at_height[height])
            blob_path = ws.node_dir(node) / "blobs" / blob[:2] / blob
            offset = rnd.randrange(len(blob_path.read_bytes()))
            xor = rnd.randrange(1, 256)
            rc = main([
                "tamper", "--dir", str(ws.root), "--node", str(node),
                "--blob", blob, "--offset", str(offset), "--xor", str(xor),
            ])
            expected_height = height
        assert rc == 0

        results = Workspace.load(ws.root).verify()
        assert not results[node].ok, "false negative: corruption not detected"
        earliest = min(d.height for d in results[node].defects)
        assert earliest == expected_height, (
            f"earliest defect at {earliest}, corrupted height {expected_height}"
        )
        for other in range(4):
            if other != node:
                assert results[other].ok, f"spurious defect on untouched node {other}"
        assert main(["verify", "--dir", str(ws.root)]) == 1

        for path, data in pristine.items():
            path.write_bytes(data)
        checked += 1
    capsys.readouterr()
    assert checked == 100
    assert main(["verify", "--dir", str(ws.root)]) == 0  # restored clean


# -- 2. safety under equivocation --------------------------------------------------------


def _prefix_identical(seq_a, seq_b):
    return all(a == b for a, b in zip(seq_a, seq_b))


@criterion("2. PBFT safety under equivocation across 100 seeds")
def test_criterion_2_equivocation_safety():
    for seed in range(100):
        config = SimConfig(
            n=4, f=1, seed=seed, delay_min=1, delay_max=3, timeout_ticks=30,
            max_ticks=2000, byzantine=((0, EquivocatePrePrepare()),),
        )
        workload = [
            Submission(
                tick=1 + i, node=1 + (i % 3), work_id=f"w{i}", author_id="a",
                payload=f"s{seed} p{i}".encode(),
            )
            for i in range(20)
        ]
        report = Simulation(config, workload).run()
        assert report.safety_ok, f"seed {seed}: safety invariant violated"
        honest = [report.committed_digests[i] for i in (1, 2, 3)]
        for a, b in itertools.combinations(honest, 2):
            assert _prefix_identical(a, b), f"seed {seed}: divergent honest prefixes"
        per_height = {}
        for seq in honest:
            for h, digest in enumerate(seq):
                per_height.setdefault(h, set()).add(digest)
        assert all(len(s) == 1 for s in per_height.values()), (
            f"seed {seed}: two digests committed at one height"
        )


# -- 3. view-change liveness ---------------------------------------------------------------


@criterion("3. view-change liveness: crash at tick 10, 50 seeds")
def test_criterion_3_view_change_liveness():
    timeout_ticks = 30
    for seed in range(50):
        config = SimConfig(
            n=4, f=1, seed=seed, delay_min=1, delay_max=3,
            timeout_ticks=timeout_ticks, max_ticks=50 * timeout_ticks,
            drop_prob=0.0, byzantine=((0, Crash(at_tick=10)),),
        )
        workload = [
            Submission(
                tick=5 + i, node=1 + (i % 3), work_id=f"w{i}", author_id="a",
                payload=f"s{seed} p{i}".encode(),
            )
            for i in range(10)
        ]
        report = Simulation(config, workload).run()
        assert not report.stalled, f"seed {seed}: stalled"
        assert all(
            row.status == "CommittedValid" for row in report.receipts
        ), f"seed {seed}: not all transactions committed"
        assert all(
            report.final_views[i] >= 1 for i in (1, 2, 3)
        ), f"seed {seed}: no view change happened"
        assert report.ticks_elapsed <= 50 * timeout_ticks


# -- 4. MVCC correctness ----------------------------------------------------------------------


def _oracle_replay(chain, blob_lookup):
    """Brute-force head-state oracle: re-derives per-tx validity and heads
    from scratch, sharing no code with the production validator."""
    heads = {}
    bitmaps = []
    for block in chain.blocks[1:]:
        flags = []
        for tx in block.transactions:
            rec = tx.record
            well_formed = (
                0 < len(rec.work_id.encode()) <= 256
                and b"\x00" not in rec.work_id.encode()
                and 0 < len(rec.author_id.encode()) <= 128
                and rec.revision_number == tx.read_version + 1
            )
            if not well_formed:
                flags.append("InvalidMalformed")
                continue
            if tx.read_version != heads.get(rec.work_id, 0):
                flags.append("InvalidStaleRead")
                continue
            data = blob_lookup(rec.content_hash)
            if data is None or hashlib.sha256(data).digest() != rec.content_hash:
                flags.append("InvalidMissingContent")
                continue
            flags.append("Valid")
            heads[rec.work_id] = rec.revision_number
        bitmaps.append(flags)
    return heads, bitmaps


@criterion("4. MVCC: one winner per conflict, oracle-verified over 1000 submissions")
def test_criterion_4_mvcc(tmp_path):
    # (a) two same-read-version transactions in one batch
    config = SimConfig(n=4, f=1, seed=5, delay_min=1, delay_max=1, max_ticks=500)
    workload = [
        Submission(tick=1, node=0, work_id="contested", author_id="ada", payload=b"draft A"),
        Submission(tick=1, node=0, work_id="contested", author_id="ben", payload=b"draft B"),
    ]
    sim = Simulation(config, workload)
    report = sim.run()
    flags = sorted(row.flag for row in report.receipts)
    assert flags == ["InvalidStaleRead", "Valid"]
    assert report.committed_heights[0] >= 1
    reference_decisions = sim.nodes[0].decisions
    for node in sim.nodes[1:]:
        assert node.decisions == reference_decisions, "honest decisions diverged"

    # (b) 1000 randomized submissions over 10 works, oracle replay must agree
    rnd = random.Random(1234)
    workload = []
    tick = 1
    for i in range(1000):
        if rnd.random() < 0.6:
            tick += 1
        workload.append(
            Submission(
                tick=tick,
                node=rnd.randrange(4),
                work_id=f"work-{rnd.randrange(10)}",
                author_id=f"author-{rnd.randrange(5)}",
                payload=f"submission {i} randomized body".encode(),
            )
        )
    config = SimConfig(n=4, f=1, seed=77, delay_min=1, delay_max=2, max_ticks=20000)
    sim = Simulation(config, workload)
    report = sim.run()
    assert not report.stalled
    assert report.safety_ok

    node0 = sim.nodes[0]

    def blob_lookup(digest):
        try:
            return node0.store.get(digest)
        except Exception:
            return None

    oracle_heads, oracle_bitmaps = _oracle_replay(node0.chain, blob_lookup)
    production_heads = {w: rev for w, (rev, _) in node0.heads.items()}
    assert production_heads == oracle_heads, "oracle disagrees with production heads"
    production_bitmaps = [[f.value for _, f in pairs] for pairs in node0.decisions]
    assert production_bitmaps == oracle_bitmaps, "oracle disagrees with validity bitmaps"
    for node in sim.nodes[1:]:
        assert node.decisions == node0.decisions

    # gap-free numbering: Valid revisions of each work are exactly 1..k
    valid_revs = {}
    for block in node0.chain.blocks[1:]:
        _, bm = oracle_heads, oracle_bitmaps[block.header.height - 1]
        for tx, flag in zip(block.transactions, bm):
            if flag == "Valid":
                valid_revs.setdefault(tx.record.work_id, []).append(
                    tx.record.revision_number
                )
    assert valid_revs, "nothing committed"
    for work, revs in valid_revs.items():
        assert revs == list(range(1, len(revs) + 1)), f"{work} numbering has gaps"


# -- 5. determinism ------------------------------------------------------------------------------


@criterion("5. determinism: bundled scenarios are byte-identical on re-run")
def test_criterion_5_determinism(tmp_path, capsys):
    for name in ("crash-primary", "equivocate", "fault-free"):
        r1 = tmp_path / f"{name}-1.json"
        r2 = tmp_path / f"{name}-2.json"
        assert main(["simulate", "--scenario", name, "--report", str(r1)]) == 0
        assert main(["simulate", "--scenario", name, "--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes(), f"{name}: report differs"
        chains1 = sorted((tmp_path / f"{name}-1.json.chains").iterdir())
        chains2 = sorted((tmp_path / f"{name}-2.json.chains").iterdir())
        assert [p.name for p in chains1] == [p.name for p in chains2]
        for p1, p2 in zip(chains1, chains2):
            assert p1.read_bytes() == p2.read_bytes(), f"{name}: {p1.name} differs"
    capsys.readouterr()


# -- 6. merkle oracle equivalence -----------------------------------------------------------------


@criterion("6. Merkle agrees with recursive reference; perturbations all fail")
def test_criterion_6_merkle_oracle():
    ids_by_count = {
        n: [hashlib.sha256(f"leaf-{n}-{i}".encode()).digest() for i in range(n)]
        for n in range(1, 17)
    }
    for n, ids in ids_by_count.items():
        assert merkle_root(ids) == ref_root(ids), f"root mismatch at {n} leaves"
        root = merkle_root(ids)
        for i in range(n):
            proof = merkle_proof(ids, i)
            assert proof == ref_proof(ids, i), f"proof mismatch at {n}/{i}"
            assert verify_proof(root, ids[i], i, n, proof)

    ids = ids_by_count[8]
    root = merkle_root(ids)
    for i in range(8):
        proof = merkle_proof(ids, i)
        for pos in range(32):
            bad = bytearray(ids[i])
            bad[pos] ^= 0x01
            assert not verify_proof(root, bytes(bad), i, 8, proof)
        for elem in range(len(proof)):
            for pos in range(32):
                bad_path = [bytearray(p) for p in proof]
                bad_path[elem][pos] ^= 0x01
                assert not verify_proof(root, ids[i], i, 8, [bytes(p) for p in bad_path])


# -- 7. metrics soundness ---------------------------------------------------------------------------


@criterion("7. metrics: latency floor 3 x delay_min and exact throughput arithmetic")
def test_criterion_7_metrics():
    config = SimConfig(n=4, f=1, seed=21, delay_min=2, delay_max=4, max_ticks=3000)
    workload = [
        Submission(tick=1 + 2 * i, node=i % 4, work_id=f"w{i}", author_id="a",
                   payload=f"m{i}".encode())
        for i in range(12)
    ]
    report = Simulation(config, workload).run()
    assert not report.stalled
    summary = metrics(report, config)
    assert summary["latency_count"] == 12
    assert all(lat >= 6 for lat in report.latencies), report.latencies
    committed_valid = report.validity_counts.get("Valid", 0)
    assert committed_valid == 12
    # exact: the reported rate is precisely committed / ticks, no drift
    assert report.throughput == committed_valid / report.ticks_elapsed
    assert round(report.throughput * report.ticks_elapsed) == committed_valid


# -- 8. quorum arithmetic ----------------------------------------------------------------------------


@criterion("8. quorum arithmetic: 3f+1 bound enforced, quorums intersect in f+1")
def test_criterion_8_quorum_arithmetic():
    for f in (1, 2, 3):
        with pytest.raises(ConfigError):
            quorum_size(3 * f, f)
        assert quorum_size(3 * f + 1, f) == 2 * f + 1
        n, q = 3 * f + 1, 2 * f + 1
        quorums = list(itertools.combinations(range(n), q))
        for a, b in itertools.combinations(quorums, 2):
            assert len(set(a) & set(b)) >= f + 1
        # and the bound is tight: some pair meets it exactly
        assert any(
            len(set(a) & set(b)) == f + 1
            for a, b in itertools.combinations(quorums, 2)
        )

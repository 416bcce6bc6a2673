import hashlib
import json
import re

import pytest

from revledger.cli import main, verify_workspace
from revledger.node import NodeRuntime
from revledger.sim import SimConfig, Simulation, Submission
from revledger.workspace import LOCK_NAME, Workspace


@pytest.fixture
def ws_dir(tmp_path):
    d = tmp_path / "ledger"
    assert main(["init", "--dir", str(d), "--nodes", "4", "--faulty", "1", "--seed", "5"]) == 0
    return d


def commit(ws_dir, tmp_path, work, name, text, author="ada", extra=()):
    f = tmp_path / name
    f.write_text(text)
    argv = ["commit", "--dir", str(ws_dir), "--work", work, "--file", str(f), "--author", author]
    argv += list(extra)
    return main(argv)


def workspace_snapshot(ws_dir):
    """Bytes of every chain file and blob (the tamper-protected surfaces)."""
    snap = {}
    for path in sorted(ws_dir.rglob("*")):
        if path.is_file() and (path.name == "chain.jsonl" or path.parent.parent.name == "blobs"):
            snap[str(path)] = path.read_bytes()
    return snap


# -- init -------------------------------------------------------------------------


def test_init_creates_per_node_genesis(ws_dir):
    for i in range(4):
        chain = (ws_dir / f"node-{i}" / "chain.jsonl").read_text().splitlines()
        assert len(chain) == 1  # genesis only
        assert (ws_dir / f"node-{i}" / "blobs").is_dir()
    config = json.loads((ws_dir / "config.json").read_text())
    assert config["n"] == 4 and config["f"] == 1


def test_init_rejects_insufficient_nodes(tmp_path, capsys):
    rc = main(["init", "--dir", str(tmp_path / "x"), "--nodes", "3", "--faulty", "1"])
    assert rc != 0
    assert "3f+1" in capsys.readouterr().err


def test_init_refuses_nonempty_dir(ws_dir, capsys):
    rc = main(["init", "--dir", str(ws_dir), "--nodes", "4", "--faulty", "1"])
    assert rc != 0
    # workspace untouched: still a valid 4-node layout
    assert Workspace.load(ws_dir).config.n == 4


# -- commit / history / show -------------------------------------------------------


def test_commit_sequence_and_history(ws_dir, tmp_path, capsys):
    assert commit(ws_dir, tmp_path, "novel-1", "a.txt", "first") == 0
    out1 = capsys.readouterr().out
    assert "flag=Valid" in out1 and "height=1" in out1
    assert commit(ws_dir, tmp_path, "novel-1", "b.txt", "second") == 0
    out2 = capsys.readouterr().out
    assert "height=2" in out2

    assert main(["history", "--dir", str(ws_dir), "--work", "novel-1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("revision=1 ") and lines[1].startswith("revision=2 ")


def test_history_unknown_work_empty_exit_zero(ws_dir, capsys):
    assert main(["history", "--dir", str(ws_dir), "--work", "ghost"]) == 0
    assert capsys.readouterr().out == ""


def test_show_round_trips_payload(ws_dir, tmp_path, capsys):
    commit(ws_dir, tmp_path, "novel-1", "a.txt", "original content here")
    capsys.readouterr()
    out_file = tmp_path / "extracted.txt"
    assert main([
        "show", "--dir", str(ws_dir), "--work", "novel-1",
        "--revision", "1", "--out", str(out_file),
    ]) == 0
    assert out_file.read_text() == "original content here"
    # hash printed by history matches the file's sha256
    main(["history", "--dir", str(ws_dir), "--work", "novel-1"])
    line = capsys.readouterr().out.splitlines()[-1]
    printed_hash = line.split("hash=")[1].split()[0]
    assert printed_hash == hashlib.sha256(b"original content here").hexdigest()


def test_show_unknown_revision_fails(ws_dir, tmp_path, capsys):
    commit(ws_dir, tmp_path, "novel-1", "a.txt", "x")
    rc = main([
        "show", "--dir", str(ws_dir), "--work", "novel-1",
        "--revision", "99", "--out", str(tmp_path / "nope"),
    ])
    assert rc != 0


def test_commit_unreadable_file_fails(ws_dir, tmp_path, capsys):
    rc = main([
        "commit", "--dir", str(ws_dir), "--work", "w", "--file",
        str(tmp_path / "missing.txt"), "--author", "ada",
    ])
    assert rc != 0


def test_commit_malformed_work_id_fails(ws_dir, tmp_path, capsys):
    rc = commit(ws_dir, tmp_path, "", "a.txt", "text")
    assert rc != 0


def test_also_file_double_submit_conflicts(ws_dir, tmp_path, capsys):
    f2 = tmp_path / "b.txt"
    f2.write_text("competing draft")
    rc = commit(ws_dir, tmp_path, "novel-1", "a.txt", "my draft", extra=["--also-file", str(f2)])
    out = capsys.readouterr().out
    assert rc == 1  # one of the two must be stale
    assert out.count("flag=Valid") == 1
    assert out.count("flag=InvalidStaleRead") == 1
    # exactly one revision landed
    main(["history", "--dir", str(ws_dir), "--work", "novel-1"])
    assert len(capsys.readouterr().out.strip().splitlines()) == 1


def test_replicas_converge_to_identical_chain_files(ws_dir, tmp_path):
    commit(ws_dir, tmp_path, "novel-1", "a.txt", "first")
    commit(ws_dir, tmp_path, "comic-1", "b.txt", "second")
    chains = [(ws_dir / f"node-{i}" / "chain.jsonl").read_bytes() for i in range(4)]
    assert len(set(chains)) == 1


def test_stalled_commit_prints_report_with_every_nodes_verify(tmp_path, capsys, monkeypatch):
    # A one-tick timeout fires before any proposal can gather its quorums,
    # so the replicas change views until commit's tick budget runs out.
    d = tmp_path / "ledger"
    argv = ["init", "--dir", str(d), "--nodes", "4", "--faulty", "1", "--timeout-ticks", "1"]
    assert main(argv) == 0
    capsys.readouterr()
    locked_during_verify = []
    verify = NodeRuntime.verify

    def verify_noting_the_lock(self, *args, **kwargs):
        locked_during_verify.append((d / LOCK_NAME).exists())
        return verify(self, *args, **kwargs)

    monkeypatch.setattr(NodeRuntime, "verify", verify_noting_the_lock)
    assert commit(d, tmp_path, "w", "a.txt", "x") == 1
    out, err = capsys.readouterr()
    assert "consensus stalled" in err
    doc = json.loads(out)
    assert doc["stalled"] is True
    assert doc["verify"] == {
        str(i): {"ok": True, "chain_defects": 0, "store_defects": 0} for i in range(4)
    }
    assert locked_during_verify == [True] * 4


def test_workspace_writes_no_heads_cache_and_ignores_a_stale_one(ws_dir, tmp_path, capsys):
    """Heads are rebuilt from the chain on every load: no heads.json is
    written, and a stale one left by an older version changes nothing."""
    assert not list(ws_dir.rglob("heads.json"))
    assert commit(ws_dir, tmp_path, "novel-1", "a.txt", "first") == 0
    assert not list(ws_dir.rglob("heads.json"))

    stale = json.dumps({"novel-1": {"content_hash": "00" * 32, "revision": 5}}) + "\n"
    for i in range(4):
        (ws_dir / f"node-{i}" / "heads.json").write_text(stale)
    capsys.readouterr()
    assert commit(ws_dir, tmp_path, "novel-1", "b.txt", "second") == 0
    assert "flag=Valid height=2" in capsys.readouterr().out
    assert main(["history", "--dir", str(ws_dir), "--work", "novel-1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [r.split()[0] for r in rows] == ["revision=1", "revision=2"]
    assert main(["verify", "--dir", str(ws_dir)]) == 0
    assert all((ws_dir / f"node-{i}" / "heads.json").read_text() == stale for i in range(4))


# -- verify / tamper -------------------------------------------------------------------


def test_verify_clean_workspace(ws_dir, tmp_path, capsys):
    commit(ws_dir, tmp_path, "novel-1", "a.txt", "first")
    capsys.readouterr()
    assert main(["verify", "--dir", str(ws_dir)]) == 0
    out = capsys.readouterr().out
    assert len(re.findall(r"^node \d+: ok$", out, re.M)) == 4


def test_tamper_block_detected_on_that_node_only(ws_dir, tmp_path, capsys):
    commit(ws_dir, tmp_path, "novel-1", "a.txt", "first")
    commit(ws_dir, tmp_path, "novel-1", "b.txt", "second")
    capsys.readouterr()
    rc = main([
        "tamper", "--dir", str(ws_dir), "--node", "2",
        "--block", "2", "--offset", "25", "--xor", "4",
    ])
    assert rc == 0
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    out = capsys.readouterr().out
    results = verify_workspace(Workspace.load(ws_dir))
    assert not results[2]["ok"]
    assert min(d.height for d in results[2]["defects"]) == 2
    for i in (0, 1, 3):
        assert results[i]["ok"]
    assert "node 2: defect" in out


def test_tamper_blob_then_show_fails_on_that_node(ws_dir, tmp_path, capsys):
    commit(ws_dir, tmp_path, "novel-1", "a.txt", "the payload")
    capsys.readouterr()
    blob_hash = hashlib.sha256(b"the payload").hexdigest()
    rc = main([
        "tamper", "--dir", str(ws_dir), "--node", "0",
        "--blob", blob_hash, "--offset", "0", "--xor", "255",
    ])
    assert rc == 0
    # node 0 serves queries; its blob is corrupt, so show must refuse
    rc = main([
        "show", "--dir", str(ws_dir), "--work", "novel-1",
        "--revision", "1", "--out", str(tmp_path / "out.bin"),
    ])
    assert rc != 0
    assert main(["verify", "--dir", str(ws_dir)]) == 1


def test_damaged_chain_fails_loudly_instead_of_dropping_revisions(ws_dir, tmp_path, capsys):
    """A parseable but structurally broken chain on node 0 makes history
    and commit refuse, instead of silently dropping revisions or letting
    node 0's heads drift from the other replicas'."""
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    commit(ws_dir, tmp_path, "w", "b.txt", "second")
    line = (ws_dir / "node-0" / "chain.jsonl").read_bytes().split(b"\n")[1]
    offset = line.index(b'"work_id":"w"') + len(b'"work_id":"')
    assert main([
        "tamper", "--dir", str(ws_dir), "--node", "0",
        "--block", "1", "--offset", str(offset), "--xor", "1",
    ]) == 0
    capsys.readouterr()
    verify_out = (
        "node 0: defect height=1 kind=tx-id-mismatch tx 0\n"
        "node 1: ok\nnode 2: ok\nnode 3: ok\n"
        "verify: tampering detected\n"
    )
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert capsys.readouterr().out == verify_out

    assert main(["history", "--dir", str(ws_dir), "--work", "w"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "tx-id-mismatch at height 1" in err
    assert main([
        "show", "--dir", str(ws_dir), "--work", "w",
        "--revision", "2", "--out", str(tmp_path / "out.bin"),
    ]) == 1
    assert "tx-id-mismatch at height 1" in capsys.readouterr().err

    before = {p: p.read_bytes() for p in ws_dir.rglob("*") if p.is_file()}
    assert commit(ws_dir, tmp_path, "w", "c.txt", "third") == 1
    assert "tx-id-mismatch at height 1" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in ws_dir.rglob("*") if p.is_file()} == before
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert capsys.readouterr().out == verify_out


def test_damaged_genesis_is_refused_at_load(ws_dir, tmp_path, capsys):
    """A flipped byte in node 0's genesis block hash makes commit refuse at
    once, instead of proposing on a tip the other replicas reject."""
    assert main([
        "tamper", "--dir", str(ws_dir), "--node", "0",
        "--block", "0", "--offset", "15", "--xor", "1",
    ]) == 0
    capsys.readouterr()
    verify_out = (
        "node 0: defect height=0 kind=block-hash-mismatch\n"
        "node 1: ok\nnode 2: ok\nnode 3: ok\n"
        "verify: tampering detected\n"
    )
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert capsys.readouterr().out == verify_out

    before = {p: p.read_bytes() for p in ws_dir.rglob("*") if p.is_file()}
    assert commit(ws_dir, tmp_path, "w", "a.txt", "first") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: node-0 chain is damaged (block-hash-mismatch at height 0)")
    assert {p: p.read_bytes() for p in ws_dir.rglob("*") if p.is_file()} == before
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert capsys.readouterr().out == verify_out


def test_verify_reports_oversized_proposer_id_as_unparseable(ws_dir, tmp_path, capsys):
    """A chain line whose proposer_id cannot be hashed is an unparseable
    record at its height, even with a later block linking to it."""
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    commit(ws_dir, tmp_path, "w", "b.txt", "second")
    path = ws_dir / "node-0" / "chain.jsonl"
    lines = path.read_text().splitlines()
    block = json.loads(lines[1])
    block["header"]["proposer_id"] = "p" * 300
    lines[1] = json.dumps(block, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert capsys.readouterr().out == (
        "node 0: defect height=1 kind=unparseable-record proposer_id exceeds 256 bytes\n"
        "node 1: ok\nnode 2: ok\nnode 3: ok\n"
        "verify: tampering detected\n"
    )


def test_verify_reports_unencodable_text_as_unparseable(ws_dir, tmp_path, capsys):
    """A chain line holding a lone surrogate in a string field is an
    unparseable record at its height; verify and history do not crash."""
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    path = ws_dir / "node-0" / "chain.jsonl"
    lines = path.read_text().splitlines()
    block = json.loads(lines[1])
    block["transactions"][0]["work_id"] = "\ud800"
    lines[1] = json.dumps(block, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert capsys.readouterr().out == (
        "node 0: defect height=1 kind=unparseable-record "
        "work_id is not encodable as UTF-8: surrogates not allowed\n"
        "node 1: ok\nnode 2: ok\nnode 3: ok\n"
        "verify: tampering detected\n"
    )
    assert main(["history", "--dir", str(ws_dir), "--work", "w"]) == 1
    assert "unparseable-record at height 1" in capsys.readouterr().err


def test_commit_rejects_a_work_id_that_cannot_be_encoded(ws_dir, tmp_path, capsys):
    """Undecodable argv bytes arrive as lone surrogates; commit rejects the
    id as malformed and writes nothing."""
    before = {p: p.read_bytes() for p in ws_dir.rglob("*") if p.is_file()}
    f = tmp_path / "a.txt"
    f.write_text("text")
    rc = main(["commit", "--dir", str(ws_dir), "--work", "\udcff", "--file", str(f),
               "--author", "ada"])
    assert rc == 1
    assert capsys.readouterr().out == f"rejected file={f} reason=InvalidMalformed\n"
    assert {p: p.read_bytes() for p in ws_dir.rglob("*") if p.is_file()} == before


def test_damaged_blob_changes_no_replicas_flags_or_heads(ws_dir, tmp_path, capsys):
    """A flipped byte in revision 1's blob on node 0 leaves node 0's
    history and heads as on every other replica; only reading or auditing
    those bytes fails."""
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    commit(ws_dir, tmp_path, "w", "b.txt", "second")
    blob_hash = hashlib.sha256(b"first").hexdigest()
    assert main([
        "tamper", "--dir", str(ws_dir), "--node", "0",
        "--blob", blob_hash, "--offset", "0", "--xor", "1",
    ]) == 0
    capsys.readouterr()
    assert main(["history", "--dir", str(ws_dir), "--work", "w"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["revision=1", "revision=2"]
    assert main([
        "show", "--dir", str(ws_dir), "--work", "w",
        "--revision", "1", "--out", str(tmp_path / "out.bin"),
    ]) == 1
    err = capsys.readouterr().err
    assert blob_hash in err and "does not match its key" in err

    assert commit(ws_dir, tmp_path, "w", "c.txt", "third") == 0
    assert "flag=Valid height=3" in capsys.readouterr().out
    ws = Workspace.load(ws_dir)
    assert [ws.load_node(i).heads["w"][0] for i in range(4)] == [3, 3, 3, 3]
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert f"node 0: defect height=1 kind=content-hash-mismatch tx 0: {blob_hash}" in (
        capsys.readouterr().out
    )


def test_deleted_block_line_is_refused_at_load(ws_dir, tmp_path, capsys):
    """A chain file missing one block line no longer loads: history, show
    and commit fail on the height check and change no byte."""
    for name, text in (("a.txt", "first"), ("b.txt", "second"), ("c.txt", "third")):
        commit(ws_dir, tmp_path, "w", name, text)
    path = ws_dir / "node-0" / "chain.jsonl"
    lines = path.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join(lines[:2] + lines[3:]))
    capsys.readouterr()
    before = {p: p.read_bytes() for p in ws_dir.rglob("*") if p.is_file()}
    assert main(["history", "--dir", str(ws_dir), "--work", "w"]) == 1
    assert "height-mismatch at height 2" in capsys.readouterr().err
    assert main([
        "show", "--dir", str(ws_dir), "--work", "w",
        "--revision", "1", "--out", str(tmp_path / "out.bin"),
    ]) == 1
    assert "height-mismatch at height 2" in capsys.readouterr().err
    assert commit(ws_dir, tmp_path, "w", "d.txt", "fourth") == 1
    assert "height-mismatch at height 2" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in ws_dir.rglob("*") if p.is_file()} == before


def test_tampered_block_hash_field_is_one_defect(ws_dir, tmp_path, capsys):
    """A flipped digit in block 1's stored block_hash is reported once, at
    height 1: block 2 links to the recomputed hash, which is intact."""
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    commit(ws_dir, tmp_path, "w", "b.txt", "second")
    line = (ws_dir / "node-0" / "chain.jsonl").read_bytes().split(b"\n")[1]
    start = line.index(b'"block_hash":"') + len(b'"block_hash":"')
    offset = next(i for i in range(start, start + 64) if chr(line[i]).isdigit())
    assert main([
        "tamper", "--dir", str(ws_dir), "--node", "0",
        "--block", "1", "--offset", str(offset), "--xor", "1",
    ]) == 0
    capsys.readouterr()
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert capsys.readouterr().out == (
        "node 0: defect height=1 kind=block-hash-mismatch\n"
        "node 1: ok\nnode 2: ok\nnode 3: ok\n"
        "verify: tampering detected\n"
    )


def test_tamper_xor_zero_is_refused(ws_dir, tmp_path, capsys):
    commit(ws_dir, tmp_path, "w", "a.txt", "x")
    before = workspace_snapshot(ws_dir)
    rc = main([
        "tamper", "--dir", str(ws_dir), "--node", "0",
        "--block", "1", "--offset", "0", "--xor", "0",
    ])
    assert rc != 0
    assert "warning" in capsys.readouterr().err
    assert workspace_snapshot(ws_dir) == before


def test_tamper_offset_out_of_range(ws_dir, tmp_path, capsys):
    commit(ws_dir, tmp_path, "w", "a.txt", "x")
    rc = main([
        "tamper", "--dir", str(ws_dir), "--node", "0",
        "--block", "1", "--offset", "100000", "--xor", "1",
    ])
    assert rc != 0


def test_deleted_node_dir_reported_others_verified(ws_dir, tmp_path, capsys):
    import shutil

    commit(ws_dir, tmp_path, "w", "a.txt", "x")
    shutil.rmtree(ws_dir / "node-3")
    capsys.readouterr()
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    out = capsys.readouterr().out
    assert "node 3: defect" in out and "missing-replica" in out
    assert len(re.findall(r"^node \d+: ok$", out, re.M)) == 3


def test_only_tamper_mutates_existing_bytes(ws_dir, tmp_path, capsys):
    commit(ws_dir, tmp_path, "novel-1", "a.txt", "first")
    before = workspace_snapshot(ws_dir)

    main(["history", "--dir", str(ws_dir), "--work", "novel-1"])
    main(["verify", "--dir", str(ws_dir)])
    main(["show", "--dir", str(ws_dir), "--work", "novel-1", "--revision", "1",
          "--out", str(tmp_path / "o.bin")])
    assert workspace_snapshot(ws_dir) == before

    commit(ws_dir, tmp_path, "novel-1", "b.txt", "second")
    after = workspace_snapshot(ws_dir)
    for path, data in before.items():
        assert after[path].startswith(data)  # strictly appended, never edited


def test_lock_excludes_concurrent_invocations(ws_dir, tmp_path, capsys):
    ws = Workspace.load(ws_dir)
    with ws.lock():
        rc = commit(ws_dir, tmp_path, "w", "a.txt", "x")
        assert rc != 0
        assert "locked" in capsys.readouterr().err
    assert commit(ws_dir, tmp_path, "w", "a.txt", "x") == 0


# -- simulate ---------------------------------------------------------------------------


def test_simulate_bundled_scenarios_exist(capsys, tmp_path):
    from revledger.cli import bundled_scenarios

    names = set(bundled_scenarios())
    assert {"crash-primary", "equivocate", "fault-free"} <= names


@pytest.mark.parametrize("name", ["crash-primary", "equivocate", "fault-free"])
def test_simulate_bundled_scenario_runs(name, tmp_path, capsys):
    report_path = tmp_path / f"{name}.json"
    rc = main(["simulate", "--scenario", name, "--report", str(report_path)])
    assert rc == 0
    doc = json.loads(report_path.read_text())
    assert doc["safety_ok"] is True
    assert doc["stalled"] is False
    if name == "crash-primary":
        assert any(v >= 1 for v in doc["final_views"].values())
    if name == "equivocate":
        assert doc["equivocation_evidence"]


def test_only_simulate_audits_the_replicas(ws_dir, tmp_path, monkeypatch, capsys):
    class Audited(Exception):
        pass

    def refuse(self, endorsement_checker=None):
        raise Audited

    monkeypatch.setattr(NodeRuntime, "verify", refuse)
    wl = [Submission(tick=1, node=0, work_id="w", author_id="ada", payload=b"x")]
    report = Simulation(SimConfig(n=4, f=1, seed=1), wl).run()
    assert report.receipts[0].status == "CommittedValid"
    assert commit(ws_dir, tmp_path, "w", "a.txt", "x") == 0
    report_path = tmp_path / "r.json"
    argv = ["simulate", "--scenario", "fault-free", "--report", str(report_path)]
    with pytest.raises(Audited):
        main(argv)

    monkeypatch.undo()
    assert main(argv) == 0
    doc = json.loads(report_path.read_text())
    assert sorted(doc["verify"]) == [str(i) for i in range(doc["n"])]
    assert all(v["ok"] for v in doc["verify"].values())


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["simulate", "--scenario", "equivocate", "--report", str(r1)]) == 0
    assert main(["simulate", "--scenario", "equivocate", "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    c1 = sorted((tmp_path / "r1.json.chains").iterdir())
    c2 = sorted((tmp_path / "r2.json.chains").iterdir())
    assert [p.read_bytes() for p in c1] == [p.read_bytes() for p in c2]


def test_simulate_parse_error_names_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"config": {\n  "n": 4,,\n}}')
    rc = main(["simulate", "--scenario", str(bad), "--report", str(tmp_path / "r.json")])
    assert rc != 0
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_simulate_unknown_scenario(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "no-such", "--report", str(tmp_path / "r.json")])
    assert rc != 0
    assert "crash-primary" in capsys.readouterr().err

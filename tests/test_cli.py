import argparse
import dataclasses
import hashlib
import json
import re

import pytest

from revledger.cli import main
from revledger.node import NodeRuntime
from revledger.pbft import ConfigError
from revledger.sim import (
    Crash, DelayAll, Partition, ScenarioError, SimConfig, Simulation, Submission,
)
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


def write_scenario(path, **config):
    path.write_text(json.dumps({
        "config": {"n": 4, "f": 1, "seed": 1, **config},
        "workload": [{"tick": 1, "node": 0, "work": "w"}],
    }))
    return path


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


@pytest.mark.parametrize(
    "flags, error",
    [
        (["--timeout-ticks", "0"], "timeout_ticks must be positive"),
        (["--seed", "-1"], "seed out of u64 range: -1"),
        (["--endorsements", "5"], "endorsement_m=5 outside 1..4"),
        (["--faulty", "-1"], "bad node count: f=-1 is negative"),
        (["--max-batch", "0"], "max_batch must be positive"),
    ],
)
def test_init_refuses_a_bad_config_before_writing(tmp_path, capsys, flags, error):
    target = tmp_path / "x"
    rc = main(["init", "--dir", str(target), "--nodes", "4", "--faulty", "1", *flags])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (1, "", f"error: {error}\n")
    assert not target.exists()


# One row per fact the group config checks: the config.json key, a value it
# refuses, the init flag that sets the key and the one message for it.
BAD_GROUP_VALUES = [
    ("n", 3, "--nodes", "bad node count: n=3 cannot tolerate f=1: need n >= 3f+1"),
    ("f", -1, "--faulty", "bad node count: f=-1 is negative"),
    ("seed", -1, "--seed", "seed out of u64 range: -1"),
    ("timeout_ticks", 0, "--timeout-ticks", "timeout_ticks must be positive"),
    ("max_batch", 0, "--max-batch", "max_batch must be positive"),
    ("endorsement_m", 5, "--endorsements", "endorsement_m=5 outside 1..4"),
]


@pytest.mark.parametrize(
    "key, value, flag, error", BAD_GROUP_VALUES, ids=[row[0] for row in BAD_GROUP_VALUES]
)
def test_init_a_scenario_and_config_json_refuse_a_value_alike(
    ws_dir, tmp_path, capsys, key, value, flag, error
):
    capsys.readouterr()
    target = tmp_path / "x"
    init = ["init", "--dir", str(target), "--nodes", "4", "--faulty", "1", flag, str(value)]
    scenario = write_scenario(tmp_path / "bad.json", **{key: value})
    config = json.loads((ws_dir / "config.json").read_text())
    (ws_dir / "config.json").write_text(json.dumps({**config, key: value}))
    errors = []
    for argv in (
        init,
        ["simulate", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")],
        ["history", "--dir", str(ws_dir), "--work", "w"],
    ):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        errors.append(err)
    assert errors == [
        f"error: {error}\n",
        f"error: scenario parse failed: {error}\n",
        f"error: unreadable workspace config: {error}\n",
    ]
    assert not target.exists()


def test_load_refuses_a_hand_edited_bad_config(ws_dir, capsys):
    config = json.loads((ws_dir / "config.json").read_text())
    (ws_dir / "config.json").write_text(json.dumps({**config, "endorsement_m": 0}))
    capsys.readouterr()
    assert main(["history", "--dir", str(ws_dir), "--work", "w"]) == 1
    assert capsys.readouterr().err == (
        "error: unreadable workspace config: endorsement_m=0 outside 1..4\n"
    )


def test_load_refuses_a_hand_edited_zero_max_batch(ws_dir, capsys):
    config = json.loads((ws_dir / "config.json").read_text())
    (ws_dir / "config.json").write_text(json.dumps({**config, "max_batch": 0}))
    capsys.readouterr()
    assert main(["history", "--dir", str(ws_dir), "--work", "w"]) == 1
    assert capsys.readouterr().err == (
        "error: unreadable workspace config: max_batch must be positive\n"
    )


@pytest.mark.parametrize(
    "key, value",
    [("timeout_ticks", 2.5), ("n", 4.0), ("endorsement_m", True), ("max_batch", "100")],
)
def test_load_refuses_a_hand_edited_non_integer(ws_dir, capsys, key, value):
    config = json.loads((ws_dir / "config.json").read_text())
    (ws_dir / "config.json").write_text(json.dumps({**config, key: value}))
    capsys.readouterr()
    assert main(["history", "--dir", str(ws_dir), "--work", "w"]) == 1
    assert capsys.readouterr().err == f"error: unreadable workspace config: {key} must be an int\n"


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


def test_show_into_a_missing_directory_is_one_error_line(ws_dir, tmp_path, capsys):
    commit(ws_dir, tmp_path, "novel-1", "a.txt", "x")
    out_file = tmp_path / "absent" / "out.bin"
    capsys.readouterr()
    rc = main([
        "show", "--dir", str(ws_dir), "--work", "novel-1",
        "--revision", "1", "--out", str(out_file),
    ])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write {out_file}: ")
    assert not out_file.parent.exists()


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


@pytest.mark.parametrize("same_path", [True, False], ids=["same-file", "equal-bytes"])
def test_also_file_repeating_an_earlier_files_bytes_is_refused(
    ws_dir, tmp_path, capsys, same_path
):
    """A file whose bytes equal an earlier file's of the same commit would be
    the same transaction: the commit is refused, naming both paths, before
    the workspace lock is taken, and nothing is written."""
    (tmp_path / "b.txt").write_text("draft")
    repeat = tmp_path / ("a.txt" if same_path else "b.txt")
    (ws_dir / LOCK_NAME).write_text("held")  # a lock taken first would refuse otherwise
    before = {p: p.read_bytes() for p in ws_dir.rglob("*") if p.is_file()}
    rc = commit(ws_dir, tmp_path, "w", "a.txt", "draft", extra=["--also-file", str(repeat)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {repeat} holds the same bytes as {tmp_path / 'a.txt'}; nothing was committed\n"
    )
    assert {p: p.read_bytes() for p in ws_dir.rglob("*") if p.is_file()} == before


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
    results = Workspace.load(ws_dir).verify()
    assert not results[2].ok
    assert min(d.height for d in results[2].defects) == 2
    for i in (0, 1, 3):
        assert results[i].ok
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


def edit_block(ws_dir, height, change):
    """Rewrite one line of node 0's chain file through `change`."""
    path = ws_dir / "node-0" / "chain.jsonl"
    lines = path.read_text().splitlines()
    block = json.loads(lines[height])
    change(block)
    lines[height] = json.dumps(block, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")


def _spaces_for_last_hex_pair(block, field):
    obj = block["header"] if field in block["header"] else block["transactions"][0]
    obj[field] = obj[field][:-2] + "  "


@pytest.mark.parametrize("field", ["prev_hash", "content_hash"])
def test_a_digest_short_of_32_bytes_is_unparseable(ws_dir, tmp_path, capsys, field):
    """bytes.fromhex skips whitespace, so a digest field ending in two
    spaces parses to 31 bytes; it is an unparseable record at its height,
    and no command crashes on it."""
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    edit_block(ws_dir, 1, lambda block: _spaces_for_last_hex_pair(block, field))
    capsys.readouterr()
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert capsys.readouterr().out == (
        f"node 0: defect height=1 kind=unparseable-record {field}: "
        "digest hex must be 64 hex digits\n"
        "node 1: ok\nnode 2: ok\nnode 3: ok\n"
        "verify: tampering detected\n"
    )
    assert main(["history", "--dir", str(ws_dir), "--work", "w"]) == 1
    assert "unparseable-record at height 1" in capsys.readouterr().err
    assert main([
        "show", "--dir", str(ws_dir), "--work", "w",
        "--revision", "1", "--out", str(tmp_path / "out.bin"),
    ]) == 1
    assert "unparseable-record at height 1" in capsys.readouterr().err
    before = {p: p.read_bytes() for p in ws_dir.rglob("*") if p.is_file()}
    assert commit(ws_dir, tmp_path, "w", "b.txt", "second") == 1
    assert "unparseable-record at height 1" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in ws_dir.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("author_id", "", "author_id must be non-empty"),
        ("revision_number", 0, "revision_number must be >= 1"),
        ("work_id", "w\x00", "work_id must not contain NUL bytes"),
        ("work_id", "w" * 257, "work_id exceeds 256 bytes"),
    ],
    ids=["empty-author", "revision-0", "nul-in-work", "long-work"],
)
def test_verify_reports_an_on_disk_record_out_of_bounds(
    ws_dir, tmp_path, capsys, key, value, message
):
    """A parseable record that breaks a bound is record-malformed at its
    height; the block after it, which still links to it, is not flagged."""
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    commit(ws_dir, tmp_path, "w", "b.txt", "second")
    edit_block(ws_dir, 1, lambda b: b["transactions"][0].update({key: value}))
    capsys.readouterr()
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert capsys.readouterr().out == (
        f"node 0: defect height=1 kind=record-malformed tx 0: {message}\n"
        "node 1: ok\nnode 2: ok\nnode 3: ok\n"
        "verify: tampering detected\n"
    )
    assert main(["history", "--dir", str(ws_dir), "--work", "w"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "record-malformed at height 1" in err


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


def test_tamper_messages_are_pinned(ws_dir, tmp_path, capsys):
    commit(ws_dir, tmp_path, "w", "a.txt", "the payload")
    blob = hashlib.sha256(b"the payload").hexdigest()
    base = ["tamper", "--dir", str(ws_dir), "--node", "1", "--xor", "5"]
    capsys.readouterr()
    runs = [
        (["--block", "1", "--offset", "40"], 0,
         "tampered node=1 block=1 offset=40 xor=0x5 byte 0x38 -> 0x3d\n", ""),
        (["--blob", blob, "--offset", "3"], 0,
         f"tampered node=1 blob={blob[:12]} offset=3 xor=0x5 byte 0x20 -> 0x25\n", ""),
        (["--block", "2", "--offset", "0"], 1,
         "", "error: block 2 out of range (chain has 2 blocks)\n"),
        (["--block", "0", "--offset", "999"], 1,
         "", "error: offset 999 out of range for block record (336 bytes)\n"),
        (["--blob", blob, "--offset", "11"], 1,
         "", f"error: offset 11 out of range for node=1 blob={blob[:12]} (11 bytes)\n"),
    ]
    for flags, rc, out, err in runs:
        assert (main(base + flags), *capsys.readouterr()) == (rc, out, err)


MISSING_BLOB = "00" * 32


@pytest.mark.parametrize(
    "flags, err",
    [
        (["--block", "1", "--xor", "256"], "xor value must be in 1..255"),
        (["--block", "1", "--xor", "-1"], "xor value must be in 1..255"),
        (["--xor", "1"], "choose exactly one of --block or --blob"),
        (["--block", "1", "--blob", MISSING_BLOB, "--xor", "1"],
         "choose exactly one of --block or --blob"),
        (["--node", "4", "--block", "1", "--xor", "1"], "node 4 outside 0..3"),
        (["--node", "-1", "--block", "1", "--xor", "1"], "node -1 outside 0..3"),
        (["--blob", "abc", "--xor", "1"], "bad blob hash: digest hex must be 64 chars, got 3"),
        (["--blob", "A" * 64, "--xor", "1"],
         "bad blob hash: digest hex must be lowercase"),
        (["--blob", MISSING_BLOB, "--xor", "1"], f"node 0 has no blob {MISSING_BLOB}"),
    ],
    ids=["xor-256", "xor-negative", "neither", "both", "node-past-n", "node-negative",
         "short-hash", "uppercase-hash", "absent-blob"],
)
def test_tamper_refusals_change_no_byte(ws_dir, tmp_path, capsys, flags, err):
    commit(ws_dir, tmp_path, "w", "a.txt", "x")
    before = {p: p.read_bytes() for p in ws_dir.rglob("*") if p.is_file()}
    capsys.readouterr()
    argv = ["tamper", "--dir", str(ws_dir), "--node", "0", "--offset", "0"] + flags
    assert (main(argv), *capsys.readouterr()) == (1, "", f"error: {err}\n")
    assert {p: p.read_bytes() for p in ws_dir.rglob("*") if p.is_file()} == before


def test_tamper_refuses_where_it_cannot_reach_the_replica(ws_dir, tmp_path, capsys):
    """No workspace, a held lock, and a missing chain file: exit 1 with the
    reason, and no byte changed."""
    argv = ["--node", "2", "--block", "0", "--offset", "0", "--xor", "1"]
    nowhere = tmp_path / "nowhere"
    capsys.readouterr()
    assert (main(["tamper", "--dir", str(nowhere)] + argv), *capsys.readouterr()) == (
        1, "", f"error: {nowhere} is not a ledger workspace (no config.json)\n"
    )
    chain = ws_dir / "node-2" / "chain.jsonl"
    chain.unlink()
    before = {p: p.read_bytes() for p in ws_dir.rglob("*") if p.is_file()}
    assert (main(["tamper", "--dir", str(ws_dir)] + argv), *capsys.readouterr()) == (
        1, "", f"error: {chain} does not exist\n"
    )
    with Workspace.load(ws_dir).lock():
        rc, out, err = main(["tamper", "--dir", str(ws_dir)] + argv), *capsys.readouterr()
    assert (rc, out) == (1, "") and err.startswith("error: workspace is locked")
    assert {p: p.read_bytes() for p in ws_dir.rglob("*") if p.is_file()} == before


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


def test_an_empty_chain_file_has_no_genesis(ws_dir, tmp_path, capsys):
    """verify reports node 0's empty chain file as missing its genesis, and
    history refuses to read it."""
    commit(ws_dir, tmp_path, "w", "a.txt", "x")
    (ws_dir / "node-0" / "chain.jsonl").write_bytes(b"")
    capsys.readouterr()
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert capsys.readouterr().out == (
        "node 0: defect height=0 kind=missing-genesis empty chain file\n"
        "node 1: ok\nnode 2: ok\nnode 3: ok\n"
        "verify: tampering detected\n"
    )
    assert main(["history", "--dir", str(ws_dir), "--work", "w"]) == 1
    assert capsys.readouterr() == ("", (
        "error: node-0 chain is damaged (missing-genesis at height 0); "
        "run the verify command for details\n"
    ))


def test_lock_excludes_concurrent_invocations(ws_dir, tmp_path, capsys):
    ws = Workspace.load(ws_dir)
    with ws.lock():
        rc = commit(ws_dir, tmp_path, "w", "a.txt", "x")
        assert rc != 0
        assert "locked" in capsys.readouterr().err
    assert commit(ws_dir, tmp_path, "w", "a.txt", "x") == 0


# -- unusable paths, config or store ------------------------------------------------


def regular_file(tmp_path):
    path = tmp_path / "F"
    path.write_bytes(b"a regular file")
    return path


def new_workspace(tmp_path):
    d = tmp_path / "ledger"
    assert main(["init", "--dir", str(d), "--nodes", "4", "--faulty", "1"]) == 0
    return d


def init_in(directory):
    return ["init", "--dir", str(directory), "--nodes", "4", "--faulty", "1"]


def config_replaced(tmp_path, replace):
    d = new_workspace(tmp_path)
    (d / "config.json").unlink()
    replace(d / "config.json")
    return d


def verify_with_undecodable_config(tmp_path):
    d = config_replaced(tmp_path, lambda path: path.write_bytes(b"\xff"))
    return ["verify", "--dir", str(d)]


def history_with_config_directory(tmp_path):
    d = config_replaced(tmp_path, lambda path: path.mkdir())
    return ["history", "--dir", str(d), "--work", "w"]


def undecodable_scenario(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_bytes(b"\xff")
    return ["simulate", "--scenario", str(scenario), "--report", str(tmp_path / "r.json")]


def commit_with_blobs_a_file(tmp_path):
    d = new_workspace(tmp_path)
    blobs = d / "node-1" / "blobs"
    blobs.rmdir()
    blobs.write_bytes(b"")
    payload = tmp_path / "a.txt"
    payload.write_text("x")
    return ["commit", "--dir", str(d), "--work", "w", "--file", str(payload), "--author", "ada"]


def tamper_with_chain_a_directory(tmp_path):
    d = new_workspace(tmp_path)
    chain = d / "node-2" / "chain.jsonl"
    chain.unlink()
    chain.mkdir()
    return ["tamper", "--dir", str(d), "--node", "2", "--block", "0", "--offset", "0",
            "--xor", "1"]


UNUSABLE = {
    "init-in-a-file": lambda t: init_in(regular_file(t)),
    "init-under-a-file": lambda t: init_in(regular_file(t) / "sub"),
    "config-not-utf8": verify_with_undecodable_config,
    "config-a-directory": history_with_config_directory,
    "scenario-a-directory": lambda t: ["simulate", "--scenario", str(t), "--report",
                                       str(t / "r.json")],
    "scenario-not-utf8": undecodable_scenario,
    "report-under-a-file": lambda t: ["simulate", "--scenario", "fault-free", "--report",
                                      str(regular_file(t) / "r.json")],
    "chains-dir-a-file": lambda t: ["simulate", "--scenario", "fault-free", "--report",
                                    str(t / "r.json"), "--chains-dir", str(regular_file(t))],
    "commit-blobs-a-file": commit_with_blobs_a_file,
    "tamper-chain-a-directory": tamper_with_chain_a_directory,
}


@pytest.mark.parametrize("make_argv", UNUSABLE.values(), ids=UNUSABLE.keys())
def test_an_unusable_path_config_or_store_is_one_error_line(tmp_path, capsys, make_argv):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not list(tmp_path.rglob(LOCK_NAME))


def test_simulate_that_cannot_make_its_chains_directory_leaves_no_report(tmp_path, capsys):
    chains = regular_file(tmp_path)
    report = tmp_path / "r.json"
    argv = ["simulate", "--scenario", "fault-free", "--report", str(report),
            "--chains-dir", str(chains)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: [Errno 17] File exists: '{chains}'\n")
    assert not report.exists()


def test_main_builds_one_parser_for_every_call(tmp_path, capsys, monkeypatch):
    """Each call still parses into a fresh namespace: the second reads its own --dir."""
    from revledger import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    for name in ("a", "b"):
        assert main(["history", "--dir", str(tmp_path / name), "--work", "w"]) == 1
        assert f"{tmp_path / name} is not a ledger workspace" in capsys.readouterr().err
    assert built.count("revledger") == 1


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


@pytest.mark.parametrize(
    "key, value, error",
    [
        ("max_batch", 0, "max_batch must be positive"),
        ("seed", -5, "seed out of u64 range: -5"),
        ("seed", 2**64, f"seed out of u64 range: {2**64}"),
        ("timeout_ticks", 0, "timeout_ticks must be positive"),
        ("endorsement_m", 0, "endorsement_m=0 outside 1..4"),
        ("endorsement_m", 9, "endorsement_m=9 outside 1..4"),
        ("timeout_ticks", 2.5, "timeout_ticks must be an int"),
        ("n", True, "n must be an int"),
        ("delay_max", 2.5, "delay_max must be an int"),
        ("max_ticks", -1, "max_ticks must be >= 1"),
        ("max_ticks", 0, "max_ticks must be >= 1"),
        ("max_ticks", "x", "max_ticks must be an int"),
    ],
    ids=["max_batch=0", "seed=-5", "seed=2**64", "timeout=0", "endorsements=0", "endorsements=9",
         "timeout=2.5", "n=true", "delay_max=2.5", "max_ticks=-1", "max_ticks=0", "max_ticks=x"],
)
def test_simulate_refuses_a_bad_group_config(tmp_path, capsys, key, value, error):
    scenario = write_scenario(tmp_path / "bad.json", **{key: value})
    report = tmp_path / "r.json"
    rc = main(["simulate", "--scenario", str(scenario), "--report", str(report)])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (1, "", f"error: scenario parse failed: {error}\n")
    assert not report.exists()


@pytest.mark.parametrize(
    "entry, error",
    [
        ({"tick": "5"}, "workload tick must be an int"),
        ({"node": "0"}, "workload node must be an int"),
        ({"tick": 2.5}, "workload tick must be an int"),
        ({"node": True}, "workload node must be an int"),
        ({"node": 7}, "submission targets unknown node 7"),
        ({"tick": 0}, "workload submit ticks must be non-decreasing"),
    ],
    ids=["tick=str", "node=str", "tick=2.5", "node=true", "node=7-of-4", "tick-before-first"],
)
def test_simulate_refuses_a_non_integer_workload_field(tmp_path, capsys, entry, error):
    """The second entry is changed: its int fields, its node and its tick
    against the first entry's are checked when the Simulation is built."""
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({
        "config": {"n": 4, "f": 1, "seed": 1},
        "workload": [{"tick": 1, "node": 0, "work": "w"},
                     {"tick": 1, "node": 0, "work": "w", **entry}],
    }))
    report = tmp_path / "r.json"
    rc = main(["simulate", "--scenario", str(scenario), "--report", str(report)])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (1, "", f"error: scenario parse failed: {error}\n")
    assert not report.exists()


@pytest.mark.parametrize(
    "bounds, error",
    [
        ({"start": "x"}, "partition start must be an int"),
        ({"start": "5"}, "partition start must be an int"),
        ({"end": 2.5}, "partition end must be an int"),
        ({"end": True}, "partition end must be an int"),
    ],
    ids=["start=x", "start=str", "end=2.5", "end=true"],
)
def test_simulate_refuses_a_non_integer_partition_bound(tmp_path, capsys, bounds, error):
    partition = {"start": 1, "end": 9, "group": [0], **bounds}
    scenario = write_scenario(tmp_path / "bad.json", partitions=[partition])
    report = tmp_path / "r.json"
    rc = main(["simulate", "--scenario", str(scenario), "--report", str(report)])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (1, "", f"error: scenario parse failed: {error}\n")
    assert not report.exists()


def simulate_refuses(tmp_path, capsys, doc) -> str:
    """Run `simulate` on the scenario `doc`, check that it exits 1 with one
    error line, no traceback and no report, and return that line's message."""
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    report = tmp_path / "r.json"
    rc = main(["simulate", "--scenario", str(scenario), "--report", str(report)])
    out, err = capsys.readouterr()
    assert (rc, out, err.count("\n")) == (1, "", 1)
    assert err.startswith("error: scenario parse failed: ")
    assert not report.exists()
    return err[len("error: scenario parse failed: ") : -1]


def test_simulate_rejects_a_submission_past_u64_ticks(tmp_path, capsys):
    """No tick past u64 can be reached: a max_ticks beyond it is refused,
    so no submission or block is ever made there."""
    doc = {
        "config": {"n": 4, "f": 1, "seed": 1, "max_ticks": 2**64 + 5},
        "workload": [{"tick": 1, "node": 0, "work": "w"}, {"tick": 2**64, "node": 0, "work": "w"}],
    }
    assert simulate_refuses(tmp_path, capsys, doc) == f"max_ticks out of u64 range: {2**64 + 5}"


def test_simulate_runs_to_the_last_u64_tick(tmp_path, capsys):
    """A submission at the last u64 tick forwards past it: the run ends
    there with the submission pending, and no tick overflows a header."""
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({
        "config": {"n": 4, "f": 1, "seed": 1, "max_ticks": 2**64 - 1},
        "workload": [{"tick": 2**64 - 1, "node": 1, "work": "w"}],
    }))
    report = tmp_path / "r.json"
    assert main(["simulate", "--scenario", str(scenario), "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert (doc["ticks_elapsed"], doc["stalled"]) == (2**64 - 1, True)
    assert [r["status"] for r in doc["receipts"]] == ["Pending"]


# Each int field of every record a scenario builds, with the scenario that
# holds `value` there; SimConfig's field names are its config keys.
def _scenario_with(record, name, value):
    config = {"n": 4, "f": 1, "seed": 1}
    entry = {"tick": 1, "node": 0, "work": "w"}
    if record is SimConfig:
        config[name] = value
    elif record is Partition:
        config["partitions"] = [{"start": 1, "end": 9, "group": [0], name: value}]
    elif record is Submission:
        entry[name] = value
    else:
        behavior = {Crash: {"behavior": "crash", "at_tick": 5},
                    DelayAll: {"behavior": "delay_all", "extra": 2}}[record]
        config["byzantine"] = [{"node": 1, **behavior, name: value}]
    return {"config": config, "workload": [entry]}


PREFIX = {SimConfig: "", Partition: "partition ", Crash: "crash ", DelayAll: "delay_all ",
          Submission: "workload "}
FIELD_REFUSALS = [
    (record, spec.name, value, f"{PREFIX[record]}{spec.name} must be an int")
    for record in PREFIX
    for spec in dataclasses.fields(record)
    if spec.type == "int"
    for value in (True, "1", 1.5)
] + [(SimConfig, "drop_prob", True, "drop_prob must be a number in [0, 1]")] + [
    (Submission, key, value, f"workload {key}_id must be a string")
    for key in ("work", "author")
    for value in (5, ["ada"])
]


@pytest.mark.parametrize(
    "record, name, value, error",
    FIELD_REFUSALS,
    ids=[f"{r.__name__}.{name}={value!r}" for r, name, value, _ in FIELD_REFUSALS],
)
def test_simulate_refuses_a_mistyped_field_of_any_record(tmp_path, capsys, record, name, value,
                                                          error):
    assert simulate_refuses(tmp_path, capsys, _scenario_with(record, name, value)) == error


def _config(**fields):
    return SimConfig(n=4, f=1, seed=1, **fields)


# Inputs the simulator once ran as if they held no fault, or died on: the
# scenario change, the same value built directly, and the refusal.
MISREAD_INPUTS = [
    ("partition-group-strings", {"partitions": [{"start": 1, "end": 9, "group": ["0", "1"]}]},
     lambda: _config(partitions=(Partition(1, 9, frozenset({"0", "1"})),)), "outside 0..3"),
    ("partition-group-9", {"partitions": [{"start": 1, "end": 9, "group": [9]}]},
     lambda: _config(partitions=(Partition(1, 9, frozenset({9})),)), "node id 9 outside 0..3"),
    ("byzantine-node-true", {"byzantine": [{"node": True, "behavior": "crash", "at_tick": 1}]},
     lambda: _config(byzantine=((True, Crash(at_tick=1)),)), "node id True outside 0..3"),
    ("at-tick-true", {"byzantine": [{"node": 1, "behavior": "crash", "at_tick": True}]},
     lambda: Crash(at_tick=True), "crash at_tick must be an int"),
    ("extra-true", {"byzantine": [{"node": 1, "behavior": "delay_all", "extra": True}]},
     lambda: DelayAll(extra=True), "delay_all extra must be an int"),
    ("drop-prob-true", {"drop_prob": True},
     lambda: _config(drop_prob=True), "drop_prob must be a number in [0, 1]"),
    ("max-ticks-past-u64", {"max_ticks": 2**64 + 84},
     lambda: _config(max_ticks=2**64 + 84), f"max_ticks out of u64 range: {2**64 + 84}"),
    ("partition-ends-before-start", {"partitions": [{"start": 200, "end": 0, "group": [0, 1]}]},
     lambda: Partition(200, 0, frozenset({0, 1})), "partition start 200 must be below its end 0"),
    ("partition-of-no-ticks", {"partitions": [{"start": 5, "end": 5, "group": [0, 1]}]},
     lambda: Partition(5, 5, frozenset({0, 1})), "partition start 5 must be below its end 5"),
    ("partition-group-empty", {"partitions": [{"start": 1, "end": 9, "group": []}]},
     lambda: _config(partitions=(Partition(1, 9, frozenset()),)),
     "partition group must hold 1..3 of the 4 nodes"),
    ("partition-group-all", {"partitions": [{"start": 1, "end": 9, "group": [0, 1, 2, 3]}]},
     lambda: _config(partitions=(Partition(1, 9, frozenset(range(4))),)),
     "partition group must hold 1..3 of the 4 nodes"),
]


@pytest.mark.parametrize(
    "change, build, error",
    [row[1:] for row in MISREAD_INPUTS],
    ids=[row[0] for row in MISREAD_INPUTS],
)
def test_simulate_refuses_an_input_it_once_misread(tmp_path, capsys, change, build, error):
    doc = {
        "config": {"n": 4, "f": 1, "seed": 1, **change},
        "workload": [{"tick": 1, "node": 1, "work": "w"}, {"tick": 2**64 - 1, "node": 1, "work": "w"}],
    }
    assert error in simulate_refuses(tmp_path, capsys, doc)
    with pytest.raises((ConfigError, ScenarioError)) as exc:
        build()
    assert error in str(exc.value)


UNKNOWN_KEYS = [
    ("config", {"config": {"drop_porb": 0.9}}, "unknown config key 'drop_porb'"),
    ("partition", {"config": {"partitions": [{"start": 1, "end": 9, "group": [0], "ends": 20}]}},
     "unknown partition key 'ends'"),
    ("byzantine", {"config": {"byzantine": [{"node": 1, "behavior": "crash", "at_tik": 5}]}},
     "unknown byzantine key 'at_tik'"),
    ("byzantine-other-behavior",
     {"config": {"byzantine": [{"node": 1, "behavior": "silent", "at_tick": 5}]}},
     "unknown byzantine key 'at_tick'"),
    ("workload", {"workload": {"auhtor": "ben"}}, "unknown workload key 'auhtor'"),
    ("payload", {"workload": {"payload": {"szie": 9}}}, "unknown payload key 'szie'"),
]


@pytest.mark.parametrize(
    "change, error", [row[1:] for row in UNKNOWN_KEYS], ids=[row[0] for row in UNKNOWN_KEYS]
)
def test_simulate_refuses_an_unknown_key(tmp_path, capsys, change, error):
    """A misspelled key would otherwise run as if absent: `drop_porb` as a
    fault-free scenario."""
    doc = {"config": {"n": 4, "f": 1, "seed": 1, **change.get("config", {})},
           "workload": [{"tick": 1, "node": 0, "work": "w", **change.get("workload", {})}]}
    assert simulate_refuses(tmp_path, capsys, doc) == error


@pytest.mark.parametrize(
    "payload, error",
    [
        ({"size": -5}, "workload payload needs an int 'tag' and an int 'size' >= 0"),
        ({"size": True}, "workload payload needs an int 'tag' and an int 'size' >= 0"),
        ({"size": 2.5}, "workload payload needs an int 'tag' and an int 'size' >= 0"),
        ({"tag": "1"}, "workload payload needs an int 'tag' and an int 'size' >= 0"),
    ],
    ids=["size=-5", "size=true", "size=2.5", "tag=str"],
)
def test_simulate_refuses_a_bad_payload_spec(tmp_path, capsys, payload, error):
    doc = {"config": {"n": 4, "f": 1, "seed": 1},
           "workload": [{"tick": 1, "node": 0, "work": "w", "payload": payload}]}
    assert simulate_refuses(tmp_path, capsys, doc) == error


def test_simulate_unknown_scenario(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "no-such", "--report", str(tmp_path / "r.json")])
    assert rc != 0
    assert "crash-primary" in capsys.readouterr().err

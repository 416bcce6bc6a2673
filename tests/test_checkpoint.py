"""Each replica's checkpoint: commit trusts it while the chain file's bytes
hash to it and then reads only the tip, and history and show read only the
lines that can hold the work; verify and the recovery path behave as
without it."""

import hashlib
import json
import os
import shutil
import sys

import pytest

from revledger import ledger, revisions, workspace
from revledger.cli import main
from revledger.node import NodeRuntime
from revledger.workspace import Workspace


def init(d):
    assert main(["init", "--dir", str(d), "--nodes", "4", "--faulty", "1", "--seed", "5"]) == 0


def commit(ws_dir, tmp_path, work, name, text):
    f = tmp_path / name
    f.write_text(text)
    return main(["commit", "--dir", str(ws_dir), "--work", work, "--file", str(f),
                 "--author", "ada"])


def checkpoint_path(ws_dir, node):
    return ws_dir / f"node-{node}" / "checkpoint.json"


def edit_checkpoint(ws_dir, node, change):
    """Rewrite a node's checkpoint through `change`, keeping its digest fields."""
    path = checkpoint_path(ws_dir, node)
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def all_bytes(ws_dir):
    return {p: p.read_bytes() for p in ws_dir.rglob("*") if p.is_file()}


@pytest.fixture
def ws_dir(tmp_path):
    d = tmp_path / "ledger"
    init(d)
    return d


def test_history_and_show_refuse_a_replica_holding_only_its_tip(ws_dir, tmp_path):
    """A runtime loaded with only its tip holds no earlier revision: history
    and show refuse it instead of answering that the work has none."""
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    commit(ws_dir, tmp_path, "w", "b.txt", "second")
    ws = Workspace.load(ws_dir)
    tip_only = ws.load_all_nodes()[0]
    for query in (lambda: tip_only.history("w"), lambda: tip_only.show("w", 1)):
        with pytest.raises(ValueError, match="history needs the whole chain"):
            query()
    assert [e.revision_number for e in ws.read_history(0, "w")] == [1, 2]


def test_deleted_blob_changes_no_replicas_history_or_heads(ws_dir, tmp_path, capsys):
    """Heads and history come from the recorded flags, not from which blobs
    a replica still holds: a deleted blob on node 0 is reported by show and
    verify only."""
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    commit(ws_dir, tmp_path, "w", "b.txt", "second")
    blob_hash = hashlib.sha256(b"first").hexdigest()
    (ws_dir / "node-0" / "blobs" / blob_hash[:2] / blob_hash).unlink()
    capsys.readouterr()

    assert main(["history", "--dir", str(ws_dir), "--work", "w"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == ["revision=1", "revision=2"]
    assert main(["show", "--dir", str(ws_dir), "--work", "w", "--revision", "1",
                 "--out", str(tmp_path / "out.bin")]) == 1
    assert blob_hash in capsys.readouterr().err

    assert commit(ws_dir, tmp_path, "w", "c.txt", "third") == 0
    assert "flag=Valid height=3" in capsys.readouterr().out
    ws = Workspace.load(ws_dir)
    assert [ws.load_node(i).heads["w"][0] for i in range(4)] == [3, 3, 3, 3]
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert capsys.readouterr().out == (
        f"node 0: defect height=1 kind=content-missing tx 0: {blob_hash}\n"
        "node 1: ok\nnode 2: ok\nnode 3: ok\n"
        "verify: tampering detected\n"
    )


def _flag_to_stale(obj):
    obj["blocks"][1][0][1] = "InvalidStaleRead"


def _head_back_one(obj):
    obj["heads"]["w"][0] = 1


@pytest.mark.parametrize(
    "change, defect",
    [
        (_flag_to_stale, "height=2 kind=record-mismatch tx 0: InvalidStaleRead, expected Valid"),
        (_head_back_one, "height=2 kind=record-mismatch heads differ from the chain's"),
    ],
)
def test_verify_reports_a_checkpoint_that_disagrees_with_its_chain(
    ws_dir, tmp_path, capsys, change, defect
):
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    commit(ws_dir, tmp_path, "w", "b.txt", "second")
    edit_checkpoint(ws_dir, 0, change)
    capsys.readouterr()
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert capsys.readouterr().out == (
        f"node 0: defect {defect}\n"
        "node 1: ok\nnode 2: ok\nnode 3: ok\n"
        "verify: tampering detected\n"
    )


def test_a_checkpoint_with_a_short_tx_id_is_ignored(ws_dir, tmp_path, capsys):
    """A checkpoint tx id of 62 hex digits makes the checkpoint malformed,
    so every reader ignores it, as any malformed checkpoint: verify finds
    no defect, and the next commit replays node 0 and reaches every
    replica."""
    def cut_first_tx_id(obj):
        obj["blocks"][0][0][0] = obj["blocks"][0][0][0][:62]

    assert commit(ws_dir, tmp_path, "w", "a.txt", "first") == 0
    edit_checkpoint(ws_dir, 0, cut_first_tx_id)
    assert main(["verify", "--dir", str(ws_dir)]) == 0
    assert commit(ws_dir, tmp_path, "w", "b.txt", "second") == 0
    chains = {(ws_dir / f"node-{i}" / "chain.jsonl").read_bytes() for i in range(4)}
    assert len(chains) == 1 and len(chains.pop().splitlines()) == 3


def test_a_head_with_no_revision_number_left_is_rejected(ws_dir, tmp_path, capsys):
    """A head of 2**64 - 1, in checkpoints that every replica trusts, leaves
    no u64 revision number for the next commit: it is rejected as malformed
    and nothing is written."""
    def last_revision(obj):
        obj["heads"]["w"][0] = 2**64 - 1

    assert commit(ws_dir, tmp_path, "w", "a.txt", "first") == 0
    for node in range(4):
        edit_checkpoint(ws_dir, node, last_revision)
    before = all_bytes(ws_dir)
    capsys.readouterr()
    assert commit(ws_dir, tmp_path, "w", "b.txt", "second") == 1
    assert capsys.readouterr().out.endswith("reason=InvalidMalformed\n")
    assert all_bytes(ws_dir) == before


def test_verify_ignores_a_checkpoint_made_for_other_chain_bytes(ws_dir, tmp_path, capsys):
    """No reader trusts a checkpoint whose digest fields do not match the
    chain file, so its contents are no defect."""
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    commit(ws_dir, tmp_path, "w", "b.txt", "second")

    def unmatched(obj):
        _flag_to_stale(obj)
        obj["chain_bytes"] += 1

    edit_checkpoint(ws_dir, 0, unmatched)
    capsys.readouterr()
    assert main(["verify", "--dir", str(ws_dir)]) == 0
    capsys.readouterr()
    assert main(["history", "--dir", str(ws_dir), "--work", "w"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == ["revision=1", "revision=2"]


def _tip_hash_of_block_1(obj, ws_dir):
    lines = (ws_dir / "node-0" / "chain.jsonl").read_text().splitlines()
    obj["tip_hash"] = json.loads(lines[1])["block_hash"]


def _one_block_too_many(obj, ws_dir):
    obj["blocks"].append(obj["blocks"][-1])
    obj["height"] += 1


@pytest.mark.parametrize("forge", [_tip_hash_of_block_1, _one_block_too_many])
def test_a_checkpoint_whose_tip_disagrees_with_the_chain_is_ignored(
    ws_dir, tmp_path, capsys, forge
):
    """A checkpoint that names another tip than the chain file's last line
    is not trusted, though its chain length and SHA-256 match: its flipped
    flag reaches no reader."""
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    commit(ws_dir, tmp_path, "w", "b.txt", "second")

    def change(obj):
        _flag_to_stale(obj)
        forge(obj, ws_dir)

    edit_checkpoint(ws_dir, 0, change)
    capsys.readouterr()
    assert main(["history", "--dir", str(ws_dir), "--work", "w"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == ["revision=1", "revision=2"]
    assert commit(ws_dir, tmp_path, "w", "c.txt", "third") == 0
    assert "flag=Valid height=3" in capsys.readouterr().out
    assert main(["verify", "--dir", str(ws_dir)]) == 0


def test_commit_refuses_replicas_that_disagree_at_load(ws_dir, tmp_path, capsys):
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    commit(ws_dir, tmp_path, "w", "b.txt", "second")
    edit_checkpoint(ws_dir, 2, _head_back_one)
    capsys.readouterr()
    before = all_bytes(ws_dir)
    assert commit(ws_dir, tmp_path, "w", "c.txt", "third") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: replicas disagree at load") and "node-2" in err
    assert not any(f"node-{i}" in err for i in (0, 1, 3))
    assert all_bytes(ws_dir) == before


def test_commit_refuses_a_replica_whose_checkpoint_forges_a_tx_id(ws_dir, tmp_path, capsys):
    """Node 0's checkpoint names, in place of its one committed tx id, the id
    the next commit will have; its chain, tip and heads still agree with the
    others'. Commit would take that transaction for committed and write
    nothing: it refuses node 0 instead, and verify names the forged record."""
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    twin = tmp_path / "twin"
    shutil.copytree(ws_dir, twin)
    commit(twin, tmp_path, "w", "b.txt", "second")
    next_tx_id = json.loads(checkpoint_path(twin, 0).read_text())["blocks"][1][0][0]

    def forge(obj):
        obj["blocks"][0][0][0] = next_tx_id

    edit_checkpoint(ws_dir, 0, forge)
    capsys.readouterr()
    before = all_bytes(ws_dir)
    assert commit(ws_dir, tmp_path, "w", "b.txt", "second") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: replicas disagree at load") and "node-0" in err
    assert not any(f"node-{i}" in err for i in (1, 2, 3))
    assert all_bytes(ws_dir) == before
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert capsys.readouterr().out == (
        "node 0: defect height=1 kind=record-mismatch tx ids differ from the block's\n"
        "node 1: ok\nnode 2: ok\nnode 3: ok\n"
        "verify: tampering detected\n"
    )


def _run_commands(ws_dir, tmp_path, capsys):
    """Output of history, show and then a commit, with the checkpoints the
    commit leaves."""
    outputs = []
    for argv in (
        ["history", "--dir", str(ws_dir), "--work", "w"],
        ["show", "--dir", str(ws_dir), "--work", "w", "--revision", "2",
         "--out", str(tmp_path / "out.bin")],
    ):
        outputs.append((main(argv), capsys.readouterr()))
    outputs.append((commit(ws_dir, tmp_path, "w", "c.txt", "third"), capsys.readouterr()))
    return outputs, [checkpoint_path(ws_dir, i).read_bytes() for i in range(4)]


def _negative_head(obj):
    obj["heads"]["w"][0] = -1


def _one_block_list_short(obj):
    obj["blocks"].pop()


_MISSHAPEN = {"negative-count": _negative_head, "one-block-list-short": _one_block_list_short}


@pytest.mark.parametrize("case", ["missing", "one-commit-behind", "not-an-object", *_MISSHAPEN])
def test_commands_recover_without_a_current_checkpoint(tmp_path, capsys, case):
    """Without a checkpoint, with one a commit behind, or with one that is
    not shaped as written, commit, history and show print what they print
    with a current one, and the commit leaves the same checkpoint. No reader
    and no refused commit writes one."""
    runs = []
    for name in ("current", case):
        ws_dir = tmp_path / name
        init(ws_dir)
        commit(ws_dir, tmp_path, "w", "a.txt", "first")
        old = [checkpoint_path(ws_dir, i).read_bytes() for i in range(4)]
        commit(ws_dir, tmp_path, "w", "b.txt", "second")
        for i in range(4):
            if name == "missing":
                checkpoint_path(ws_dir, i).unlink()
            elif name == "one-commit-behind":
                checkpoint_path(ws_dir, i).write_bytes(old[i])
            elif name == "not-an-object":
                checkpoint_path(ws_dir, i).write_text("[]\n")
            elif name in _MISSHAPEN:
                edit_checkpoint(ws_dir, i, _MISSHAPEN[name])
        capsys.readouterr()
        if name != "current":
            before = all_bytes(ws_dir)
            main(["history", "--dir", str(ws_dir), "--work", "w"])
            main(["show", "--dir", str(ws_dir), "--work", "w", "--revision", "1",
                  "--out", str(tmp_path / "o.bin")])
            main(["verify", "--dir", str(ws_dir)])
            assert commit(ws_dir, tmp_path, "", "bad.txt", "refused") == 1
            assert all_bytes(ws_dir) == before
            capsys.readouterr()
        runs.append(_run_commands(ws_dir, tmp_path, capsys))
    assert runs[0] == runs[1]


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name, wherever a revledger module holds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("revledger") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_commit_reads_only_each_replicas_tip(ws_dir, tmp_path, capsys, monkeypatch):
    for k in range(30):
        assert commit(ws_dir, tmp_path, f"w{k % 3}", "p.txt", f"revision {k}") == 0
    parsed = _count_calls(monkeypatch, ledger, "block_from_line")
    checked = _count_calls(monkeypatch, ledger, "check_chain")
    applied = _count_calls(monkeypatch, revisions, "apply_block")
    # The four replicas are byte-identical: they share one checkpoint parse
    # and one encoding of the checkpoint they write.
    loaded = _count_calls(monkeypatch, workspace, "_parse_checkpoint")
    encoded = _count_calls(monkeypatch, workspace, "_checkpoint_text")
    assert commit(ws_dir, tmp_path, "w0", "p.txt", "one more") == 0
    assert "height=31" in capsys.readouterr().out
    assert len(parsed) <= 4
    assert len(checked) == 0
    assert len(applied) == 4
    assert (len(loaded), len(encoded)) == (1, 1)
    monkeypatch.undo()
    assert main(["verify", "--dir", str(ws_dir)]) == 0


# Audit hooks cannot be removed: this one notes the paths opened while a
# list is pushed on _OPENS, and nothing otherwise.
_OPENS: list[list[str]] = []


def _note_open(event, args):
    if event == "open" and _OPENS and isinstance(args[0], (str, bytes, os.PathLike)):
        _OPENS[-1].append(os.fsdecode(args[0]))


sys.addaudithook(_note_open)


@pytest.mark.parametrize("command", ["history", "show"])
def test_query_reads_node_0_chain_file_once(ws_dir, tmp_path, capsys, command):
    for k in range(8):
        assert commit(ws_dir, tmp_path, "w", "p.txt", f"revision {k}") == 0
    argv = [command, "--dir", str(ws_dir), "--work", "w"]
    if command == "show":
        argv += ["--revision", "3", "--out", str(tmp_path / "out.bin")]
    _OPENS.append([])
    try:
        assert main(argv) == 0
    finally:
        opened = _OPENS.pop()
    chain = str(ws_dir / "node-0" / "chain.jsonl")
    assert opened.count(chain) == 1


def _query(ws_dir, tmp_path, capsys, work, revision=None):
    """(exit code, stdout, stderr) of history, or of show when `revision` is given."""
    argv = ["history", "--dir", str(ws_dir), "--work", work]
    if revision is not None:
        argv[0] = "show"
        argv += ["--revision", str(revision), "--out", str(tmp_path / "out.bin")]
    return main(argv), *capsys.readouterr()


def test_history_and_show_parse_only_the_lines_holding_the_work(
    ws_dir, tmp_path, capsys, monkeypatch
):
    for k in range(12):
        assert commit(ws_dir, tmp_path, f"w{k % 3}", "p.txt", f"revision {k}") == 0
    capsys.readouterr()
    want = _query(ws_dir, tmp_path, capsys, "w1")
    parsed = _count_calls(monkeypatch, ledger, "block_from_line")
    checked = _count_calls(monkeypatch, ledger, "check_chain")
    for revision in (None, 4):
        got = _query(ws_dir, tmp_path, capsys, "w1", revision)
        assert got[0] == 0
        # Blocks 2, 5, 8 and 11 hold w1; the tip is parsed for the trust check.
        assert len(parsed) == 4 + 1
        assert len(checked) == 0
        parsed.clear()
    assert got[1] == f"wrote {len('revision 10')} bytes to {tmp_path / 'out.bin'}\n"
    monkeypatch.undo()
    checkpoint_path(ws_dir, 0).unlink()
    assert _query(ws_dir, tmp_path, capsys, "w1") == want


_SPELLINGS = {
    # work id, its canonical JSON in a chain line, the spelling written instead
    "unicode-escape": ("w", b'"work_id":"w"', b'"work_id":"\\u0077"'),
    "space-after-colon": ("w", b'"work_id":"w"', b'"work_id": "w"'),
    "raw-utf8": ("été", b'"work_id":"\\u00e9t\\u00e9"', '"work_id":"été"'.encode()),
    "quote-in-id": ('say "hi"', b'"work_id":"say \\"hi\\""', b'"work_id": "say \\"hi\\""'),
}


@pytest.mark.parametrize("case", sorted(_SPELLINGS))
def test_history_lists_every_revision_whatever_the_work_ids_spelling(
    ws_dir, tmp_path, capsys, case
):
    """Node 0's chain spells the work id otherwise than the writer does, and
    a commit writes a checkpoint for those bytes: history read through that
    trusted checkpoint lists every revision a replay of the whole chain
    lists."""
    work, canonical, spelling = _SPELLINGS[case]
    for k in range(6):
        assert commit(ws_dir, tmp_path, work if k % 2 else "other", "p.txt", f"rev {k}") == 0
    chain_path = ws_dir / "node-0" / "chain.jsonl"
    raw = chain_path.read_bytes()
    assert raw.count(canonical) == 3
    chain_path.write_bytes(raw.replace(canonical, spelling))
    checkpoint_path(ws_dir, 0).unlink()
    assert commit(ws_dir, tmp_path, "other", "p.txt", "rev 6") == 0
    capsys.readouterr()
    ws = Workspace.load(ws_dir)
    raw = chain_path.read_bytes()
    assert raw.count(spelling) == 3
    assert ws._trusted_checkpoint(raw, ws.read_checkpoint_bytes(0)) is not None
    replayed = NodeRuntime(
        0, ws.config, ws.store(0), ws.policy, chain=ws.read_chain(0)
    ).history(work)
    assert [e.revision_number for e in replayed] == [1, 2, 3]
    assert ws.read_history(0, work) == replayed
    assert ws.read_history(1, work) == replayed


def test_a_flipped_byte_in_any_chain_line_refuses_history_and_show(ws_dir, tmp_path, capsys):
    """The flip breaks the checkpoint's hash, so the whole chain is checked
    and the damaged line refuses node 0, wherever it is and whichever work
    is asked for."""
    for k in range(4):
        assert commit(ws_dir, tmp_path, f"w{k % 2}", "p.txt", f"revision {k}") == 0
    lines = (ws_dir / "node-0" / "chain.jsonl").read_bytes().split(b"\n")[:-1]
    for height, line in enumerate(lines):
        damaged = tmp_path / f"damaged-{height}"
        shutil.copytree(ws_dir, damaged)
        offset = line.index(b'"block_hash":"') + len(b'"block_hash":"')
        assert main(["tamper", "--dir", str(damaged), "--node", "0", "--block", str(height),
                     "--offset", str(offset), "--xor", "1"]) == 0
        capsys.readouterr()
        for revision in (None, 1):
            rc, out, err = _query(damaged, tmp_path, capsys, "w0", revision)
            assert (rc, out) == (1, "")
            assert err.startswith("error: node-0 chain is damaged (")
            assert f" at height {height}); run the verify command" in err


def test_stalled_commit_lists_whole_chains_above_genesis(ws_dir, tmp_path, capsys):
    """A stalled commit's report lists each replica's whole chain, though
    consensus ran on replicas that held only their tips."""
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    commit(ws_dir, tmp_path, "w", "b.txt", "second")
    config = json.loads((ws_dir / "config.json").read_text())
    (ws_dir / "config.json").write_text(json.dumps({**config, "timeout_ticks": 1}))
    chain = (ws_dir / "node-0" / "chain.jsonl").read_text().splitlines()
    capsys.readouterr()
    assert commit(ws_dir, tmp_path, "w", "c.txt", "third") == 1
    out, err = capsys.readouterr()
    assert "consensus stalled" in err
    doc = json.loads(out)
    hashes = [json.loads(line)["block_hash"] for line in chain]
    for digests in doc["committed_digests"].values():
        assert digests[: len(hashes)] == hashes
    assert all(v["ok"] for v in doc["verify"].values())


def test_stalled_commit_keeps_each_replicas_decisions_by_height(
    ws_dir, tmp_path, capsys, monkeypatch
):
    """After a stalled commit swaps each replica's tip-only chain for its
    whole persisted chain, its history and decisions are those of a fresh
    load: the decisions are indexed by height, not by the chain held."""
    from revledger import cli

    runs = []
    run_consensus = cli._run_local_consensus

    def keep(ws, submissions):
        runs.append(run_consensus(ws, submissions))
        return runs[-1]

    monkeypatch.setattr(cli, "_run_local_consensus", keep)
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    commit(ws_dir, tmp_path, "w", "b.txt", "second")
    config = json.loads((ws_dir / "config.json").read_text())
    (ws_dir / "config.json").write_text(json.dumps({**config, "timeout_ticks": 2, "max_batch": 1}))
    argv = ["commit", "--dir", str(ws_dir), "--work", "w", "--author", "ada"]
    for k in range(3):
        (tmp_path / f"p{k}.txt").write_text(f"payload {k}")
        argv += ["--file" if k == 0 else "--also-file", str(tmp_path / f"p{k}.txt")]
    assert main(argv) == 1
    assert "consensus stalled" in capsys.readouterr().err
    sim, _ = runs[-1]
    ws = Workspace.load(ws_dir)
    heights = []
    for i, node in enumerate(sim.nodes):
        fresh = ws.load_node(i)
        assert len(node.decisions) == node.chain.height == fresh.chain.height
        assert node.decisions == fresh.decisions
        assert node.history("w") == ws.read_history(i, "w")
        assert node.replica.chain is node.chain
        heights.append(node.chain.height)
    assert heights == [2, 3, 3, 3]
    for node in ws.load_all_nodes():  # each holding only its tip
        assert len(node.chain.blocks) == 1
        assert len(node.decisions) == node.chain.height
    assert [e.revision_number for e in sim.nodes[1].history("w")] == [1, 2, 3]


def test_stall_after_some_replicas_committed_leaves_trusted_checkpoints(ws_dir, tmp_path, capsys):
    """Nodes 1-3 commit one of three one-transaction blocks before the run
    stalls; every replica's checkpoint then matches its chain file and
    agrees with its chain."""
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    commit(ws_dir, tmp_path, "w", "b.txt", "second")
    config = json.loads((ws_dir / "config.json").read_text())
    (ws_dir / "config.json").write_text(json.dumps({**config, "timeout_ticks": 2, "max_batch": 1}))
    argv = ["commit", "--dir", str(ws_dir), "--work", "w", "--author", "ada"]
    for k in range(3):
        (tmp_path / f"p{k}.txt").write_text(f"payload {k}")
        argv += ["--file" if k == 0 else "--also-file", str(tmp_path / f"p{k}.txt")]
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert "consensus stalled" in err
    report = json.loads(out)
    assert report["committed_heights"] == {"0": 2, "1": 3, "2": 3, "3": 3}
    # counted on a replica that committed the run's block, not on lagging node 0
    assert report["validity_counts"] == {"Valid": 1}
    for i in range(4):
        chain = (ws_dir / f"node-{i}" / "chain.jsonl").read_bytes()
        saved = json.loads(checkpoint_path(ws_dir, i).read_text())
        assert saved["chain_sha256"] == hashlib.sha256(chain).hexdigest()
        assert len(saved["blocks"]) == saved["height"] == chain.count(b"\n") - 1
    assert main(["verify", "--dir", str(ws_dir)]) == 0


def test_a_stall_leaves_no_payload_on_a_replica_that_did_not_commit_it(ws_dir, tmp_path, capsys):
    """Node 0 commits none of a stalled three-file commit's blocks and
    stores none of its payloads: every replica's blob names are the content
    hashes its chain references. The command's output is unchanged."""
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    config = json.loads((ws_dir / "config.json").read_text())
    (ws_dir / "config.json").write_text(json.dumps({**config, "timeout_ticks": 2, "max_batch": 1}))
    argv = ["commit", "--dir", str(ws_dir), "--work", "w", "--author", "ada"]
    for k in range(3):
        (tmp_path / f"p{k}.txt").write_text(f"payload {k}")
        argv += ["--file" if k == 0 else "--also-file", str(tmp_path / f"p{k}.txt")]
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == "error: consensus stalled; workspace left as committed so far\n"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "afcd28222ec4f82b35c01e395158483445224b8a12c5d924cfc39903f9292492")
    assert json.loads(out)["committed_heights"] == {"0": 1, "1": 2, "2": 2, "3": 2}
    for i in range(4):
        lines = (ws_dir / f"node-{i}" / "chain.jsonl").read_text().splitlines()
        referenced = {tx["content_hash"] for line in lines for tx in json.loads(line)["transactions"]}
        stored = {p.name for p in (ws_dir / f"node-{i}" / "blobs").glob("*/*")}
        assert stored == referenced, i
    assert main(["verify", "--dir", str(ws_dir)]) == 0


def test_checkpoint_is_replaced_whole_through_a_temp_file(ws_dir, tmp_path):
    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    names = sorted(p.name for p in (ws_dir / "node-0").iterdir())
    assert names == ["blobs", "chain.jsonl", "checkpoint.json"]
    shutil.copy(checkpoint_path(ws_dir, 0), tmp_path / "saved.json")
    commit(ws_dir, tmp_path, "w", "b.txt", "second")
    saved = json.loads((tmp_path / "saved.json").read_text())
    now = json.loads(checkpoint_path(ws_dir, 0).read_text())
    assert (saved["height"], now["height"]) == (1, 2)
    assert now["blocks"][:1] == saved["blocks"]


@pytest.mark.parametrize("checkpoints", ["trusted", "removed"])
def test_a_repeated_persist_writes_nothing(ws_dir, tmp_path, checkpoints):
    """A block reaches a chain file only from the node's chain: persisting
    every node a second time after a commit leaves each chain file and
    checkpoint byte-identical, whether the nodes held only their tips
    (trusted checkpoints) or replayed whole chains (none)."""
    from revledger import cli
    from revledger.sim import Submission

    commit(ws_dir, tmp_path, "w", "a.txt", "first")
    if checkpoints == "removed":
        for i in range(4):
            checkpoint_path(ws_dir, i).unlink()
    ws = Workspace.load(ws_dir)
    submissions = [Submission(tick=0, node=0, work_id="w", author_id="ada", payload=b"second")]
    sim, report = cli._run_local_consensus(ws, submissions)
    assert not report.stalled
    for node in sim.nodes:
        ws.persist_new_blocks(node)
    persisted = all_bytes(ws_dir)
    for node in sim.nodes:
        ws.persist_new_blocks(node)
    assert all_bytes(ws_dir) == persisted
    assert all(report.ok for report in ws.verify())
    assert [e.revision_number for e in ws.read_history(0, "w")] == [1, 2]


def forge_chain(ws_dir, node, edit):
    """Rewrite a node's chain lines and checkpoint through `edit(lines, obj)`,
    then give the checkpoint the rewritten file's length and SHA-256, so
    every reader trusts it."""
    chain_path = ws_dir / f"node-{node}" / "chain.jsonl"
    lines = chain_path.read_bytes().split(b"\n")[:-1]

    def change(obj):
        edit(lines, obj)
        raw = b"".join(line + b"\n" for line in lines)
        chain_path.write_bytes(raw)
        obj["chain_bytes"], obj["chain_sha256"] = len(raw), hashlib.sha256(raw).hexdigest()

    edit_checkpoint(ws_dir, node, change)


def _flip_hex_digit(text, at):
    return text[:at] + ("1" if text[at] == "0" else "0") + text[at + 1 :]


def _flip_tx_id_of_line_1(lines, obj):
    at = lines[1].index(b'"tx_id":"') + len(b'"tx_id":"')
    lines[1] = _flip_hex_digit(lines[1].decode(), at).encode()


def _flip_recorded_tx_id(lines, obj):
    obj["blocks"][0][0][0] = _flip_hex_digit(obj["blocks"][0][0][0], 0)


def _set(index, value):
    def edit(lines, obj):
        lines[index] = value(lines[index])

    return edit


def _drop_line_2(lines, obj):
    del lines[2]


_DAMAGE = {
    # case: (edit, command, what it prints)
    "line-dropped": (_drop_line_2, "history", "(height-mismatch at height 2)"),
    "first-byte-cut": (_set(1, lambda line: line[1:]), "history", "(unparseable-record at height 1)"),
    "height-5": (
        _set(1, lambda line: line.replace(b'"height":1,', b'"height":5,')),
        "history",
        "(height-mismatch at height 1)",
    ),
    "tx-id-flipped": (_flip_tx_id_of_line_1, "history", "(merkle-root-mismatch at height 1)"),
    "recorded-tx-id-flipped": (_flip_recorded_tx_id, "history", "(record-mismatch at height 1)"),
    "tip-truncated": (_set(3, lambda line: line[:-5]), "history", "(unparseable-record at height 3)"),
    "line-2-truncated": (
        _set(2, lambda line: line[:-5]),
        "verify",
        "node 0: defect height=1 kind=record-mismatch tip differs from the chain's\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_DAMAGE))
def test_a_checkpoint_forged_for_damaged_chain_bytes_is_caught(ws_dir, tmp_path, capsys, case):
    """Node 0's checkpoint is rewritten to match its damaged chain file, so
    history trusts it, or, where the tip no longer parses, replays the
    chain: either way node 0 is refused, and verify names the damage."""
    edit, command, printed = _DAMAGE[case]
    for name in ("a.txt", "b.txt", "c.txt"):
        assert commit(ws_dir, tmp_path, "w", name, name) == 0
    forge_chain(ws_dir, 0, edit)
    capsys.readouterr()
    argv = [command, "--dir", str(ws_dir)] + (["--work", "w"] if command == "history" else [])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    if command == "verify":
        assert printed in out and out.endswith("verify: tampering detected\n")
    else:
        assert (out, err) == ("", f"error: node-0 chain is damaged {printed}; "
                                  "run the verify command for details\n")


def test_trusted_history_refuses_a_revision_left_out(ws_dir, tmp_path, capsys):
    """Line 1 loses its work id's closing bytes, and node 0's checkpoint is
    rewritten to match: the trusted history no longer parses that line, so
    it would list revisions 2 and 3 alone. The checkpoint's head says 3, so
    node 0 is refused instead."""
    for name in ("a.txt", "b.txt", "c.txt"):
        assert commit(ws_dir, tmp_path, "w", name, name) == 0

    def cut(lines, obj):
        assert lines[1].endswith(b'"work_id":"w"}]}')
        lines[1] = lines[1][:-5]

    forge_chain(ws_dir, 0, cut)
    capsys.readouterr()
    refused = (
        "error: node-0 chain is damaged (record-mismatch at height 3); "
        "run the verify command for details\n"
    )
    for revision in (None, 1):
        assert _query(ws_dir, tmp_path, capsys, "w", revision) == (1, "", refused)
    assert [e.revision_number for e in Workspace.load(ws_dir).read_history(1, "w")] == [1, 2, 3]

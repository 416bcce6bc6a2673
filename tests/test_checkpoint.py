"""Each replica's checkpoint: commit trusts it while the chain file's bytes
hash to it and then reads only the tip; every other reader, and the
recovery path, behave as without it."""

import hashlib
import json
import shutil
import sys

import pytest

from revledger import ledger, revisions
from revledger.cli import main
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


@pytest.mark.parametrize("case", ["missing", "one-commit-behind"])
def test_commands_recover_without_a_current_checkpoint(tmp_path, capsys, case):
    """Without a checkpoint, or with one a commit behind, commit, history
    and show print what they print with a current one, and the commit
    leaves the same checkpoint. No reader and no refused commit writes one."""
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
    assert commit(ws_dir, tmp_path, "w0", "p.txt", "one more") == 0
    assert "height=31" in capsys.readouterr().out
    assert len(parsed) <= 4
    assert len(checked) == 0
    assert len(applied) == 4
    monkeypatch.undo()
    assert main(["verify", "--dir", str(ws_dir)]) == 0


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

"""`verify` reads each blob once, in the store audit, and reports every
damaged blob exactly as the chain check plus audit did before."""

import hashlib
import json
import os
import shutil
import sys
from collections import Counter

import pytest

from revledger import ledger, revisions, workspace
from revledger.cli import main
from revledger.workspace import Workspace

FIRST = hashlib.sha256(b"first").hexdigest()


@pytest.fixture
def ws_dir(tmp_path):
    d = tmp_path / "ledger"
    assert main(["init", "--dir", str(d), "--nodes", "4", "--faulty", "1", "--seed", "5"]) == 0
    for name, text in (("a.txt", "first"), ("b.txt", "second")):
        f = tmp_path / name
        f.write_text(text)
        argv = ["commit", "--dir", str(d), "--work", "w", "--file", str(f), "--author", "ada"]
        assert main(argv) == 0
    return d


def blob_path(ws_dir, node, key):
    return ws_dir / f"node-{node}" / "blobs" / key[:2] / key


def flip_byte(path, at):
    data = bytearray(path.read_bytes())
    data[at] ^= 1
    path.write_bytes(bytes(data))


def flip_first_byte(path):
    flip_byte(path, 0)


def replace_with_directory(path):
    path.unlink()
    path.mkdir()


def copy_to_wrong_fan_out(path):
    other = path.parent.parent / "00"
    other.mkdir(exist_ok=True)
    shutil.copy(path, other / path.name)


def copy_damaged_to_wrong_fan_out(path):
    other = path.parent.parent / "00"
    other.mkdir(exist_ok=True)
    shutil.copy(path, other / path.name)
    flip_first_byte(other / path.name)


def replace_with_broken_symlink(path):
    path.unlink()
    os.symlink(f"{path}.gone", path)


# A valid key in the same fan-out directory that the blob's bytes do not hash to.
RENAMED = FIRST[:-1] + ("0" if FIRST[-1] != "0" else "1")


def rename_in_fan_out(path):
    path.rename(path.with_name(RENAMED))


def verify_lines(by_node):
    """verify's output on the 4-replica workspace where `by_node` maps each
    damaged node to its lines."""
    lines = []
    for i in range(4):
        lines += [f"node {i}: {line}" for line in by_node.get(i, ["ok"])]
    return lines + ["verify: tampering detected"]


def node_1_lines(*lines):
    return verify_lines({1: lines})


CONTENT_MISSING = f"defect height=1 kind=content-missing tx 0: {FIRST}"
CONTENT_HASH_MISMATCH = f"defect height=1 kind=content-hash-mismatch tx 0: {FIRST}"


def blob_defect(kind, key=FIRST):
    return f"blob-defect key={key} kind={kind}"


# (id, damage, one damaged replica's lines)
DAMAGES = [
    ("deleted", os.unlink, [CONTENT_MISSING]),
    ("flipped-byte", flip_first_byte, [CONTENT_HASH_MISMATCH, blob_defect("key-mismatch")]),
    ("directory", replace_with_directory, [CONTENT_HASH_MISMATCH, blob_defect("unreadable")]),
    # The stored blob is intact, so a stray copy is a store defect only.
    ("wrong-fan-out", copy_to_wrong_fan_out, [blob_defect("malformed-key")]),
    ("damaged-wrong-fan-out", copy_damaged_to_wrong_fan_out, [blob_defect("malformed-key")]),
    # Absence is checked before the audit's verdict: a dangling link is missing content.
    ("broken-symlink", replace_with_broken_symlink, [CONTENT_MISSING, blob_defect("unreadable")]),
    ("renamed", rename_in_fan_out, [CONTENT_MISSING, blob_defect("key-mismatch", RENAMED)]),
]

# Node 0's copy is the first one the audit reads of each key.
CASES = [(name, (1,), damage, lines) for name, damage, lines in DAMAGES]
CASES += [(f"node-0-{name}", (0,), damage, lines) for name, damage, lines in DAMAGES]
CASES += [
    ("same-flip-everywhere", (0, 1, 2, 3), flip_first_byte, DAMAGES[1][2]),
    ("flipped-on-2-and-3", (2, 3), flip_first_byte, DAMAGES[1][2]),
]


@pytest.mark.parametrize(
    "nodes, damage, lines",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_verify_output_for_a_damaged_blob(ws_dir, capsys, nodes, damage, lines):
    for node in nodes:
        damage(blob_path(ws_dir, node, FIRST))
    capsys.readouterr()
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert capsys.readouterr().out.splitlines() == verify_lines({i: lines for i in nodes})


SECOND = hashlib.sha256(b"second").hexdigest()


def test_verify_reports_a_forged_header_height_at_the_blocks_line(ws_dir, capsys):
    """Block 2's header claims height 5 and its blob is gone: every defect
    of that block is reported at line 2, where the chain holds it."""
    path = ws_dir / "node-1" / "chain.jsonl"
    lines = path.read_bytes().split(b"\n")
    assert b'"height":2,' in lines[2]
    lines[2] = lines[2].replace(b'"height":2,', b'"height":5,')
    path.write_bytes(b"\n".join(lines))
    blob_path(ws_dir, 1, SECOND).unlink()
    capsys.readouterr()
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert capsys.readouterr().out.splitlines() == node_1_lines(
        "defect height=2 kind=height-mismatch header says 5",
        "defect height=2 kind=block-hash-mismatch",
        f"defect height=2 kind=content-missing tx 0: {SECOND}",
    )


def test_tampering_a_height_digit_is_reported_at_the_tampered_line(ws_dir, tmp_path, capsys):
    """The earliest defect is the tampered block's, not the untouched block
    at the height its header now claims."""
    (tmp_path / "c.txt").write_text("third")
    assert main(["commit", "--dir", str(ws_dir), "--work", "w", "--file",
                 str(tmp_path / "c.txt"), "--author", "ada"]) == 0
    line = (ws_dir / "node-2" / "chain.jsonl").read_bytes().split(b"\n")[3]
    offset = line.index(b'"height":3,') + len(b'"height":')
    assert main(["tamper", "--dir", str(ws_dir), "--node", "2", "--block", "3",
                 "--offset", str(offset), "--xor", str(ord("3") ^ ord("1"))]) == 0
    results = Workspace.load(ws_dir).verify()
    assert [(d.height, d.kind) for d in results[2].defects] == [
        (3, "height-mismatch"), (3, "block-hash-mismatch")
    ]
    assert all(results[i].ok for i in (0, 1, 3))


def test_verify_output_for_a_different_flip_on_each_replica(ws_dir, capsys):
    for node in range(4):
        flip_byte(blob_path(ws_dir, node, FIRST), node)
    capsys.readouterr()
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    lines = [CONTENT_HASH_MISMATCH, blob_defect("key-mismatch")]
    assert capsys.readouterr().out.splitlines() == verify_lines(dict.fromkeys(range(4), lines))


def refuse_listing(monkeypatch, directory):
    """Make `os.listdir` of `directory` fail as for a user who may not read
    it; permission bits do not bind root, so the refusal is simulated."""
    listdir = os.listdir
    refused = os.path.normpath(directory)

    def listdir_refusing(path="."):
        if os.path.normpath(path) == refused:
            raise PermissionError(13, "Permission denied", path)
        return listdir(path)

    monkeypatch.setattr(os, "listdir", listdir_refusing)


FAN_OUT_UNREADABLE = f"blob-defect key={FIRST[:2]} kind=unreadable"


@pytest.mark.parametrize(
    "levels_up, damage, expected",
    [
        (1, flip_first_byte, node_1_lines(CONTENT_HASH_MISMATCH, FAN_OUT_UNREADABLE)),
        (1, lambda path: None, node_1_lines(FAN_OUT_UNREADABLE)),
        (2, flip_first_byte,
         node_1_lines(CONTENT_HASH_MISMATCH, "blob-defect key=blobs kind=unreadable")),
    ],
    ids=["damaged-in-fan-out", "intact-in-fan-out", "damaged-under-blobs"],
)
def test_verify_names_a_damaged_blob_the_audit_could_not_list(
    ws_dir, capsys, monkeypatch, levels_up, damage, expected
):
    """The audit reads no blob in a directory it cannot list (the blob's
    fan-out directory, or `blobs` itself), so the content check reads a
    referenced blob there itself."""
    path = blob_path(ws_dir, 1, FIRST)
    damage(path)
    refuse_listing(monkeypatch, path.parents[levels_up - 1])
    capsys.readouterr()
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert capsys.readouterr().out.splitlines() == expected


def record_opens(argv):
    """Run the CLI with `argv`; return (exit code, paths it opened).

    The interpreter's `open` audit event sees every way of opening a file.
    Audit hooks cannot be removed, so this one goes quiet after the run.
    """
    opened: list[str] = []
    listening = [True]

    def hook(event, args):
        if event == "open" and listening[0] and isinstance(args[0], (str, os.PathLike)):
            opened.append(os.fspath(args[0]))

    sys.addaudithook(hook)
    try:
        return main(argv), opened
    finally:
        listening[0] = False


def test_verify_opens_each_blob_once_per_replica(ws_dir, tmp_path):
    for name in ("c.txt", "d.txt"):
        (tmp_path / name).write_text(name * 1000)
        argv = ["commit", "--dir", str(ws_dir), "--work", "v", "--file", str(tmp_path / name),
                "--author", "ada"]
        assert main(argv) == 0
    blobs = sorted(str(p) for p in ws_dir.glob("node-*/blobs/*/*"))
    assert len(blobs) == 4 * 4
    rc, opened = record_opens(["verify", "--dir", str(ws_dir)])
    assert rc == 0
    blob_opens = sorted(p for p in opened if os.sep + "blobs" + os.sep in p)
    assert blob_opens == blobs


def test_an_untampered_verify_looks_up_no_blob(ws_dir, monkeypatch):
    """Every referenced blob is one the audit read whole, so the content
    check makes no presence lookup of its own."""
    stats: list[str] = []
    stat = os.stat

    def recorded(path, *args, **kwargs):
        stats.append(os.fspath(path))
        return stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", recorded)
    assert main(["verify", "--dir", str(ws_dir)]) == 0
    assert stats and not [p for p in stats if os.sep + "blobs" + os.sep in p]


def test_verify_reads_each_chain_file_once(ws_dir):
    rc, opened = record_opens(["verify", "--dir", str(ws_dir)])
    assert rc == 0
    chains = sorted(p for p in opened if p.endswith("chain.jsonl"))
    assert chains == sorted(str(ws_dir / f"node-{i}" / "chain.jsonl") for i in range(4))


def tamper_tick(ws_dir, node, block):
    """Flip the first digit of the block's tick to another digit: the line
    still parses, and the block's hash no longer matches its header."""
    line = (ws_dir / f"node-{node}" / "chain.jsonl").read_bytes().split(b"\n")[block]
    offset = line.index(b'"tick":') + len(b'"tick":')
    argv = ["tamper", "--dir", str(ws_dir), "--node", str(node), "--block", str(block),
            "--offset", str(offset), "--xor", "1"]
    assert main(argv) == 0


def count_calls(monkeypatch, owner, name):
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("tampered, distinct", [((), 1), ((0,), 2)], ids=["equal", "one-tampered"])
def test_verify_parses_and_checks_each_distinct_chain_once(
    ws_dir, capsys, monkeypatch, tampered, distinct
):
    for node in tampered:
        tamper_tick(ws_dir, node, 1)
    parsed = count_calls(monkeypatch, ledger, "block_from_line")
    checked = count_calls(monkeypatch, workspace, "check_chain")
    capsys.readouterr()
    assert main(["verify", "--dir", str(ws_dir)]) == (1 if tampered else 0)
    # parse_chain reads every line of each distinct chain file: genesis and 2 blocks.
    assert (parsed[0], checked[0]) == (distinct * 3, distinct)


def test_verify_names_each_replica_of_a_shared_tampered_chain(ws_dir, capsys):
    for node in (1, 2):
        tamper_tick(ws_dir, node, 1)
    capsys.readouterr()
    assert main(["verify", "--dir", str(ws_dir)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "node 0: ok",
        "node 1: defect height=1 kind=block-hash-mismatch",
        "node 1: defect height=2 kind=link-mismatch",
        "node 2: defect height=1 kind=block-hash-mismatch",
        "node 2: defect height=2 kind=link-mismatch",
        "node 3: ok",
        "verify: tampering detected",
    ]


def test_verify_hashes_each_blob_key_once_where_the_replicas_agree(ws_dir, monkeypatch):
    """Each replica's copy is still read (see the open test above), but a
    copy equal to one already hashed to its key is not hashed again."""
    keys = {path.name for path in ws_dir.glob("node-*/blobs/*/*")}
    hashed = Counter()
    sha256 = hashlib.sha256

    def counted(*args, **kwargs):
        digest = sha256(*args, **kwargs)
        if digest.hexdigest() in keys:
            hashed[digest.hexdigest()] += 1
        return digest

    monkeypatch.setattr(hashlib, "sha256", counted)
    assert main(["verify", "--dir", str(ws_dir)]) == 0
    assert hashed == dict.fromkeys(keys, 1)


def test_verify_checks_each_shared_transaction_endorsement_once(ws_dir, monkeypatch):
    """The four byte-identical replicas share one parse, so each committed
    transaction is one object; its pass under verify's one policy is kept on
    it, and the other three replicas compute no token (4 per transaction
    when each replica recomputed them)."""
    tokens = Counter()
    token = revisions.endorsement_token

    def counted(secret, tx_id):
        tokens[tx_id] += 1
        return token(secret, tx_id)

    monkeypatch.setattr(revisions, "endorsement_token", counted)
    reports = Workspace.load(ws_dir).verify()
    assert all(report.ok and not report.audit for report in reports)
    assert len(tokens) == 2 and set(tokens.values()) == {1}


@pytest.mark.parametrize("edited, distinct", [((), 1), ((2,), 2)], ids=["equal", "one-edited"])
def test_verify_compares_each_distinct_checkpoint_once(
    ws_dir, capsys, monkeypatch, edited, distinct
):
    for node in edited:
        path = ws_dir / f"node-{node}" / "checkpoint.json"
        path.write_text(json.dumps(json.loads(path.read_bytes()), indent=1))  # same facts
    compared = count_calls(monkeypatch, Workspace, "checkpoint_defects")
    rc, opened = record_opens(["verify", "--dir", str(ws_dir)])
    assert rc == 0
    assert compared[0] == distinct
    checkpoints = sorted(p for p in opened if p.endswith("checkpoint.json"))
    assert checkpoints == sorted(str(ws_dir / f"node-{i}" / "checkpoint.json") for i in range(4))

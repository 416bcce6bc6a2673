import json
from dataclasses import replace

import pytest

from revledger.content_store import MemoryStore
from revledger.digests import ZERO_DIGEST
from revledger.encoding import transaction_id
from revledger.ledger import (
    Chain,
    ChainParseError,
    Defect,
    append_chain_file,
    block_from_line,
    block_to_line,
    build_block,
    check_block,
    genesis_block,
    read_chain_file,
    verify_chain,
    write_chain_file,
)
from revledger.revisions import RevisionRecord, Transaction, propose_revision


@pytest.fixture
def store():
    return MemoryStore()


def chain_of(n_blocks, store, works=("w",)):
    """Honestly built chain with one tx per block, round-robin over works."""
    chain = Chain()
    heads = {}
    for i in range(n_blocks):
        work = works[i % len(works)]
        tx = propose_revision(work, "ada", f"content {i}".encode(), heads, store, submit_tick=i)
        heads[work] = (tx.record.revision_number, tx.record.content_hash)
        block = build_block(i + 1, chain.tip.block_hash, [tx], "node-0", view=0, tick=i + 1)
        chain.append(block)
    return chain


# -- construction -----------------------------------------------------------------


def test_genesis_constants():
    g = genesis_block()
    assert g.header.height == 0
    assert g.header.prev_hash == ZERO_DIGEST
    assert g.header.merkle_root == ZERO_DIGEST
    assert g.header.tx_count == 0
    assert genesis_block().block_hash == g.block_hash


def test_build_block_is_deterministic(store):
    tx = propose_revision("w", "ada", b"x", {}, store)
    b1 = build_block(1, genesis_block().block_hash, [tx], "node-0", 0, 5)
    b2 = build_block(1, genesis_block().block_hash, [tx], "node-0", 0, 5)
    assert b1.block_hash == b2.block_hash


def test_reordering_txs_changes_merkle_and_hash(store):
    t1 = propose_revision("a", "ada", b"1", {}, store)
    t2 = propose_revision("b", "ada", b"2", {}, store)
    b1 = build_block(1, genesis_block().block_hash, [t1, t2], "node-0", 0, 1)
    b2 = build_block(1, genesis_block().block_hash, [t2, t1], "node-0", 0, 1)
    assert b1.header.merkle_root != b2.header.merkle_root
    assert b1.block_hash != b2.block_hash


def test_tick_changes_hash_not_merkle(store):
    tx = propose_revision("w", "ada", b"x", {}, store)
    b1 = build_block(1, genesis_block().block_hash, [tx], "node-0", 0, 1)
    b2 = build_block(1, genesis_block().block_hash, [tx], "node-0", 0, 2)
    assert b1.header.merkle_root == b2.header.merkle_root
    assert b1.block_hash != b2.block_hash


def test_empty_block_rejected():
    with pytest.raises(ValueError):
        build_block(1, genesis_block().block_hash, [], "node-0", 0, 1)


def test_chain_append_discipline(store):
    chain = Chain()
    tx = propose_revision("w", "ada", b"x", {}, store)
    good = build_block(1, chain.tip.block_hash, [tx], "node-0", 0, 1)
    chain.append(good)
    wrong_height = build_block(3, chain.tip.block_hash, [tx], "node-0", 0, 2)
    with pytest.raises(ValueError):
        chain.append(wrong_height)
    unlinked = build_block(2, b"\xab" * 32, [tx], "node-0", 0, 2)
    with pytest.raises(ValueError):
        chain.append(unlinked)


# -- check_block ------------------------------------------------------------------


def gap_transaction(store):
    """Revision 2 read against version 0: a revision gap under a correct tx id."""
    record = RevisionRecord("w", 2, store.put(b"x"), "ada", 0)
    return Transaction(tx_id=transaction_id(record, 0), record=record, read_version=0)


def test_check_block_reports_forged_tx_id(store):
    tx = propose_revision("w", "ada", b"x", {}, store)
    forged = replace(tx, tx_id=b"\x00" * 32)
    block = build_block(1, genesis_block().block_hash, [forged], "node-0", 0, 1)
    assert check_block(block) == [Defect(1, "tx-id-mismatch", "tx 0")]
    recounted = replace(block, header=replace(block.header, tx_count=2))
    assert check_block(recounted) == [
        Defect(1, "block-hash-mismatch"),
        Defect(1, "tx-count-mismatch", "header says 2"),
        Defect(1, "tx-id-mismatch", "tx 0"),
    ]


def test_check_block_reports_unencodable_header_instead_of_raising(store):
    block = chain_of(1, store).tip
    long_name = replace(block, header=replace(block.header, proposer_id="p" * 300))
    assert [d.kind for d in check_block(long_name)] == ["block-hash-mismatch"]


def test_check_block_reports_revision_gap(store):
    block = build_block(1, genesis_block().block_hash, [gap_transaction(store)], "node-0", 0, 1)
    assert check_block(block) == [Defect(1, "record-malformed", "tx 0: revision gap")]


# -- verify -----------------------------------------------------------------------


def test_honest_chain_verifies(store):
    chain = chain_of(10, store, works=("w1", "w2", "w3"))
    report = verify_chain(chain, store)
    assert report.ok, report.defects


def test_missing_blob_reported(store):
    chain = chain_of(3, store)
    empty = MemoryStore()
    report = verify_chain(chain, empty)
    assert not report.ok
    assert {d.kind for d in report.defects} == {"content-missing"}


def test_corrupt_blob_reported_at_its_block(store):
    chain = chain_of(4, store, works=("a", "b", "c", "d"))
    victim = chain.blocks[3].transactions[0].record.content_hash
    store._blobs[victim] = b"replaced content"
    report = verify_chain(chain, store)
    kinds = {(d.height, d.kind) for d in report.defects}
    assert (3, "content-hash-mismatch") in kinds
    assert min(d.height for d in report.defects) == 3


def test_verify_reports_earliest_height_first(store):
    chain = chain_of(5, store, works=("a", "b", "c", "d", "e"))
    for victim_height in (2, 4):
        victim = chain.blocks[victim_height].transactions[0].record.content_hash
        store._blobs[victim] = b"junk"
    report = verify_chain(chain, store)
    assert report.defects[0].height == 2


def test_endorsement_checker_is_applied(store):
    chain = chain_of(2, store, works=("a", "b"))
    report = verify_chain(chain, store, endorsement_checker=lambda tx: False)
    assert {d.kind for d in report.defects} == {"endorsement-invalid"}


# -- file round trip -----------------------------------------------------------------


def test_chain_file_round_trip(tmp_path, store):
    chain = chain_of(5, store, works=("x", "y"))
    path = tmp_path / "chain.jsonl"
    write_chain_file(path, chain)
    loaded, defects = read_chain_file(path)
    assert defects == []
    assert [b.block_hash for b in loaded.blocks] == [b.block_hash for b in chain.blocks]
    assert loaded.blocks[-1].transactions == chain.blocks[-1].transactions


def test_append_preserves_existing_bytes(tmp_path, store):
    chain = chain_of(2, store)
    path = tmp_path / "chain.jsonl"
    write_chain_file(path, chain)
    before = path.read_bytes()
    heads = {"w": (2, chain.blocks[2].transactions[0].record.content_hash)}
    tx = propose_revision("w", "ada", b"more", heads, store)
    block = build_block(3, chain.tip.block_hash, [tx], "node-0", 0, 9)
    append_chain_file(path, [block])
    after = path.read_bytes()
    assert after.startswith(before)
    assert after.count(b"\n") == before.count(b"\n") + 1


def test_line_round_trip(store):
    chain = chain_of(1, store)
    line = block_to_line(chain.blocks[1])
    assert block_from_line(line) == chain.blocks[1]


# -- strict parsing ---------------------------------------------------------------------


def _mutate_line(line, **overrides):
    obj = json.loads(line)
    obj.update(overrides)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_parse_rejects_unknown_keys(store):
    line = block_to_line(chain_of(1, store).blocks[1])
    with pytest.raises(ChainParseError):
        block_from_line(_mutate_line(line, extra=1))


def test_parse_rejects_missing_keys(store):
    obj = json.loads(block_to_line(chain_of(1, store).blocks[1]))
    del obj["block_hash"]
    with pytest.raises(ChainParseError):
        block_from_line(json.dumps(obj))


def test_parse_rejects_uppercase_hex(store):
    line = block_to_line(chain_of(1, store).blocks[1])
    obj = json.loads(line)
    obj["block_hash"] = obj["block_hash"].upper()
    with pytest.raises(ChainParseError):
        block_from_line(json.dumps(obj))


def test_parse_rejects_negative_and_bool_ints(store):
    line = block_to_line(chain_of(1, store).blocks[1])
    obj = json.loads(line)
    obj["header"]["height"] = -1
    with pytest.raises(ChainParseError):
        block_from_line(json.dumps(obj))
    obj = json.loads(line)
    obj["header"]["height"] = True
    with pytest.raises(ChainParseError):
        block_from_line(json.dumps(obj))


def test_parse_rejects_garbage():
    with pytest.raises(ChainParseError):
        block_from_line("not json at all {")


def test_read_chain_file_reports_bad_line(tmp_path, store):
    chain = chain_of(3, store)
    path = tmp_path / "chain.jsonl"
    write_chain_file(path, chain)
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:-10]  # truncate block 2's record
    path.write_text("\n".join(lines) + "\n")
    loaded, defects = read_chain_file(path)
    assert loaded.height == 1  # usable prefix
    assert defects[0].height == 2
    assert defects[0].kind == "unparseable-record"


def test_read_missing_file(tmp_path):
    loaded, defects = read_chain_file(tmp_path / "absent.jsonl")
    assert loaded is None
    assert defects[0].kind == "missing-replica"

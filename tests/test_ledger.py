import json
from dataclasses import replace

import pytest

from revledger.content_store import MemoryStore
from revledger.digests import ZERO_DIGEST, sha256
from revledger.encoding import header_hash, transaction_id
from revledger.ledger import (
    Chain,
    ChainParseError,
    Defect,
    append_chain_file,
    block_from_line,
    block_to_line,
    build_block,
    check_block,
    check_chain,
    check_genesis,
    genesis_block,
    parse_chain,
    read_chain_file,
    verify_chain,
    write_chain_file,
)
from revledger.revisions import (
    EndorsementPolicy,
    RevisionRecord,
    Transaction,
    check_endorsement_policy,
    endorse,
    propose_revision,
)


@pytest.fixture
def store():
    return MemoryStore({})


POLICY = EndorsementPolicy(required=1, secrets={0: b"node-0 secret"})


def meets_policy(tx):
    return check_endorsement_policy(tx, POLICY)


def chain_of(n_blocks, store, works=("w",)):
    """Honestly built chain with one tx per block, round-robin over works,
    each endorsed by node 0 so it meets POLICY."""
    chain = Chain()
    heads = {}
    for i in range(n_blocks):
        work = works[i % len(works)]
        payload = f"content {i}".encode()
        store.put(sha256(payload), payload)
        tx = propose_revision(work, "ada", payload, heads, submit_tick=i)
        tx = endorse(tx, 0, POLICY.secrets[0])
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


def test_build_block_is_deterministic():
    tx = propose_revision("w", "ada", b"x", {})
    b1 = build_block(1, genesis_block().block_hash, [tx], "node-0", 0, 5)
    b2 = build_block(1, genesis_block().block_hash, [tx], "node-0", 0, 5)
    assert b1.block_hash == b2.block_hash


def test_reordering_txs_changes_merkle_and_hash():
    t1 = propose_revision("a", "ada", b"1", {})
    t2 = propose_revision("b", "ada", b"2", {})
    b1 = build_block(1, genesis_block().block_hash, [t1, t2], "node-0", 0, 1)
    b2 = build_block(1, genesis_block().block_hash, [t2, t1], "node-0", 0, 1)
    assert b1.header.merkle_root != b2.header.merkle_root
    assert b1.block_hash != b2.block_hash


def test_tick_changes_hash_not_merkle():
    tx = propose_revision("w", "ada", b"x", {})
    b1 = build_block(1, genesis_block().block_hash, [tx], "node-0", 0, 1)
    b2 = build_block(1, genesis_block().block_hash, [tx], "node-0", 0, 2)
    assert b1.header.merkle_root == b2.header.merkle_root
    assert b1.block_hash != b2.block_hash


def test_empty_block_rejected():
    with pytest.raises(ValueError):
        build_block(1, genesis_block().block_hash, [], "node-0", 0, 1)
    tx = propose_revision("w", "ada", b"x", {})
    with pytest.raises(ValueError, match="start at height 1"):
        build_block(0, genesis_block().block_hash, [tx], "node-0", 0, 1)


def test_chain_append_discipline():
    chain = Chain()
    tx = propose_revision("w", "ada", b"x", {})
    good = build_block(1, chain.tip.block_hash, [tx], "node-0", 0, 1)
    chain.append(good)
    wrong_height = build_block(3, chain.tip.block_hash, [tx], "node-0", 0, 2)
    with pytest.raises(ValueError):
        chain.append(wrong_height)
    unlinked = build_block(2, b"\xab" * 32, [tx], "node-0", 0, 2)
    with pytest.raises(ValueError):
        chain.append(unlinked)
    with pytest.raises(ValueError, match="at least genesis"):
        Chain([])


# -- check_block ------------------------------------------------------------------


def gap_transaction(store):
    """Revision 2 read against version 0: a revision gap under a correct tx id."""
    store.put(sha256(b"x"), b"x")
    record = RevisionRecord("w", 2, sha256(b"x"), "ada", 0)
    return Transaction(tx_id=transaction_id(record, 0), record=record, read_version=0)


def test_check_block_reports_forged_tx_id():
    tx = propose_revision("w", "ada", b"x", {})
    forged = replace(tx, tx_id=b"\x00" * 32)
    block = build_block(1, genesis_block().block_hash, [forged], "node-0", 0, 1)
    assert check_block(block, 1) == [Defect(1, "tx-id-mismatch", "tx 0")]
    recounted = replace(block, header=replace(block.header, tx_count=2))
    assert check_block(recounted, 1) == [
        Defect(1, "block-hash-mismatch"),
        Defect(1, "tx-count-mismatch", "header says 2"),
        Defect(1, "tx-id-mismatch", "tx 0"),
    ]


def test_check_block_reports_an_overlong_proposer_as_a_changed_hash(store):
    """The parse refuses such a header; one built in memory still encodes."""
    block = chain_of(1, store).tip
    long_name = replace(block, header=replace(block.header, proposer_id="p" * 300))
    assert [d.kind for d in check_block(long_name, 1)] == ["block-hash-mismatch"]


def test_check_block_reports_revision_gap(store):
    block = build_block(1, genesis_block().block_hash, [gap_transaction(store)], "node-0", 0, 1)
    assert check_block(block, 1) == [Defect(1, "record-malformed", "tx 0: revision gap")]


def rehashed(block, **header_fields):
    """The block with header fields replaced and its hash recomputed, so
    only the replaced fields can be at fault."""
    header = replace(block.header, **header_fields)
    return replace(block, header=header, block_hash=header_hash(header))


def long_author_block(store):
    store.put(sha256(b"x"), b"x")
    record = RevisionRecord("w", 1, sha256(b"x"), "a" * 129, 0)
    tx = Transaction(tx_id=b"\x00" * 32, record=record, read_version=0)
    return build_block(1, genesis_block().block_hash, [tx], "node-0", 0, 1)


@pytest.mark.parametrize(
    "check, damaged, expected",
    [
        (check_genesis, lambda store: chain_of(1, store).tip, [Defect(0, "missing-genesis")]),
        (
            check_genesis,
            lambda store: rehashed(genesis_block(), prev_hash=b"\x01" * 32),
            [Defect(0, "genesis-invariant")],
        ),
        (
            check_block,
            lambda store: rehashed(
                replace(chain_of(1, store).tip, transactions=()),
                merkle_root=ZERO_DIGEST,
                tx_count=0,
            ),
            [Defect(1, "empty-block")],
        ),
        (
            check_block,
            lambda store: rehashed(chain_of(2, store).tip, merkle_root=b"\x01" * 32),
            [Defect(2, "merkle-root-mismatch")],
        ),
        (
            check_block,
            long_author_block,
            [Defect(1, "record-malformed", "tx 0: author_id exceeds 128 bytes")],
        ),
    ],
)
def test_block_checks_report_each_defect_kind_at_its_height(store, check, damaged, expected):
    block = damaged(store)
    height = () if check is check_genesis else (block.header.height,)
    assert check(block, *height) == expected



def test_one_block_checked_at_two_heights_reports_each_defect_at_that_height(store):
    """The verdict is kept on the block without a height: each check_block
    call reports every defect at the height it was asked about."""
    block = chain_of(2, store).tip
    damaged = replace(block, block_hash=b"\x00" * 32, header=replace(block.header, tx_count=5))
    kinds = [("block-hash-mismatch", ""), ("tx-count-mismatch", "header says 5")]
    assert check_block(damaged, 3) == [Defect(3, kind, detail) for kind, detail in kinds]
    assert check_block(damaged, 7) == [Defect(7, kind, detail) for kind, detail in kinds]
    assert check_block(damaged, 3) == [Defect(3, kind, detail) for kind, detail in kinds]
    assert check_block(block, 3) == []

# -- verify -----------------------------------------------------------------------


def test_honest_chain_verifies(store):
    chain = chain_of(10, store, works=("w1", "w2", "w3"))
    report = verify_chain(chain, store, check_chain(chain), store.audit(), meets_policy)
    assert report.ok, report.defects


def test_missing_blob_reported(store):
    chain = chain_of(3, store)
    empty = MemoryStore({})
    report = verify_chain(chain, empty, check_chain(chain), empty.audit(), meets_policy)
    assert not report.ok
    assert {d.kind for d in report.defects} == {"content-missing"}


def test_corrupt_blob_reported_at_its_block(store):
    chain = chain_of(4, store, works=("a", "b", "c", "d"))
    victim = chain.blocks[3].transactions[0].record.content_hash
    store._blobs[victim] = b"replaced content"
    report = verify_chain(chain, store, check_chain(chain), store.audit(), meets_policy)
    kinds = {(d.height, d.kind) for d in report.defects}
    assert (3, "content-hash-mismatch") in kinds
    assert min(d.height for d in report.defects) == 3


def test_verify_reports_earliest_height_first(store):
    chain = chain_of(5, store, works=("a", "b", "c", "d", "e"))
    for victim_height in (2, 4):
        victim = chain.blocks[victim_height].transactions[0].record.content_hash
        store._blobs[victim] = b"junk"
    report = verify_chain(chain, store, check_chain(chain), store.audit(), meets_policy)
    assert report.defects[0].height == 2


def test_endorsement_checker_is_applied(store):
    chain = chain_of(2, store, works=("a", "b"))
    report = verify_chain(
        chain, store, check_chain(chain), store.audit(), endorsement_checker=lambda tx: False
    )
    assert {d.kind for d in report.defects} == {"endorsement-invalid"}


# -- file round trip -----------------------------------------------------------------


def test_chain_file_round_trip(tmp_path, store):
    chain = chain_of(5, store, works=("x", "y"))
    path = tmp_path / "chain.jsonl"
    write_chain_file(path, chain)
    raw, missing = read_chain_file(path)
    assert missing == [] and raw == path.read_bytes()
    loaded, defects = parse_chain(raw)
    assert defects == []
    assert [b.block_hash for b in loaded.blocks] == [b.block_hash for b in chain.blocks]
    assert loaded.blocks[-1].transactions == chain.blocks[-1].transactions


def test_append_preserves_existing_bytes(tmp_path, store):
    chain = chain_of(2, store)
    path = tmp_path / "chain.jsonl"
    write_chain_file(path, chain)
    before = path.read_bytes()
    heads = {"w": (2, chain.blocks[2].transactions[0].record.content_hash)}
    tx = propose_revision("w", "ada", b"more", heads)
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


def _set_tx(key, value):
    def edit(obj):
        obj["transactions"][0][key] = value

    return edit


def _set_transactions(obj):
    obj["transactions"] = {"0": obj["transactions"][0]}


def _set_prev_hash(obj):
    obj["header"]["prev_hash"] = 5


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_transactions, "transactions must be a list"),
        (_set_tx("endorsements", "0"), "endorsements must be a list"),
        (_set_tx("endorsements", [[0]]), r"endorsement must be a \[node_id, token\] pair"),
        (_set_tx("endorsements", ["00"]), r"endorsement must be a \[node_id, token\] pair"),
        (_set_prev_hash, "prev_hash must be a hex string"),
        (_set_tx("work_id", 7), "work_id must be a string"),
    ],
    ids=["transactions", "endorsements", "short-pair", "not-a-pair", "digest", "text"],
)
def test_parse_rejects_misshapen_fields(store, edit, message):
    obj = json.loads(block_to_line(chain_of(1, store).blocks[1]))
    edit(obj)
    with pytest.raises(ChainParseError, match=message):
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
    loaded, defects = parse_chain(read_chain_file(path)[0])
    assert loaded.height == 1  # usable prefix
    assert defects[0].height == 2
    assert defects[0].kind == "unparseable-record"


def test_read_missing_file(tmp_path):
    raw, defects = read_chain_file(tmp_path / "absent.jsonl")
    assert raw is None
    assert defects[0].kind == "missing-replica"

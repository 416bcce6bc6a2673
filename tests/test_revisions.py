from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from revledger import revisions
from revledger.content_store import MemoryStore
from revledger.digests import sha256
from revledger.encoding import MalformedError
from revledger.ledger import build_block, genesis_block
from revledger.node import make_policy
from revledger.pbft import GroupConfig
from revledger.revisions import (
    EndorsementPolicy,
    RevisionRecord,
    ValidityFlag,
    apply_block,
    check_endorsement_policy,
    endorse,
    endorsement_token,
    history,
    propose_revision,
    validate_transaction,
)


@pytest.fixture
def store():
    return MemoryStore({})


def policy_of(m, secrets):
    return EndorsementPolicy(required=m, secrets=secrets)


def make_chain(blocks_txs, store):
    """Assemble a chain-like object from lists of transactions per block."""

    class FakeChain:
        pass

    chain = FakeChain()
    blocks = [genesis_block()]
    for i, txs in enumerate(blocks_txs, start=1):
        blocks.append(
            build_block(i, blocks[-1].block_hash, txs, "node-0", view=0, tick=i)
        )
    chain.blocks = blocks
    return chain


# -- propose -------------------------------------------------------------------


def test_first_revision_of_new_work():
    tx = propose_revision("w1", "ada", b"first", {})
    assert tx.read_version == 0
    assert tx.record.revision_number == 1
    assert tx.record.content_hash == sha256(b"first")


def test_successor_revision():
    heads = {"w1": (3, sha256(b"head"))}
    tx = propose_revision("w1", "ada", b"fourth", heads)
    assert tx.read_version == 3
    assert tx.record.revision_number == 4


def test_empty_work_id_is_malformed():
    with pytest.raises(MalformedError):
        propose_revision("", "ada", b"x", {})


# -- endorsement ----------------------------------------------------------------


def test_endorse_token_recomputes():
    tx = propose_revision("w", "ada", b"x", {})
    tx = endorse(tx, 2, b"node-2-secret")
    (node_id, token), = tx.endorsements
    assert node_id == 2
    assert token == endorsement_token(b"node-2-secret", tx.tx_id)


def test_endorse_twice_is_idempotent():
    tx = propose_revision("w", "ada", b"x", {})
    tx = endorse(endorse(tx, 1, b"s"), 1, b"s")
    assert len(tx.endorsements) == 1


def test_forged_token_fails_policy():
    secrets = {1: b"one", 2: b"two"}
    tx = propose_revision("w", "ada", b"x", {})
    tx = endorse(tx, 1, b"one")
    tx = endorse(tx, 2, b"WRONG")
    assert check_endorsement_policy(tx, policy_of(1, secrets))
    assert not check_endorsement_policy(tx, policy_of(2, secrets))


def test_policy_counts_distinct_eligible_nodes():
    secrets = {1: b"one", 2: b"two"}
    tx = propose_revision("w", "ada", b"x", {})
    assert not check_endorsement_policy(tx, policy_of(1, secrets))
    tx = endorse(tx, 9, b"nine")
    # node 9 holds no secret under this policy, so its token counts for nothing
    assert not check_endorsement_policy(tx, policy_of(1, secrets))
    tx = endorse(tx, 1, b"one")
    tx = replace(tx, endorsements=tx.endorsements * 2)  # a repeated token counts once
    assert check_endorsement_policy(tx, policy_of(1, secrets))
    assert not check_endorsement_policy(tx, policy_of(2, secrets))


def reference_check(tx, policy):
    """check_endorsement_policy as it was before a pass was kept on the
    transaction: every call computes the tokens."""
    valid_nodes = set()
    for node_id, token in tx.endorsements:
        secret = policy.secrets.get(node_id)
        if secret is None or node_id in valid_nodes:
            continue
        if token == endorsement_token(secret, tx.tx_id):
            valid_nodes.add(node_id)
    return len(valid_nodes) >= policy.required


def count_tokens(monkeypatch):
    calls = [0]
    token = revisions.endorsement_token

    def counted(secret, tx_id):
        calls[0] += 1
        return token(secret, tx_id)

    monkeypatch.setattr(revisions, "endorsement_token", counted)
    return calls


def endorsed_by(policy, endorsers):
    tx = propose_revision("w", "ada", b"x", {})
    for node_id in endorsers:
        tx = endorse(tx, node_id, policy.secrets[node_id])
    return tx


def test_a_pass_is_kept_for_that_policy_object_only(monkeypatch):
    one_of_four = make_policy(GroupConfig(n=4, f=1, seed=7))
    tx = endorsed_by(one_of_four, [2])
    assert tx.met_policy is None
    assert check_endorsement_policy(tx, one_of_four)
    assert tx.met_policy is one_of_four
    tokens = count_tokens(monkeypatch)
    assert check_endorsement_policy(tx, one_of_four)
    assert tokens[0] == 0
    # An equal policy built elsewhere is checked afresh.
    assert check_endorsement_policy(tx, make_policy(GroupConfig(n=4, f=1, seed=7)))
    assert tokens[0] == 1


@pytest.mark.parametrize("endorsers", [[2], [2, 0]], ids=["one-token", "two-tokens"])
@pytest.mark.parametrize(
    "other",
    [GroupConfig(n=4, f=1, seed=7, endorsement_m=2), GroupConfig(n=4, f=1, seed=8)],
    ids=["2-of-4", "other-seed"],
)
def test_a_pass_under_one_policy_decides_nothing_under_another(endorsers, other):
    one_of_four = make_policy(GroupConfig(n=4, f=1, seed=7))
    tx = endorsed_by(one_of_four, endorsers)
    assert check_endorsement_policy(tx, one_of_four)
    policy = make_policy(other)
    fresh = replace(tx)
    assert fresh.met_policy is None
    assert check_endorsement_policy(tx, policy) == check_endorsement_policy(fresh, policy)
    assert check_endorsement_policy(tx, policy) == reference_check(tx, policy)
    assert check_endorsement_policy(tx, one_of_four)


def test_endorse_and_replace_return_transactions_with_no_verdict():
    policy = make_policy(GroupConfig(n=4, f=1, seed=7))
    tx = endorsed_by(policy, [1])
    assert check_endorsement_policy(tx, policy) and tx.met_policy is policy
    assert endorse(tx, 1, policy.secrets[1]) is tx  # a repeat endorsement is a no-op
    assert endorse(tx, 3, policy.secrets[3]).met_policy is None
    assert replace(tx).met_policy is None
    forged = replace(tx, endorsements=((1, bytes(32)),))
    assert forged.met_policy is None and not check_endorsement_policy(forged, policy)


def test_a_failing_check_keeps_no_verdict(monkeypatch):
    policy = make_policy(GroupConfig(n=4, f=1, seed=7))
    tx = endorsed_by(policy, [1])
    forged = replace(tx, endorsements=((1, bytes(32)),))
    tokens = count_tokens(monkeypatch)
    assert not check_endorsement_policy(forged, policy)
    assert not check_endorsement_policy(forged, policy)
    assert forged.met_policy is None and tokens[0] == 2
    # A failure under another policy leaves an earlier pass as it was.
    assert check_endorsement_policy(tx, policy)
    two_of_four = make_policy(GroupConfig(n=4, f=1, seed=7, endorsement_m=2))
    assert not check_endorsement_policy(tx, two_of_four)
    assert tx.met_policy is policy


SECRETS = [b"s0", b"s1", b"s2"]
POLICIES = st.lists(
    st.builds(
        EndorsementPolicy,
        required=st.integers(0, 3),
        secrets=st.dictionaries(st.integers(0, 4), st.sampled_from(SECRETS), max_size=4),
    ),
    min_size=1,
    max_size=4,
)
# (node id, secret index or None for a forged token); node 5 is in no policy,
# and a node id drawn twice is a duplicate endorsement.
ENDORSEMENTS = st.lists(
    st.tuples(st.integers(0, 5), st.none() | st.integers(0, len(SECRETS) - 1)), max_size=5
)
CHECK_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("check"), st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.just("replace"), st.integers(0, 3), ENDORSEMENTS),
        st.tuples(st.just("copy"), st.integers(0, 3)),
        st.tuples(st.just("share"), st.integers(0, 3), st.integers(0, 3)),
    ),
    max_size=30,
)


def with_endorsements(tx, endorsements):
    return replace(tx, endorsements=tuple(
        (node_id, bytes(32) if i is None else endorsement_token(SECRETS[i], tx.tx_id))
        for node_id, i in endorsements
    ))


@settings(derandomize=True, max_examples=300)
@given(POLICIES, st.lists(ENDORSEMENTS, min_size=1, max_size=4), CHECK_OPS)
def test_kept_passes_answer_as_a_fresh_check(policies, endorsements, ops):
    """Checks interleaved on transaction objects shared by several slots, on
    copies and on re-endorsed copies, with valid, forged, duplicate and unknown-node
    tokens, under several policies (equal ones among them): each answer
    equals that of the check computing every token."""
    base = propose_revision("w", "ada", b"x", {})
    txs = [with_endorsements(base, e) for e in endorsements]
    for op, i, *rest in ops:
        i %= len(txs)
        if op == "check":
            policy = policies[rest[0] % len(policies)]
            assert check_endorsement_policy(txs[i], policy) == reference_check(txs[i], policy)
        elif op == "replace":
            txs[i] = with_endorsements(txs[i], rest[0])
        elif op == "copy":
            txs[i] = replace(txs[i])
        else:  # two slots hold one object
            txs[i] = txs[rest[0] % len(txs)]
    for tx in txs:
        for policy in policies:
            assert check_endorsement_policy(tx, policy) == reference_check(tx, policy)


# -- validation -------------------------------------------------------------------


def test_validate_matches_head(store):
    store.put(sha256(b"x"), b"x")
    tx = propose_revision("w", "ada", b"x", {"w": (2, sha256(b"p"))})
    assert validate_transaction(tx, {"w": (2, sha256(b"p"))}, store) is ValidityFlag.VALID


def test_validate_stale_read(store):
    tx = propose_revision("w", "ada", b"x", {"w": (2, sha256(b"p"))})
    assert (
        validate_transaction(tx, {"w": (3, sha256(b"q"))}, store)
        is ValidityFlag.STALE_READ
    )


def test_validate_missing_content():
    tx = propose_revision("w", "ada", b"x", {})
    empty = MemoryStore({})
    assert validate_transaction(tx, {}, empty) is ValidityFlag.MISSING_CONTENT


# -- apply_block -------------------------------------------------------------------


def test_intra_block_conflict_first_wins(store):
    store.put(sha256(b"one"), b"one")
    tx1 = propose_revision("w", "ada", b"one", {})
    tx2 = propose_revision("w", "ben", b"two", {})
    block = build_block(1, genesis_block().block_hash, [tx1, tx2], "node-0", 0, 1)
    heads, flags = apply_block({}, block, store)
    assert flags == [ValidityFlag.VALID, ValidityFlag.STALE_READ]
    assert heads["w"] == (1, tx1.record.content_hash)


def test_conflict_free_block_all_valid(store):
    payloads = [f"p{i}".encode() for i in range(3)]
    for payload in payloads:
        store.put(sha256(payload), payload)
    txs = [propose_revision(f"w{i}", "ada", payload, {}) for i, payload in enumerate(payloads)]
    block = build_block(1, genesis_block().block_hash, txs, "node-0", 0, 1)
    _, flags = apply_block({}, block, store)
    assert flags == [ValidityFlag.VALID] * 3


def test_apply_block_is_pure(store):
    store.put(sha256(b"x"), b"x")
    tx = propose_revision("w", "ada", b"x", {})
    block = build_block(1, genesis_block().block_hash, [tx], "node-0", 0, 1)
    heads = {}
    out1 = apply_block(heads, block, store)
    out2 = apply_block(heads, block, store)
    assert out1 == out2
    assert heads == {}  # input untouched


# -- history -------------------------------------------------------------------------


def decided(chain, store):
    """Each block after genesis with its (tx id, flag) pairs as a replica
    records them: apply_block folded from genesis."""
    heads, pairs = {}, []
    for block in chain.blocks[1:]:
        heads, flags = apply_block(heads, block, store)
        pairs.append((block, list(zip((tx.tx_id for tx in block.transactions), flags))))
    return pairs


def test_history_collects_valid_revisions_in_order(store):
    heads = {}
    blocks = []
    for i in range(5):
        payload = f"rev {i}".encode()
        store.put(sha256(payload), payload)
        tx = propose_revision("w", "ada", payload, heads)
        blocks.append([tx])
        heads[tx.record.work_id] = (tx.record.revision_number, tx.record.content_hash)
    chain = make_chain(blocks, store)
    entries = history(decided(chain, store), "w")
    assert [e.revision_number for e in entries] == [1, 2, 3, 4, 5]
    assert {e.author_id for e in entries} == {"ada"}


def test_history_unknown_work_is_empty(store):
    chain = make_chain([], store)
    assert history(decided(chain, store), "nope") == []


def test_history_excludes_stale_transactions(store):
    store.put(sha256(b"one"), b"one")
    tx1 = propose_revision("w", "ada", b"one", {})
    tx2 = propose_revision("w", "ben", b"two", {})  # same read_version
    chain = make_chain([[tx1, tx2]], store)
    entries = history(decided(chain, store), "w")
    assert len(entries) == 1
    assert entries[0].content_hash == tx1.record.content_hash


def test_gap_free_numbering_over_random_interleaving(store):
    import random

    rnd = random.Random(99)
    heads = {}
    blocks = []
    for _ in range(20):
        txs = []
        for _ in range(rnd.randint(1, 5)):
            work = f"w{rnd.randint(0, 3)}"
            stale = rnd.random() < 0.3
            observed = dict(heads)
            if stale and work in observed:
                rev, digest = observed[work]
                observed[work] = (max(0, rev - 1), digest)
                if observed[work][0] == 0:
                    del observed[work]
            payload = rnd.randbytes(8)
            store.put(sha256(payload), payload)
            tx = propose_revision(work, "ada", payload, observed)
            txs.append(tx)
        block_heads, _ = apply_block(heads, make_chain([txs], store).blocks[1], store)
        heads = block_heads
        blocks.append(txs)
    chain = make_chain(blocks, store)
    for w in ("w0", "w1", "w2", "w3"):
        numbers = [e.revision_number for e in history(decided(chain, store), w)]
        assert numbers == list(range(1, len(numbers) + 1))

"""Merkle tree checked against an independent recursive reference.

The reference below builds an explicit tree of levels by recursion and
answers root/proof queries by walking that structure; the production
code computes bottom-up with in-place level folding. Agreement between
the two is the oracle for every leaf count used here.
"""

import hashlib

import pytest
from hypothesis import given, strategies as st

from revledger.digests import ZERO_DIGEST
from revledger.merkle import leaf_hash, merkle_proof, merkle_root, node_hash, verify_proof


# -- reference implementation (kept deliberately naive) --------------------------


def ref_levels(tx_ids):
    levels = [[hashlib.sha256(b"\x10" + t).digest() for t in tx_ids]]

    def grow(level):
        if len(level) == 1:
            return
        padded = level + [level[-1]] if len(level) % 2 else level
        parent = [
            hashlib.sha256(b"\x11" + padded[i] + padded[i + 1]).digest()
            for i in range(0, len(padded), 2)
        ]
        levels.append(parent)
        grow(parent)

    grow(levels[0])
    return levels


def ref_root(tx_ids):
    if not tx_ids:
        return b"\x00" * 32
    return ref_levels(tx_ids)[-1][0]


def ref_proof(tx_ids, index):
    path = []
    pos = index
    for level in ref_levels(tx_ids)[:-1]:
        padded = level + [level[-1]] if len(level) % 2 else level
        path.append(padded[pos ^ 1])
        pos //= 2
    return path


def tx_ids(n):
    return [hashlib.sha256(f"tx-{i}".encode()).digest() for i in range(n)]


# -- root ----------------------------------------------------------------------


def test_empty_list_is_zero_root():
    assert merkle_root([]) == ZERO_DIGEST


def test_single_leaf_is_its_own_root():
    t = tx_ids(1)[0]
    expected = hashlib.sha256(b"\x10" + t).digest()
    assert merkle_root([t]) == expected


def test_two_leaves_hand_built():
    a, b = tx_ids(2)
    expected = hashlib.sha256(
        b"\x11" + hashlib.sha256(b"\x10" + a).digest() + hashlib.sha256(b"\x10" + b).digest()
    ).digest()
    assert merkle_root([a, b]) == expected


@pytest.mark.parametrize("n", range(1, 17))
def test_root_matches_reference(n):
    ids = tx_ids(n)
    assert merkle_root(ids) == ref_root(ids)


def test_order_sensitivity():
    ids = tx_ids(4)
    swapped = [ids[1], ids[0]] + ids[2:]
    assert merkle_root(ids) != merkle_root(swapped)


@given(st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=24))
def test_root_matches_reference_property(ids):
    assert merkle_root(ids) == ref_root(ids)


# -- proofs -------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 17))
def test_every_proof_verifies(n):
    ids = tx_ids(n)
    root = merkle_root(ids)
    for i in range(n):
        path = merkle_proof(ids, i)
        assert path == ref_proof(ids, i)
        assert verify_proof(root, ids[i], i, n, path)


def test_proof_rejects_flipped_tx_id_bytes():
    ids = tx_ids(8)
    root = merkle_root(ids)
    for i in range(8):
        path = merkle_proof(ids, i)
        for pos in range(32):
            bad = bytearray(ids[i])
            bad[pos] ^= 0x01
            assert not verify_proof(root, bytes(bad), i, 8, path)


def test_proof_rejects_flipped_path_bytes():
    ids = tx_ids(8)
    root = merkle_root(ids)
    for i in range(8):
        path = merkle_proof(ids, i)
        for elem in range(len(path)):
            for pos in range(0, 32, 7):
                bad_path = [bytearray(p) for p in path]
                bad_path[elem][pos] ^= 0x01
                assert not verify_proof(root, ids[i], i, 8, [bytes(p) for p in bad_path])
        assert not verify_proof(root, ids[i], i, 8, [path[0][:31], *path[1:]])


def test_proof_against_other_trees_root_fails():
    a = tx_ids(8)
    b = [hashlib.sha256(f"other-{i}".encode()).digest() for i in range(8)]
    proof = merkle_proof(a, 3)
    assert not verify_proof(merkle_root(b), a[3], 3, 8, proof)


def test_proof_with_wrong_index_fails():
    ids = tx_ids(8)
    root = merkle_root(ids)
    proof = merkle_proof(ids, 3)
    assert not verify_proof(root, ids[3], 2, 8, proof)
    assert not verify_proof(root, ids[3], -1, 8, proof)


@pytest.mark.parametrize(
    "n, index, forged",
    [(4, 0, 4), (4, 0, 8), (4, 0, 12)] + [(3, 2, f) for f in (3, 6, 7, 10, 11, 14, 15)],
)
def test_proof_refused_at_a_position_past_the_last_leaf(n, index, forged):
    # Only the index's low depth bits steer the path, so without the leaf
    # count a proof also verifies at index + k * 2**depth (and, where the
    # last leaf was paired with itself, at its odd neighbour).
    ids = tx_ids(n)
    root = merkle_root(ids)
    path = merkle_proof(ids, index)
    assert verify_proof(root, ids[index], index, n, path)
    assert not verify_proof(root, ids[index], forged, n, path)


@pytest.mark.parametrize("n, claimed", [(2, 3), (4, 5), (4, 2), (5, 4), (1, 2)])
def test_proof_refused_for_a_leaf_count_of_another_depth(n, claimed):
    ids = tx_ids(n)
    root = merkle_root(ids)
    for i in range(min(n, claimed)):
        assert not verify_proof(root, ids[i], i, claimed, merkle_proof(ids, i))


def test_proof_index_bounds():
    ids = tx_ids(4)
    with pytest.raises(IndexError):
        merkle_proof(ids, 4)
    with pytest.raises(IndexError):
        merkle_proof(ids, -1)


def test_domain_separation_between_leaf_and_node():
    a, b = tx_ids(2)
    assert leaf_hash(a) != hashlib.sha256(a).digest()
    assert node_hash(a, b) != hashlib.sha256(a + b).digest()

"""Merkle tree over transaction ids.

The block header commits to the exact transaction set and order through
the root of a binary hash tree. Domain separation keeps leaves and
internal nodes in distinct hash domains:

    leaf     = SHA-256(0x10 || tx_id)
    internal = SHA-256(0x11 || left || right)

An odd node at any level is paired with a duplicate of itself. A single
leaf is the root (no self-pairing at the top), and the empty list maps
to 32 zero bytes.
"""

from __future__ import annotations

from .digests import DIGEST_LEN, ZERO_DIGEST, sha256

LEAF_TAG = b"\x10"
NODE_TAG = b"\x11"


def leaf_hash(tx_id: bytes) -> bytes:
    return sha256(LEAF_TAG + tx_id)


def node_hash(left: bytes, right: bytes) -> bytes:
    return sha256(NODE_TAG + left + right)


def merkle_root(tx_ids: list[bytes]) -> bytes:
    if not tx_ids:
        return ZERO_DIGEST
    level = [leaf_hash(t) for t in tx_ids]
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def merkle_proof(tx_ids: list[bytes], index: int) -> list[bytes]:
    """Sibling hashes from leaf to root for the leaf at `index`.

    Direction is implied by the index bits: at each level an even index
    hashes (self, sibling), an odd one (sibling, self). Where the tree
    duplicated an odd node, the sibling is the node itself.
    """
    if index < 0 or index >= len(tx_ids):
        raise IndexError(f"leaf index {index} out of range for {len(tx_ids)} leaves")
    level = [leaf_hash(t) for t in tx_ids]
    path: list[bytes] = []
    pos = index
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        sibling = pos ^ 1
        path.append(level[sibling])
        level = [node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        pos //= 2
    return path


def verify_proof(root: bytes, tx_id: bytes, index: int, tx_count: int, path: list[bytes]) -> bool:
    """Recompute the root from a leaf and its proof path; compare to `root`.

    The proof is bound to a tree of `tx_count` leaves: an index outside it,
    or a path whose length is not that tree's depth, is refused (RFC 9162
    §2.1.3.2), so no proof verifies at a position past the last leaf.
    """
    if not 0 <= index < tx_count or len(path) != (tx_count - 1).bit_length():
        return False
    node = leaf_hash(tx_id)
    pos = index
    for sibling in path:
        if len(sibling) != DIGEST_LEN:
            return False
        if pos % 2 == 0:
            node = node_hash(node, sibling)
        else:
            node = node_hash(sibling, node)
        pos //= 2
    return node == root

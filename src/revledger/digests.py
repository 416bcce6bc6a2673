"""SHA-256 digest helpers shared across the ledger.

Every hash in the system (content addresses, transaction ids, Merkle
nodes, block hashes, endorsement tokens) is a raw 32-byte SHA-256
digest. Hex renderings are always 64 lowercase characters, no prefix.
"""

from __future__ import annotations

import hashlib

DIGEST_LEN = 32
ZERO_DIGEST = b"\x00" * DIGEST_LEN


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def to_hex(digest: bytes) -> str:
    """Render a 32-byte digest as 64 lowercase hex characters."""
    if len(digest) != DIGEST_LEN:
        raise ValueError(f"digest must be {DIGEST_LEN} bytes, got {len(digest)}")
    return digest.hex()


def from_hex(text: str) -> bytes:
    """Parse a 64-character lowercase hex digest; rejects anything else."""
    if len(text) != 2 * DIGEST_LEN:
        raise ValueError(f"digest hex must be {2 * DIGEST_LEN} chars, got {len(text)}")
    if text != text.lower():
        raise ValueError("digest hex must be lowercase")
    digest = bytes.fromhex(text)
    if len(digest) != DIGEST_LEN:  # fromhex skips whitespace between digit pairs
        raise ValueError(f"digest hex must be {2 * DIGEST_LEN} hex digits")
    return digest

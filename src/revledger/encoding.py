"""Canonical byte encoding for hashed entities.

Every digest in the ledger is computed over these bytes, never over a
display form, so hashes are recomputable by construction. Layout rules:

  * one leading tag byte per entity type (prevents cross-type preimage
    reuse): 0x01 revision record, 0x02 transaction, 0x03 block header
  * integers: 8-byte big-endian, unsigned
  * strings / variable bytes: 4-byte big-endian length, then raw bytes
  * 32-byte digests: raw, no length prefix
  * fields in declared order

A transaction's encoding deliberately excludes its endorsement list, so
the transaction id stays stable while endorsements accumulate.
"""

from __future__ import annotations

from .digests import DIGEST_LEN, sha256

TAG_RECORD = 0x01
TAG_TRANSACTION = 0x02
TAG_BLOCK_HEADER = 0x03

MAX_WORK_ID_BYTES = 256
MAX_AUTHOR_ID_BYTES = 128
MAX_PROPOSER_ID_BYTES = 256

_U64_MAX = (1 << 64) - 1


class MalformedError(ValueError):
    """A field violates its declared bounds or shape."""


def u64(value: int, name: str = "integer") -> bytes:
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedError(f"{name} must be an int")
    if value < 0 or value > _U64_MAX:
        raise MalformedError(f"{name} out of u64 range: {value}")
    return value.to_bytes(8, "big")


def length_prefixed(data: bytes, name: str = "bytes") -> bytes:
    if len(data) >= 1 << 32:
        raise MalformedError(f"{name} exceeds 4-byte length prefix")
    return len(data).to_bytes(4, "big") + data


def digest32(value: bytes, name: str = "digest") -> bytes:
    if not isinstance(value, (bytes, bytearray)) or len(value) != DIGEST_LEN:
        raise MalformedError(f"{name} must be exactly {DIGEST_LEN} bytes")
    return bytes(value)


def _check_text(value: str, name: str, max_bytes: int) -> bytes:
    """UTF-8 encode a text field that must be non-empty and at most max_bytes."""
    if not isinstance(value, str):
        raise MalformedError(f"{name} must be a string")
    try:
        raw = value.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate, as undecodable argv bytes give
        raise MalformedError(f"{name} is not encodable as UTF-8: {exc.reason}") from exc
    if not raw:
        raise MalformedError(f"{name} must be non-empty")
    if len(raw) > max_bytes:
        raise MalformedError(f"{name} exceeds {max_bytes} bytes")
    return raw


def check_work_id(work_id: str) -> bytes:
    """Validate and UTF-8 encode a work id: non-empty, no NUL, <= 256 bytes."""
    if isinstance(work_id, str) and "\x00" in work_id:
        raise MalformedError("work_id must not contain NUL bytes")
    return _check_text(work_id, "work_id", MAX_WORK_ID_BYTES)


def check_author_id(author_id: str) -> bytes:
    return _check_text(author_id, "author_id", MAX_AUTHOR_ID_BYTES)


def encode_record(record) -> bytes:
    """Canonical bytes of a revision record (duck-typed on field names)."""
    if record.revision_number < 1:
        raise MalformedError("revision_number must be >= 1")
    return b"".join(
        (
            bytes([TAG_RECORD]),
            length_prefixed(check_work_id(record.work_id), "work_id"),
            u64(record.revision_number, "revision_number"),
            digest32(record.content_hash, "content_hash"),
            length_prefixed(check_author_id(record.author_id), "author_id"),
            u64(record.submit_tick, "submit_tick"),
        )
    )


def encode_transaction(record, read_version: int) -> bytes:
    """Canonical transaction bytes: record plus read_version, endorsements
    excluded so the id survives endorsement accumulation."""
    return b"".join(
        (
            bytes([TAG_TRANSACTION]),
            encode_record(record),
            u64(read_version, "read_version"),
        )
    )


def transaction_id(record, read_version: int) -> bytes:
    return sha256(encode_transaction(record, read_version))


def encode_header(header) -> bytes:
    """Canonical block header bytes (duck-typed on field names)."""
    proposer_raw = header.proposer_id.encode("utf-8")
    if len(proposer_raw) > MAX_PROPOSER_ID_BYTES:
        raise MalformedError(f"proposer_id exceeds {MAX_PROPOSER_ID_BYTES} bytes")
    return b"".join(
        (
            bytes([TAG_BLOCK_HEADER]),
            u64(header.height, "height"),
            digest32(header.prev_hash, "prev_hash"),
            digest32(header.merkle_root, "merkle_root"),
            length_prefixed(proposer_raw, "proposer_id"),
            u64(header.view, "view"),
            u64(header.tick, "tick"),
            u64(header.tx_count, "tx_count"),
        )
    )


def header_hash(header) -> bytes:
    return sha256(encode_header(header))

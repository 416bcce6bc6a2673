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

The encoders only pack: they trust fields that were checked where they
entered. A chain file's parse (ledger.block_from_line) guarantees every
shape (u64 integers, 32-byte digests, UTF-8 text, the proposer bound),
check_record the record bounds, and propose_revision a new record's ids
and integers. check_block runs check_record before it derives a tx id.
"""

from __future__ import annotations

from .digests import sha256

TAG_RECORD = b"\x01"
TAG_TRANSACTION = b"\x02"
TAG_BLOCK_HEADER = b"\x03"

MAX_WORK_ID_BYTES = 256
MAX_AUTHOR_ID_BYTES = 128
MAX_PROPOSER_ID_BYTES = 256


class MalformedError(ValueError):
    """A record field violates its declared bounds."""


def _check_text(value: str, name: str, max_bytes: int) -> bytes:
    """UTF-8 encode a text field that must be non-empty and at most max_bytes."""
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
    if "\x00" in work_id:
        raise MalformedError("work_id must not contain NUL bytes")
    return _check_text(work_id, "work_id", MAX_WORK_ID_BYTES)


def check_author_id(author_id: str) -> bytes:
    return _check_text(author_id, "author_id", MAX_AUTHOR_ID_BYTES)


def check_record(record) -> None:
    """Refuse a record that breaks a bound: the revision number below 1,
    then the work id, then the author id (duck-typed on field names)."""
    if record.revision_number < 1:
        raise MalformedError("revision_number must be >= 1")
    check_work_id(record.work_id)
    check_author_id(record.author_id)


def _length_prefixed(value: str) -> bytes:
    raw = value.encode("utf-8")
    return len(raw).to_bytes(4, "big") + raw


def encode_record(record) -> bytes:
    """Canonical bytes of a revision record (duck-typed on field names)."""
    return b"".join(
        (
            TAG_RECORD,
            _length_prefixed(record.work_id),
            record.revision_number.to_bytes(8, "big"),
            record.content_hash,
            _length_prefixed(record.author_id),
            record.submit_tick.to_bytes(8, "big"),
        )
    )


def encode_transaction(record, read_version: int) -> bytes:
    """Canonical transaction bytes: record plus read_version, endorsements
    excluded so the id survives endorsement accumulation."""
    return TAG_TRANSACTION + encode_record(record) + read_version.to_bytes(8, "big")


def transaction_id(record, read_version: int) -> bytes:
    return sha256(encode_transaction(record, read_version))


def encode_header(header) -> bytes:
    """Canonical block header bytes (duck-typed on field names)."""
    return b"".join(
        (
            TAG_BLOCK_HEADER,
            header.height.to_bytes(8, "big"),
            header.prev_hash,
            header.merkle_root,
            _length_prefixed(header.proposer_id),
            header.view.to_bytes(8, "big"),
            header.tick.to_bytes(8, "big"),
            header.tx_count.to_bytes(8, "big"),
        )
    )


def header_hash(header) -> bytes:
    return sha256(encode_header(header))

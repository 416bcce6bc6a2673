"""Content-addressed blob storage for revision payloads.

Payload bytes (novel text, cartoon image data, anything) are stored
under the SHA-256 of the bytes themselves, so storage is self-verifying:
a blob that does not hash to its own key has been tampered with.

On-disk layout, relative to the store root:

    blobs/<first 2 hex chars>/<full 64 hex chars>

Blob files hold the raw payload bytes, no envelope, so any external
sha256 tool can check them. Identical content is stored once, whatever
work or revision it belongs to.

`put` takes the key a transaction claims for the bytes, and stores them
only where they hash to it: bytes that do not are stored under no key,
so a store holds no blob that no block references. Neither a put nor an
audit re-hashes a copy equal to bytes already hashed to its key: see
`audit_stores` and `MemoryStore`.
"""

from __future__ import annotations

import errno
import itertools
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .digests import from_hex, sha256, to_hex

_TMP_COUNTER = itertools.count()


class StoreError(Exception):
    """Base class for content store failures."""


class NotFoundError(StoreError):
    """No blob stored under the requested hash."""


class IntegrityError(StoreError):
    """Stored bytes no longer hash to their key."""


@dataclass(frozen=True)
class AuditDefect:
    key: str  # hex key as stored (or raw filename when malformed)
    kind: str  # key-mismatch | unreadable | malformed-key
    detail: str = ""


class StoreAudit(NamedTuple):
    defects: list[AuditDefect]
    whole: set[bytes]  # keys whose copy was read and hashed to the key


class ContentStore:
    """Filesystem-backed store. Safe for concurrent puts of the same blob:
    writes go to a temp file and are published with an atomic rename."""

    def __init__(self, root: Path | str):
        # Blob paths are built as strings: pathlib costs more than the
        # stat itself on the paths that load a whole history.
        self._prefix = os.path.join(Path(root, "blobs"), "")

    def blob_path(self, digest: bytes) -> str:
        """Where the blob keyed by `digest` lives: blobs/<2 hex>/<64 hex>."""
        hex_key = to_hex(digest)
        return f"{self._prefix}{hex_key[:2]}/{hex_key}"

    def put(self, digest: bytes, data: bytes) -> None:
        """Store bytes under `digest`, the hash their transaction claims,
        where they hash to it; a key already stored is left as it is."""
        if self.has(digest) or sha256(data) != digest:
            return
        path = self.blob_path(digest)
        try:
            fan_out = os.path.dirname(path)
            os.makedirs(fan_out, exist_ok=True)
            # unique temp name per call: concurrent puts of the same bytes
            # each publish their own copy, last rename wins with identical
            # content either way
            tmp = os.path.join(fan_out, f".tmp-{os.getpid()}-{next(_TMP_COUNTER)}")
            with open(tmp, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError as exc:
            raise StoreError(f"cannot write blob at {path}: {exc}") from exc

    def has(self, digest: bytes) -> bool:
        """True if a blob is stored under the digest. Only an absent blob or
        fan-out directory reads as False; any other failure to look raises."""
        path = self.blob_path(digest)
        try:
            os.stat(path)
        except (FileNotFoundError, NotADirectoryError):
            return False
        except OSError as exc:
            raise StoreError(f"cannot look up blob at {path}: {exc}") from exc
        return True

    def get(self, digest: bytes) -> bytes:
        """Return the stored bytes, re-verified against the key on every read."""
        path = self.blob_path(digest)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except (FileNotFoundError, NotADirectoryError):
            raise NotFoundError(f"no blob for {to_hex(digest)}") from None
        except OSError as exc:
            raise StoreError(f"cannot read blob at {path}: {exc}") from exc
        if sha256(data) != digest:
            raise IntegrityError(f"blob {to_hex(digest)} does not match its key")
        return data

    def audit(self) -> StoreAudit:
        """Rehash each blob once, in `blobs/*/*` name order: the defects
        found (none means every blob matches its key) and the keys whose
        blob was read whole.

        Dot-prefixed names are skipped: they are in-flight publications
        from concurrent puts, not blobs.
        """
        return audit_stores([self])[0]


def audit_stores(stores: list[ContentStore]) -> list[StoreAudit]:
    """Each store's `audit()`, from one pass over the stores key by key.

    Every store's copy of a key is read once. A copy whose bytes equal an
    earlier copy of the key that hashed to it is accepted without hashing,
    as equal bytes have equal hashes; any other copy is hashed. Only that
    one accepted copy is held at a time. Each store's defects come in its
    own `blobs/*/*` name order, as its walk is a subsequence of the joint one.
    """
    audits = [StoreAudit([], set()) for _ in stores]
    found = [audit.defects for audit in audits]
    listed = [_names(store._prefix, "blobs", defects) for store, defects in zip(stores, found)]
    for fan_out in sorted(set().union(*listed)):
        names = [
            _names(store._prefix + fan_out, fan_out, defects) if fan_out in fan_outs else set()
            for store, defects, fan_outs in zip(stores, found, listed)
        ]
        for name in sorted(set().union(*names)):
            if name.startswith("."):
                continue
            holders = [k for k, held in enumerate(names) if name in held]
            try:
                digest = from_hex(name)
            except ValueError:
                malformed = "not a 64-char hex name"
            else:
                malformed = "wrong fan-out directory" if fan_out != name[:2] else ""
            if malformed:
                for k in holders:
                    found[k].append(AuditDefect(name, "malformed-key", malformed))
                continue
            accepted = None
            for k in holders:
                try:
                    with open(f"{stores[k]._prefix}{fan_out}/{name}", "rb") as fh:
                        data = fh.read()
                except OSError as exc:
                    found[k].append(AuditDefect(name, "unreadable", str(exc)))
                    continue
                if data != accepted and sha256(data) != digest:
                    detail = "content does not hash to key"
                    found[k].append(AuditDefect(name, "key-mismatch", detail))
                    continue
                accepted = data
                audits[k].whole.add(digest)
    return audits


def _names(directory: str, key: str, defects: list[AuditDefect]) -> set[str]:
    """Entry names; none where the directory is absent. One that cannot be
    listed is an unreadable defect, as the blobs in it go unchecked."""
    try:
        return set(os.listdir(directory))
    except (FileNotFoundError, NotADirectoryError):
        return set()
    except OSError as exc:
        if exc.errno != errno.ELOOP:  # a symlink loop holds no blob
            defects.append(AuditDefect(key, "unreadable", str(exc)))
        return set()


class MemoryStore:
    """Dict-backed store with the ContentStore surface, for simulations.

    Every store of one group shares `_hashed`, the group's record of bytes
    that hashed to their key, which only `put` writes. A put of bytes equal
    to those recorded under the claimed key stores them unhashed, as equal
    bytes have equal hashes; any other bytes are hashed, stored and
    recorded where they hash to the key, and stored nowhere otherwise. So
    a payload that all of a group's replicas put is hashed once. The audit
    accepts an entry equal to the recorded bytes unhashed, the rule of
    `audit_stores`, and hashes every other entry; bytes are immutable, so
    the record never goes stale. It makes one pass over the entries and
    sorts only the damaged keys, for its defect list.
    """

    def __init__(self, hashed: dict[bytes, bytes]):
        """`hashed` is the group's record, shared by all of its stores."""
        self._blobs: dict[bytes, bytes] = {}
        self._hashed = hashed

    def put(self, digest: bytes, data: bytes) -> None:
        if digest in self._blobs or (data != self._hashed.get(digest) and sha256(data) != digest):
            return
        self._hashed.setdefault(digest, data)
        self._blobs[digest] = data

    def has(self, digest: bytes) -> bool:
        return digest in self._blobs

    def get(self, digest: bytes) -> bytes:
        if digest not in self._blobs:
            raise NotFoundError(f"no blob for {to_hex(digest)}")
        data = self._blobs[digest]
        if sha256(data) != digest:
            raise IntegrityError(f"blob {to_hex(digest)} does not match its key")
        return data

    def audit(self) -> StoreAudit:
        hashed = self._hashed
        damaged = sorted(
            digest
            for digest, data in self._blobs.items()
            if data != hashed.get(digest) and sha256(data) != digest
        )
        defects = [AuditDefect(to_hex(digest), "key-mismatch") for digest in damaged]
        return StoreAudit(defects, set(self._blobs).difference(damaged))

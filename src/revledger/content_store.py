"""Content-addressed blob storage for revision payloads.

Payload bytes (novel text, cartoon image data, anything) are stored
under the SHA-256 of the bytes themselves, so storage is self-verifying:
a blob that does not hash to its own key has been tampered with.

On-disk layout, relative to the store root:

    blobs/<first 2 hex chars>/<full 64 hex chars>

Blob files hold the raw payload bytes, no envelope, so any external
sha256 tool can check them. Identical content is stored once, whatever
work or revision it belongs to.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from pathlib import Path

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


class ContentStore:
    """Filesystem-backed store. Safe for concurrent puts of the same blob:
    writes go to a temp file and are published with an atomic rename."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.blob_dir = self.root / "blobs"
        # Blob paths are built as strings: pathlib costs more than the
        # stat itself on the paths that load a whole history.
        self._prefix = os.path.join(self.blob_dir, "")

    def _blob_path(self, digest: bytes) -> str:
        hex_key = to_hex(digest)
        return f"{self._prefix}{hex_key[:2]}/{hex_key}"

    def put(self, data: bytes) -> bytes:
        """Store bytes under their hash; re-putting identical bytes is a no-op."""
        digest = sha256(data)
        if self.has(digest):
            return digest
        path = self._blob_path(digest)
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
        return digest

    def has(self, digest: bytes) -> bool:
        """True if a blob is stored under the digest. Only an absent blob or
        fan-out directory reads as False; any other failure to look raises."""
        path = self._blob_path(digest)
        try:
            os.stat(path)
        except (FileNotFoundError, NotADirectoryError):
            return False
        except OSError as exc:
            raise StoreError(f"cannot look up blob at {path}: {exc}") from exc
        return True

    def get(self, digest: bytes) -> bytes:
        """Return the stored bytes, re-verified against the key on every read."""
        path = self._blob_path(digest)
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

    def audit(self) -> list[AuditDefect]:
        """Rehash every blob. Empty result means every blob matches its key.

        Dot-prefixed names are skipped: they are in-flight publications
        from concurrent puts, not blobs.
        """
        defects: list[AuditDefect] = []
        if not self.blob_dir.exists():
            return defects
        for path in sorted(self.blob_dir.glob("*/*")):
            name = path.name
            if name.startswith("."):
                continue
            try:
                digest = from_hex(name)
            except ValueError:
                defects.append(AuditDefect(name, "malformed-key", "not a 64-char hex name"))
                continue
            if path.parent.name != name[:2]:
                defects.append(AuditDefect(name, "malformed-key", "wrong fan-out directory"))
                continue
            try:
                data = path.read_bytes()
            except OSError as exc:
                defects.append(AuditDefect(name, "unreadable", str(exc)))
                continue
            if sha256(data) != digest:
                defects.append(AuditDefect(name, "key-mismatch", "content does not hash to key"))
        return defects


class MemoryStore:
    """Dict-backed store with the ContentStore surface, for simulations."""

    def __init__(self):
        self._blobs: dict[bytes, bytes] = {}

    def put(self, data: bytes) -> bytes:
        digest = sha256(data)
        self._blobs.setdefault(digest, data)
        return digest

    def has(self, digest: bytes) -> bool:
        return digest in self._blobs

    def get(self, digest: bytes) -> bytes:
        if digest not in self._blobs:
            raise NotFoundError(f"no blob for {to_hex(digest)}")
        data = self._blobs[digest]
        if sha256(data) != digest:
            raise IntegrityError(f"blob {to_hex(digest)} does not match its key")
        return data

    def audit(self) -> list[AuditDefect]:
        defects = []
        for digest in sorted(self._blobs):
            if sha256(self._blobs[digest]) != digest:
                defects.append(AuditDefect(to_hex(digest), "key-mismatch"))
        return defects

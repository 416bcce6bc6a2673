import hashlib
import os
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from revledger.content_store import (
    AuditDefect,
    ContentStore,
    IntegrityError,
    MemoryStore,
    NotFoundError,
    StoreAudit,
    StoreError,
    audit_stores,
)
from revledger.digests import from_hex, to_hex

# Published SHA-256 reference vectors; frozen independently of the store.
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
ABC_SHA256 = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def blob_files(root):
    return sorted((root / "blobs").glob("*/*"))


def put(store, data: bytes) -> bytes:
    """Put `data` under its own hash, as the commit of a transaction naming
    it does; returns that key."""
    digest = hashlib.sha256(data).digest()
    store.put(digest, data)
    return digest


def test_hash_matches_reference_vectors():
    store = MemoryStore({})
    for key, data in ((EMPTY_SHA256, b""), (ABC_SHA256, b"abc")):
        store.put(from_hex(key), data)
        assert store.get(from_hex(key)) == data
    assert store.audit() == ([], {from_hex(EMPTY_SHA256), from_hex(ABC_SHA256)})


def test_hash_deterministic_large_payload():
    blob = bytes(range(256)) * 4096  # 1 MiB
    stores = [MemoryStore({}), MemoryStore({})]
    keys = [put(store, bytes(bytearray(blob))) for store in stores]
    assert keys[0] == keys[1] and all(store.get(keys[0]) == blob for store in stores)


@pytest.mark.parametrize("kind", ["disk", "memory"])
def test_put_stores_no_bytes_that_miss_their_claimed_key(tmp_path, kind):
    """Bytes that do not hash to the key their transaction claims are
    stored under no key, whether or not the key's right bytes are held or
    recorded; a key already held keeps its bytes."""
    right, wrong = b"the named payload", b"other bytes"
    key = hashlib.sha256(right).digest()
    if kind == "disk":
        store, held = ContentStore(tmp_path / "a"), ContentStore(tmp_path / "b")
    else:
        record = {}
        store, held = MemoryStore(record), MemoryStore(record)
    store.put(key, wrong)
    assert not store.has(key) and not store.has(hashlib.sha256(wrong).digest())
    held.put(key, right)  # the group's record now holds the right bytes
    store.put(key, wrong)
    assert not store.has(key) and store.audit() == ([], set())
    held.put(key, wrong)
    assert held.get(key) == right and held.audit() == ([], {key})
    if kind == "disk":
        assert blob_files(tmp_path / "a") == []
    else:
        assert store._blobs == {} and record == {key: right}


def test_put_get_round_trip(tmp_path):
    store = ContentStore(tmp_path)
    digest = put(store, b"chapter one")
    assert store.get(digest) == b"chapter one"


def test_put_is_idempotent(tmp_path):
    store = ContentStore(tmp_path)
    d1 = put(store, b"dup")
    d2 = put(store, b"dup")
    assert d1 == d2
    assert len(blob_files(tmp_path)) == 1


def test_distinct_payloads_distinct_blobs(tmp_path):
    store = ContentStore(tmp_path)
    d1 = put(store, b"one")
    d2 = put(store, b"two")
    assert d1 != d2
    assert len(blob_files(tmp_path)) == 2


def test_zero_byte_payload_is_legal(tmp_path):
    store = ContentStore(tmp_path)
    digest = put(store, b"")
    assert to_hex(digest) == EMPTY_SHA256
    assert store.get(digest) == b""


def test_get_unknown_hash(tmp_path):
    store = ContentStore(tmp_path)
    with pytest.raises(NotFoundError):
        store.get(from_hex(ABC_SHA256))


def test_get_detects_corruption(tmp_path):
    store = ContentStore(tmp_path)
    digest = put(store, b"original text")
    path = tmp_path / "blobs" / to_hex(digest)[:2] / to_hex(digest)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError) as err:
        store.get(digest)
    assert to_hex(digest) in str(err.value)
    path.unlink()
    path.mkdir()  # a directory where the blob belongs cannot be read, yet is there
    with pytest.raises(StoreError, match="^cannot read blob at ") as err:
        store.get(digest)
    assert not isinstance(err.value, NotFoundError)


def test_has_is_false_only_for_an_absent_blob(tmp_path):
    store = ContentStore(tmp_path)
    digest = put(store, b"abc")
    assert store.has(digest)
    assert not store.has(from_hex(EMPTY_SHA256))
    fan_out = tmp_path / "blobs" / to_hex(digest)[:2]
    (fan_out / to_hex(digest)).unlink()
    fan_out.rmdir()
    fan_out.write_bytes(b"")  # a file where the fan-out directory belongs
    assert not store.has(digest)


def test_has_raises_when_the_fan_out_directory_is_unreadable(tmp_path, monkeypatch):
    """Permission bits do not bind root, so the refused lookup is simulated."""
    store = ContentStore(tmp_path)
    digest = put(store, b"abc")
    fan_out = str(tmp_path / "blobs" / to_hex(digest)[:2])
    stat = os.stat

    def refuse_in_fan_out(path, *args, **kwargs):
        if os.path.dirname(path) == fan_out:
            raise PermissionError(13, "Permission denied", path)
        return stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", refuse_in_fan_out)
    with pytest.raises(StoreError):
        store.has(digest)


def test_has_raises_when_the_fan_out_directory_cannot_be_resolved(tmp_path):
    store = ContentStore(tmp_path)
    digest = put(store, b"abc")
    fan_out = tmp_path / "blobs" / to_hex(digest)[:2]
    (fan_out / to_hex(digest)).unlink()
    fan_out.rmdir()
    fan_out.symlink_to(fan_out.name)  # a symlink loop: stat fails with ELOOP
    with pytest.raises(StoreError):
        store.has(digest)


def test_blob_layout_is_fanout_by_prefix(tmp_path):
    store = ContentStore(tmp_path)
    digest = put(store, b"abc")
    hex_key = to_hex(digest)
    assert (tmp_path / "blobs" / hex_key[:2] / hex_key).read_bytes() == b"abc"


def test_audit_clean_store(tmp_path):
    store = ContentStore(tmp_path)
    digests = {put(store, f"blob {i}".encode()) for i in range(5)}
    assert store.audit() == ([], digests)


def test_audit_reports_single_corruption(tmp_path):
    store = ContentStore(tmp_path)
    digests = [put(store, f"blob {i}".encode()) for i in range(4)]
    victim = to_hex(digests[2])
    path = tmp_path / "blobs" / victim[:2] / victim
    raw = bytearray(path.read_bytes())
    raw[3] ^= 0x01
    path.write_bytes(bytes(raw))
    defects, whole = store.audit()
    assert whole == set(digests) - {digests[2]}
    assert len(defects) == 1
    assert defects[0].key == victim
    assert defects[0].kind == "key-mismatch"


def test_audit_reports_renamed_blob(tmp_path):
    store = ContentStore(tmp_path)
    digest = put(store, b"renamed content")
    wrong = hashlib.sha256(b"somewhere else").hexdigest()
    src = tmp_path / "blobs" / to_hex(digest)[:2] / to_hex(digest)
    dst = tmp_path / "blobs" / wrong[:2] / wrong
    dst.parent.mkdir(parents=True, exist_ok=True)
    src.rename(dst)
    defects, whole = store.audit()
    assert whole == set()
    assert [d.kind for d in defects] == ["key-mismatch"]
    assert defects[0].key == wrong


def test_audit_reports_malformed_key(tmp_path):
    store = ContentStore(tmp_path)
    put(store, b"fine")
    bad = tmp_path / "blobs" / "zz"
    bad.mkdir()
    (bad / "not-a-hash").write_bytes(b"junk")
    kinds = {d.kind for d in store.audit().defects}
    assert kinds == {"malformed-key"}


def test_audit_visits_blobs_in_name_order_and_skips_dot_names(tmp_path):
    store = ContentStore(tmp_path)
    keys = sorted(to_hex(put(store, f"blob {i}".encode())) for i in range(3))
    blobs = tmp_path / "blobs"
    for key in keys[::2]:
        path = blobs / key[:2] / key
        path.write_bytes(path.read_bytes() + b"!")
    (blobs / keys[1][:2] / ".tmp-1-0").write_bytes(b"in flight")
    (blobs / "zz").mkdir()
    (blobs / "zz" / "not-a-hash").write_bytes(b"junk")
    (blobs / ".hidden").mkdir()
    (blobs / ".hidden" / keys[1]).write_bytes(b"stray")
    (blobs / "README").write_bytes(b"a file beside the fan-out directories")
    defects, whole = store.audit()
    assert [(d.key, d.kind, d.detail) for d in defects] == [
        (keys[1], "malformed-key", "wrong fan-out directory"),
        (keys[0], "key-mismatch", "content does not hash to key"),
        (keys[2], "key-mismatch", "content does not hash to key"),
        ("not-a-hash", "malformed-key", "not a 64-char hex name"),
    ]
    assert whole == {from_hex(keys[1])}


def test_audit_of_a_store_without_blobs_is_empty(tmp_path):
    assert ContentStore(tmp_path / "absent").audit() == ([], set())
    (tmp_path / "blobs").write_bytes(b"not a directory")
    assert ContentStore(tmp_path).audit() == ([], set())


def test_audit_stores_reports_each_stores_whole_copies(tmp_path):
    """A copy equal to one that hashed to its key is whole without hashing;
    a damaged copy is not whole, and neither is a key the store lacks."""
    stores = [ContentStore(tmp_path / name) for name in ("a", "b", "c")]
    shared = [put(store, b"shared") for store in stores][0]
    only_a = put(stores[0], b"only in a")
    key = to_hex(shared)
    (tmp_path / "b" / "blobs" / key[:2] / key).write_bytes(b"damaged")
    audits = audit_stores(stores)
    assert [audit.whole for audit in audits] == [{shared, only_a}, set(), {shared}]
    assert [[(d.key, d.kind) for d in audit.defects] for audit in audits] == [
        [], [(key, "key-mismatch")], []
    ]


def test_audit_reports_a_fan_out_directory_it_cannot_list(tmp_path, monkeypatch):
    """Permission bits do not bind root, so the refused listing is simulated."""
    store = ContentStore(tmp_path)
    key = to_hex(put(store, b"behind a closed door"))
    listdir = os.listdir

    def refuse_fan_out(path):
        if os.path.basename(path) == key[:2]:
            raise PermissionError(13, "Permission denied", path)
        return listdir(path)

    monkeypatch.setattr(os, "listdir", refuse_fan_out)
    defects, whole = store.audit()
    assert [(d.key, d.kind) for d in defects] == [(key[:2], "unreadable")]
    assert whole == set()


def test_audit_skips_a_symlink_loop_in_place_of_a_fan_out_directory(tmp_path):
    store = ContentStore(tmp_path)
    digest = put(store, b"fine")
    loop = tmp_path / "blobs" / "zz"
    loop.symlink_to(loop)
    assert store.audit() == ([], {digest})


def test_concurrent_identical_puts_converge(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    store = ContentStore(tmp_path)
    payload = b"contended content" * 64
    with ThreadPoolExecutor(max_workers=8) as pool:
        digests = list(pool.map(lambda data: put(store, data), [payload] * 32))
    assert len(set(digests)) == 1
    assert len(blob_files(tmp_path)) == 1
    assert store.get(digests[0]) == payload
    assert store.audit() == ([], {digests[0]})


def test_memory_store_same_surface():
    store = MemoryStore({})
    digest = put(store, b"in memory")
    assert store.get(digest) == b"in memory"
    assert store.audit() == ([], {digest})
    with pytest.raises(NotFoundError):
        store.get(b"\x00" * 32)
    store._blobs[digest] = b"replaced"
    with pytest.raises(IntegrityError, match="does not match its key"):
        store.get(digest)


def test_memory_store_audit_hashes_only_what_put_did_not(monkeypatch):
    """The audit hashes no entry equal to the bytes its put hashed, and an
    entry replaced by other bytes at every audit."""
    hashed = Counter()
    sha256 = hashlib.sha256

    def counted(*args, **kwargs):
        hashed[bytes(*args)] += 1
        return sha256(*args, **kwargs)

    kept, replaced = sha256(b"kept").digest(), sha256(b"replaced").digest()
    monkeypatch.setattr(hashlib, "sha256", counted)
    store = MemoryStore({})
    store.put(kept, b"kept")
    store.put(replaced, b"replaced")
    store._blobs[replaced] = b"other"
    for _ in range(2):
        assert store.audit() == ([AuditDefect(to_hex(replaced), "key-mismatch")], {kept})
    assert hashed == {b"kept": 1, b"replaced": 1, b"other": 2}


def hashed_audit(store: MemoryStore) -> StoreAudit:
    """The audit that hashes every entry."""
    audit = StoreAudit([], set())
    for digest, data in sorted(store._blobs.items()):
        if hashlib.sha256(data).digest() == digest:
            audit.whole.add(digest)
        else:
            audit.defects.append(AuditDefect(to_hex(digest), "key-mismatch"))
    return audit


PAYLOADS = st.sampled_from([b"", b"a", b"b", b"ab"]) | st.binary(max_size=8)
STORE_OPS = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 3), PAYLOADS),
    st.tuples(st.just("unput"), st.integers(0, 3), PAYLOADS, PAYLOADS),
    st.tuples(st.just("other-bytes"), st.integers(0, 3), st.integers(0, 7), PAYLOADS),
    st.tuples(st.just("equal-copy"), st.integers(0, 3), st.integers(0, 7)),
    st.tuples(st.just("delete"), st.integers(0, 3), st.integers(0, 7)),
    st.tuples(st.just("damaged-in-two"), st.integers(0, 3), st.integers(0, 7), st.integers(0, 3)),
    st.tuples(st.just("audit"), st.integers(0, 3)),
)


@settings(derandomize=True, max_examples=300)
@given(st.integers(2, 4), st.lists(STORE_OPS, max_size=40))
def test_memory_store_audit_equals_one_that_hashes_every_entry(n, ops):
    """Stores with entries added without a put, replaced by other bytes or
    by an equal copy, deleted, or one damaged object placed in two stores:
    each store's audit, whenever it runs, equals hashing each of its
    entries."""
    record = {}
    stores = [MemoryStore(record) for _ in range(n)]
    for op, i, *rest in ops:
        store = stores[i % n]
        keys = sorted(store._blobs)
        if op == "put":
            put(store, rest[0])
        elif op == "unput":  # an entry no put hashed, under any payload's key
            store._blobs[hashlib.sha256(rest[0]).digest()] = rest[1]
        elif op == "audit":
            assert store.audit() == hashed_audit(store)
        elif keys:
            key = keys[rest[0] % len(keys)]
            data = store._blobs[key]
            if op == "other-bytes":
                store._blobs[key] = rest[1]
            elif op == "equal-copy":
                store._blobs[key] = bytes(bytearray(data))
            elif op == "delete":
                del store._blobs[key]
            else:
                damaged = b"x" + data
                store._blobs[key] = stores[rest[1] % n]._blobs[key] = damaged
    for store in stores:
        assert store.audit() == hashed_audit(store)


class PrivateStore:
    """The reference for stores that share one record: a MemoryStore with
    its own record that hashes every put, behind the presence check a
    commit made before each put, and keeps only bytes that hash to the
    claimed key."""

    def __init__(self):
        self._blobs: dict[bytes, bytes] = {}
        self._hashed: dict[bytes, bytes] = {}

    def put(self, digest: bytes, data: bytes) -> None:
        if digest in self._blobs or hashlib.sha256(data).digest() != digest:
            return
        self._blobs[digest] = data
        self._hashed.setdefault(digest, data)

    def audit(self) -> StoreAudit:
        damaged = sorted(
            digest
            for digest, data in self._blobs.items()
            if data != self._hashed.get(digest) and hashlib.sha256(data).digest() != digest
        )
        defects = [AuditDefect(to_hex(digest), "key-mismatch") for digest in damaged]
        return StoreAudit(defects, set(self._blobs).difference(damaged))


SHARED_OPS = st.one_of(
    # a put of payload j's right bytes (the one object, or an equal copy),
    # or of other bytes, under payload j's key
    st.tuples(st.just("put"), st.integers(0, 12), st.integers(0, 3),
              st.sampled_from(["same", "copy", "wrong"])),
    # damage to one of store i's entries after its put
    st.tuples(st.just("damage"), st.integers(0, 12), st.integers(0, 7),
              st.sampled_from(["other-bytes", "equal-copy", "delete", "record-of-other-key"])),
    st.tuples(st.just("audit"), st.integers(0, 12)),
)


@settings(derandomize=True, max_examples=300)
@given(
    st.integers(2, 13),
    st.lists(st.binary(max_size=8), min_size=1, max_size=4),
    st.lists(SHARED_OPS, max_size=40),
)
def test_stores_sharing_a_record_equal_stores_that_hash_every_put(n, payloads, ops):
    """2-13 stores share one record, and each is shadowed by a PrivateStore
    given the same puts and damages. Each store's contents and audit, at
    every audit and at the end, equal its shadow's, and the record holds
    only bytes that hash to their key."""
    record = {}
    stores = [MemoryStore(record) for _ in range(n)]
    shadows = [PrivateStore() for _ in range(n)]
    for op, i, *rest in ops:
        store, shadow = stores[i % n], shadows[i % n]
        if op == "put":
            payload = payloads[rest[0] % len(payloads)]
            data = {
                "same": payload, "copy": bytes(bytearray(payload)), "wrong": payload + b"!"
            }[rest[1]]
            key = hashlib.sha256(payload).digest()
            store.put(key, data)
            shadow.put(key, data)
        elif op == "audit":
            assert store.audit() == shadow.audit()
        elif store._blobs:
            keys = sorted(store._blobs)
            key = keys[rest[0] % len(keys)]
            others = sorted(set(record) - {key})
            if rest[1] == "other-bytes":
                data = store._blobs[key] + b"?"
            elif rest[1] == "equal-copy":
                data = bytes(bytearray(store._blobs[key]))
            elif rest[1] == "record-of-other-key":
                if not others:
                    continue
                data = record[others[rest[0] % len(others)]]
            else:
                del store._blobs[key], shadow._blobs[key]
                continue
            store._blobs[key] = shadow._blobs[key] = data
    for store, shadow in zip(stores, shadows):
        assert store._blobs == shadow._blobs
        assert store.audit() == shadow.audit()
    assert all(hashlib.sha256(data).digest() == key for key, data in record.items())


@given(st.binary(max_size=2048))
def test_round_trip_property(data):
    store = MemoryStore({})
    assert store.get(put(store, data)) == data


@given(st.binary(max_size=512), st.binary(max_size=512))
def test_no_observed_collisions(a, b):
    if a != b:
        store = MemoryStore({})
        key_a, key_b = put(store, a), put(store, b)
        assert key_a != key_b and store.get(key_a) == a and store.get(key_b) == b


def test_hex_round_trip():
    digest = put(MemoryStore({}), b"round trip me")
    assert from_hex(to_hex(digest)) == digest


def test_hex_rejects_uppercase_and_bad_length():
    with pytest.raises(ValueError):
        from_hex(ABC_SHA256.upper())
    with pytest.raises(ValueError):
        from_hex("abcd")
    with pytest.raises(ValueError):
        to_hex(b"\x00" * 31)


def test_from_hex_refuses_a_short_digest():
    """bytes.fromhex skips whitespace, so 64 characters can hold fewer than
    32 bytes; from_hex refuses them."""
    for text in ("00" * 31 + "  ", " " + "00" * 31 + " ", "00" * 15 + "\t\n" + "00" * 16):
        with pytest.raises(ValueError, match="64 hex digits"):
            from_hex(text)

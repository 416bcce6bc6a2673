import hashlib
import os

import pytest
from hypothesis import given, strategies as st

from revledger.content_store import (
    ContentStore,
    IntegrityError,
    MemoryStore,
    NotFoundError,
    StoreError,
)
from revledger.digests import from_hex, to_hex

# Published SHA-256 reference vectors; frozen independently of the store.
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
ABC_SHA256 = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def blob_files(root):
    return sorted((root / "blobs").glob("*/*"))


def test_hash_matches_reference_vectors():
    store = MemoryStore()
    assert to_hex(store.put(b"")) == EMPTY_SHA256
    assert to_hex(store.put(b"abc")) == ABC_SHA256


def test_hash_deterministic_large_payload():
    blob = bytes(range(256)) * 4096  # 1 MiB
    assert MemoryStore().put(blob) == MemoryStore().put(blob)


def test_put_get_round_trip(tmp_path):
    store = ContentStore(tmp_path)
    digest = store.put(b"chapter one")
    assert store.get(digest) == b"chapter one"


def test_put_is_idempotent(tmp_path):
    store = ContentStore(tmp_path)
    d1 = store.put(b"dup")
    d2 = store.put(b"dup")
    assert d1 == d2
    assert len(blob_files(tmp_path)) == 1


def test_distinct_payloads_distinct_blobs(tmp_path):
    store = ContentStore(tmp_path)
    d1 = store.put(b"one")
    d2 = store.put(b"two")
    assert d1 != d2
    assert len(blob_files(tmp_path)) == 2


def test_zero_byte_payload_is_legal(tmp_path):
    store = ContentStore(tmp_path)
    digest = store.put(b"")
    assert to_hex(digest) == EMPTY_SHA256
    assert store.get(digest) == b""


def test_get_unknown_hash(tmp_path):
    store = ContentStore(tmp_path)
    with pytest.raises(NotFoundError):
        store.get(from_hex(ABC_SHA256))


def test_get_detects_corruption(tmp_path):
    store = ContentStore(tmp_path)
    digest = store.put(b"original text")
    path = tmp_path / "blobs" / to_hex(digest)[:2] / to_hex(digest)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError) as err:
        store.get(digest)
    assert to_hex(digest) in str(err.value)


def test_has_is_false_only_for_an_absent_blob(tmp_path):
    store = ContentStore(tmp_path)
    digest = store.put(b"abc")
    assert store.has(digest)
    assert not store.has(from_hex(EMPTY_SHA256))
    fan_out = tmp_path / "blobs" / to_hex(digest)[:2]
    (fan_out / to_hex(digest)).unlink()
    fan_out.rmdir()
    fan_out.write_bytes(b"")  # a file where the fan-out directory belongs
    assert not store.has(digest)


@pytest.mark.skipif(os.geteuid() == 0, reason="root reads any directory")
def test_has_raises_when_the_fan_out_directory_is_unreadable(tmp_path):
    store = ContentStore(tmp_path)
    digest = store.put(b"abc")
    fan_out = tmp_path / "blobs" / to_hex(digest)[:2]
    fan_out.chmod(0)
    try:
        with pytest.raises(StoreError):
            store.has(digest)
    finally:
        fan_out.chmod(0o755)


def test_has_raises_when_the_fan_out_directory_cannot_be_resolved(tmp_path):
    store = ContentStore(tmp_path)
    digest = store.put(b"abc")
    fan_out = tmp_path / "blobs" / to_hex(digest)[:2]
    (fan_out / to_hex(digest)).unlink()
    fan_out.rmdir()
    fan_out.symlink_to(fan_out.name)  # a symlink loop: stat fails with ELOOP
    with pytest.raises(StoreError):
        store.has(digest)


def test_blob_layout_is_fanout_by_prefix(tmp_path):
    store = ContentStore(tmp_path)
    digest = store.put(b"abc")
    hex_key = to_hex(digest)
    assert (tmp_path / "blobs" / hex_key[:2] / hex_key).read_bytes() == b"abc"


def test_audit_clean_store(tmp_path):
    store = ContentStore(tmp_path)
    for i in range(5):
        store.put(f"blob {i}".encode())
    assert store.audit() == []


def test_audit_reports_single_corruption(tmp_path):
    store = ContentStore(tmp_path)
    digests = [store.put(f"blob {i}".encode()) for i in range(4)]
    victim = to_hex(digests[2])
    path = tmp_path / "blobs" / victim[:2] / victim
    raw = bytearray(path.read_bytes())
    raw[3] ^= 0x01
    path.write_bytes(bytes(raw))
    defects = store.audit()
    assert len(defects) == 1
    assert defects[0].key == victim
    assert defects[0].kind == "key-mismatch"


def test_audit_reports_renamed_blob(tmp_path):
    store = ContentStore(tmp_path)
    digest = store.put(b"renamed content")
    wrong = hashlib.sha256(b"somewhere else").hexdigest()
    src = tmp_path / "blobs" / to_hex(digest)[:2] / to_hex(digest)
    dst = tmp_path / "blobs" / wrong[:2] / wrong
    dst.parent.mkdir(parents=True, exist_ok=True)
    src.rename(dst)
    defects = store.audit()
    assert [d.kind for d in defects] == ["key-mismatch"]
    assert defects[0].key == wrong


def test_audit_reports_malformed_key(tmp_path):
    store = ContentStore(tmp_path)
    store.put(b"fine")
    bad = tmp_path / "blobs" / "zz"
    bad.mkdir()
    (bad / "not-a-hash").write_bytes(b"junk")
    kinds = {d.kind for d in store.audit()}
    assert kinds == {"malformed-key"}


def test_concurrent_identical_puts_converge(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    store = ContentStore(tmp_path)
    payload = b"contended content" * 64
    with ThreadPoolExecutor(max_workers=8) as pool:
        digests = list(pool.map(store.put, [payload] * 32))
    assert len(set(digests)) == 1
    assert len(blob_files(tmp_path)) == 1
    assert store.get(digests[0]) == payload
    assert store.audit() == []


def test_memory_store_same_surface():
    store = MemoryStore()
    digest = store.put(b"in memory")
    assert store.get(digest) == b"in memory"
    assert store.audit() == []
    with pytest.raises(NotFoundError):
        store.get(b"\x00" * 32)


@given(st.binary(max_size=2048))
def test_round_trip_property(data):
    store = MemoryStore()
    assert store.get(store.put(data)) == data


@given(st.binary(max_size=512), st.binary(max_size=512))
def test_no_observed_collisions(a, b):
    if a != b:
        store = MemoryStore()
        assert store.put(a) != store.put(b)


def test_hex_round_trip():
    digest = MemoryStore().put(b"round trip me")
    assert from_hex(to_hex(digest)) == digest


def test_hex_rejects_uppercase_and_bad_length():
    with pytest.raises(ValueError):
        from_hex(ABC_SHA256.upper())
    with pytest.raises(ValueError):
        from_hex("abcd")
    with pytest.raises(ValueError):
        to_hex(b"\x00" * 31)

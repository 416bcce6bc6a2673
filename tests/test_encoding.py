import pytest
from hypothesis import given, strategies as st

from revledger import encoding
from revledger.encoding import MalformedError
from revledger.ledger import BlockHeader
from revledger.revisions import RevisionRecord, Transaction, endorse


def record(work="w", rev=1, content=b"\x11" * 32, author="ada", tick=0):
    return RevisionRecord(work, rev, content, author, tick)


def test_record_encoding_layout():
    raw = encoding.encode_record(record(work="ab", rev=3, tick=7))
    assert raw[0] == 0x01
    # 4-byte length prefix of "ab", then the bytes themselves
    assert raw[1:5] == (2).to_bytes(4, "big")
    assert raw[5:7] == b"ab"
    assert raw[7:15] == (3).to_bytes(8, "big")
    assert raw[15:47] == b"\x11" * 32
    assert raw[-8:] == (7).to_bytes(8, "big")


def test_transaction_tag_and_nesting():
    raw = encoding.encode_transaction(record(), 0)
    assert raw[0] == 0x02
    assert raw[1] == 0x01  # nested record tag
    assert raw[-8:] == (0).to_bytes(8, "big")


def test_header_tag():
    header = BlockHeader(1, b"\x00" * 32, b"\x01" * 32, "node-0", 0, 5, 2)
    raw = encoding.encode_header(header)
    assert raw[0] == 0x03


def test_encoding_is_deterministic():
    r = record(work="novel", rev=4, tick=9)
    assert encoding.encode_record(r) == encoding.encode_record(r)


def test_endorsements_do_not_change_tx_id():
    tx = Transaction(encoding.transaction_id(record(), 0), record(), 0)
    endorsed = endorse(tx, 1, b"secret-1")
    twice = endorse(endorsed, 2, b"secret-2")
    assert tx.tx_id == endorsed.tx_id == twice.tx_id
    assert len(twice.endorsements) == 2


def test_work_id_bounds():
    with pytest.raises(MalformedError):
        encoding.check_work_id("")
    with pytest.raises(MalformedError):
        encoding.check_work_id("a\x00b")
    with pytest.raises(MalformedError):
        encoding.check_work_id("x" * 257)
    # 256 bytes exactly is fine
    assert len(encoding.check_work_id("x" * 256)) == 256


def test_author_bounds():
    with pytest.raises(MalformedError):
        encoding.check_author_id("")
    with pytest.raises(MalformedError):
        encoding.check_author_id("a" * 129)


def test_multibyte_utf8_counts_bytes_not_chars():
    # four-byte code points: 65 of them exceed the 256-byte work id cap
    with pytest.raises(MalformedError):
        encoding.check_work_id("\U0001F600" * 65)
    assert encoding.check_work_id("\U0001F600" * 64)


def test_revision_number_zero_rejected():
    with pytest.raises(MalformedError, match="revision_number must be >= 1"):
        encoding.check_record(record(rev=0))


def test_check_record_reports_the_revision_then_the_work_then_the_author():
    with pytest.raises(MalformedError, match="revision_number"):
        encoding.check_record(record(rev=0, work="", author=""))
    with pytest.raises(MalformedError, match="work_id must be non-empty"):
        encoding.check_record(record(work="", author=""))
    with pytest.raises(MalformedError, match="author_id must be non-empty"):
        encoding.check_record(record(author=""))
    encoding.check_record(record(work="x" * 256, author="a" * 128))


_work = st.text(min_size=1, max_size=24).filter(lambda s: "\x00" not in s)
_author = st.text(min_size=1, max_size=16)
_records = st.builds(
    record,
    work=_work,
    rev=st.integers(min_value=1, max_value=2**40),
    content=st.binary(min_size=32, max_size=32),
    author=_author,
    tick=st.integers(min_value=0, max_value=2**40),
)


@given(_records, _records)
def test_encoding_injective(r1, r2):
    e1, e2 = encoding.encode_record(r1), encoding.encode_record(r2)
    if r1 != r2:
        assert e1 != e2
    else:
        assert e1 == e2


@given(_records, st.integers(min_value=0, max_value=2**40))
def test_tx_id_stable_under_reencoding(r, rv_offset):
    rv = r.revision_number - 1
    assert encoding.transaction_id(r, rv) == encoding.transaction_id(r, rv)

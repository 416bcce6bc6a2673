"""Correctness checks written apart from the program.

Nothing here calls `revledger.revisions` or `revledger.ledger` logic: the
checks read the fields of the blocks and receipts the program produced and
compare them with what the benchmark computed from its own inputs
(payload digests from `hashlib`, an MVCC replay written here). Each check
returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import hashlib
import re

VALID = "Valid"
STALE = "InvalidStaleRead"
MISSING = "InvalidMissingContent"
MALFORMED = "InvalidMalformed"


def digest_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- CLI output ---------------------------------------------------------------

_COMMIT_RE = re.compile(r"^committed tx=([0-9a-f]{64}) work=(\S+) flag=(\S+) height=(\d+) file=")
_HISTORY_RE = re.compile(
    r"^revision=(\d+) hash=([0-9a-f]{64}) author=(\S+) height=(\d+) tick=(\d+)$"
)
_VERIFY_DEFECT_RE = re.compile(r"^node (\d+): defect height=(\d+) kind=(\S+)")
_VERIFY_BLOB_RE = re.compile(r"^node (\d+): blob-defect key=([0-9a-f]{64}) kind=(\S+)")


def check_commit(rc: int, out: str, work: str, expected_height: int) -> list[str]:
    """A single-file `commit` must report flag=Valid one height above the last."""
    lines = out.splitlines()
    if rc != 0 or len(lines) != 1:
        return [f"commit {work}: exit {rc}, output {out!r}"]
    m = _COMMIT_RE.match(lines[0])
    if m is None:
        return [f"commit {work}: unparseable output {lines[0]!r}"]
    _, got_work, flag, height = m.groups()
    problems = []
    if got_work != work:
        problems.append(f"commit {work}: reported work {got_work}")
    if flag != VALID:
        problems.append(f"commit {work}: flag {flag}")
    if int(height) != expected_height:
        problems.append(f"commit {work}: height {height}, expected {expected_height}")
    return problems


def parse_history(out: str) -> list[tuple[int, str]] | None:
    rows = []
    for line in out.splitlines():
        m = _HISTORY_RE.match(line)
        if m is None:
            return None
        rows.append((int(m.group(1)), m.group(2)))
    return rows


def check_history(rc: int, out: str, work: str, model: list[str]) -> list[str]:
    """`history` must list revisions 1..k with the model's payload digests."""
    if rc != 0:
        return [f"history {work}: exit {rc}"]
    rows = parse_history(out)
    expected = [(i + 1, d) for i, d in enumerate(model)]
    if rows != expected:
        shown = rows if rows is None else rows[-3:]
        return [f"history {work}: {len(rows or [])} rows, expected {len(expected)}; tail {shown}"]
    return []


def check_show(rc: int, data: bytes | None, work: str, revision: int, model: list[str]) -> list[str]:
    if rc != 0 or data is None:
        return [f"show {work} r{revision}: exit {rc}"]
    if digest_hex(data) != model[revision - 1]:
        return [f"show {work} r{revision}: bytes do not match the committed payload"]
    return []


def check_verify_ok(rc: int, out: str) -> list[str]:
    lines = out.splitlines()
    if rc != 0 or not lines or lines[-1] != "verify: ok":
        return [f"verify: exit {rc}, last line {lines[-1] if lines else ''!r}"]
    return []


def check_verify_tamper(
    rc: int, out: str, block_node: int, block_height: int, blob_node: int, blob_key: str,
    blob_height: int,
) -> list[str]:
    """After one block flip and one blob flip, `verify` must fail and name
    exactly those two replicas, each with its defect at the tampered height."""
    problems = []
    if rc != 1:
        problems.append(f"tampered verify: exit {rc}, expected 1")
    defects: dict[int, list[int]] = {}
    blobs: dict[int, set[str]] = {}
    for line in out.splitlines():
        if m := _VERIFY_DEFECT_RE.match(line):
            defects.setdefault(int(m.group(1)), []).append(int(m.group(2)))
        elif m := _VERIFY_BLOB_RE.match(line):
            blobs.setdefault(int(m.group(1)), set()).add(m.group(2))
    named = set(defects) | set(blobs)
    if named != {block_node, blob_node}:
        problems.append(f"tampered verify named nodes {sorted(named)}, expected "
                        f"{sorted({block_node, blob_node})}")
    if min(defects.get(block_node, [-1])) != block_height:
        problems.append(f"block flip on node {block_node} at height {block_height} reported "
                        f"at {defects.get(block_node)}")
    if min(defects.get(blob_node, [-1])) != blob_height or blobs.get(blob_node) != {blob_key}:
        problems.append(f"blob flip on node {blob_node} (height {blob_height}) reported as "
                        f"defects {defects.get(blob_node)} blobs {blobs.get(blob_node)}")
    return problems


def probe_history_ok(rc: int, out: str, model: list[str]) -> bool:
    """History of a work with a damaged blob must fail loudly or stay complete."""
    return rc != 0 or parse_history(out) == [(i + 1, d) for i, d in enumerate(model)]


# -- simulator runs -----------------------------------------------------------


def replay_flags(chain_txs, payload_digests: set[bytes]):
    """Independent MVCC replay of a committed transaction order.

    A transaction is valid when it extends the work's current head by
    exactly one revision and its content is something a client submitted.
    Returns (tx_id -> flag, final heads work -> (revision, content hash)).
    """
    heads: dict[str, tuple[int, bytes]] = {}
    flags: dict[bytes, str] = {}
    for tx in chain_txs:
        rec = tx.record
        head = heads.get(rec.work_id, (0, b""))[0]
        if rec.revision_number != tx.read_version + 1:
            flag = MALFORMED
        elif tx.read_version != head:
            flag = STALE
        elif rec.content_hash not in payload_digests:
            flag = MISSING
        else:
            flag = VALID
            heads[rec.work_id] = (rec.revision_number, rec.content_hash)
        flags[tx.tx_id] = flag
    return flags, heads


def chain_hashes(node) -> list[bytes]:
    return [b.block_hash for b in node.chain.blocks]


def check_sim(
    nodes,
    receipts,
    survivors: list[int],
    submissions: int,
    payload_digests: set[bytes],
    latency_floor: int | None,
    min_view: int,
) -> tuple[list[str], dict]:
    """Check one simulator run; returns (problems, replay facts).

    `receipts` are the report's receipt rows, one per submission.
    `survivors` are the honest replicas that never crashed; every other
    replica's chain must be a prefix of theirs.
    """
    problems: list[str] = []
    ref = nodes[survivors[0]]
    ref_hashes = chain_hashes(ref)
    for i, node in enumerate(nodes):
        hashes = chain_hashes(node)
        if i in survivors and hashes != ref_hashes:
            problems.append(f"replica {i} disagrees with replica {survivors[0]} on its chain")
        elif hashes != ref_hashes[: len(hashes)]:
            problems.append(f"replica {i} chain is not a prefix of the survivors' chain")
    txs = [tx for block in ref.chain.blocks for tx in block.transactions]
    ids = [tx.tx_id.hex() for tx in txs]
    if len(set(ids)) != len(ids):
        problems.append("a transaction is committed more than once")
    if len(receipts) != submissions or len(ids) != submissions:
        problems.append(f"{len(ids)} transactions committed and {len(receipts)} receipts "
                        f"for {submissions} submissions")
    flags, heads = replay_flags(txs, payload_digests)
    by_id = {tx_id.hex(): flag for tx_id, flag in flags.items()}
    for row in receipts:
        want = by_id.get(row.tx_id)
        if want is None:
            problems.append(f"receipt {row.tx_id} ({row.status}) is not on the chain")
            continue
        if row.flag != want:
            problems.append(f"receipt {row.tx_id[:12]} flag {row.flag}, replay says {want}")
        if row.commit_tick is None:
            problems.append(f"receipt {row.tx_id[:12]} has no commit tick")
        elif latency_floor is not None and row.flag == VALID and (
            row.commit_tick - row.submit_tick < latency_floor
        ):
            problems.append(f"latency {row.commit_tick - row.submit_tick} under the "
                            f"{latency_floor}-tick floor")
    for i in survivors:
        if nodes[i].heads != heads:
            problems.append(f"replica {i} heads differ from the replay")
        if nodes[i].replica.current_view < min_view:
            problems.append(f"replica {i} ended in view {nodes[i].replica.current_view}")
    return problems, {"flags": by_id, "heads": heads, "txs": txs}


def longest_stall(receipts) -> int:
    """Longest stretch of ticks with a submission pending and no commit."""
    events: dict[int, list[int]] = {}
    for row in receipts:
        events.setdefault(row.submit_tick, [0, 0])[0] += 1
        if row.commit_tick is not None:
            events.setdefault(row.commit_tick, [0, 0])[1] += 1
    pending, mark, longest = 0, 0, 0
    for tick in sorted(events):
        subs, commits = events[tick]
        if pending and commits:
            longest = max(longest, tick - mark)
            mark = tick
        if not pending:
            mark = tick
        pending += subs - commits
    return longest


def check_same_calls(first: dict[str, int], again: dict[str, int]) -> list[str]:
    """Two traced runs of one seed must make the same calls into every layer."""
    differ = sorted(name for name in first.keys() | again.keys()
                    if first.get(name, 0) != again.get(name, 0))
    return [f"traced runs of one seed differ in calls to {name}: "
            f"{first.get(name, 0)} then {again.get(name, 0)}" for name in differ]

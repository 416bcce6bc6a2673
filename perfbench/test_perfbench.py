"""Tests of the benchmark's own checks: each is fed the program's real
answer, which must pass, and one planted wrong answer, which must fail,
so that no check can pass vacuously. Run with

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import tracer
import workloads
from revledger.ledger import Chain
from revledger.sim import Simulation


def small_sim(name: str = "sim-wide", count: int = 60):
    """The first `count` submissions of a workload, run to quiescence."""
    inputs = workloads.SIM_INPUTS[name](7)
    subs = inputs.submissions[:count]
    sim = Simulation(inputs.config, subs)
    report = sim.run()
    digests = {workloads.payload_digest(s.payload) for s in subs}
    return sim, report, inputs, subs, digests


def sim_problems(sim, report, inputs, subs, digests, receipts=None):
    problems, _ = checks.check_sim(
        sim.nodes, receipts if receipts is not None else report.receipts,
        inputs.survivors, len(subs), digests, inputs.latency_floor, inputs.min_view)
    return problems


@pytest.fixture(scope="module")
def wide():
    return small_sim()


def test_sim_check_accepts_the_real_run(wide):
    sim, report, inputs, subs, digests = wide
    assert sim_problems(*wide) == []
    flags = {r.flag for r in report.receipts}
    assert flags == {checks.VALID, checks.STALE}, "the sample must hold both outcomes"


def test_sim_check_rejects_a_flipped_validity_flag(wide):
    sim, report, inputs, subs, digests = wide
    planted = list(report.receipts)
    i = next(i for i, r in enumerate(planted) if r.flag == checks.STALE)
    planted[i] = dataclasses.replace(planted[i], flag=checks.VALID)
    assert any("replay says" in p for p in sim_problems(*wide, receipts=planted))


def test_sim_check_rejects_diverging_tips(wide):
    sim, report, inputs, subs, digests = wide
    node = sim.nodes[inputs.survivors[1]]
    original = node.chain
    blocks = list(original.blocks)
    blocks[-1] = dataclasses.replace(blocks[-1], block_hash=bytes(32))
    node.chain = Chain(blocks)
    try:
        assert any("disagrees" in p for p in sim_problems(*wide))
    finally:
        node.chain = original


def test_sim_check_rejects_drifted_heads(wide):
    sim, report, inputs, subs, digests = wide
    node = sim.nodes[inputs.survivors[0]]
    work = next(iter(node.heads))
    saved = node.heads[work]
    node.heads[work] = (saved[0] + 1, saved[1])
    try:
        assert any("heads differ" in p for p in sim_problems(*wide))
    finally:
        node.heads[work] = saved


def test_sim_check_rejects_latency_under_the_floor(wide):
    sim, report, inputs, subs, digests = wide
    planted = list(report.receipts)
    i = next(i for i, r in enumerate(planted) if r.flag == checks.VALID)
    planted[i] = dataclasses.replace(planted[i], commit_tick=planted[i].submit_tick + 2)
    assert any("floor" in p for p in sim_problems(*wide, receipts=planted))


def test_replay_marks_the_second_writer_of_a_slot_stale(wide):
    sim, report, inputs, subs, digests = wide
    txs = [tx for b in sim.nodes[0].chain.blocks for tx in b.transactions]
    first = next(tx for tx in txs if tx.read_version == 0)
    twin = dataclasses.replace(first, tx_id=bytes(32))
    flags, _ = checks.replay_flags([first, twin], digests)
    assert flags[first.tx_id] == checks.VALID and flags[twin.tx_id] == checks.STALE


def test_longest_stall_measures_the_gap_between_commits():
    def row(submit, commit):
        return SimpleNamespace(submit_tick=submit, commit_tick=commit)

    assert checks.longest_stall([row(0, 4), row(1, 4), row(10, 40)]) == 30
    assert checks.longest_stall([row(0, 3), row(2, 5)]) == 3


def test_traced_runs_of_one_seed_make_the_same_calls():
    inputs = workloads.SIM_INPUTS["sim-tall"](7)
    t = tracer.Tracer()
    calls = []
    for _ in range(2):
        before = t.span_count()
        with t.installed():
            Simulation(inputs.config, inputs.submissions[:20]).run()
        calls.append(t.calls_since(before))
    assert calls[0]["pbft.Replica.has_open_work"] > 0
    assert checks.check_same_calls(*calls) == []
    planted = dict(calls[1], **{"merkle.merkle_root": calls[1]["merkle.merkle_root"] + 1})
    assert any("merkle.merkle_root" in p for p in checks.check_same_calls(calls[0], planted))
    del planted["merkle.merkle_root"]
    assert any("merkle.merkle_root" in p for p in checks.check_same_calls(calls[0], planted))


# -- CLI session checks -------------------------------------------------------


@pytest.fixture
def workspace(tmp_path):
    root = tmp_path / "ws"
    rc, _, _ = workloads.cli(["init", "--dir", str(root), "--nodes", "4", "--faulty", "1"])
    assert rc == 0
    return root


def commit(root: Path, tmp_path: Path, work: str, data: bytes):
    path = tmp_path / "payload.bin"
    path.write_bytes(data)
    return workloads.cli(["commit", "--dir", str(root), "--work", work, "--file", str(path),
                          "--author", "ada"])


def test_cli_checks_accept_real_output_and_reject_planted_answers(workspace, tmp_path):
    payloads = [b"first draft\n", b"second draft\n"]
    model = [checks.digest_hex(p) for p in payloads]
    for height, data in enumerate(payloads, start=1):
        rc, out, _ = commit(workspace, tmp_path, "novel", data)
        assert checks.check_commit(rc, out, "novel", height) == []
        assert checks.check_commit(rc, out.replace("flag=Valid", "flag=InvalidStaleRead"),
                                   "novel", height)
        assert checks.check_commit(rc, out, "novel", height + 1)

    rc, out, _ = workloads.cli(["history", "--dir", str(workspace), "--work", "novel"])
    assert checks.check_history(rc, out, "novel", model) == []
    assert checks.check_history(rc, out.splitlines()[0], "novel", model)
    assert checks.check_history(rc, out, "novel", model[::-1])

    out_path = tmp_path / "shown.bin"
    rc, _, _ = workloads.cli(["show", "--dir", str(workspace), "--work", "novel",
                              "--revision", "2", "--out", str(out_path)])
    shown = out_path.read_bytes()
    assert checks.check_show(rc, shown, "novel", 2, model) == []
    altered = bytes([shown[0] ^ 1]) + shown[1:]
    assert checks.check_show(rc, altered, "novel", 2, model)

    rc, out, _ = workloads.cli(["verify", "--dir", str(workspace)])
    assert checks.check_verify_ok(rc, out) == []
    assert checks.check_verify_ok(1, out)


def test_tamper_check_names_exactly_the_damaged_replicas(workspace, tmp_path):
    data = b"only draft\n"
    commit(workspace, tmp_path, "novel", data)
    key = checks.digest_hex(data)
    workloads.cli(["tamper", "--dir", str(workspace), "--node", "1", "--block", "1",
                   "--offset", "40", "--xor", "1"])
    workloads.cli(["tamper", "--dir", str(workspace), "--node", "3", "--blob", key,
                   "--offset", "0", "--xor", "1"])
    rc, out, _ = workloads.cli(["verify", "--dir", str(workspace)])
    assert checks.check_verify_tamper(rc, out, 1, 1, 3, key, 1) == []
    assert checks.check_verify_tamper(rc, out, 2, 1, 3, key, 1)
    assert checks.check_verify_tamper(rc, out, 1, 1, 3, "0" * 64, 1)
    assert checks.check_verify_ok(rc, out)


def test_probe_accepts_a_loud_failure_or_the_full_history(tmp_path):
    root = tmp_path / "probe" / "ws"
    root.parent.mkdir()
    model = workloads.build_probe_workspace(root)
    complete = "".join(f"revision={i} hash={d} author=ada height={i} tick=0\n"
                       for i, d in enumerate(model, start=1))
    assert checks.probe_history_ok(0, complete, model)
    assert checks.probe_history_ok(1, "", model)
    assert not checks.probe_history_ok(0, complete.splitlines()[1] + "\n", model)
    assert not checks.probe_history_ok(0, "", model)


# -- inputs ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.SIM_INPUTS))
def test_inputs_depend_only_on_the_seed(name):
    make = workloads.SIM_INPUTS[name]
    a, b, c = make(3), make(3), make(4)
    assert a.submissions == b.submissions and a.config == b.config
    assert a.submissions != c.submissions
    assert sum(len(s.payload) for s in a.submissions) == sum(len(s.payload) for s in c.submissions)


def test_benchmark_json_declares_exactly_the_reported_metrics():
    import json

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == workloads.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == ["cli-tall", *workloads.SIM_INPUTS]
    assert {name for _, name in workloads.PER_COMMIT} <= set(workloads.LAYER_NAMES)

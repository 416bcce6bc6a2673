"""Golden fixtures: the bundled scenarios' reports and chain dumps, and a
workspace's on-disk files, pinned.

Each scenario's fixture directory holds what

    revledger simulate --scenario NAME --report tests/fixtures/NAME/report.json \
        --chains-dir tests/fixtures/NAME

wrote. A refactor that keeps behaviour leaves every byte unchanged; one that
changes behaviour on purpose regenerates the fixtures with that command and
says which fields moved and why.

`fixtures/workspace/` holds node 0's checkpoint.json as `init` wrote it and
every node's chain.jsonl and checkpoint.json after `workspace_session`;
`python -m tests.test_golden` rewrites them.
"""

import tempfile
from pathlib import Path

import pytest

from revledger.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("name", ["crash-primary", "equivocate", "fault-free"])
def test_bundled_scenario_matches_golden_fixture(name, tmp_path, capsys):
    report = tmp_path / "report.json"
    chains = tmp_path / "chains"
    assert main(["simulate", "--scenario", name, "--report", str(report), "--chains-dir", str(chains)]) == 0
    capsys.readouterr()
    golden = FIXTURES / name
    assert report.read_bytes() == (golden / "report.json").read_bytes(), f"{name}: report differs"
    want = sorted(p.name for p in golden.glob("node-*.chain"))
    assert sorted(p.name for p in chains.iterdir()) == want
    for chain in want:
        assert (chains / chain).read_bytes() == (golden / chain).read_bytes(), f"{name}: {chain} differs"


def workspace_session(root: Path, scratch: Path) -> dict[str, bytes]:
    """A scripted CLI session: init, commits to two works, one with a second
    file in the same batch (read as stale), and a commit after node 2's
    checkpoint was deleted, so that replica is rebuilt from its chain.
    Returns the pinned files' bytes by fixture path."""

    def commit(work, *texts):
        argv = ["commit", "--dir", str(root), "--work", work, "--author", "ada"]
        for k, text in enumerate(texts):
            path = scratch / f"{work}-{k}.txt"
            path.write_text(text)
            argv += ["--file" if k == 0 else "--also-file", str(path)]
        main(argv)

    assert main(["init", "--dir", str(root), "--nodes", "4", "--faulty", "1", "--seed", "5"]) == 0
    files = {"init-checkpoint.json": (root / "node-0" / "checkpoint.json").read_bytes()}
    commit("novel", "chapter one")
    commit("comic", "panel one")
    commit("novel", "chapter one, revised", "chapter one, rival draft")
    commit("novel", "chapter two")
    (root / "node-2" / "checkpoint.json").unlink()
    commit("comic", "panel two")
    commit("novel", "chapter three")
    for i in range(4):
        for name in ("chain.jsonl", "checkpoint.json"):
            files[f"node-{i}/{name}"] = (root / f"node-{i}" / name).read_bytes()
    return files


def test_workspace_files_match_golden_fixture(tmp_path, capsys):
    files = workspace_session(tmp_path / "ledger", tmp_path)
    capsys.readouterr()
    golden = FIXTURES / "workspace"
    assert sorted(files) == sorted(str(p.relative_to(golden)) for p in golden.rglob("*.json*"))
    for name, data in files.items():
        assert data == (golden / name).read_bytes(), f"{name} differs"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for name, data in workspace_session(Path(scratch) / "ledger", Path(scratch)).items():
            (FIXTURES / "workspace" / name).parent.mkdir(parents=True, exist_ok=True)
            (FIXTURES / "workspace" / name).write_bytes(data)

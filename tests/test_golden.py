"""Golden fixtures: the bundled scenarios' reports and chain dumps, pinned.

Each fixture directory holds what

    revledger simulate --scenario NAME --report tests/fixtures/NAME/report.json \
        --chains-dir tests/fixtures/NAME

wrote. A refactor that keeps behaviour leaves every byte unchanged; one that
changes behaviour on purpose regenerates the fixtures with that command and
says which fields moved and why.
"""

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

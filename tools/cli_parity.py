"""A SHA-256 digest of CLI runs on damaged workspaces, for comparing two checkouts.

    python3 tools/cli_parity.py [--root CHECKOUT]

Imports `revledger` from the checkout at `--root` (default: the one this
file is in) and, in a temporary directory:

1. builds two seeded workspaces, n=4 (f=1) and n=7 (f=2), through
   `init` and `commit`. Their work ids include one with a quote and a
   backslash and one that is not ASCII; each commit holds 1-3 files, and
   one commit's `--also-file` loses a stale-read conflict;
2. applies, to fresh copies of each workspace, each damage in `DAMAGES`
   at `VARIANTS` positions picked by hashing a label (one-byte flips,
   hex-digit changes, truncation, a torn append, deletions, a directory in
   place of a file, a duplicated line, another group's chain copied over),
   and keeps one undamaged copy;
3. runs on each copy `verify`, then `history` and `show` of every
   revision of each work, then one `commit`, then `verify`, in process
   through `cli.main`, catching `SystemExit` and recording any other
   exception by type and message.

It prints `cli <sha256>` over each run's argv, exit code, stdout, stderr
and the bytes `show` wrote, and each replica's `chain.jsonl` and
`checkpoint.json` after the copy's last run, with the temporary
directory renamed to `TMP` first. Blob files are not hashed: `verify`'s
output names their damage. A change that keeps the CLI's output, exit
codes and written files byte-identical prints the same line as its parent.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

# (directory name, nodes, faulty, seed, commits); a commit is (work, files),
# and its first file is `--file`, the others `--also-file`.
WORKS = ("novel", 'say "hi" \\ back', "œuvre-été")
WORKSPACES = (
    ("n4", 4, 1, 5, [(WORKS[0], 1), (WORKS[1], 2), (WORKS[2], 1), (WORKS[0], 3)]),
    ("n7", 7, 2, 9, [(WORKS[2], 2), (WORKS[0], 1), (WORKS[1], 1), (WORKS[2], 1), (WORKS[0], 1)]),
)
VARIANTS = 6  # positions tried per damage and workspace
HEX = b"0123456789abcdef"


def pick(label: str, n: int) -> int:
    """A position in 0..n-1 derived from `label` alone, the same on every Python."""
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big") % n


def nodes(ws: Path) -> list[Path]:
    return sorted(ws.glob("node-*"), key=lambda p: int(p.name[5:]))


def blobs(ws: Path) -> list[Path]:
    return sorted(p for node in nodes(ws) for p in (node / "blobs").glob("*/*"))


def flip(path: Path, label: str) -> None:
    data = bytearray(path.read_bytes())
    data[pick(label, len(data))] ^= 1 + pick(label + "/xor", 255)
    path.write_bytes(bytes(data))


def other_hex_digit(path: Path, label: str) -> None:
    """One hex digit changed to another, which most often leaves the file
    parseable and its damage for the content checks to find."""
    data = bytearray(path.read_bytes())
    at = [i for i, byte in enumerate(data) if byte in HEX]
    i = at[pick(label, len(at))]
    data[i] = HEX[(HEX.index(data[i]) + 1 + pick(label + "/by", 15)) % 16]
    path.write_bytes(bytes(data))


def chain_of(ws: Path, label: str) -> Path:
    return nodes(ws)[pick(label, len(nodes(ws)))] / "chain.jsonl"


def flip_chain_line(ws: Path, label: str, other: Path) -> None:
    path = chain_of(ws, label)
    lines = path.read_bytes().split(b"\n")[:-1]
    at = pick(label + "/line", len(lines))
    line = bytearray(lines[at])
    line[pick(label + "/at", len(line))] ^= 1 + pick(label + "/xor", 255)
    lines[at] = bytes(line)
    path.write_bytes(b"\n".join(lines) + b"\n")


def truncate_chain(ws: Path, label: str, other: Path) -> None:
    path = chain_of(ws, label)
    data = path.read_bytes()
    path.write_bytes(data[: pick(label, len(data))])


def torn_append(ws: Path, label: str, other: Path) -> None:
    path = chain_of(ws, label)
    last = path.read_bytes().split(b"\n")[-2]
    with path.open("ab") as f:
        f.write(last[: 1 + pick(label, len(last) - 1)])


def duplicate_line(ws: Path, label: str, other: Path) -> None:
    path = chain_of(ws, label)
    lines = path.read_bytes().split(b"\n")[:-1]
    at = pick(label + "/line", len(lines))
    path.write_bytes(b"\n".join(lines[: at + 1] + lines[at:]) + b"\n")


def copy_other_chain(ws: Path, label: str, other: Path) -> None:
    """The chain of another group's replica, written over this one's."""
    path = chain_of(ws, label)
    shutil.copyfile(chain_of(other, label + "/other"), path)


def on(choices, act):
    """A damage that applies `act` to a path picked from `choices(ws)`."""

    def damage(ws: Path, label: str, other: Path) -> None:
        paths = choices(ws)
        act(paths[pick(label, len(paths))], label)

    return damage


def delete(path: Path, label: str) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink()


def directory_instead(path: Path, label: str) -> None:
    delete(path, label)
    path.mkdir()


def chains(ws):
    return [node / "chain.jsonl" for node in nodes(ws)]


def checkpoints(ws):
    return [node / "checkpoint.json" for node in nodes(ws)]


DAMAGES = {
    "flip-chain-line": flip_chain_line,
    "flip-blob": on(blobs, flip),
    "flip-checkpoint": on(checkpoints, flip),
    "hex-digit-in-chain": on(chains, other_hex_digit),
    "hex-digit-in-checkpoint": on(checkpoints, other_hex_digit),
    "truncate-chain": truncate_chain,
    "torn-append": torn_append,
    "delete-chain": on(chains, delete),
    "delete-blob": on(blobs, delete),
    "delete-checkpoint": on(checkpoints, delete),
    "delete-node": on(nodes, delete),
    "directory-for-chain": on(chains, directory_instead),
    "directory-for-blob": on(blobs, directory_instead),
    "directory-for-checkpoint": on(checkpoints, directory_instead),
    "duplicate-line": duplicate_line,
    "other-groups-chain": copy_other_chain,
}


class Runner:
    """Runs `cli.main` in process and feeds every run into one digest."""

    def __init__(self, main, tmp: Path):
        self.main, self.tmp, self.digest = main, str(tmp), hashlib.sha256()

    def feed(self, *parts) -> None:
        for part in parts:
            if isinstance(part, str):
                part = part.replace(self.tmp, "TMP").encode()
            self.digest.update(len(part).to_bytes(8, "big") + part)

    def run(self, *argv) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main([str(a) for a in argv])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is behaviour too
                code = f"raised {type(exc).__name__}: {exc}"
        self.feed(json.dumps([str(a) for a in argv]), repr(code), out.getvalue(), err.getvalue())

    def feed_files(self, ws: Path) -> None:
        for node in nodes(ws):
            for name in ("chain.jsonl", "checkpoint.json"):
                path = node / name
                self.feed(f"{node.name}/{name}")
                self.feed(path.read_bytes() if path.is_file() else b"<not a file>")


def build(runner: Runner, root: Path, name, n, f, seed, commits) -> tuple[Path, dict[str, int]]:
    """A workspace built through the CLI, and each work's revision count."""
    ws = root / name
    runner.run("init", "--dir", ws, "--nodes", n, "--faulty", f, "--seed", seed)
    revisions: dict[str, int] = {}
    for c, (work, count) in enumerate(commits):
        argv = ["commit", "--dir", ws, "--work", work, "--author", f"author-{c % 2}"]
        for k in range(count):
            path = root / f"{name}-{c}-{k}.txt"
            path.write_text(f"{name} commit {c} file {k}: {work}\n" * (k + 1))
            argv += ["--file" if k == 0 else "--also-file", path]
        runner.run(*argv)
        revisions[work] = revisions.get(work, 0) + 1  # one file of a commit wins
    return ws, revisions


def exercise(runner: Runner, ws: Path, revisions: dict[str, int], draft: Path) -> None:
    runner.run("verify", "--dir", ws)
    out = ws.parent / "show.out"
    for work, count in revisions.items():
        runner.run("history", "--dir", ws, "--work", work)
        for revision in range(1, count + 1):
            runner.run("show", "--dir", ws, "--work", work, "--revision", revision, "--out", out)
            runner.feed(out.read_bytes() if out.is_file() else b"<no output>")
            out.unlink(missing_ok=True)
    runner.run("commit", "--dir", ws, "--work", WORKS[0], "--file", draft, "--author", "ada")
    runner.run("verify", "--dir", ws)
    runner.feed_files(ws)


def digest() -> str:
    from revledger.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        runner = Runner(main, root)
        built = [build(runner, root / "built", *spec) for spec in WORKSPACES]
        draft = root / "draft.txt"
        draft.write_text("a later draft\n")
        for i, (ws, revisions) in enumerate(built):
            other = built[1 - i][0]
            copies = [("undamaged", None, 0)] + [
                (name, damage, v) for name, damage in DAMAGES.items() for v in range(VARIANTS)
            ]
            for name, damage, v in copies:
                copy = root / "copy" / ws.name
                shutil.copytree(ws, copy)
                runner.feed(f"{ws.name} {name} {v}")
                if damage is not None:
                    damage(copy, f"{ws.name}/{name}/{v}", other)
                exercise(runner, copy, revisions, draft)
                shutil.rmtree(copy.parent)
        return runner.digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ is imported")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.root.resolve() / "src")]
    print(f"cli {digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracer that wraps revledger's public functions from outside.

`Tracer.install()` replaces each traced function with a timing wrapper:
a module-level function is rebound in every `revledger` module that holds
it by name (so `from .ledger import verify_chain` call sites are traced
too), and a method is rebound on each class that defines it. `uninstall()`
puts the originals back. Nothing under `src/` changes.

Each call becomes a span (name, start, end, parent) kept in flat arrays;
the benchmark can add its own spans around whole operations with
`span()`. A layer's self time is its span duration minus the durations of
its direct child spans.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (layer name, module, attribute path). A layer may cover several
# implementations: the simulator's MemoryStore and the workspace's
# ContentStore are both the content_store layer.
LAYERS = [
    ("content_store.get", "revledger.content_store", "ContentStore.get"),
    ("content_store.get", "revledger.content_store", "MemoryStore.get"),
    ("content_store.put", "revledger.content_store", "ContentStore.put"),
    ("content_store.put", "revledger.content_store", "MemoryStore.put"),
    ("content_store.audit", "revledger.content_store", "ContentStore.audit"),
    ("content_store.audit", "revledger.content_store", "MemoryStore.audit"),
    ("ledger.read_chain_file", "revledger.ledger", "read_chain_file"),
    ("ledger.block_from_line", "revledger.ledger", "block_from_line"),
    ("ledger.append_chain_file", "revledger.ledger", "append_chain_file"),
    ("ledger.verify_chain", "revledger.ledger", "verify_chain"),
    ("workspace.load_all_nodes", "revledger.workspace", "Workspace.load_all_nodes"),
    ("workspace.load_node", "revledger.workspace", "Workspace.load_node"),
    ("workspace.persist_new_blocks", "revledger.workspace", "Workspace.persist_new_blocks"),
    ("revisions.apply_block", "revledger.revisions", "apply_block"),
    ("revisions.history", "revledger.revisions", "history"),
    ("revisions.check_endorsement_policy", "revledger.revisions", "check_endorsement_policy"),
    ("encoding.transaction_id", "revledger.encoding", "transaction_id"),
    ("encoding.header_hash", "revledger.encoding", "header_hash"),
    ("merkle.merkle_root", "revledger.merkle", "merkle_root"),
    ("pbft.block_structurally_valid", "revledger.pbft", "block_structurally_valid"),
    ("pbft.Replica.handle_message", "revledger.pbft", "Replica.handle_message"),
    ("pbft.Replica.has_open_work", "revledger.pbft", "Replica.has_open_work"),
    ("node.NodeRuntime.on_message", "revledger.node", "NodeRuntime.on_message"),
    ("node.NodeRuntime.form_batch", "revledger.node", "NodeRuntime.form_batch"),
    ("node.NodeRuntime.tick_duties", "revledger.node", "NodeRuntime.tick_duties"),
    ("sim.deliver", "revledger.sim", "deliver"),
    ("sim.Simulation.run", "revledger.sim", "Simulation.run"),
]


class Tracer:
    def __init__(self, layers=LAYERS):
        self._layers = layers
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        start = time.perf_counter()
        try:
            yield
        finally:
            self._end[idx] = time.perf_counter()
            self._start[idx] = start
            self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        opened = self._open
        stack = self._stack
        starts, ends = self._start, self._end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = opened(name_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, module_name, attr in self._layers:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._rebind(owner, meth, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "revledger" and not mod_name.startswith("revledger."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- summaries -------------------------------------------------------------

    def summary(self, within: str | None = None) -> dict[str, dict[str, float]]:
        """Per-name call count and self seconds.

        With `within`, only spans that have an ancestor named `within`
        count (for example, the calls made inside `commit` commands).
        """
        count = len(self._name)
        child = array("d", bytes(8 * count))
        for i in range(count):
            p = self._parent[i]
            if p >= 0:
                child[p] += self._end[i] - self._start[i]
        inside = None
        if within is not None:
            target = self._name_ids.get(within, -2)
            inside = bytearray(count)
            for i in range(count):
                p = self._parent[i]
                if p >= 0 and (self._name[p] == target or inside[p]):
                    inside[i] = 1
        out: dict[str, dict[str, float]] = {}
        for i in range(count):
            if inside is not None and not inside[i]:
                continue
            rec = out.setdefault(self.names[self._name[i]], {"calls": 0, "s": 0.0})
            rec["calls"] += 1
            rec["s"] += (self._end[i] - self._start[i]) - child[i]
        return out

    def span_count(self) -> int:
        return len(self._name)

    def calls_since(self, first_span: int) -> dict[str, int]:
        """Call count per name of the spans recorded from `first_span` on."""
        counts = Counter(self._name[first_span:])
        return {self.names[i]: n for i, n in counts.items()}

    def write(self, path: Path) -> None:
        """Write every span as `name<TAB>start<TAB>end<TAB>parent`, gzipped."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self._name)):
                fh.write(
                    f"{self.names[self._name[i]]}\t{self._start[i]:.9f}\t"
                    f"{self._end[i]:.9f}\t{self._parent[i]}\n"
                )

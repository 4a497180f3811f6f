"""Typed artifact DAG for the experiment pipeline.

The paper's experiment suite is a pipeline — corpus build → embeddings /
PLM encodes → method fit → metric rows — and two tables that fit
different methods on the same corpus need identical corpora and
encodes. This module is the dbt-style compile half: experiments
*declare* their row pipelines as :class:`DagNode` s in an
:class:`ArtifactGraph`, every node is **content-addressed** by a digest
of ``(kind, runner, kwargs, seed, upstream digests, scoped source
digest)``, and the scheduler (:mod:`repro.experiments.scheduler`) reuses
any node whose digest is already in the artifact store — re-runs are
proportional to what actually changed.

Three node kinds are in play today:

- ``corpus`` — builds a dataset bundle (``load_profile``); shared by
  every table that reads the same ``(profile, seed)``.
- ``encode`` — pre-trains the profile's PLM and streams every document
  through it, materializing hidden states into the shared
  :class:`~repro.core.enc_cache.EncodeCache` disk tier. One encode node
  serves every table (and every worker process) that needs it.
- ``row`` — a method fit + metrics (a table row, or the streaming
  pipeline's drift re-fit), seeded by
  :func:`~repro.experiments.engine.derive_row_seed` of the table seed
  and row name.

**Scoped source digests.** Hashing the whole ``src/repro`` tree into
every key would let one method edit bust every cached node. Instead the
tree is split into *units*: each ``methods/<pkg>`` package is
its own unit and everything else is the ``shared`` unit. A node's source
component combines the shared unit with only the method units its
declared classes live in (:func:`scope_for`), so touching
``methods/xclass`` re-executes exactly the xclass rows while every other
node's digest — and therefore its cached artifact — survives.

Two hand-maintained tables keep the scoping honest (both are validated
against the real import graph by ``tests/test_dag_pipeline.py``, the
same staleness-check pattern as the dtype lint):

- :data:`METHOD_UNIT_DEPS` — cross-package imports *inside* ``methods/``
  (WeSHClass reuses WeSTClass's pseudo-document generator), folded into
  the importing unit's effective digest;
- :data:`SHARED_METHOD_UNITS` — method packages imported by shared code
  (``baselines/``), folded into the shared digest. These lose per-method
  incrementality by construction: a change to them busts everything,
  which is the conservative, correct direction.

Hub imports (``from repro.methods import XClass``) re-export names and
are exempt: behavior dependence on a method package is captured by the
per-node ``scope``, not by the importing file's unit.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

#: Package root whose ``**/*.py`` files feed the source digests.
_DEFAULT_SOURCE_ROOT = Path(__file__).resolve().parents[1]  # src/repro

#: Cross-package imports inside ``methods/``: importing unit -> imported
#: units, folded transitively into the importer's effective digest.
METHOD_UNIT_DEPS = {
    "methods/weshclass": ("methods/westclass",),
    "methods/futex": ("methods/taxoclass",),
}

#: Method packages referenced from shared (non-``methods/``) code; they
#: are folded into the shared digest, so changes to them bust every node.
SHARED_METHOD_UNITS = (
    "methods/conwea",   # baselines/classkg.py
    "methods/micol",    # baselines/augmentation.py
    "methods/taxoclass",  # baselines/zeroshot.py
)

_SOURCE_ROOT: "list[Path]" = [_DEFAULT_SOURCE_ROOT]
_UNIT_DIGESTS: "dict[Path, dict]" = {}


def set_source_root(root: "str | Path | None") -> None:
    """Point the digest machinery at ``root`` (tests use a fake tree).

    ``None`` restores the real package root. Cached digests for the old
    root are dropped either way, so touching files between calls is
    observable.
    """
    _SOURCE_ROOT[0] = Path(root) if root else _DEFAULT_SOURCE_ROOT
    _UNIT_DIGESTS.clear()


def source_root() -> Path:
    """The tree currently feeding the source digests."""
    return _SOURCE_ROOT[0]


def _unit_of(rel: str) -> str:
    """Unit owning one source file: ``methods/<pkg>`` or ``shared``."""
    parts = rel.split("/")
    if parts[0] == "methods" and len(parts) > 2:
        return f"methods/{parts[1]}"
    return "shared"


def _raw_unit_digests(root: Path) -> dict:
    """Digest of each unit's own files (no dependency folding)."""
    hashes: "dict[str, hashlib.blake2b]" = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if "__pycache__" in rel:
            continue
        h = hashes.setdefault(_unit_of(rel), hashlib.blake2b(digest_size=16))
        h.update(rel.encode("utf-8"))
        h.update(b"\x00")
        h.update(path.read_bytes())
        h.update(b"\x00")
    return {unit: h.hexdigest() for unit, h in hashes.items()}


def unit_digests(refresh: bool = False) -> dict:
    """Effective digest per unit, dependency edges folded in (cached).

    ``shared`` folds in :data:`SHARED_METHOD_UNITS`; every
    ``methods/<pkg>`` folds in its transitive :data:`METHOD_UNIT_DEPS`.
    """
    root = source_root()
    if not refresh and root in _UNIT_DIGESTS:
        return _UNIT_DIGESTS[root]
    raw = _raw_unit_digests(root)

    def closure(unit: str) -> list:
        seen, queue = {unit}, deque(METHOD_UNIT_DEPS.get(unit, ()))
        while queue:
            dep = queue.popleft()
            if dep in seen:
                continue
            seen.add(dep)
            queue.extend(METHOD_UNIT_DEPS.get(dep, ()))
        return sorted(seen)

    effective = {}
    for unit in raw:
        deps = closure(unit)
        if unit == "shared":
            deps = sorted(set(deps) | set(SHARED_METHOD_UNITS))
        h = hashlib.blake2b(digest_size=16)
        for dep in deps:
            h.update(dep.encode("utf-8"))
            h.update(b"\x00")
            h.update(raw.get(dep, "").encode("utf-8"))
            h.update(b"\x00")
        effective[unit] = h.hexdigest()
    _UNIT_DIGESTS.clear()  # keep at most one root's cache alive
    _UNIT_DIGESTS[root] = effective
    return effective


def source_component(scope: tuple) -> str:
    """Source digest for one node: shared unit + its scoped method units."""
    digests = unit_digests()
    h = hashlib.blake2b(digest_size=16)
    for unit in ("shared", *sorted(scope)):
        h.update(unit.encode("utf-8"))
        h.update(b"\x00")
        h.update(digests.get(unit, "").encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def method_unit(cls) -> "str | None":
    """The ``methods/<pkg>`` unit defining ``cls`` (None for shared code)."""
    parts = getattr(cls, "__module__", "").split(".")
    if parts[:2] == ["repro", "methods"] and len(parts) > 2:
        return f"methods/{parts[2]}"
    return None


def scope_for(*classes) -> tuple:
    """Sorted method units for a row's declared classes.

    Units already folded into the shared digest
    (:data:`SHARED_METHOD_UNITS`) are dropped — every node carries the
    shared digest anyway, so listing them would be redundant.
    """
    units = {method_unit(cls) for cls in classes}
    units -= {None, *SHARED_METHOD_UNITS}
    return tuple(sorted(units))


def scan_method_references(root: "Path | None" = None) -> dict:
    """Submodule-level ``repro.methods.<pkg>`` references in the tree.

    Returns ``{referencing_unit: set(referenced units)}``, excluding
    same-unit references and hub imports (``from repro.methods import``,
    which only re-exports names). The staleness test compares this
    against :data:`METHOD_UNIT_DEPS` / :data:`SHARED_METHOD_UNITS`.
    """
    root = source_root() if root is None else Path(root)
    pattern = re.compile(r"repro\.methods\.([a-z_][a-z0-9_]*)")
    references: "dict[str, set]" = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if "__pycache__" in rel or rel == "methods/__init__.py":
            continue
        unit = _unit_of(rel)
        for match in pattern.finditer(path.read_text()):
            referenced = f"methods/{match.group(1)}"
            if referenced != unit:
                references.setdefault(unit, set()).add(referenced)
    return references


# ---------------------------------------------------------------------------
# Nodes, graph, digests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DagNode:
    """One typed artifact in the experiment graph.

    ``runner(seed, **kwargs)`` must be a module-level picklable callable
    (nodes travel to spawn workers whole); ``runner=None`` marks a static row emitted as-is. ``deps`` name
    upstream nodes whose digests flow into this node's digest and whose
    materialized side artifacts (bundle caches, encode-cache shards)
    this node reads. ``scope`` lists the ``methods/<pkg>`` units whose
    source contents key this node (:func:`source_component`).
    """

    kind: str
    name: str
    runner: "object" = None
    kwargs: dict = field(default_factory=dict)
    deps: tuple = ()
    scope: tuple = ()
    table: str = ""
    row: str = ""
    static: dict = field(default_factory=dict)
    seed: int = 0


def runner_id(runner) -> str:
    """Stable cross-process identity of a node's runner."""
    if runner is None:
        return "-"
    return f"{runner.__module__}.{runner.__qualname__}"


def _node_identity(node: DagNode) -> tuple:
    """The fields two same-named declarations must agree on to merge."""
    return (node.kind, runner_id(node.runner),
            json.dumps(node.kwargs, sort_keys=True, default=repr),
            node.deps, node.scope, node.seed)


class ArtifactGraph:
    """Content-addressed DAG with cross-table node dedup.

    Nodes are keyed by name; adding an identical declaration twice (two
    tables that need the same corpus or encode) merges into one node and
    bumps :attr:`merged` — the dedup the ISSUE's encode-sharing ratio
    measures. Adding a *conflicting* declaration under an existing name
    raises: one name must mean one artifact.
    """

    def __init__(self):
        self.nodes: "dict[str, DagNode]" = {}
        self._order: "list[str]" = []
        self.merged = 0
        self._digests: "dict[str, str] | None" = None

    def add(self, node: DagNode) -> DagNode:
        existing = self.nodes.get(node.name)
        if existing is not None:
            if _node_identity(existing) != _node_identity(node):
                raise ValueError(
                    f"conflicting declarations for DAG node {node.name!r}"
                )
            self.merged += 1
            return existing
        for dep in node.deps:
            if dep not in self.nodes:
                raise ValueError(
                    f"node {node.name!r} depends on undeclared node {dep!r}"
                )
        self.nodes[node.name] = node
        self._order.append(node.name)
        self._digests = None
        return node

    def topological(self) -> list:
        """Declaration-ordered names (declaration already topo-sorts:
        ``add`` rejects forward references)."""
        return list(self._order)

    def digests(self) -> dict:
        """Content address of every node (memoized until the graph grows).

        A node's digest folds its kind, runner identity, kwargs, seed,
        its scoped source digest, and — recursively — the digests of its
        dependencies, so any upstream change re-addresses the whole
        downstream subgraph.
        """
        if self._digests is not None:
            return self._digests
        digests: "dict[str, str]" = {}
        for name in self._order:
            node = self.nodes[name]
            payload = json.dumps({
                "kind": node.kind,
                "name": node.name,
                "runner": runner_id(node.runner),
                "kwargs": node.kwargs,
                "seed": node.seed,
                "deps": sorted(digests[dep] for dep in node.deps),
                "source": source_component(node.scope),
            }, sort_keys=True, default=repr)
            digests[name] = hashlib.sha256(
                payload.encode("utf-8")).hexdigest()[:40]
        self._digests = digests
        return digests

    def ancestors(self, names) -> set:
        """Transitive dependencies of ``names`` (exclusive)."""
        out: set = set()
        queue = deque(names)
        while queue:
            for dep in self.nodes[queue.popleft()].deps:
                if dep not in out:
                    out.add(dep)
                    queue.append(dep)
        return out

    def descendants(self, names) -> set:
        """Transitive dependents of ``names`` (exclusive)."""
        targets = set(names)
        out: set = set()
        for name in self._order:  # declaration order is topological
            node = self.nodes[name]
            if any(dep in targets or dep in out for dep in node.deps):
                out.add(name)
        return out - targets

    def select(self, selectors) -> set:
        """Resolve ``--select`` style selectors into a set of node names.

        ``name`` (typically ``table.row``) picks one node; ``+name``
        additionally picks its ancestors; ``name+`` its descendants.
        Unknown names raise ``ValueError`` listing the valid nodes.
        """
        chosen: set = set()
        for selector in selectors:
            want_ancestors = selector.startswith("+")
            want_descendants = selector.endswith("+")
            name = selector.strip("+")
            if name not in self.nodes:
                known = ", ".join(sorted(self.nodes))
                raise ValueError(
                    f"unknown DAG node {name!r} in selector {selector!r} "
                    f"(known nodes: {known})"
                )
            chosen.add(name)
            if want_ancestors:
                chosen |= self.ancestors([name])
            if want_descendants:
                chosen |= self.descendants([name])
        return chosen


@dataclass
class TableRequest:
    """One table's compiled pipeline: its nodes plus row assembly order.

    ``row_names`` are the node names that become printable rows, in
    table order; ``post`` (optional) post-processes the assembled rows
    in the parent process (e.g. the MICoL significance pass).
    """

    table: str
    nodes: list
    row_names: list
    post: "object" = None

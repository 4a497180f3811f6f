"""Summary-tree rendering for JSONL traces.

Rebuilds the span tree from a flat trace (span events carry their
slash-joined ``path``), aggregates repeated spans at the same path
(count + total duration), and renders an indented tree with each node's
share of its parent. Also computes **coverage**: the fraction of the
traced wall-clock accounted for by top-level named spans — the number
the acceptance bar for the observability layer is stated in.

Usage::

    python -m repro.obs.report trace.jsonl

or programmatically via :func:`summarize` / :func:`load_events`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load_events(path: "str | Path") -> list:
    """Parse a JSONL trace back into its event dicts."""
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


class _Node:
    __slots__ = ("name", "seconds", "calls", "remote", "children")

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0
        self.calls = 0
        self.remote = False
        self.children: "dict[str, _Node]" = {}


def build_tree(events: list) -> _Node:
    """Aggregate span events into a tree rooted at a synthetic node.

    The root's ``seconds`` is the trace's total wall-clock (the ``end``
    event), so every top-level span renders with its share of the run.
    Span names may themselves contain ``/`` (``node:westclass.agnews/PTE``);
    the intermediate *virtual* nodes that creates carry no events of
    their own and inherit the sum of their children.
    """
    root = _Node("")
    for event in events:
        if event.get("type") == "end":
            root.seconds = float(event["dur"])
            root.calls = 1
        if event.get("type") != "span":
            continue
        node = root
        for part in event["path"].split("/"):
            node = node.children.setdefault(part, _Node(part))
        node.seconds += float(event["dur"])
        node.calls += 1
        node.remote = node.remote or bool(event.get("remote"))
    _rollup_virtual(root)
    return root


def _rollup_virtual(node: _Node) -> None:
    """Give event-less intermediate nodes the sum of their children.

    A parent *span*'s duration already contains its children (spans
    nest), so only nodes with no recorded events of their own roll up —
    they exist purely because a span name contained ``/``.
    """
    for child in node.children.values():
        _rollup_virtual(child)
    if node.calls == 0 and node.children:
        children = list(node.children.values())
        node.seconds = sum(c.seconds for c in children)
        node.calls = sum(c.calls for c in children)
        node.remote = all(c.remote for c in children)


def coverage(events: list) -> float:
    """Top-level span seconds / total traced seconds (0 when untimed).

    Remote (worker-side) spans overlap the parent's local spans on the
    wall clock, so only locally-recorded top-level spans count — with a
    single root span around the run this is simply root span / total.
    """
    tree = build_tree(events)
    if tree.seconds <= 0:
        return 0.0
    local = sum(c.seconds for c in tree.children.values() if not c.remote)
    return min(1.0, local / tree.seconds)


def counters(events: list) -> dict:
    """The merged counter values recorded at finalization."""
    for event in events:
        if event.get("type") == "counters":
            return dict(event["values"])
    return {}


def _render_node(node: _Node, parent_seconds: float, depth: int,
                 lines: list, max_depth: int) -> None:
    share = 100.0 * node.seconds / parent_seconds if parent_seconds > 0 else 0.0
    calls = f" x{node.calls}" if node.calls > 1 else ""
    remote = " [worker]" if node.remote else ""
    lines.append(f"{'  ' * depth}{node.name:<{max(40 - 2 * depth, 8)}} "
                 f"{node.seconds:9.3f}s {share:5.1f}%{calls}{remote}")
    if depth + 1 >= max_depth:
        return
    ordered = sorted(node.children.values(), key=lambda c: -c.seconds)
    for child in ordered:
        _render_node(child, node.seconds or parent_seconds, depth + 1,
                     lines, max_depth)


def render_tree(events: list, max_depth: int = 6) -> str:
    """The summary tree as printable text."""
    tree = build_tree(events)
    name = next((e.get("name", "run") for e in events
                 if e.get("type") == "begin"), "run")
    lines = [f"trace {name!r}: {tree.seconds:.3f}s wall, "
             f"{coverage(events):.1%} covered by top-level spans"]
    for child in sorted(tree.children.values(), key=lambda c: -c.seconds):
        _render_node(child, tree.seconds, 1, lines, max_depth)
    values = counters(events)
    if values:
        lines.append("counters:")
        width = max(len(k) for k in values)
        for key in sorted(values):
            value = values[key]
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"  {key:<{width}}  {rendered}")
    return "\n".join(lines)


def summarize(path: "str | Path", max_depth: int = 6) -> str:
    """Load a trace file and render its summary tree."""
    return render_tree(load_events(path), max_depth=max_depth)


def main(argv: "list | None" = None) -> int:
    """``python -m repro.obs.report <trace.jsonl> [max_depth]``."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip().splitlines()[0])
        print("usage: python -m repro.obs.report <trace.jsonl> [max_depth]")
        return 0 if argv else 2
    max_depth = int(argv[1]) if len(argv) > 1 else 6
    try:
        print(summarize(argv[0], max_depth=max_depth))
    except BrokenPipeError:  # `... | head` closed the pipe: not an error
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Env-knob lint: ``repro.core.env`` is the only reader of ``REPRO_*``.

The package's contract is that every environment knob has one typed
accessor in :mod:`repro.core.env`, listed in that module's inventory
table. This tier-1 test walks the ASTs of every module under
``src/repro`` and fails on

- a call to ``env_flag`` / ``env_int`` / ``env_raw`` / ``env_float`` /
  ``env_path`` whose name argument is a ``REPRO_*`` literal, or
- an ``os.environ.get(...)`` / ``os.getenv(...)`` of a ``REPRO_*``
  literal,

anywhere outside ``core/env.py``. A second check keeps the inventory
honest: the knobs named in ``env.py``'s docstring table must be exactly
the knobs its accessors read.

Like the dtype and typed-error lints, intentional exceptions go in
``ALLOWLIST`` as ``(path relative to src/repro, exact stripped source
line)`` pairs so waivers are visible in this file's diff; a staleness
test prunes dead entries.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import repro
from repro.core import env as env_mod

pytestmark = pytest.mark.obs

ROOT = Path(repro.__file__).resolve().parent
ENV_FILE = Path(env_mod.__file__).resolve()

#: Typed accessors a ``REPRO_*`` literal may only be passed to in env.py.
ACCESSORS = {"env_flag", "env_int", "env_raw", "env_float", "env_path"}

#: (path relative to src/repro, stripped source line) pairs that may read
#: a ``REPRO_*`` variable directly. Every entry must say why.
ALLOWLIST: set = {
    # The scheduler sets REPRO_ENC_CACHE_DIR for its spawned workers and
    # afterwards removes it only if it still holds the value it set — a
    # restore of its own write, not a configuration read.
    ("experiments/scheduler.py",
     'if shared_enc and os.environ.get("REPRO_ENC_CACHE_DIR") == shared_enc:'),
}


def _module_files() -> list:
    return sorted(p for p in ROOT.rglob("*.py") if p.resolve() != ENV_FILE)


def _call_name(func: ast.expr) -> str:
    """Dotted name of a call target (``os.environ.get``, ``env_int``)."""
    parts = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
    return ".".join(reversed(parts))


def _knob_reads(tree: ast.AST) -> list:
    """(lineno, knob) for every ``REPRO_*`` literal read in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)
                and first.value.startswith("REPRO_")):
            continue
        name = _call_name(node.func)
        if (name.rsplit(".", 1)[-1] in ACCESSORS
                or name.endswith("environ.get") or name.endswith("getenv")):
            found.append((node.lineno, first.value))
    return found


def _violations(path: Path, rel: str) -> list:
    source = path.read_text()
    lines = source.splitlines()
    problems = []
    for lineno, knob in _knob_reads(ast.parse(source, filename=str(path))):
        line = lines[lineno - 1].strip()
        if (rel, line) in ALLOWLIST:
            continue
        problems.append(f"{rel}:{lineno}: reads {knob} outside core/env.py "
                        f"— {line}")
    return problems


def test_only_core_env_reads_repro_knobs():
    problems = []
    for path in _module_files():
        problems.extend(_violations(path, path.relative_to(ROOT).as_posix()))
    assert not problems, (
        "REPRO_* read outside repro.core.env (add a typed accessor there, "
        "list it in the inventory, or add a reviewed ALLOWLIST entry):\n"
        + "\n".join(problems)
    )


def _inventory() -> set:
    """Knobs named in the first column of env.py's inventory table."""
    doc = env_mod.__doc__
    table = doc[doc.index("Knob inventory"):]
    return set(re.findall(r"^``(REPRO_[A-Z_]+)``", table, flags=re.MULTILINE))


def test_inventory_matches_accessors():
    read = {knob for _, knob in _knob_reads(ast.parse(ENV_FILE.read_text()))}
    listed = _inventory()
    assert listed == read, (
        f"inventory lists but no accessor reads: {sorted(listed - read)}; "
        f"accessors read but inventory omits: {sorted(read - listed)}"
    )


def test_allowlist_entries_still_exist():
    """Stale waivers must be pruned, not accumulate."""
    live = set()
    for rel, text in ALLOWLIST:
        path = ROOT / rel
        if path.exists() and text in {
                line.strip() for line in path.read_text().splitlines()}:
            live.add((rel, text))
    assert live == ALLOWLIST, f"stale ALLOWLIST entries: {ALLOWLIST - live}"


def test_lint_catches_direct_reads(tmp_path):
    # The lint itself must bite on each read form, and leave writes and
    # non-REPRO names alone.
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import os\n"
        "from repro.core.env import env_flag, env_int\n"
        "a = os.environ.get('REPRO_X')\n"
        "b = os.getenv('REPRO_Y', '1')\n"
        "c = env_flag('REPRO_Z', True)\n"
        "d = _env.env_int('REPRO_W', 3)\n"
    )
    assert len(_violations(bad, "bad.py")) == 4
    good = tmp_path / "good.py"
    good.write_text(
        "import os\n"
        "os.environ['REPRO_X'] = '1'\n"
        "home = os.environ.get('HOME')\n"
        "from repro.core import env\n"
        "jobs = env.jobs()\n"
    )
    assert not _violations(good, "good.py")

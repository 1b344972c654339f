"""Every public callable in ``src/repro`` is reached from code that runs.

The kernel registry test (``tests/kernels/test_dispatch.py``) extended to
the whole package.  A public callable is a module-level ``def``, or a
method of a module-level class, whose name does not start with ``_``.
It is reached when its name appears, outside its own ``def``, in
``src/``, ``bench/``, ``benchmarks/`` or ``examples/`` as an attribute
(``x.name``), a bare name, or a string constant equal to the name or
ending in ``.name`` or ``:name`` (``bench/spans.py`` names its targets
``"module:Class.attr"``).  Comments and docstrings do not count, and
neither do tests: code that only a test calls is code nothing runs.

The name match is deliberately loose — any ``x.end_epoch`` reaches every
method called ``end_epoch`` — so the test catches only code whose name
nothing mentions at all.  Each unreached callable that stays is named
in :data:`ALLOWLIST` with its reason; a stale entry fails too.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
READERS = ("src", "bench", "benchmarks", "examples")

#: unreached public callables that stay, each with its reason
ALLOWLIST: dict[str, str] = {
    "PromotionQueues.enqueue": "the one-element enqueue_many that the queue tests drive",
    "spec_strategy": "the hypothesis face of generate_case, for property tests",
    "Interconnect.degraded": "ROADMAP item 2 prices copies over the live link",
    "Machine.cross_tier_copy_cycles": "ROADMAP item 2 charges migrations through it",
    "AddressSpace.translate": "page-table observer the mm tests assert through",
    "ReplicatedPageTables.sharing_tids": "page-table observer the mm tests assert through",
    "pte_decode": "page-table observer the mm tests assert through",
    "pte_is_shared": "page-table observer the mm tests assert through",
    "write_jsonl": "the CLI writes only Chrome traces; next to delete",
}


def _public_callables() -> dict[str, tuple[pathlib.Path, str, int, int]]:
    """``{qualified name: (file, bare name, first line, last line)}``."""
    found: dict[str, tuple[pathlib.Path, str, int, int]] = {}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, defs):
                members = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, defs)]
            else:
                continue
            for qualname, fn in members:
                if not fn.name.startswith("_"):
                    found[qualname] = (path, fn.name, fn.lineno, fn.end_lineno)
    return found


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _mentions() -> dict[str, list[tuple[pathlib.Path, int]]]:
    """Every name mention in the readers: ``{name: [(file, line), ...]}``."""
    seen: dict[str, list[tuple[pathlib.Path, int]]] = {}

    def note(name: str, path: pathlib.Path, line: int) -> None:
        seen.setdefault(name, []).append((path, line))

    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            skip = _docstrings(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    note(node.attr, path, node.lineno)
                elif isinstance(node, ast.Name):
                    note(node.id, path, node.lineno)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in skip
                ):
                    text = node.value
                    note(text, path, node.lineno)
                    cut = max(text.rfind("."), text.rfind(":"))
                    if cut >= 0:
                        note(text[cut + 1:], path, node.lineno)
    return seen


def _unreached() -> set[str]:
    mentions = _mentions()
    out = set()
    for qualname, (path, name, first, last) in _public_callables().items():
        outside = [
            (p, line) for p, line in mentions.get(name, ())
            if not (p == path and first <= line <= last)
        ]
        if not outside:
            out.add(qualname)
    return out


def test_every_public_callable_is_reached_or_allowlisted():
    unreached = _unreached()
    missing = sorted(unreached - ALLOWLIST.keys())
    assert not missing, (
        f"public callables nothing in {'/'.join(READERS)} reaches: {missing}; "
        "delete them, or allowlist them with a reason"
    )


def test_allowlist_names_only_unreached_callables():
    defined = _public_callables()
    unreached = _unreached()
    gone = sorted(name for name in ALLOWLIST if name not in defined)
    assert not gone, f"allowlisted but no longer defined: {gone}"
    reached = sorted(name for name in ALLOWLIST if name not in unreached)
    assert not reached, f"allowlisted but now reached, drop the entry: {reached}"

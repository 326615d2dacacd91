"""List every statement in ``src/bowl`` that the test suite never runs.

    python3 tests/reach.py

Runs the suite in this process through ``pytest.main`` under a
``sys.settrace`` line tracer, installed before ``bowl`` is first imported so
that module-level lines count too. Then prints ``file:line  source`` for each
statement of ``src/bowl`` that never ran, and exits 1 if any of them is not
in ``ALLOWED`` (0 otherwise, or pytest's own code when a test fails).

Docstrings, ``def`` and ``class`` lines and ``nonlocal`` / ``global``
declarations are not statements. A compound statement counts as run when a
line of its header runs, a simple one when any of its lines does.

Standard library only. Not a test itself: a traced run of the suite takes
about 45 s against about 30 s untraced on 2 cores, so the suite does not
collect this file (``tests/test_reach.py`` tests its parts).
"""

from __future__ import annotations

import ast
import glob
import os
import sys
from collections import defaultdict

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "bowl")

# Statements allowed to stay unrun, as (file relative to ROOT, stripped source line).
ALLOWED: frozenset[tuple[str, str]] = frozenset()

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_NOT_STATEMENTS = (*_DEFINITIONS, ast.Nonlocal, ast.Global)
_BODIES = ("body", "orelse", "finalbody", "handlers")


def _docstrings(tree: ast.AST) -> set[ast.stmt]:
    """The docstring statement of the module and of every def and class."""
    owners = [tree, *(node for node in ast.walk(tree) if isinstance(node, _DEFINITIONS))]
    return {owner.body[0] for owner in owners
            if owner.body and isinstance(owner.body[0], ast.Expr)
            and isinstance(owner.body[0].value, ast.Constant)
            and isinstance(owner.body[0].value.value, str)}


def _run_lines(node: ast.stmt) -> range:
    """The lines whose execution means ``node`` ran: a compound statement's
    header (up to its first nested statement), all of a simple one."""
    nested = [child.lineno for name in _BODIES for child in getattr(node, name, ())]
    end = min(nested, default=node.end_lineno + 1) - 1
    return range(node.lineno, max(end, node.lineno) + 1)


def unexecuted(source: str, executed: set[int]) -> list[int]:
    """First lines of the statements of ``source`` with no line in ``executed``."""
    tree = ast.parse(source)
    skip = _docstrings(tree)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and node not in skip
                  and not isinstance(node, _NOT_STATEMENTS)
                  and executed.isdisjoint(_run_lines(node)))


def _line_tracer(root: str):
    """A ``sys.settrace`` function that records, per file under ``root``, the
    lines that run, and the dict it records them in."""
    executed: dict[str, set[int]] = defaultdict(set)
    inside: dict[str, bool] = {}

    def on_line(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in inside:
            inside[filename] = os.path.realpath(filename).startswith(root + os.sep)
        return on_line if inside[filename] else None

    return on_call, executed


def main() -> int:
    os.chdir(ROOT)
    tracer, executed = _line_tracer(os.path.realpath(SRC))
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q"])
    finally:
        sys.settrace(None)
    if code != 0:
        print(f"reach: the suite failed (pytest exit {int(code)}); no report")
        return int(code)
    ran = {os.path.realpath(path): lines for path, lines in executed.items()}
    unallowed = 0
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        name = os.path.relpath(path, ROOT)
        for lineno in unexecuted(source, ran.get(os.path.realpath(path), set())):
            text = lines[lineno - 1].strip()
            allowed = (name, text) in ALLOWED
            unallowed += not allowed
            print(f"{name}:{lineno}  {text}{'  (allowed)' if allowed else ''}")
    print(f"reach: {unallowed} statement(s) outside the allow-list never ran")
    return 1 if unallowed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Every function, class and method defined in a ``bowl`` module is referenced
somewhere else: in ``src/bowl`` outside its own definition (``__init__.py``
included), in the benchmark (``perfbench/*.py``) or in a demo
(``demos/*.py``). Dunder methods are exempt, since Python calls them.

A reference is a name, an attribute, an imported name, or a part of a dotted
string constant: the benchmark's tracer names the attributes it wraps as
strings. Names are matched without their owner, so a method counts as used
when any object's attribute of that name is read.
"""

import ast
import glob
import os
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "bowl")
INIT = os.path.join(SRC, "__init__.py")
DEFINING = sorted(set(glob.glob(os.path.join(SRC, "*.py"))) - {INIT})
READING = [INIT, *sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))),
           *sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))]
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(tree: ast.AST) -> Counter:
    """How often ``tree`` refers to each name."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                counts.update(parts)
    return counts


def dead_definitions(defining: dict[str, str], reading=()) -> list[str]:
    """``module:name`` of each non-dunder definition in the ``defining``
    sources (file name -> text) that no source references outside that
    definition; ``reading`` sources only reference."""
    trees = {name: ast.parse(text) for name, text in defining.items()}
    counts = Counter()
    for tree in [*trees.values(), *(ast.parse(text) for text in reading)]:
        counts.update(references(tree))
    dead = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITION) or node.name.startswith("__"):
                continue
            if counts[node.name] - references(node)[node.name] <= 0:
                dead.append(f"{module}:{node.name}")
    return sorted(dead)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_the_guard_sees_a_dead_definition():
    source = ("class Box:\n"
              "    def __init__(self): self.size = 0\n"
              "    def grow(self): return self.grow()\n"
              "    def empty(self): return self.size == 0\n"
              "def unused(): return unused\n"
              "def traced(): pass\n")
    reading = ["Box().empty()", "LAYERS = ['box.traced']"]
    assert dead_definitions({"box.py": source}, reading) == ["box.py:grow", "box.py:unused"]


def test_every_definition_is_referenced():
    defining = {os.path.basename(p): _read(p) for p in DEFINING}
    assert dead_definitions(defining, [_read(p) for p in READING]) == []

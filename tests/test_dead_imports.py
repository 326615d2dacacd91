"""Every name a ``bowl`` module imports is used in that module.

``__init__.py`` re-exports the package API, so it is not checked. The one
other exemption is ``engine.backward_and_step``: the benchmark's tracer
wraps the training step under that engine attribute.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "bowl")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")
EXEMPT = {("engine.py", "backward_and_step")}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_guard_sees_an_unused_import():
    source = "import math\nimport os\nfrom .nn import Network, eval_rows\nos.getcwd()\n"
    assert unused_imports(source + "x: Network = None\n") == ["math", "eval_rows"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        unused = [n for n in unused_imports(fh.read()) if (module, n) not in EXEMPT]
    assert unused == [], f"{module} imports {unused} but never uses them"


def test_the_exemption_is_still_needed():
    with open(os.path.join(SRC, "engine.py"), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == ["backward_and_step"]

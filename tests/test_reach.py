"""The statement finder and line tracer of ``tests/reach.py``, which lists
the statements of ``src/bowl`` that the suite never runs."""

import sys

from reach import _line_tracer, unexecuted

SOURCE = ('"""Module docstring."""\n'           # 1
          "def outer(flag):\n"                  # 2
          '    """Docstring."""\n'              # 3
          "    count = 0\n"                     # 4
          "    def bump():\n"                   # 5
          "        nonlocal count\n"            # 6
          "        count += 1\n"                # 7
          "    if flag:\n"                      # 8
          "        raise ValueError(\n"         # 9
          "            'flag')\n"               # 10
          "    return (\n"                      # 11
          "        count)\n")                   # 12


def test_the_finder_sees_an_unrun_statement():
    # The def line and a call of outer(False): bump and the raise never run.
    assert unexecuted(SOURCE, {2, 4, 5, 8, 12}) == [7, 9]
    # A multi-line statement runs when any of its lines does.
    assert unexecuted(SOURCE, {2, 4, 5, 8, 12, 7, 10}) == []
    # Docstrings, def lines and the nonlocal line are never listed.
    assert unexecuted(SOURCE, set()) == [4, 7, 8, 9, 11]


def test_the_tracer_records_the_lines_that_run(tmp_path):
    """Traced for real, the import and a call of outer(False) leave bump's
    body and the raise; the tracer that was installed before is restored."""
    root = tmp_path.resolve()
    path = str(root / "tiny.py")
    tracer, executed = _line_tracer(str(root))
    code = compile(SOURCE, path, "exec")
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        namespace = {}
        exec(code, namespace)
        namespace["outer"](False)
    finally:
        sys.settrace(previous)
    assert unexecuted(SOURCE, executed[path]) == [7, 9]

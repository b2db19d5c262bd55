"""Print each statement of src/qamatch that the quick test loop never runs.

    PYTHONPATH=src python tests/line_coverage.py [extra pytest arguments]

Runs ``pytest -m "not slow"`` in this process under ``sys.settrace`` (no
coverage package needed) and prints ``file:line`` and the source of every
statement no test reached, docstrings excluded. Lines that run only in the
forked children of the loader (the child half of ``data._fork_parse``)
are traced in the child and lost with it, so they show as unreached: 13
of the 19 statements it lists. Exits with pytest's status.
"""

import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "qamatch")
hits = {}


def trace(frame, event, arg):
    path = os.path.abspath(frame.f_code.co_filename)
    if not path.startswith(SRC + os.sep):
        return None
    lines = hits.setdefault(path, set())

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def statements(text):
    """Line numbers where a statement of ``text`` starts, less docstrings."""
    tree = ast.parse(text)
    docs = {node.body[0].lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
    return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)} - docs


if __name__ == "__main__":
    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    status = pytest.main(["-q", "-p", "no:cacheprovider", "-m", "not slow", *sys.argv[1:]])
    sys.settrace(None)
    for name in sorted(n for n in os.listdir(SRC) if n.endswith(".py")):
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for lineno in sorted(statements(text) - hits.get(path, set())):
            print(f"src/qamatch/{name}:{lineno}: {text.splitlines()[lineno - 1].strip()}")
    sys.exit(status)

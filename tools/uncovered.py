"""Print each statement of ``src/ctckit/`` that no tier-1 test executes, then their count.

    python3 tools/uncovered.py [CHECKOUT]

``CHECKOUT`` (default: the checkout holding this script) is the root of a
ctckit checkout.  Its tier-1 tests run in this process, as
``python -m pytest -q --continue-on-collection-errors`` run in its root with
its ``src/`` on the path, under a ``sys.settrace`` line tracer (set for new
threads too) that records each line of ``src/ctckit/`` that runs.  Code
that runs in another process, such as a census worker pool, is not seen.

A statement is every ``ast`` statement of a module but a docstring, which
runs no code.  It counts as run when a line event fired on one of its own
lines: from its first decorator or first line through its last line, or,
for a compound statement, through the line before its body; a compound
statement also counts as run when any statement in it runs.  Output is
pytest's own, then one line per statement that did not run, as
``path:line: source``, then the count.  Traced, the tier-1 run takes about
twice its untraced time.
"""

import ast
import os
import sys
import threading
from pathlib import Path


def _statements(tree):
    """``(statement, its own lines)`` of each statement of a module ``tree``."""
    out = []
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            body[0].docstring = True
        if not isinstance(node, ast.stmt) or getattr(node, "docstring", False):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        last = max(first, body[0].lineno - 1) if isinstance(body, list) else node.end_lineno
        out.append((node, set(range(first, last + 1))))
    return out


def _uncovered(path, lines):
    """``(line, statement)`` of each statement of ``path`` none of whose own
    lines, and none of whose inner statements' lines, are in ``lines``."""
    ran = {}
    for node, own in _statements(ast.parse(path.read_text())):
        ran[node] = bool(own & lines)
    for node in ran:
        if not ran[node]:
            ran[node] = any(ran.get(inner, False) for inner in ast.walk(node) if inner is not node)
    return sorted((node.lineno, node) for node, done in ran.items() if not done)


def main(argv):
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    package = root / "src" / "ctckit"
    prefix = str(package) + os.sep
    seen = set()  # (file, line) of each line of the package that ran

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(root)
    sys.path.insert(0, str(root / "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    count = 0
    for path in sorted(package.glob("*.py")):
        lines = {line for name, line in seen if name == str(path)}
        source = path.read_text().splitlines()
        for line, _ in _uncovered(path, lines):
            print(f"{path.relative_to(root)}:{line}: {source[line - 1].strip()}")
            count += 1
    print(f"{count} statements run by no test")


if __name__ == "__main__":
    main(sys.argv[1:])

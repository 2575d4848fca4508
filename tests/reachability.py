"""Pytest plugin: list the ``src/repro`` functions a test run never calls.

Not a test module and not a conftest, so a plain test run never loads it.
Load it explicitly::

    PYTHONPATH=src python -m pytest -q -p tests.reachability

Every Python function call in the test process and in its threads is
recorded with ``sys.setprofile`` / ``threading.setprofile`` (code objects
only, so the hook stays cheap).  At the end of the session each function
and method defined in ``src/repro`` (found with :mod:`ast`) whose code
never ran is listed with its line span, followed by one summary line::

    unreached: N functions, M lines

Lines count each unreached function's span once; a function nested in an
unreached function adds nothing.  Work done in other processes
(``ProcessExecutor`` workers, the server started by CI as a daemon) is not
seen, so check each listed function by grep before deleting it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from typing import Dict, List, Tuple

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: id(code) -> code for every Python frame entered; holding the code keeps
#: its id from being reused.
_entered: Dict[int, object] = {}


def _profile(frame, event, arg):
    if event == "call":
        _entered[id(frame.f_code)] = frame.f_code


def _defined_functions() -> List[Tuple[str, int, int, str, Tuple[int, ...]]]:
    """``(file, first line, last line, qualified name, first lines of the
    enclosing functions)`` of every function in the package.  The first
    line is the first decorator's, which is what a code object reports as
    ``co_firstlineno``."""
    found = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, prefix, enclosing):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = f"{prefix}{child.name}"
                    found.append((str(path), first, child.end_lineno, name, enclosing))
                    visit(child, f"{name}.", enclosing + (first,))
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", enclosing)
                else:
                    visit(child, prefix, enclosing)

        visit(tree, "", ())
    return found


def pytest_configure(config):
    threading.setprofile(_profile)
    sys.setprofile(_profile)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    sys.setprofile(None)
    threading.setprofile(None)
    reached = {
        (os.path.realpath(code.co_filename), code.co_firstlineno)
        for code in _entered.values()
    }
    unreached = [
        entry for entry in _defined_functions() if (entry[0], entry[1]) not in reached
    ]
    unreached_starts = {(path, first) for path, first, _, _, _ in unreached}
    lines = 0
    terminalreporter.section("src/repro functions no test called")
    for path, first, last, name, enclosing in unreached:
        relative = Path(path).relative_to(SOURCE_ROOT.parent)
        terminalreporter.write_line(f"{relative}:{first}: {name} ({last - first + 1} lines)")
        if not any((path, outer) in unreached_starts for outer in enclosing):
            lines += last - first + 1
    terminalreporter.write_line(f"unreached: {len(unreached)} functions, {lines} lines")

"""List the lines inside functions of `src/gmemsim` that no tier-1 test reaches.

Runs pytest in this process under `sys.settrace`, records every line of
`src/gmemsim` that executes, and prints, as `path:line: source`, each line
of a function (lambdas, comprehensions and generator expressions included)
that never did.  Module and class bodies run at import and are not listed.
Lines reached only in a subprocess that a test starts count as unreached.

    python tests/unreached_lines.py [pytest arguments]

With no arguments it runs the whole tier-1 suite.  The exit status is
pytest's when pytest fails, else 1 when a line is listed, else 0.  pytest
does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import inspect
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gmemsim"


def function_lines(path: Path) -> set[int]:
    """Every line that holds an instruction of a function in `path`."""
    stack, lines = [compile(path.read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines() if line)
    return lines


class NoDeadline:
    """Tracing slows a test many times over, so no hypothesis example may
    fail for taking too long."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings
        settings.register_profile("unreached_lines", deadline=None)
        settings.load_profile("unreached_lines")


def main(args: list[str]) -> int:
    files = {str(p): function_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    reached: dict[str, set[int]] = {name: set() for name in files}

    def trace(frame, event, arg):
        hit = reached.get(frame.f_code.co_filename)
        if hit is None:
            return None
        hit.add(frame.f_lineno)

        def local(frame, event, arg):
            hit.add(frame.f_lineno)
            return local
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(args or [str(ROOT)])], plugins=[NoDeadline])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unreached = 0
    for name, lines in files.items():
        source = Path(name).read_text().splitlines()
        for line in sorted(lines - reached[name]):
            print(f"{Path(name).relative_to(ROOT)}:{line}: "
                  f"{source[line - 1].strip()}")
            unreached += 1
    return status or int(unreached > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

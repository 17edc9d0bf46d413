"""Lines of ``src/catseries`` that the test suite never runs.

Run from anywhere as ``python tests/trace_lines.py [pytest arguments]``
(default: the whole suite, quietly).  The suite runs in this process under
``sys.settrace`` and ``threading.settrace``; afterwards every executable line
of ``src/catseries`` that never ran is printed as ``path:line: text``,
followed by the total "ran X of Y executable lines".  A line is executable
when the compiled module maps bytecode to it.  Code that tests run in a
subprocess is not traced.  pytest does not collect this file (its name does
not start with ``test_``).
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "catseries"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that the bytecode of ``path`` maps to, nested code included."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main(args: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        replaced = sys.gettrace() is not trace
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            total += 1
            if (str(path), line) not in ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    if replaced:
        print("warning: a test replaced the tracer, so lines after it may be listed as missed")
    print(f"ran {total - missed} of {total} executable lines in {PACKAGE.relative_to(ROOT)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Print every executable line of ``src/smclm`` that the tier-1 suite never runs.

Run from the repository root:

    PYTHONPATH=src python tests/untested_lines.py [PYTEST_ARGS...]

It runs pytest in this process, by default as the tier-1 command does (the
configured testpaths, ``--continue-on-collection-errors``), with a
``sys.settrace`` hook that records each line executed in ``src/smclm``.
Extra arguments go to pytest after those defaults. Then it prints, as
``path:line: source``, each line that starts a statement in the compiled
module and that no test reached, and ends with the count. Code that runs
only in a subprocess (``python -m smclm.cli``, ``perfbench/run.py``) is not
seen. It exits with pytest's status. The file name keeps pytest from
collecting it; a run takes about twice as long as the plain suite.
"""

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "smclm"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the compiled module and its nested code run."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module's first op is line 0
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest.main(args) with the lines it runs in SRC, keyed by resolved path."""
    hit: dict[str, set[int]] = defaultdict(set)
    ours: dict[str, str | None] = {}  # co_filename -> its resolved path under SRC, or None

    def in_src(filename: str) -> str | None:
        if filename not in ours:
            resolved = os.path.realpath(filename)
            ours[filename] = resolved if Path(resolved).parent == SRC else None
        return ours[filename]

    def trace(frame, event, arg):
        path = in_src(frame.f_code.co_filename)
        if path is None:
            return None  # no line events for frames outside SRC
        lines = hit[path]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hit


def main(argv: list[str]) -> int:
    if any(name == "smclm" or name.startswith("smclm.") for name in sys.modules):
        raise SystemExit("smclm is already imported; its module-level lines would go unseen")
    status, hit = run_traced(["-q", "--continue-on-collection-errors", *argv])
    root = SRC.parent.parent
    count = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - hit[str(path)]):
            print(f"{path.relative_to(root)}:{line}: {source[line - 1].strip()}")
            count += 1
    print(f"{count} executable line(s) in {SRC.relative_to(root)} not run by the suite")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

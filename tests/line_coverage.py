"""Line coverage of src/smvirt under the tier-1 suite, traced with
sys.settrace (the coverage package is not needed).

Runs the tier-1 suite in this process under the tracer, recording the
lines executed in files under src/smvirt, then lists every executable
line that never ran.  It exits 1 if there is one, or if the suite fails.
A file's executable lines are those its code objects map instructions
to (co_lines()), read before the suite starts: a file edited during the
run is judged by the lines that were traced.

    python tests/line_coverage.py [pytest args...]

Extra arguments go to pytest in place of the whole suite.  The suite
runs about six times slower under the tracer: minutes, not seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "smvirt"


def executable_lines(path: Path) -> set[int]:
    """The lines some instruction of the file's code maps to (a module's
    code starts with an instruction at line 0, which is none)."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineCollector:
    """Records the (file, line) pairs run in files under one directory,
    while active; restores the tracer it replaced on exit.

    A call counts its code's first line as run: that line's only own
    instruction (RESUME) reports no line event.
    """

    def __init__(self, directory: Path):
        self.prefix = str(directory.resolve()) + "/"
        self.hits: dict[str, set[int]] = {}
        self._previous = None

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        hits = self.hits.setdefault(filename, set())
        hits.add(frame.f_code.co_firstlineno)

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line

        return line

    def __enter__(self) -> "LineCollector":
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)

    def unrun(self, executable: dict[Path, set[int]]) -> dict[str, list[int]]:
        """Per file, its executable lines that never ran, in order; executable
        maps each resolved path to its lines."""
        out = {}
        for path, lines in executable.items():
            missed = lines - self.hits.get(str(path), set())
            if missed:
                out[str(path)] = sorted(missed)
        return out


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    args = argv or ["-q", "-p", "no:cacheprovider", str(ROOT)]
    executable = {p.resolve(): executable_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    with LineCollector(PACKAGE) as collector:
        status = pytest.main(args)
    if status:
        print(f"the suite failed (pytest exit {status}); coverage is of what ran", file=sys.stderr)
    missed = collector.unrun(executable)
    total = sum(map(len, executable.values()))
    for filename, lines in missed.items():
        rel = Path(filename).relative_to(ROOT)
        for n in lines:
            print(f"{rel}:{n}: never run")
    count = sum(map(len, missed.values()))
    print(f"{count} of {total} executable lines in src/smvirt never run")
    return 1 if count or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

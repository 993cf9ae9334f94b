"""The line collector of tests/line_coverage.py, checked on a toy module."""

import importlib.util
import sys

from line_coverage import LineCollector, executable_lines

TOY = """\
import functools


def pick(x):
    if x > 10:
        return "big"
    return "small"


@functools.lru_cache
def squares(
    n,
):
    return [i * i for i in range(n)]


class Box:
    def get(self):
        return (lambda: 1)()
"""


def test_the_collector_finds_the_one_line_that_never_ran(tmp_path):
    path = (tmp_path / "toy.py").resolve()
    path.write_text(TOY)
    executable = {path: executable_lines(path)}
    assert sorted(executable[path]) == [1, 4, 5, 6, 7, 10, 11, 14, 17, 18, 19]
    spec = importlib.util.spec_from_file_location("toy", path)
    toy = importlib.util.module_from_spec(spec)
    before = sys.gettrace()
    with LineCollector(path.parent) as collector:
        spec.loader.exec_module(toy)
        assert (toy.pick(1), toy.squares(3), toy.Box().get()) == ("small", [0, 1, 4], 1)
    assert sys.gettrace() is before
    # an edit after the lines were read does not move the verdict
    path.write_text("x = 1\n" * 30)
    assert collector.unrun(executable) == {str(path): [6]}

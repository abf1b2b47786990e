"""Statement-coverage census of the test suite over ``src/nfacomp``.

Runs the test suite in-process under a ``sys.settrace`` hook (no coverage
package needed) and reports the statements of the library that no test
executes, file by file, then the total, and the library's line count (what
``cat src/nfacomp/*.py src/nfacomp/_kernels/*.py | wc -l`` prints), split
into code, docstring, comment and blank lines.  A statement is an
``ast.stmt`` node, docstrings excluded; it counts as run when a line event
fires on any line it spans that no statement nested inside it spans.  Every
line a docstring spans is a docstring line, blank or not, and every line
another string spans is code; of the others, an empty line is blank, one
that starts with ``#`` is a comment, and the rest are code.

A statement that starts on a line marked ``# pragma: no cover`` leaves the
census, and so does every statement of the block such a line opens (an
``else:  # pragma: no cover`` takes its whole branch); the summary line
counts them as excluded.

    python scripts/coverage_census.py [pytest arguments]

Without arguments it runs every test under ``tests/``.  The census takes
several times as long as the plain suite.  It exits 1 when some statement
is never run, when a test fails other than the three acceptance criteria
pinned as failing (``PINNED_FAILURES``), or when pytest stops short of
running the tests (an exit status other than 0 and 1); it exits 0
otherwise.  Each unexpected failure is listed by its node id.
"""

from __future__ import annotations

import ast
import fnmatch
import pathlib
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "nfacomp"
# Acceptance criteria 3, 4 and 8 pin figures the constructions cannot meet (see the README).
PINNED_FAILURES = tuple(f"tests/test_acceptance.py::test_criterion_0{n}_*" for n in (3, 4, 8))


class _Failures:
    """A pytest plugin that keeps the node id of every failed test and collection."""

    def __init__(self):
        self.ids: list[str] = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.ids.append(report.nodeid)

    def pytest_collectreport(self, report):
        if report.failed:
            self.ids.append(report.nodeid)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and body
        and body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def line_split(path: pathlib.Path) -> Counter:
    """The lines of ``path`` counted as code, docstring, comment and blank."""
    text = path.read_text()
    strings: dict[int, str] = {}  # the kind of each line a string spans
    for parent in ast.walk(ast.parse(text, str(path))):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.stmt) and _is_docstring(node, parent):
                kind = "docstring"
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                kind = "code"  # a docstring's own constant is reached after its statement
            else:
                continue
            for line in range(node.lineno, node.end_lineno + 1):
                strings.setdefault(line, kind)
    split = Counter()
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        split[strings.get(number) or ("comment" if line.startswith("#") else "code" if line else "blank")] += 1
    return split


def statements(path: pathlib.Path) -> dict[int, int]:
    """Line -> first line of the innermost statement spanning it."""
    tree = ast.parse(path.read_text(), str(path))
    spans = []
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.stmt) and not _is_docstring(node, parent):
                decorators = getattr(node, "decorator_list", [])
                spans.append((min([node.lineno] + [d.lineno for d in decorators]), node.end_lineno))
    owner: dict[int, int] = {}
    # Wider spans first, so that nested statements claim their own lines.
    for start, end in sorted(spans, key=lambda s: s[0] - s[1]):
        for line in range(start, end + 1):
            owner[line] = start
    return owner


def excluded(path: pathlib.Path) -> set[int]:
    """Lines that ``# pragma: no cover`` takes out: each marked line and, when
    it opens a block, every line of that block."""
    lines = path.read_text().splitlines()
    out: set[int] = set()
    for i, text in enumerate(lines):
        if "# pragma: no cover" not in text:
            continue
        out.add(i + 1)
        if text.split("#", 1)[0].rstrip().endswith(":"):
            indent = len(text) - len(text.lstrip())
            for j in range(i + 1, len(lines)):
                if lines[j].strip() and len(lines[j]) - len(lines[j].lstrip()) <= indent:
                    break
                out.add(j + 1)
    return out


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted(PACKAGE.rglob("*.py"))}
    hit: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename in hit:
            hit[frame.f_code.co_filename].add(frame.f_code.co_firstlineno)
            return local
        return None

    sys.path.insert(0, str(SRC))
    import pytest  # imported before tracing starts; nfacomp is imported by the tests

    failures = _Failures()
    previous = sys.gettrace()  # a census of the census's own test runs inside another
    sys.settrace(global_)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")], plugins=[failures])
    finally:
        sys.settrace(previous)
    unexpected = [i for i in failures.ids if not any(fnmatch.fnmatchcase(i, p) for p in PINNED_FAILURES)]

    total = missed = skipped = 0
    for name, path in files.items():
        owner = statements(path)
        starts, marked = set(owner.values()), excluded(path)
        stmts = starts - marked
        skipped += len(starts & marked)
        run = {owner[line] for line in hit[name] if line in owner}
        lost = sorted(stmts - run)
        total += len(stmts)
        missed += len(lost)
        if lost:
            print(f"{path.relative_to(ROOT)}: {len(lost)} not run: {', '.join(map(str, lost))}")
    print(
        f"{missed} of {total} statements in src/nfacomp never run, {skipped} excluded by"
        f" '# pragma: no cover' (pytest exit {int(status)})"
    )
    split = Counter(code=0, docstring=0, comment=0, blank=0)
    for p in [*PACKAGE.glob("*.py"), *PACKAGE.glob("_kernels/*.py")]:
        split.update(line_split(p))
    print(
        f"{sum(split.values())} lines in src/nfacomp/*.py and src/nfacomp/_kernels/*.py: "
        + ", ".join(f"{count} {kind}" for kind, count in split.items())
    )
    for i in unexpected:
        print(f"failed, not pinned: {i}")
    return 1 if missed or unexpected or int(status) not in (0, 1) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

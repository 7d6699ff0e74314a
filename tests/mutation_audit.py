"""Mutation audit of the LP certificate checks: is every check caught by a test?

    python3 tests/mutation_audit.py

Run from the root of a source checkout.  The audit copies `src/` and
`tests/` into a temporary directory once.  Then, one site at a time, it
disables a check of `src/robust_ftap/lp_core.py` in the copy and runs
`tests/test_lp_core.py` there.  Its sites are every `_require(ok, what)`
call, whose condition becomes `True or (ok)`, and every
`raise CertificateError(...)`, which becomes `pass`.  A site survives when
the tests still pass with its check disabled: no test shows that the
check is needed.  Each site and its fate are printed, one line each, and
the exit status is 1 when any site survives.  The audit uses the
standard library and pytest only; pytest does not collect it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULE = os.path.join("src", "robust_ftap", "lp_core.py")
TESTS = os.path.join("tests", "test_lp_core.py")


def _offset(lines: list[str], lineno: int, col: int) -> int:
    """The index into the joined source of (1-based line, 0-based column);
    the column counts UTF-8 bytes, as `ast` does."""
    line = lines[lineno - 1]
    return sum(map(len, lines[: lineno - 1])) + len(line.encode()[:col].decode())


def _span(lines: list[str], node: ast.AST) -> tuple[int, int]:
    return (
        _offset(lines, node.lineno, node.col_offset),
        _offset(lines, node.end_lineno, node.end_col_offset),
    )


def _is_call_to(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def sites(source: str) -> list[tuple[int, str, str]]:
    """Every check site of `source` as (line, what, mutated source), in
    source order."""
    lines = source.splitlines(keepends=True)
    out = []
    for node in ast.walk(ast.parse(source)):
        if _is_call_to(node, "_require") and node.args:
            start, end = _span(lines, node.args[0])
            mutated = source[:start] + "True or (" + source[start:end] + ")" + source[end:]
            out.append((node.lineno, "_require", mutated))
        elif isinstance(node, ast.Raise) and _is_call_to(node.exc, "CertificateError"):
            start, end = _span(lines, node)
            out.append((node.lineno, "raise CertificateError", source[:start] + "pass" + source[end:]))
    return sorted(out, key=lambda site: site[0])


def _tests_pass(tree: str) -> bool:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", TESTS],
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    if run.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {run.returncode}: the audit cannot run {TESTS}")
    return run.returncode == 0


def main() -> int:
    with open(os.path.join(ROOT, MODULE), encoding="utf-8") as fh:
        source = fh.read()
    found = sites(source)
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as tree:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tree, part), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tree)
        target = os.path.join(tree, MODULE)
        if not _tests_pass(tree):
            raise SystemExit(f"{TESTS} fails on the unmutated tree")
        for line, what, mutated in found:
            compile(mutated, MODULE, "exec")
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(mutated)
            survived = _tests_pass(tree)
            print(f"{MODULE}:{line}: {what}: {'SURVIVED' if survived else 'caught'}", flush=True)
            if survived:
                survivors.append(line)
    print(f"{len(found)} sites, {len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

"""The code in src/greenbox that no benchmark workload runs.

Run from the repository root (it takes a few seconds):

    python3 tools/traffic.py
    python3 tools/traffic.py --seed 3

One pass of each workload of ``bench/run.py`` runs in this process under
``sys.settrace``, through that script's own ``invocations`` and ``call``.
The output lists every function and method of ``src/greenbox`` that no
workload enters, with 0 runs, and then, inside the functions that ran,
every statement that no workload runs.  A statement inside one that never
ran is not listed again, and neither is a ``raise``: only an invalid input
reaches one.  Each line reads ``module.py:line  qualified name  source``.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "greenbox"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from run import WORKLOADS, call, invocations  # noqa: E402  (bench/run.py)


def trace_workloads(seed: int):
    """Run one pass of each workload under a line tracer: the entry
    counts by (file, first line) of each code object in the package, the
    (file, line) pairs that ran, and the invocations that did not exit 0."""
    prefix = str(PACKAGE) + os.sep
    entries, lines, failed = Counter(), set(), []

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def enter(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        entries[code.co_filename, code.co_firstlineno] += 1
        return local

    for workload in WORKLOADS:
        for inv in invocations(workload, seed):
            sys.settrace(enter)
            try:
                rc, _, err = call(inv)
            finally:
                sys.settrace(None)
            if rc != 0:
                failed.append((" ".join(inv), rc, err))
    return entries, lines, failed


def _blocks(node):
    """The statement lists directly inside a statement."""
    blocks = [getattr(node, f, None) for f in ("body", "orelse", "finalbody")]
    blocks += [h.body for h in getattr(node, "handlers", ())]
    blocks += [c.body for c in getattr(node, "cases", ())]
    return [b for b in blocks if b]


def _is_docstring(node) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
        and isinstance(node.value.value, str)


def functions(tree):
    """(qualified name, node) of every function and method, nested ones
    included."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + node.name, node
                yield from walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
            else:
                for block in _blocks(node):
                    yield from walk(block, prefix)
    return walk(tree.body, "")


def unrun_statements(body, ran):
    """The outermost statements of ``body`` none of whose own lines ran,
    raises, docstrings and nested definitions aside.  A compound
    statement's own lines are its header; ``try`` has none that traces, so
    only its blocks are read."""
    for node in body:
        if isinstance(node, (ast.Raise, ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) or _is_docstring(node):
            continue
        blocks = _blocks(node)
        if not isinstance(node, ast.Try):
            end = max(node.lineno, blocks[0][0].lineno - 1) if blocks \
                else node.end_lineno
            if not any(line in ran for line in range(node.lineno, end + 1)):
                yield node
                continue
        for block in blocks:
            yield from unrun_statements(block, ran)


def _first_line(node) -> int:
    """The line a function's code object starts on: its first decorator's,
    or its ``def``'s."""
    return min([d.lineno for d in node.decorator_list] + [node.lineno])


def report(entries, lines) -> list:
    """The output lines: the functions with 0 runs, then the statements
    that did not run in the functions that did."""
    dead, cold = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        name = str(path)
        ran = {line for file, line in lines if file == name}
        for qual, node in functions(ast.parse(source)):
            body = list(unrun_statements(node.body, set()))
            if not body:
                continue    # only a docstring and raises
            where = f"{path.name}:{node.lineno}"
            if not entries[name, _first_line(node)]:
                dead.append(f"{where:18s} {qual}  0 runs")
                continue
            for stmt in unrun_statements(node.body, ran):
                where = f"{path.name}:{stmt.lineno}"
                cold.append(f"{where:18s} {qual}  "
                            f"{text[stmt.lineno - 1].strip()}")
    return [f"functions that no workload runs ({len(dead)}):", *dead, "",
            f"statements, other than a raise, that no workload runs in the "
            f"functions that ran ({len(cold)}):", *cold]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="the seed of each workload's pass")
    args = parser.parse_args(argv)
    entries, lines, failed = trace_workloads(args.seed)
    print(f"traffic: one pass each of {', '.join(WORKLOADS)}, "
          f"seed {args.seed}")
    for inv, rc, err in failed:
        print(f"warning: {inv} exited {rc}\n{err}")
    print("\n".join(report(entries, lines)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

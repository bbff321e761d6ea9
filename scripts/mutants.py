#!/usr/bin/env python3
"""Run source mutants of hermquant modules against verify and the tests.

Usage: python scripts/mutants.py MODULE [MODULE ...] [--root DIR]
           [--workdir DIR]

A mutant changes one site of a module: a binary or augmented + - * (+ and -
swap, * becomes +), a unary minus (it becomes a unary plus), one operator of
a comparison (< and <=, > and >=, == and != swap) or a numeric constant (c
becomes c + 1).  Every site of each module is run, in source order.

The mutants run in a copy of the checkout at --root (default: this
script's own), without .git and caches, made under --workdir (default: a
temporary directory); the checkout itself is never written.  Each mutant
first runs

    python -m hermquant.cli verify --suite all --seed 5

and, if every check passes, pytest on the test files that import the
module.  A stage that exits nonzero or times out (60 s for verify, 600 s
for the tests) kills the mutant.  Both stages first run on the unmutated
copy: if either fails there, every mutant would count as killed, so the
script stops and exits 1.  Otherwise one line is printed per mutant, then
the counts per module, and it exits 0.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

_BINOPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add}
_CMPOPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
           ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
VERIFY = ["-m", "hermquant.cli", "verify", "--suite", "all", "--seed", "5"]


class Site(NamedTuple):
    """One mutable operator or constant: the span of its node, the kind of
    change and, in a chained comparison, which operator."""

    span: tuple
    kind: str
    index: int = 0

    def __str__(self) -> str:
        return f"{self.span[0]}:{self.span[1]} {self.kind}"


def _span(node) -> tuple:
    return (node.lineno, node.col_offset, node.end_lineno,
            node.end_col_offset)


def _node_sites(node):
    if (isinstance(node, (ast.BinOp, ast.AugAssign))
            and type(node.op) in _BINOPS):
        yield Site(_span(node), type(node.op).__name__)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        yield Site(_span(node), "USub")
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _CMPOPS:
                yield Site(_span(node), type(op).__name__, i)
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        yield Site(_span(node), "Constant")


def sites(tree: ast.AST) -> list:
    """Every mutable site of tree, in source order."""
    return sorted((site for node in ast.walk(tree)
                   for site in _node_sites(node)),
                  key=lambda site: (site.span, site.index))


def mutate(tree: ast.AST, site: Site) -> ast.AST:
    """A copy of tree with the change of site applied."""
    tree = copy.deepcopy(tree)
    node = next(node for node in ast.walk(tree)
                if site in _node_sites(node))
    if site.kind == "USub":
        node.op = ast.UAdd()
    elif site.kind == "Constant":
        node.value += 1
    elif isinstance(node, ast.Compare):
        node.ops[site.index] = _CMPOPS[type(node.ops[site.index])]()
    else:
        node.op = _BINOPS[type(node.op)]()
    return tree


def importers(tests: Path, module: str) -> list:
    """The test files that import hermquant.<module> by name."""
    pattern = re.compile(rf"hermquant\.{module}\b"
                         rf"|from hermquant import [^\n]*\b{module}\b")
    return sorted(p.name for p in tests.glob("test_*.py")
                  if pattern.search(p.read_text()))


def _passes(args: list, cwd: Path, timeout: float) -> bool:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def run_module(work: Path, module: str) -> tuple:
    """Run the mutants of one module in the copy at work; returns
    (mutants, verify survivors, survivors of both)."""
    path = work / "src" / "hermquant" / f"{module}.py"
    source = path.read_text()
    tree = ast.parse(source)
    tests = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *(f"tests/{name}" for name in importers(work / "tests", module))]
    if not (_passes(VERIFY, work, 60) and _passes(tests, work, 600)):
        raise SystemExit(f"{module}: verify or the tests fail without a "
                         "mutant, so no mutant could survive")
    lines = source.splitlines()
    counts = [0, 0, 0]
    try:
        for site in sites(tree):
            path.write_text(ast.unparse(mutate(tree, site)) + "\n")
            # verify takes about a second and the tests under a minute, so
            # a mutant that makes either far slower is counted as killed
            alive = _passes(VERIFY, work, 60)
            both = alive and _passes(tests, work, 600)
            counts = [counts[0] + 1, counts[1] + alive, counts[2] + both]
            verdict = ("survives verify and tests" if both else
                       "survives verify" if alive else "killed by verify")
            print(f"{module}.py:{site}  {verdict}  |"
                  f" {lines[site.span[0] - 1].strip()}", flush=True)
    finally:
        path.write_text(source)
    return tuple(counts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("modules", nargs="+")
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parents[1])
    ap.add_argument("--workdir", type=Path)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        work = Path(tmp)
        # the tests read files across the checkout (perfbench/,
        # BENCHMARK.json, README.md, ...), so all of it but git and caches
        skip = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                      ".pytest_cache", "results")
        shutil.copytree(args.root, work, ignore=skip, dirs_exist_ok=True)
        totals = {m: run_module(work, m)
                  for m in args.modules}
    for m, (n, alive, both) in totals.items():
        print(f"{m}: {n} mutants, {alive} survive verify, "
              f"{both} survive verify and tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())

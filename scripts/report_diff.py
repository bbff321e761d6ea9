#!/usr/bin/env python3
"""Compare two verify reports check by check.

Usage: python scripts/report_diff.py OLD NEW

OLD and NEW are the JSON reports of `hermquant verify`.  One line is printed
for each name added or removed, each changed verdict or tolerance, and each
residual that moved by more than a factor of 2 or between zero and nonzero
(a NaN residual counts as moved unless both are NaN).  A name that occurs k
times in a report is compared occurrence by occurrence, as NAME[0] ...
NAME[k-1].  Exits 0 when nothing is listed and 1 otherwise, as diff does.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter


def _keyed(report: dict) -> dict:
    """The report's checks by name, a repeated name by name[occurrence]."""
    counts = Counter(c["name"] for c in report["checks"])
    seen, out = Counter(), {}
    for c in report["checks"]:
        name = c["name"]
        out[name if counts[name] == 1 else f"{name}[{seen[name]}]"] = c
        seen[name] += 1
    return out


def _moved(old: float, new: float) -> bool:
    if math.isnan(old) or math.isnan(new):
        return math.isnan(old) != math.isnan(new)
    if old == 0.0 or new == 0.0:
        return (old == 0.0) != (new == 0.0)
    return max(old / new, new / old) > 2.0


def _verdict(c: dict) -> str:
    return "pass" if c["passed"] else "FAIL"


def diff_reports(old: dict, new: dict) -> list:
    """The lines listing how the checks of new differ from those of old."""
    a, b = _keyed(old), _keyed(new)
    lines = [f"removed: {n}" for n in a if n not in b]
    lines += [f"added: {n}" for n in b if n not in a]
    for name in (n for n in a if n in b):
        x, y = a[name], b[name]
        if x["passed"] != y["passed"]:
            lines.append(f"verdict: {name} {_verdict(x)} -> {_verdict(y)}")
        if x["tol"] != y["tol"]:
            lines.append(f"tol: {name} {x['tol']:.3g} -> {y['tol']:.3g}")
        if _moved(x["max_residual"], y["max_residual"]):
            lines.append(f"residual: {name} {x['max_residual']:.3g} -> "
                         f"{y['max_residual']:.3g}")
    return lines


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (_load(path) for path in argv)
    lines = diff_reports(old, new)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

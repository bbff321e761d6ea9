"""Fixed reference work that run.py times between CLI processes.

    python perfbench/reference.py

It does not import hermquant, so no change to the program moves its time; only
the machine does.  Its mix follows the CLI's: a fresh interpreter importing
numpy, exact Fraction arithmetic, scalar float loops, many small Python
objects and short numpy array passes, run once on the main thread and once on
two threads at a time, as `verify --suite all` fans its suites out, so that
the hand-over of the interpreter lock between cores is sampled too.
Dividing the program's time by the reference time measured in the same
stretch of the run takes out the speed drift of a shared host (see
README.md, "Reference normalisation").
"""

from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np


def mix(scale: int) -> bool:
    acc = Fraction(0)
    for k in range(1, 4 * scale):
        acc += Fraction(1, k * k)
    x = 0.0
    for i in range(400 * scale):
        x += (i % 7) * 0.5
    cells = [(Fraction(i, 7), float(i)) for i in range(100 * scale)]
    total = sum(c[1] for c in cells)
    v = np.linspace(0.0, 1.0, 4096)
    for _ in range(8 * scale):
        v = np.sqrt(v * v + 1.0) - 1.0
        x += float(v[7])
    return acc > 1 and x > 0 and total > 0 and bool(np.isfinite(v).all())


ok = mix(80)
with ThreadPoolExecutor(max_workers=2) as pool:
    ok = all(pool.map(mix, [40, 40, 40, 40])) and ok
if not ok:
    raise SystemExit("reference work went wrong")

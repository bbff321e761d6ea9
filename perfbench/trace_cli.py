"""Run one hermquant CLI invocation in-process with every public function of
the package's modules wrapped in a span recorder.

    python perfbench/trace_cli.py AGG.json <hermquant cli arguments...>

The CLI's stdout, stderr and exit code are those of `python -m hermquant.cli`
(an uncaught exception prints its traceback and exits 1).  When the call
ends, the spans are reduced to per-function calls, self time and inclusive
time, written to AGG.json.

Spans are timed with the calling thread's CPU clock: `verify.run` fans its
suites over a thread pool, and wall-clock spans there would also count the
time a thread waits for the interpreter lock.  Each thread keeps its own span
buffer and parent stack.  `SqrtSum`/`ExactC` arithmetic and other methods are
not wrapped; their cost is charged to the enclosing wrapped function.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import traceback
from array import array
from pathlib import Path

import numpy as np

MODULES = ("cli", "verify", "physics", "quantize", "matrices", "ladder",
           "spectral", "basis", "exact", "tridiag", "quadrature", "specfun")


class _ThreadSpans:
    """Spans of one thread: parallel arrays indexed by span id."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []


class Tracer:
    """Records a span (name, start, end, parent, thread) per wrapped call."""

    def __init__(self):
        self.names: list = []
        self.threads: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.kernel_terms = 0
        self.rule_sizes: set = set()
        self.eigen_calls: list = []
        self._hooks = {"basis.kernel": self._kernel_hook,
                       "quadrature.gauss_laguerre_rule": self._rule_hook,
                       "spectral.eigenvalues": self._eigen_hook}

    def _buf(self) -> _ThreadSpans:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _ThreadSpans()
            with self._lock:
                self.threads.append(buf)
        return buf

    def wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        clock = time.thread_time
        hook = self._hooks.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buf()
            idx = len(buf.name)
            buf.name.append(fid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0.0)
            buf.stack.append(idx)
            buf.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return wrapper

    def _kernel_hook(self, args, kwargs, out):
        self.kernel_terms += out.truncation_n

    def _rule_hook(self, args, kwargs, out):
        self.rule_sizes.add(args[0] if args else kwargs["n_r"])

    def _eigen_hook(self, args, kwargs, out):
        self.eigen_calls.append((args, out))

    def install(self, pkg: str = "hermquant") -> None:
        """Wrap the public functions each module defines and rebind every
        reference the package holds to them: module globals (including names
        imported with `from .x import f`) and dict values such as the CLI
        dispatch tables and `verify.SUITES`."""
        mods = {m: importlib.import_module(f"{pkg}.{m}") for m in MODULES}
        swap = {}
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                swap[id(obj)] = self.wrap(f"{short}.{name}", obj)
        every = [m for n, m in sys.modules.items()
                 if n == pkg or n.startswith(pkg + ".")]
        for mod in every:
            for name, obj in list(vars(mod).items()):
                if id(obj) in swap:
                    setattr(mod, name, swap[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in swap:
                            obj[k] = swap[id(v)]

    def aggregate(self) -> dict:
        """Per-function calls, self time and inclusive time from the spans.

        A span's self time is its duration minus the durations of its direct
        children, which lie in the same thread by construction.
        """
        nfun = len(self.names)
        calls = np.zeros(nfun)
        self_s = np.zeros(nfun)
        incl_s = np.zeros(nfun)
        spans = 0
        for buf in self.threads:
            name = np.frombuffer(buf.name, dtype=np.int32)
            parent = np.frombuffer(buf.parent, dtype=np.int32)
            dur = np.frombuffer(buf.end) - np.frombuffer(buf.start)
            has = parent >= 0
            child = np.bincount(parent[has], weights=dur[has], minlength=name.size)
            calls += np.bincount(name, minlength=nfun)
            self_s += np.bincount(name, weights=dur - child, minlength=nfun)
            # inclusive time counts only outermost calls of a function, so a
            # recursive call is not counted twice
            outer = np.ones(name.size, dtype=bool)
            outer[has] = name[parent[has]] != name[has]
            incl_s += np.bincount(name[outer], weights=dur[outer], minlength=nfun)
            spans += name.size
        funcs = {n: {"calls": int(c), "self_s": float(x), "incl_s": float(y)}
                 for n, c, x, y in zip(self.names, calls, self_s, incl_s) if c}
        return {"functions": funcs, "wrapped": self.names, "spans": spans,
                "threads": len(self.threads), "kernel_terms": self.kernel_terms,
                "rule_sizes": sorted(self.rule_sizes)}


def polish_moved(eigen_calls, tridiag_eigenvalues) -> int:
    """Eigenvalues that `spectral.eigenvalues` returned different from plain
    bisection, which is recomputed here on the Jacobi matrix built from its
    closed form, off-diagonal sqrt((k+s)/2)."""
    moved = 0
    for args, out in eigen_calls:
        n, s = args[0], args[1]
        off = np.sqrt((np.arange(1, n) + s) / 2.0)
        moved += int(np.sum(tridiag_eigenvalues(np.zeros(n), off) != out))
    return moved


def main(argv: list) -> int:
    agg_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(Path.cwd() / "src"))
    import hermquant.cli
    import hermquant.tridiag

    plain_eigenvalues = hermquant.tridiag.eigenvalues
    tracer = Tracer()
    tracer.install()
    try:
        rc = hermquant.cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = 1
    sys.stdout.flush()
    agg = tracer.aggregate()
    agg["polish_moved"] = polish_moved(tracer.eigen_calls, plain_eigenvalues)
    Path(agg_path).write_text(json.dumps(agg))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""End-to-end and per-layer benchmark of the hermquant CLI.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 40 --trace 0

Run from the repository root.  One benchmark process starts one CLI process at a
time (`python -m hermquant.cli ...` with `src` on the path): a closed loop
with a single client.  Rounds of the workload's operations repeat until the
next round would end after `--seconds`; every output is checked against a
computation made apart from the program (see checks.py).  Between
operations the run times set-up probes and reference.py, a fixed piece of
work that does not use the program; time figures are divided by the
reference time, which takes the shared host's speed drift out of them.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
the fixed-size layer cases, then rounds in which each operation runs once as
a plain CLI process and once, right after, in-process under the span
recorder of trace_cli.py, and reports the per-layer metrics.  The last
stdout line is the JSON result; a fuller record goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import check_round
from trace_cli import MODULES
from workloads import BREAKDOWN, WORKLOADS

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
OP_TIMEOUT_S = 120
SETUP_CODE = "import hermquant.cli as c; c.build_parser()"
# about reference.py's wall time on the 2-core VM the benchmark was written
# on; normalised figures are in seconds at that speed
REF_NOMINAL_S = 0.25
# reference and set-up probes run after an operation until they cover this
# share of the operations' time, so that they sample the same stretches of
# the run as the operations do
REF_SHARE = 0.35


@dataclass
class ProcResult:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def run_proc(argv: list, env: dict) -> ProcResult:
    """Run one child to completion; wall time from spawn to reaping, CPU time
    and peak RSS from the child's own rusage."""
    with tempfile.TemporaryFile(dir=RESULTS) as out, \
            tempfile.TemporaryFile(dir=RESULTS) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ProcResult(proc.returncode, wall, ru.ru_utime + ru.ru_stime,
                          ru.ru_maxrss / 1024.0, out.read().decode(),
                          err.read().decode(errors="replace"))


def cli_argv(op) -> list:
    return [sys.executable, "-m", "hermquant.cli"] + op.argv


def traced_argv(op, agg: Path) -> list:
    return [sys.executable, str(HERE / "trace_cli.py"), str(agg)] + op.argv


def probe_pair(env: dict) -> tuple:
    """One set-up probe (a fresh interpreter that imports hermquant and builds
    the CLI parser) and one run of reference.py, back to back."""
    setup = run_proc([sys.executable, "-c", SETUP_CODE], env)
    if setup.rc != 0:
        raise RuntimeError(f"setup probe failed:\n{setup.stderr}")
    ref = run_proc([sys.executable, str(HERE / "reference.py")], env)
    if ref.rc != 0:
        raise RuntimeError(f"reference run failed:\n{ref.stderr}")
    return setup, ref


class Tally:
    """Operations attempted and failed, check failures and failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []
        self.fault_notes: set = set()

    def record(self, ops, results) -> None:
        outputs = []
        for op, r in zip(ops, results):
            self.attempted += 1
            if r.rc != 0:
                self.failed += 1
                last = (r.stderr.strip().splitlines() or ["(no stderr)"])[-1]
                self.fault_notes.add(f"{' '.join(op.argv)} -> exit {r.rc}: {last}")
            outputs.append(r.stdout if r.rc == 0 else None)
        self.wrong.extend(check_round(ops, outputs))


def untraced_metrics(workload: str, ops, slots: list, setup: list, ref: list) -> dict:
    """End-to-end figures of one run, normalised to the reference's speed.

    A round's operations occupy fixed slots (same command, seeded arguments).
    A time figure is the operations' mean per round multiplied by
    REF_NOMINAL_S over the mean time of the reference runs interleaved with
    them: the host's speed drifts by tens of percent from minute to minute,
    and the ratio takes that drift out, since both sides sample the same
    stretches of the run.  Known-fault slots are left out of every figure.
    """
    live = [k for k, op in enumerate(ops) if not op.known_fault]
    n = len(slots[0])
    speed = REF_NOMINAL_S / statistics.fmean(r.wall_s for r in ref)
    cpu_speed = REF_NOMINAL_S / statistics.fmean(r.cpu_s for r in ref)
    mean = {key: [statistics.fmean(getattr(r, key) for r in slots[k]) for k in live]
            for key in ("wall_s", "cpu_s")}
    out = {"round_s": {"value": sum(mean["wall_s"]) * speed, "n": n},
           "round_cpu_s": {"value": sum(mean["cpu_s"]) * cpu_speed, "n": n},
           "setup_s": {"value": statistics.fmean(r.wall_s for r in setup) * speed,
                       "n": len(setup)},
           "peak_rss_mb": {"value": max(r.rss_mb for k in live for r in slots[k]),
                           "n": n * len(live)},
           "raw.round_s": summarize([sum(slots[k][j].wall_s for k in live) for j in range(n)]),
           "raw.round_cpu_s": summarize([sum(slots[k][j].cpu_s for k in live) for j in range(n)]),
           "raw.setup_s": summarize([r.wall_s for r in setup]),
           "raw.reference_s": summarize([r.wall_s for r in ref]),
           "raw.reference_cpu_s": summarize([r.cpu_s for r in ref])}
    for name in BREAKDOWN[workload]:
        part = [j for j, k in enumerate(live) if ops[k].group == name]
        wall = sum(mean["wall_s"][j] for j in part) * speed
        if name.endswith("per_s"):
            wall = sum(ops[live[j]].points for j in part) / wall
        out[name] = {"value": wall, "n": n}
    return out


def run_untraced(workload, rng, seconds, env, tally) -> tuple:
    # the first pair writes the bytecode caches and is not counted
    probe_pair(env)
    pairs: list = []
    slots: list = []
    op_time = 0.0
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = WORKLOADS[workload](rng)
        results = []
        for op in ops:
            r = run_proc(cli_argv(op), env)
            results.append(r)
            op_time += r.wall_s
            while sum(s.wall_s + f.wall_s for s, f in pairs) < REF_SHARE * op_time:
                pairs.append(probe_pair(env))
        tally.record(ops, results)
        slots = slots or [[] for _ in ops]
        for slot, r in zip(slots, results):
            slot.append(r)
        now = time.perf_counter()
        if now - t_start + (now - t0) > seconds:
            break
    setup = [s for s, _ in pairs]
    ref = [f for _, f in pairs]
    metrics = untraced_metrics(workload, ops, slots, setup, ref)
    detail = [{"op": " ".join(op.argv[:4]), "known_fault": op.known_fault,
               "wall_s": [r.wall_s for r in slot], "cpu_s": [r.cpu_s for r in slot],
               "rss_mb": [r.rss_mb for r in slot]} for op, slot in zip(ops, slots)]
    probes = {"setup_wall_s": [r.wall_s for r in setup],
              "reference_wall_s": [r.wall_s for r in ref],
              "reference_cpu_s": [r.cpu_s for r in ref]}
    return metrics, len(slots[0]), {"slots": detail, "probes": probes}


def layer_values(aggs: list, untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer figures of one traced round from the per-process aggregates."""
    funcs: dict = {}
    wrapped: set = set()
    for a in aggs:
        wrapped.update(a["wrapped"])
        for name, f in a["functions"].items():
            acc = funcs.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            for k in acc:
                acc[k] += f[k]
    vals = {}
    for name in wrapped:
        f = funcs.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        vals[f"{name}.calls"] = f["calls"]
        vals[f"{name}.self_s"] = f["self_s"]
        vals[f"{name}.s"] = f["incl_s"]
    for mod in MODULES:
        mine = [f for n, f in funcs.items() if n.split(".")[0] == mod]
        vals[f"{mod}.calls"] = sum(f["calls"] for f in mine)
        vals[f"{mod}.self_s"] = sum(f["self_s"] for f in mine)
    rule_calls = vals["quadrature.gauss_laguerre_rule.calls"]
    distinct = sum(len(a["rule_sizes"]) for a in aggs)
    vals["quadrature.gauss_laguerre_rule.distinct"] = distinct
    vals["quadrature.gauss_laguerre_rule.reuse_ratio"] = (
        distinct / rule_calls if rule_calls else 0.0)
    vals["basis.kernel.terms"] = sum(a["kernel_terms"] for a in aggs)
    vals["spectral.polish_moved"] = sum(a["polish_moved"] for a in aggs)
    self_total = sum(vals[f"{m}.self_s"] for m in MODULES)
    vals["trace.spans"] = sum(a["spans"] for a in aggs)
    vals["trace.wall_s"] = traced_wall
    vals["trace.untraced_wall_s"] = untraced_wall
    vals["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    vals["trace.self_share_pct"] = 100.0 * self_total / traced_wall
    return vals


def run_cases(env: dict) -> dict:
    r = run_proc([sys.executable, str(HERE / "cases.py")], env)
    if r.rc != 0:
        raise RuntimeError(f"layer cases failed:\n{r.stderr}")
    return json.loads(r.stdout.splitlines()[-1])


def run_traced(workload, rng, seconds, env, tally) -> tuple:
    cases = run_cases(env)
    rounds = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = WORKLOADS[workload](rng)
        plain, traced, aggs = [], [], []
        for op in ops:
            # plain and traced back to back, so that a slow minute of the
            # shared machine hits both sides of the overhead figure alike
            plain.append(run_proc(cli_argv(op), env))
            with tempfile.NamedTemporaryFile(dir=RESULTS, suffix=".json",
                                             delete=False) as fh:
                agg = Path(fh.name)
            try:
                traced.append(run_proc(traced_argv(op, agg), env))
                if not op.known_fault:
                    aggs.append(json.loads(agg.read_text()))
            finally:
                agg.unlink(missing_ok=True)
        tally.record(ops, plain)
        tally.record(ops, traced)
        live = [k for k, op in enumerate(ops) if not op.known_fault]
        rounds.append(layer_values(aggs, sum(plain[k].wall_s for k in live),
                                   sum(traced[k].wall_s for k in live)))
        now = time.perf_counter()
        if now - t_start + (now - t0) > seconds:
            break
    metrics = {k: summarize([r[k] for r in rounds]) for k in rounds[0]}
    metrics.update({name: {"value": v, "n": 1} for name, v in cases.items()})
    return metrics, len(rounds), None


def summarize(values: list) -> dict:
    """Median (the reported value), sample count and quartiles; a tail
    percentile only when at least ten samples lie beyond it."""
    vals = sorted(values)
    n = len(vals)
    ints = all(isinstance(v, int) for v in vals)
    out = {"value": statistics.median_low(vals) if ints else statistics.median(vals), "n": n}
    if n >= 4:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out["q1"], out["q3"] = q1, q3
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = float(np.percentile(vals, p))
            break
    return out


def unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_mb"):
        return "MB"
    return "s" if name.endswith(("_s", ".s")) else "count"


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = git / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(workload: str, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hermquant").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": git_commit(),
            "source_sha256": digest.hexdigest(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def run_workload(workload: str, args, spec: dict, env: dict) -> dict:
    """Run one workload, print its metrics and write its record; return the
    result object."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    rng = random.Random(f"{workload}:{args.seed}")
    tally = Tally()
    runner = run_traced if args.trace else run_untraced
    metrics, n_rounds, detail = runner(workload, rng, args.seconds, env, tally)

    units = {m["name"]: m["unit"] for m in wanted}
    if not args.trace:
        units.update(BREAKDOWN[workload])
    missing = [name for name in units if name not in metrics]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    # functions the workload never called would only add zeros to the record
    kept = {n: st for n, st in metrics.items() if n in units or st["value"]}
    record = {**environment(workload, args), "rounds": n_rounds,
              "attempted": tally.attempted, "failed": tally.failed,
              "failures": sorted(tally.fault_notes), "wrong": tally.wrong,
              "metrics": {n: {"unit": units.get(n) or unit_of(n), **st}
                          for n, st in sorted(kept.items())},
              **(detail or {})}
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    out_path = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"{workload} seed={args.seed} trace={args.trace}: {n_rounds} rounds, "
          f"{tally.attempted} operations attempted, {tally.failed} failed")
    for note in sorted(tally.fault_notes):
        print(f"  failed: {note}")
    for argv_text, msg in tally.wrong:
        print(f"  WRONG OUTPUT: {argv_text}: {msg}")
    for name in units:
        st = metrics[name]
        print(f"  {name:<44} {st['value']:>14.6g} {units[name]:<9} n={st['n']}")
    for name in sorted(n for n in metrics if n.startswith("raw.")):
        st = metrics[name]
        print(f"  {name:<44} {st['value']:>14.6g} {unit_of(name):<9} n={st['n']}")
    print(f"  record: {out_path.relative_to(ROOT)}")
    return {"correct": not tally.wrong, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                        for m in wanted}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hermquant" / "cli.py").is_file():
        print("run from the repository root: src/hermquant/cli.py not found",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args, spec, env) for w in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{n}": v for w, r in results.items()
                              for n, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

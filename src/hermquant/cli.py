"""Command-line surface.

Subcommands: poly, basis, kernel, quantize, spectrum, physics, verify,
export.  Data goes to stdout or --out (JSON or CSV); human diagnostics go to
stderr.  Exit codes: 0 success, 1 verification failure, 2 domain error,
3 I/O error.  Identical invocations (including --seed) produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import basis, matrices, physics, quantize, spectral, verify
from .errors import HintViolation, NonConvergence, PoleError, TailError


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' (no spaces): '1+2i', '-0.5-1i', '2', '3i', '-i'."""
    raw = text.strip()
    if not raw:
        raise ValueError("empty complex literal")
    if raw.endswith("i"):
        body = raw[:-1]
        # split into real and imaginary parts at the last top-level sign
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                re_part, im_part = body[:k], body[k:]
                break
        else:
            re_part, im_part = "", body or "+1"
        if im_part in ("+", "-"):
            im_part += "1"
        return complex(float(re_part) if re_part else 0.0, float(im_part))
    return complex(float(raw), 0.0)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class RunConfig:
    """Resolved invocation: output routing plus shared numeric knobs."""

    fmt: str = "json"
    out: str | None = None
    tol: float = 1e-10
    dim: int = 12
    seed: int = 20240901


def _config(args) -> RunConfig:
    return RunConfig(fmt=args.format, out=args.out, tol=args.tol,
                     dim=args.dim, seed=args.seed)


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _complex_row(z: complex) -> list:
    return [_fmt(z.real), _fmt(z.imag)]


def _matrix_payload(op, cfg: RunConfig) -> str:
    if cfg.fmt == "csv":
        rows = matrices.operator_csv_rows(op)
        return "\n".join(",".join(r) for r in rows) + "\n"
    return matrices.operator_to_json(op) + "\n"


def _scalar_payload(value: complex, cfg: RunConfig, **meta) -> str:
    if cfg.fmt == "csv":
        head = ["re", "im"] + list(meta)
        row = _complex_row(complex(value)) + [_fmt(v) if isinstance(v, float)
                                              else str(v) for v in meta.values()]
        return ",".join(head) + "\n" + ",".join(row) + "\n"
    body = {"re": complex(value).real, "im": complex(value).imag, **meta}
    return json.dumps(body, indent=1, sort_keys=True) + "\n"


def cmd_poly(args, cfg: RunConfig) -> int:
    if args.which == "hermite":
        val = None
        from .specfun import complex_hermite_exact
        val = complex_hermite_exact(args.r, args.s, parse_complex(args.z))
        _emit(_scalar_payload(val, cfg, r=args.r, s=args.s), cfg)
        return 0
    if args.which == "assoc-hermite":
        poly = spectral.assoc_hermite(args.n, args.s)
        coeffs = [str(c) for c in poly.coeffs]  # exact integers as strings
        if cfg.fmt == "csv":
            _emit("degree,coefficient\n" + "".join(
                f"{k},{c}\n" for k, c in enumerate(coeffs)), cfg)
        else:
            _emit(json.dumps({"n": args.n, "s": args.s,
                              "coefficients": coeffs},
                             indent=1, sort_keys=True) + "\n", cfg)
        return 0
    raise ValueError(f"unknown poly subcommand {args.which!r}")


def cmd_basis(args, cfg: RunConfig) -> int:
    if args.which == "phi":
        label = basis.BasisLabel(args.epsilon, args.n, args.s)
        val = basis.phi(label, parse_complex(args.z))
        _emit(_scalar_payload(val, cfg, epsilon=args.epsilon, n=args.n,
                              s=args.s), cfg)
        return 0
    if args.which == "normalization":
        val = basis.normalization(args.s, args.t)
        _emit(_scalar_payload(complex(val), cfg, s=args.s, t=args.t), cfg)
        return 0
    raise ValueError(f"unknown basis subcommand {args.which!r}")


def cmd_kernel(args, cfg: RunConfig) -> int:
    kv = basis.kernel(args.s, parse_complex(args.z), parse_complex(args.zprime),
                      tol=cfg.tol)
    _emit(_scalar_payload(kv.value, cfg, truncation_n=kv.truncation_n,
                          est_tail=kv.est_tail), cfg)
    return 0


def cmd_quantize(args, cfg: RunConfig) -> int:
    if args.method == "closed":
        op = quantize.quantize_monomial(args.a, args.b, args.s, args.epsilon,
                                        cfg.dim)
    else:
        op = quantize.quantize_numeric(quantize.Monomial(args.a, args.b),
                                       args.s, args.epsilon, cfg.dim)
    _emit(_matrix_payload(op, cfg), cfg)
    return 0


def cmd_spectrum(args, cfg: RunConfig) -> int:
    if args.which == "eigenvalues":
        ev = spectral.eigenvalues(cfg.dim, args.s)
        if cfg.fmt == "csv":
            _emit("index,eigenvalue\n" + "".join(
                f"{k},{_fmt(v)}\n" for k, v in enumerate(ev)), cfg)
        else:
            _emit(json.dumps({"s": args.s, "dim": cfg.dim,
                              "eigenvalues": [float(v) for v in ev]},
                             indent=1, sort_keys=True) + "\n", cfg)
        return 0
    if args.which == "measure":
        meas = spectral.golub_welsch(args.s, cfg.dim)
        if cfg.fmt == "csv":
            _emit("node,weight\n" + "".join(
                f"{_fmt(x)},{_fmt(w)}\n"
                for x, w in zip(meas.nodes, meas.weights)), cfg)
        else:
            _emit(json.dumps({"s": args.s, "dim": cfg.dim,
                              "nodes": [float(v) for v in meas.nodes],
                              "weights": [float(v) for v in meas.weights]},
                             indent=1, sort_keys=True) + "\n", cfg)
        return 0
    raise ValueError(f"unknown spectrum subcommand {args.which!r}")


def _physical_params(args) -> "physics.PhysicalParams":
    if args.mode == "dimensionless":
        return physics.PhysicalParams.dimensionless()
    if args.length == "compton":
        return physics.PhysicalParams.compton(args.mass, args.omega)
    return physics.PhysicalParams.oscillator(args.mass, args.omega)


def cmd_physics(args, cfg: RunConfig) -> int:
    if args.which == "gamma":
        par = physics.PhysicalParams.compton(args.mass, args.omega)
        _emit(_scalar_payload(complex(physics.gamma_ratio(par)), cfg,
                              mass=args.mass, omega=args.omega), cfg)
        return 0
    if args.which == "hamiltonian":
        par = _physical_params(args)
        op, report = physics.build_physical_AH(par, args.s, cfg.dim)
        if cfg.fmt == "csv":
            lines = ["level,energy,gap"]
            levels = report["levels"]
            for k, e in enumerate(levels):
                gap = levels[k] - levels[k - 1] if k else 0.0
                lines.append(f"{k},{_fmt(e)},{_fmt(gap)}")
            _emit("\n".join(lines) + "\n", cfg)
        else:
            _emit(json.dumps(report, indent=1, sort_keys=True) + "\n", cfg)
        return 0
    if args.which == "table":
        rows = physics.spectrum_compare(range(args.s_max + 1), cfg.dim)
        return _emit_spectrum_table(rows, cfg)
    raise ValueError(f"unknown physics subcommand {args.which!r}")


def _emit_spectrum_table(rows, cfg: RunConfig) -> int:
    dicts = [r.to_dict() for r in rows]
    if cfg.fmt == "csv":
        head = list(dicts[0])
        lines = [",".join(head)]
        for d in dicts:
            lines.append(",".join(
                _fmt(d[k]) if isinstance(d[k], float) else str(d[k])
                for k in head))
        _emit("\n".join(lines) + "\n", cfg)
    else:
        _emit(json.dumps({"rows": dicts}, indent=1, sort_keys=True) + "\n", cfg)
    return 0


def cmd_verify(args, cfg: RunConfig) -> int:
    checks = verify.run(args.suite, seed=cfg.seed)
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"[{status}] {c.name} residual={c.max_residual:.3e} "
              f"tol={c.tol:.1e}", file=sys.stderr)
    _emit(verify.report_json(checks, args.suite) + "\n", cfg)
    return 0 if all(c.passed for c in checks) else 1


def cmd_export(args, cfg: RunConfig) -> int:
    if args.object == "operator":
        op = _operator_by_name(args.operator, args.s, cfg.dim, args.epsilon)
        _emit(_matrix_payload(op, cfg), cfg)
        return 0
    if args.object == "kernel-grid":
        pts = np.linspace(-args.extent, args.extent, args.grid_points)
        zp = parse_complex(args.zprime)
        lines = ["x,y,re,im"]
        for x in pts:
            for y in pts:
                kv = basis.kernel(args.s, complex(x, y), zp, tol=cfg.tol)
                lines.append(",".join([_fmt(x), _fmt(y)]
                                      + _complex_row(kv.value)))
        if cfg.fmt == "json":
            rows = [dict(zip(("x", "y", "re", "im"),
                             [float(v) for v in ln.split(",")]))
                    for ln in lines[1:]]
            _emit(json.dumps({"s": args.s, "zprime": args.zprime,
                              "rows": rows}, indent=1, sort_keys=True) + "\n",
                  cfg)
        else:
            _emit("\n".join(lines) + "\n", cfg)
        return 0
    if args.object == "lower-symbol-scan":
        op = _operator_by_name(args.operator, args.s, cfg.dim, args.epsilon)
        pts = np.linspace(-args.extent, args.extent, args.grid_points)
        lines = ["x,y,re,im"]
        for x in pts:
            for y in pts:
                val = quantize.lower_symbol(op, complex(x, y), args.s,
                                            args.epsilon, tol=1e-9)
                lines.append(",".join([_fmt(x), _fmt(y)]
                                      + _complex_row(val)))
        if cfg.fmt == "json":
            rows = [dict(zip(("x", "y", "re", "im"),
                             [float(v) for v in ln.split(",")]))
                    for ln in lines[1:]]
            _emit(json.dumps({"operator": args.operator, "s": args.s,
                              "rows": rows}, indent=1, sort_keys=True) + "\n",
                  cfg)
        else:
            _emit("\n".join(lines) + "\n", cfg)
        return 0
    if args.object == "spectrum-table":
        rows = physics.spectrum_compare(range(args.s_max + 1), cfg.dim)
        return _emit_spectrum_table(rows, cfg)
    raise ValueError(f"unknown export object {args.object!r}")


_BUILDERS = {
    "Q": matrices.build_Q,
    "P": matrices.build_P,
    "Az": matrices.build_A_z,
    "Azbar": matrices.build_A_zbar,
    "Aq2": lambda s, n, eps: matrices.build_Aq2(s, n, eps),
    "Ap2": lambda s, n, eps: matrices.build_Ap2(s, n, eps),
    "AH": lambda s, n, eps: matrices.build_AH(s, n, eps),
    "Hhat": lambda s, n, eps: matrices.build_Hhat(s, n, eps),
}


def _operator_by_name(name: str, s: int, dim: int, epsilon: str):
    if name not in _BUILDERS:
        raise ValueError(f"unknown operator {name!r}; "
                         f"choose from {sorted(_BUILDERS)}")
    return _BUILDERS[name](s, dim, epsilon)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hermquant",
        description="Sector bases of the plane, coherent-state quantization, "
                    "and spectral checks of the resulting operators.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--dim", type=int, default=12)
        p.add_argument("--seed", type=int, default=20240901)

    p = sub.add_parser("poly", help="evaluate polynomial families")
    ps = p.add_subparsers(dest="which", required=True)
    ph = ps.add_parser("hermite")
    ph.add_argument("--r", type=int, required=True)
    ph.add_argument("--s", type=int, required=True)
    ph.add_argument("--z", required=True)
    common(ph)
    pa = ps.add_parser("assoc-hermite")
    pa.add_argument("--n", type=int, required=True)
    pa.add_argument("--s", type=int, required=True)
    common(pa)

    p = sub.add_parser("basis", help="basis functions and normalization")
    ps = p.add_subparsers(dest="which", required=True)
    pp = ps.add_parser("phi")
    pp.add_argument("--epsilon", choices=("L", "R"), default="L")
    pp.add_argument("--n", type=int, required=True)
    pp.add_argument("--s", type=int, required=True)
    pp.add_argument("--z", required=True)
    common(pp)
    pn = ps.add_parser("normalization")
    pn.add_argument("--s", type=int, required=True)
    pn.add_argument("--t", type=float, required=True)
    common(pn)

    p = sub.add_parser("kernel", help="evaluate the reproducing kernel")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--zprime", required=True)
    common(p)

    p = sub.add_parser("quantize", help="quantize a monomial")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--epsilon", choices=("L", "R"), default="L")
    p.add_argument("--method", choices=("closed", "numeric"), default="closed")
    common(p)

    p = sub.add_parser("spectrum", help="position-operator spectral data")
    ps = p.add_subparsers(dest="which", required=True)
    pe = ps.add_parser("eigenvalues")
    pe.add_argument("--s", type=int, required=True)
    common(pe)
    pm = ps.add_parser("measure")
    pm.add_argument("--s", type=int, required=True)
    common(pm)

    p = sub.add_parser("physics", help="dimensionful quantization reports")
    ps = p.add_subparsers(dest="which", required=True)
    pg = ps.add_parser("gamma")
    pg.add_argument("--mass", type=float, default=physics.ELECTRON_MASS_SI)
    pg.add_argument("--omega", type=float, required=True)
    common(pg)
    ph2 = ps.add_parser("hamiltonian")
    ph2.add_argument("--s", type=int, default=0)
    ph2.add_argument("--mode", choices=("si", "dimensionless"), default="si")
    ph2.add_argument("--length", choices=("compton", "oscillator"),
                     default="compton")
    ph2.add_argument("--mass", type=float, default=physics.ELECTRON_MASS_SI)
    ph2.add_argument("--omega", type=float, default=3e15)
    common(ph2)
    pt = ps.add_parser("table")
    pt.add_argument("--s-max", type=int, default=4)
    common(pt)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   choices=("all",) + tuple(verify.SUITES))
    common(p)

    p = sub.add_parser("export", help="write data files")
    p.add_argument("--object", required=True,
                   choices=("operator", "kernel-grid", "lower-symbol-scan",
                            "spectrum-table"))
    p.add_argument("--operator", default="Q")
    p.add_argument("--epsilon", choices=("L", "R"), default="L")
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--s-max", type=int, default=4)
    p.add_argument("--zprime", default="0+0i")
    p.add_argument("--extent", type=float, default=2.0)
    p.add_argument("--grid-points", type=int, default=9)
    common(p)
    return top


_DISPATCH = {
    "poly": cmd_poly,
    "basis": cmd_basis,
    "kernel": cmd_kernel,
    "quantize": cmd_quantize,
    "spectrum": cmd_spectrum,
    "physics": cmd_physics,
    "verify": cmd_verify,
    "export": cmd_export,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _config(args)
    try:
        return _DISPATCH[args.command](args, cfg)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, IndexError, OverflowError, PoleError,
            NonConvergence, HintViolation, TailError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

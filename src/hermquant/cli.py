"""Command-line surface.

Subcommands: poly, basis, kernel, quantize, spectrum, physics, verify,
export.  Each takes only the options it reads.  Data goes to stdout or --out
(JSON or CSV; the verify report is always JSON); human diagnostics go to
stderr.  Exit codes: 0 success, 1 verification failure, 2 domain error
(argparse's usage errors included), 3 I/O error.  Identical invocations
(including verify's --seed) produce byte-identical output.

Building the parser loads only the standard library and hermquant.errors;
each handler imports numpy and the modules it runs when it runs.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from .errors import HintViolation, NonConvergence, TailError

# the --suite choices besides "all"; a test pins them to verify.SUITES
SUITE_NAMES = ("basis", "ladder", "nlpb", "quantize", "spectral", "physics")


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


def _complex_arg(text: str, flag: str) -> complex:
    """parse_complex for a command-line value; a NaN or infinite component
    is a domain error that names the flag."""
    z = parse_complex(text)
    if not cmath.isfinite(z):
        raise ValueError(f"{flag} {text}: both components must be finite")
    return z


def _nonnegative(value: int, flag: str) -> int:
    if value < 0:
        raise ValueError(f"{flag} {value}: must be nonnegative")
    return value


def _positive(value: int, flag: str) -> int:
    if value < 1:
        raise ValueError(f"{flag} {value}: must be positive")
    return value


def _finite(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{flag} {value}: must be finite")
    return value


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _complex_row(z: complex) -> list:
    return [_fmt(z.real), _fmt(z.imag)]


def _matrix_payload(op, args) -> str:
    from . import matrices

    if args.format == "csv":
        rows = matrices.operator_csv_rows(op)
        return "\n".join(",".join(r) for r in rows) + "\n"
    return matrices.operator_to_json(op) + "\n"


def _scalar_payload(value: complex, args, **meta) -> str:
    if args.format == "csv":
        head = ["re", "im"] + list(meta)
        row = _complex_row(complex(value)) + [_fmt(v) if isinstance(v, float)
                                              else str(v) for v in meta.values()]
        return ",".join(head) + "\n" + ",".join(row) + "\n"
    body = {"re": complex(value).real, "im": complex(value).imag, **meta}
    return json.dumps(body, indent=1, sort_keys=True) + "\n"


def cmd_poly(args) -> int:
    if args.which == "hermite":
        from .specfun import complex_hermite_exact

        val = complex_hermite_exact(_nonnegative(args.r, "--r"), args.s,
                                    _complex_arg(args.z, "--z"))
        _emit(_scalar_payload(val, args, r=args.r, s=args.s), args)
        return 0
    if args.which == "assoc-hermite":
        from . import spectral

        poly = spectral.assoc_hermite(_nonnegative(args.n, "--n"), args.s)
        coeffs = [str(c) for c in poly.coeffs]  # exact integers as strings
        if args.format == "csv":
            _emit("degree,coefficient\n" + "".join(
                f"{k},{c}\n" for k, c in enumerate(coeffs)), args)
        else:
            _emit(json.dumps({"n": args.n, "s": args.s,
                              "coefficients": coeffs},
                             indent=1, sort_keys=True) + "\n", args)
        return 0
    raise ValueError(f"unknown poly subcommand {args.which!r}")


def cmd_basis(args) -> int:
    from . import basis

    if args.which == "phi":
        import numpy as np

        label = basis.BasisLabel(args.epsilon, _nonnegative(args.n, "--n"),
                                 args.s)
        z = _kernel_arg(args.z, "--z")
        # L_s^(n)(|z|^2) grows like |z|^{2s} and overflows first
        with np.errstate(over="raise", invalid="raise"):
            try:
                val = basis.phi(label, z)
            except FloatingPointError:
                raise ValueError(f"--z {args.z}: the Laguerre factor of "
                                 f"phi_{{n;s}} overflows a float") from None
        _emit(_scalar_payload(val, args, epsilon=args.epsilon, n=args.n,
                              s=args.s), args)
        return 0
    if args.which == "normalization":
        val = basis.normalization(args.s, _finite(args.t, "--t"))
        _emit(_scalar_payload(complex(val), args, s=args.s, t=args.t), args)
        return 0
    raise ValueError(f"unknown basis subcommand {args.which!r}")


def _square_modulus(z: complex, named: str) -> None:
    """The kernel and the coherent states read |z|^2, which must be a
    float."""
    try:
        abs(z) ** 2
    except OverflowError:
        raise ValueError(f"{named}: |z|^2 overflows a float") from None


def _kernel_arg(text: str, flag: str) -> complex:
    """_complex_arg for a point of the kernel or of phi, whose |z|^2 must be
    a float."""
    z = _complex_arg(text, flag)
    _square_modulus(z, f"{flag} {text}")
    return z


def cmd_kernel(args) -> int:
    from . import basis

    tol = _nonnegative(_finite(args.tol, "--tol"), "--tol")
    kv = basis.kernel(args.s, _kernel_arg(args.z, "--z"),
                      _kernel_arg(args.zprime, "--zprime"), tol=tol)
    _emit(_scalar_payload(kv.value, args, truncation_n=kv.truncation_n,
                          est_tail=kv.est_tail), args)
    return 0


def cmd_quantize(args) -> int:
    from . import quantize

    _nonnegative(args.a, "--a")
    _nonnegative(args.b, "--b")
    _positive(args.dim, "--dim")
    if args.method == "closed":
        op = quantize.quantize_monomial(args.a, args.b, args.s, args.epsilon,
                                        args.dim)
    else:
        op = quantize.quantize_numeric(quantize.Monomial(args.a, args.b),
                                       args.s, args.epsilon, args.dim)
    _emit(_matrix_payload(op, args), args)
    return 0


def cmd_spectrum(args) -> int:
    from . import spectral

    _positive(args.dim, "--dim")
    if args.which == "eigenvalues":
        ev = spectral.eigenvalues(args.dim, args.s)
        if args.format == "csv":
            _emit("index,eigenvalue\n" + "".join(
                f"{k},{_fmt(v)}\n" for k, v in enumerate(ev)), args)
        else:
            _emit(json.dumps({"s": args.s, "dim": args.dim,
                              "eigenvalues": [float(v) for v in ev]},
                             indent=1, sort_keys=True) + "\n", args)
        return 0
    if args.which == "measure":
        meas = spectral.golub_welsch(args.s, args.dim)
        if args.format == "csv":
            _emit("node,weight\n" + "".join(
                f"{_fmt(x)},{_fmt(w)}\n"
                for x, w in zip(meas.nodes, meas.weights)), args)
        else:
            _emit(json.dumps({"s": args.s, "dim": args.dim,
                              "nodes": [float(v) for v in meas.nodes],
                              "weights": [float(v) for v in meas.weights]},
                             indent=1, sort_keys=True) + "\n", args)
        return 0
    raise ValueError(f"unknown spectrum subcommand {args.which!r}")


# the si mode's units where unset; --mass defaults to the electron mass
_SI_DEFAULTS = {"length": "compton", "omega": 3e15}


def _physical_params(args) -> "physics.PhysicalParams":
    """The units of `physics hamiltonian`.  The dimensionless mode fixes
    every scale, so it reads none of --length, --mass and --omega."""
    from . import physics

    if args.mode == "dimensionless":
        for name in ("length", "mass", "omega"):
            if getattr(args, name) is not None:
                raise ValueError(f"--{name} {getattr(args, name)}: not read "
                                 f"under --mode dimensionless")
        return physics.PhysicalParams.dimensionless()
    for name, default in _SI_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.mass is None:
        args.mass = physics.ELECTRON_MASS_SI
    mass, omega = _finite(args.mass, "--mass"), _finite(args.omega, "--omega")
    build = (physics.PhysicalParams.compton if args.length == "compton"
             else physics.PhysicalParams.oscillator)
    return _mass_omega(args, lambda: build(mass, omega))


def _mass_omega(args, compute):
    """compute(), whose ValueError names --mass and --omega."""
    try:
        return compute()
    except ValueError as exc:
        raise ValueError(f"--mass {args.mass} --omega {args.omega}: {exc}")


def cmd_physics(args) -> int:
    from . import physics

    if args.which == "gamma":
        if args.mass is None:
            args.mass = physics.ELECTRON_MASS_SI
        mass = _finite(args.mass, "--mass")
        omega = _finite(args.omega, "--omega")
        g = _mass_omega(args, lambda: physics.gamma_ratio(
            physics.PhysicalParams.compton(mass, omega)))
        _emit(_scalar_payload(complex(g), args, mass=args.mass,
                              omega=args.omega), args)
        return 0
    if args.which == "hamiltonian":
        par = _physical_params(args)
        if args.dim < 3:
            raise ValueError(f"--dim {args.dim}: the Hamiltonian needs "
                             f"--dim >= 3")
        try:  # the parameters are checked, so only --s leaves the floats
            op, report = _mass_omega(args, lambda: physics.build_physical_AH(
                par, args.s, args.dim))
        except OverflowError as exc:
            raise ValueError(f"--s {args.s}: {exc}") from None
        if args.format == "csv":
            lines = ["level,energy,gap"]
            levels = report["levels"]
            for k, e in enumerate(levels):
                gap = levels[k] - levels[k - 1] if k else 0.0
                lines.append(f"{k},{_fmt(e)},{_fmt(gap)}")
            _emit("\n".join(lines) + "\n", args)
        else:
            _emit(json.dumps(report, indent=1, sort_keys=True) + "\n", args)
        return 0
    if args.which == "table":
        if args.dim < 2:
            raise ValueError(f"--dim {args.dim}: the first gap needs --dim >= 2")
        rows = physics.spectrum_compare(
            range(_nonnegative(args.s_max, "--s-max") + 1), args.dim)
        dicts = [r.to_dict() for r in rows]
        if args.format == "csv":
            head = list(dicts[0])
            lines = [",".join(head)]
            for d in dicts:
                lines.append(",".join(
                    _fmt(d[k]) if isinstance(d[k], float) else str(d[k])
                    for k in head))
            _emit("\n".join(lines) + "\n", args)
        else:
            _emit(json.dumps({"rows": dicts}, indent=1, sort_keys=True)
                  + "\n", args)
        return 0
    raise ValueError(f"unknown physics subcommand {args.which!r}")


def cmd_verify(args) -> int:
    from . import verify

    checks = verify.run(args.suite, seed=args.seed)
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"[{status}] {c.name} residual={c.max_residual:.3e} "
              f"tol={c.tol:.1e}", file=sys.stderr)
    _emit(verify.report_json(checks, args.suite, args.seed) + "\n", args)
    return 0 if all(c.passed for c in checks) else 1


# the options each export object reads besides --s, --format and --out, with
# their defaults; the parser leaves them unset, so an option given to an
# object that does not read it is a domain error that names both
_EXPORT_OPTIONS = {
    "operator": {"operator": "Q", "epsilon": "L", "dim": 12},
    "kernel-grid": {"zprime": "0+0i", "extent": 2.0, "grid_points": 9,
                    "tol": 1e-10},
    "lower-symbol-scan": {"operator": "Q", "epsilon": "L", "dim": 12,
                          "extent": 2.0, "grid_points": 9},
}


def _export_options(args) -> None:
    """Fill in the defaults of the options args.object reads and reject any
    other per-object option that was given."""
    reads = _EXPORT_OPTIONS[args.object]
    for name in dict.fromkeys(n for o in _EXPORT_OPTIONS.values() for n in o):
        value = getattr(args, name)
        if name in reads:
            if value is None:
                setattr(args, name, reads[name])
        elif value is not None:
            raise ValueError(f"--{name.replace('_', '-')} {value}: not read "
                             f"by --object {args.object}")


def cmd_export(args) -> int:
    _export_options(args)
    if args.object == "operator":
        op = _operator_by_name(args.operator, args.s, args.dim, args.epsilon)
        _emit(_matrix_payload(op, args), args)
        return 0
    if args.object == "kernel-grid":
        from . import basis

        zp = _kernel_arg(args.zprime, "--zprime")
        tol = _nonnegative(_finite(args.tol, "--tol"), "--tol")
        return _emit_grid(args, lambda zs: [basis.kernel(
            args.s, z, zp, tol=tol).value for z in zs.tolist()],
            s=args.s, zprime=args.zprime)
    if args.object == "lower-symbol-scan":
        from . import quantize

        op = _operator_by_name(args.operator, args.s, args.dim, args.epsilon)
        return _emit_grid(args, lambda zs: quantize.lower_symbol(
            op, zs, args.s, args.epsilon, tol=1e-9).tolist(),
            operator=args.operator, s=args.s)
    raise ValueError(f"unknown export object {args.object!r}")


def _emit_grid(args, row_values, **meta) -> int:
    """The values at x + iy on the square grid of --grid-points points per
    side over [-extent, extent], as x,y,re,im rows.  row_values maps the
    complex array of one grid row (one x, every y) to its list of values, and
    is called once per row, so the values of one row at a time are held
    while they are computed.  The JSON rows carry the same floats as the CSV
    text, whose .17g digits round-trip them."""
    import numpy as np

    extent = _finite(args.extent, "--extent")
    # the corners are the grid's points of largest modulus
    _square_modulus(complex(extent, extent), f"--extent {args.extent}")
    pts = np.linspace(-extent, extent,
                      _nonnegative(args.grid_points, "--grid-points")).tolist()
    rows = []
    for x in pts:
        zs = np.array([complex(x, y) for y in pts])
        rows += zip([x] * len(pts), pts, row_values(zs))
    if args.format == "json":
        body = [{"x": x, "y": y, "re": v.real, "im": v.imag}
                for x, y, v in rows]
        _emit(json.dumps({**meta, "rows": body}, indent=1, sort_keys=True)
              + "\n", args)
    else:
        _emit("x,y,re,im\n" + "".join(
            ",".join([_fmt(x), _fmt(y)] + _complex_row(v)) + "\n"
            for x, y, v in rows), args)
    return 0


# operator name -> its matrices builder, looked up when the command runs,
# so that building the parser loads no numpy
_BUILDERS = {
    "Q": "build_Q",
    "P": "build_P",
    "Az": "build_A_z",
    "Azbar": "build_A_zbar",
    "Aq2": "build_Aq2",
    "Ap2": "build_Ap2",
    "AH": "build_AH",
    "Hhat": "build_Hhat",
}


def _operator_by_name(name: str, s: int, dim: int, epsilon: str):
    from . import matrices

    if name not in _BUILDERS:
        raise ValueError(f"unknown operator {name!r}; "
                         f"choose from {sorted(_BUILDERS)}")
    return getattr(matrices, _BUILDERS[name])(s, _positive(dim, "--dim"),
                                              epsilon)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hermquant",
        description="Sector bases of the plane, coherent-state quantization, "
                    "and spectral checks of the resulting operators.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, dim=False, tol=False):
        """--format and --out, plus the truncation dimension and the kernel
        series tolerance where the handler reads them."""
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)
        if tol:
            p.add_argument("--tol", type=float, default=1e-10)
        if dim:
            p.add_argument("--dim", type=int, default=12)

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
    common(p, tol=True)

    p = sub.add_parser("quantize", help="quantize a monomial")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--epsilon", choices=("L", "R"), default="L")
    p.add_argument("--method", choices=("closed", "numeric"), default="closed")
    common(p, dim=True)

    p = sub.add_parser("spectrum", help="position-operator spectral data")
    ps = p.add_subparsers(dest="which", required=True)
    pe = ps.add_parser("eigenvalues")
    pe.add_argument("--s", type=int, required=True)
    common(pe, dim=True)
    pm = ps.add_parser("measure")
    pm.add_argument("--s", type=int, required=True)
    common(pm, dim=True)

    p = sub.add_parser("physics", help="dimensionful quantization reports")
    ps = p.add_subparsers(dest="which", required=True)
    pg = ps.add_parser("gamma")
    pg.add_argument("--mass", type=float)  # unset: the electron mass
    pg.add_argument("--omega", type=float, required=True)
    common(pg)
    ph2 = ps.add_parser("hamiltonian")
    ph2.add_argument("--s", type=int, default=0)
    ph2.add_argument("--mode", choices=("si", "dimensionless"), default="si")
    # unset here: the si mode fills in _SI_DEFAULTS and the electron mass,
    # the dimensionless mode rejects them
    ph2.add_argument("--length", choices=("compton", "oscillator"))
    ph2.add_argument("--mass", type=float)
    ph2.add_argument("--omega", type=float)
    common(ph2, dim=True)
    pt = ps.add_parser("table")
    pt.add_argument("--s-max", type=int, default=4)
    common(pt, dim=True)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   choices=("all",) + SUITE_NAMES)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=20240901)

    p = sub.add_parser("export", help="write data files")
    p.add_argument("--object", required=True,
                   choices=("operator", "kernel-grid", "lower-symbol-scan"))
    p.add_argument("--s", type=int, default=0)
    # unset here: cmd_export fills in the defaults of _EXPORT_OPTIONS
    p.add_argument("--operator")
    p.add_argument("--epsilon", choices=("L", "R"))
    p.add_argument("--zprime")
    p.add_argument("--extent", type=float)
    p.add_argument("--grid-points", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--dim", type=int)
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
    try:
        # every command's --s is a sector or a Hermite index
        _nonnegative(getattr(args, "s", 0), "--s")
        return _DISPATCH[args.command](args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, IndexError, OverflowError, NonConvergence,
            HintViolation, TailError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: evolve, density, moments, poly, fit, verify, sweep.
Exit codes: 0 success, 1 verification failure, 2 bad input, 3 resource
limit. Output is CSV or JSON on stdout unless --output is given, in
which case files are written atomically (temp file, then rename).
Every value is computed before the first byte is written, then CSV rows
stream out in chunks. Floats keep 17 significant digits, so round-trips
are exact; identical invocations print identical bytes (`verify` reports
its run time on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from collections.abc import Iterable, Iterator
from fractions import Fraction
from pathlib import Path

import numpy as np

from .density import total_density
from .direct import evolve_direct
from .closedform import position_wavefunction
from .estimate import EmpiricalHistogram, fit_walk
from .foundation import foundation_polynomial
from .moments import moment_curves, moment_report
from .params import (
    AliasingError,
    InfeasibleParamsError,
    NormalizationError,
    ResourceLimitError,
    UnderdeterminedError,
    WalkSpec,
    derive_effective,
)
from .verify import DEFAULT_N_SPECS, DEFAULT_SEED, DEFAULT_T_MAX, run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3


# Rows per formatted chunk: the text of one chunk is all the output held at once.
_CHUNK_ROWS = 4096


def _csv_chunks(header: str, blocks) -> Iterator[str]:
    """Yield ``header``, then every block's rows as text, ``_CHUNK_ROWS`` at a time.

    Each block is ``(template, columns)``: one row's ``%`` template, line end
    included, and equal-length arrays, one per field. Floats use ``%.17g``,
    17 significant digits, enough to round-trip any double exactly.
    """
    yield header + "\n"
    for template, columns in blocks:
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            rows = zip(*(c[start:start + _CHUNK_ROWS].tolist() for c in columns))
            yield "".join([template % row for row in rows])


def write_output(chunks: Iterable[str], path: str | None) -> None:
    """Write the text ``chunks`` to stdout, or through any symlink to ``path``: a
    regular file is replaced atomically, anything else (a FIFO, a device) written
    in place."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
        return
    target = Path(path).resolve()
    in_place = target.exists() and not target.is_file()
    dest = target if in_place else target.with_name(target.name + ".tmp")
    target.parent.mkdir(parents=True, exist_ok=True)
    with dest.open("w") as out:
        out.writelines(chunks)
    if not in_place:
        dest.replace(target)


def add_spec_args(parser: argparse.ArgumentParser) -> None:
    """Walk-spec source flags shared by the walk-facing subcommands."""
    src = parser.add_mutually_exclusive_group()
    src.add_argument("--hadamard", action="store_true",
                     help="balanced real coin a = b = 1/sqrt2, start (1, 0)")
    src.add_argument("--spec", metavar="FILE", help="JSON walk-spec file")
    src.add_argument("--a-abs", type=float, help="coin weight |a| in [0, 1]")
    parser.add_argument("--a-arg", type=float, default=0.0, help="arg(a), radians")
    parser.add_argument("--b-arg", type=float, default=0.0, help="arg(b), radians")
    parser.add_argument("--k", type=float, default=0.0, help="global phase per step")
    parser.add_argument("--c0-abs", type=float, default=1.0, help="|c0| in [0, 1]")
    parser.add_argument("--c0-arg", type=float, default=0.0, help="arg(c0), radians")
    parser.add_argument("--c1-arg", type=float, default=0.0, help="arg(c1), radians")
    parser.add_argument("--nu", type=float, default=None,
                        help="spinor imbalance; with --alpha overrides c0/c1 flags")
    parser.add_argument("--alpha", type=float, default=None,
                        help="interference alignment; requires --a-abs")
    parser.add_argument("--renormalize", action="store_true",
                        help="rescale slightly denormalized inputs instead of failing")


def resolve_spec(args: argparse.Namespace) -> WalkSpec:
    if args.hadamard:
        spec = WalkSpec.hadamard(k=args.k)
    elif args.spec:
        spec = WalkSpec.from_file(args.spec)
    elif args.a_abs is not None:
        if args.nu is not None or args.alpha is not None:
            spec = WalkSpec.from_symmetry(
                args.a_abs, args.nu or 0.0, args.alpha or 0.0, k=args.k
            )
        else:
            a_abs = args.a_abs
            if not 0.0 <= a_abs <= 1.0:
                raise NormalizationError(f"--a-abs {a_abs} outside [0, 1]")
            if not 0.0 <= args.c0_abs <= 1.0:
                raise NormalizationError(f"--c0-abs {args.c0_abs} outside [0, 1]")
            b_abs = math.sqrt(max(0.0, 1.0 - a_abs * a_abs))
            c1_abs = math.sqrt(max(0.0, 1.0 - args.c0_abs**2))
            spec = WalkSpec(
                a=a_abs * np.exp(1j * args.a_arg),
                b=b_abs * np.exp(1j * args.b_arg),
                k=args.k,
                c0=args.c0_abs * np.exp(1j * args.c0_arg),
                c1=c1_abs * np.exp(1j * args.c1_arg),
            )
    else:
        raise NormalizationError("no walk spec given: use --hadamard, --spec or --a-abs")
    if args.renormalize:
        spec = spec.renormalized()
    return spec.validate(tol=1e-9 if not args.renormalize else 1e-12)


def cmd_evolve(args: argparse.Namespace) -> int:
    spec = resolve_spec(args)
    if args.method == "direct":
        field = evolve_direct(spec, args.t)
    else:
        field = position_wavefunction(spec, args.t)
    step = 1 if args.dense else 2  # sites -t, -t + 2, ... carry the parity of t
    columns = [c[::step] for c in (field.positions, field.psi0.real, field.psi0.imag,
                                   field.psi1.real, field.psi1.imag)]
    write_output(_csv_chunks("x,re_psi0,im_psi0,re_psi1,im_psi1",
                             [("%d" + ",%.17g" * 4 + "\n", columns)]), args.output)
    return EXIT_OK


def cmd_density(args: argparse.Namespace) -> int:
    spec = resolve_spec(args)
    profile = total_density(derive_effective(spec), args.t, paper_signs=args.paper_signs)
    step = 1 if args.dense else 2
    columns = [c[::step] for c in (profile.positions, profile.rho, profile.rho0,
                                   profile.rho1, profile.rho_even, profile.rho_odd)]
    write_output(_csv_chunks("x,rho,rho0,rho1,rho_even,rho_odd",
                             [("%d" + ",%.17g" * 5 + "\n", columns)]), args.output)
    return EXIT_OK


def cmd_moments(args: argparse.Namespace) -> int:
    spec = resolve_spec(args)
    eff = derive_effective(spec)
    if args.all_times:
        t = np.arange(1, args.t + 1)
        mean, second = moment_curves(eff.abs_a, eff.nu, eff.alpha, args.t)
        columns = (t, mean, second, second - mean * mean, second / (t * t).astype(float))
    else:
        rep = moment_report(eff, args.t)
        columns = [np.array([v]) for v in (rep.t, rep.mean, rep.second,
                                           rep.variance, rep.normalized_second)]
    template = f"%d,{eff.abs_a:.17g},{eff.nu:.17g},{eff.alpha:.17g}" + ",%.17g" * 4 + "\n"
    write_output(_csv_chunks("t,abs_a,nu,alpha,mean,second,variance,normalized_second",
                             [(template, columns)]), args.output)
    return EXIT_OK


def cmd_poly(args: argparse.Namespace) -> int:
    row = foundation_polynomial(args.t, args.k)
    payload = {
        "t": row.t,
        "k": row.k,
        "coeffs": list(row.coeffs),
        "powers": list(row.powers),
    }
    if args.at is not None:
        payload["value"] = float(row.evaluate(args.at))
        payload["at"] = args.at
    if args.exact_at is not None:
        num, _, den = args.exact_at.partition("/")
        denominator = int(den or "1")
        if denominator == 0:
            raise ValueError(f"--exact-at {args.exact_at}: zero denominator")
        value = row.evaluate(Fraction(int(num), denominator))
        payload["exact_value"] = str(value)
        payload["exact_at"] = args.exact_at
    write_output([json.dumps(payload, indent=2) + "\n"], args.output)
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    pairs = []
    text = Path(args.input).read_text()
    for line_no, line in enumerate(text.strip().splitlines()):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if line_no == 0 and not _is_number(cells[0]):
            continue
        if len(cells) < 2:
            raise ValueError(f"histogram line {line_no + 1}: expected 'x,count'")
        pairs.append((int(float(cells[0])), float(cells[1])))
    hist = EmpiricalHistogram.from_pairs(args.t, pairs)
    result = fit_walk(hist, weighting=args.weighting)
    payload = {
        "abs_a_hat": result.abs_a_hat,
        "nu_hat": result.nu_hat,
        "alpha_hat": result.alpha_hat,
        "residual": result.residual,
        "feasible": result.feasible,
    }
    write_output([json.dumps(payload, indent=2) + "\n"], args.output)
    return EXIT_OK


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    report = run_verification(
        t_max=args.tmax,
        n_specs=args.n_specs,
        seed=args.seed,
        paper_signs=args.paper_signs,
    )
    print(f"elapsed_seconds: {time.perf_counter() - started:.3f}", file=sys.stderr)
    write_output([json.dumps(report, indent=2) + "\n"], args.output)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.kind in ("moments", "variance"):
        if args.grid < 1:
            raise ValueError(f"--grid must be >= 1, got {args.grid}")
        grid = np.linspace(0.0, 1.0, args.grid)
        t = np.arange(1, args.t + 1)
        t2 = t.astype(float)[:, None] ** 2
        if args.kind == "moments":
            header = "t,abs_a,normalized_second"
            _, second = moment_curves(grid, 0.0, 0.0, args.t)
            curves, walk = second / t2, ""
        else:
            header = "t,abs_a,nu,alpha,normalized_variance"
            mean, second = moment_curves(grid, args.nu, args.alpha, args.t)
            curves, walk = (second - mean * mean) / t2, f",{args.nu:.17g},{args.alpha:.17g}"
        blocks = [(f"%d,{a:.17g}{walk},%.17g\n", (t, curves[:, j]))
                  for j, a in enumerate(grid.tolist())]
    else:
        nus = [float(v) for v in args.nu_list.split(",")]
        header = "nu,x,rho"
        blocks = []
        for nu in nus:
            spec = WalkSpec.from_symmetry(args.a_abs, nu, 0.0)
            profile = total_density(derive_effective(spec), args.t)
            blocks.append((f"{nu:.17g},%d,%.17g\n", (profile.positions[::2], profile.rho[::2])))
    write_output(_csv_chunks(header, blocks), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk1d",
        description="Closed-form one-dimensional coined quantum walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="amplitudes at time t")
    add_spec_args(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--method", choices=("direct", "closed"), default="closed")
    p.add_argument("--dense", action="store_true",
                   help="include zero-amplitude parity sites")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("density", help="density profile and decomposition at time t")
    add_spec_args(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--paper-signs", action="store_true",
                   help="published odd-part coefficients (documented divergence)")
    p.add_argument("--dense", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("moments", help="mean, second moment, variance")
    add_spec_args(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--all-times", action="store_true", help="rows for every t' <= t")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("poly", help="exact coefficient row of the lattice polynomial")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--at", type=float, default=None, help="also evaluate at this |a|")
    p.add_argument("--exact-at", default=None, metavar="P/Q",
                   help="also evaluate exactly at a rational |a|")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("fit", help="recover (|a|, nu, alpha) from a histogram")
    p.add_argument("--input", required=True, help="CSV with columns x,count")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--weighting", choices=("none", "poisson"), default="none")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("verify", help="run the oracle-equivalence check battery")
    p.add_argument("--tmax", type=int, default=DEFAULT_T_MAX)
    p.add_argument("--n-specs", type=int, default=DEFAULT_N_SPECS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--paper-signs", action="store_true",
                   help="include printed-value details in the divergence entries")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="figure-style data grids")
    p.add_argument("--kind", choices=("moments", "variance", "density"),
                   default="moments")
    p.add_argument("--t", type=int, required=True,
                   help="max time (moments/variance) or the single time (density)")
    p.add_argument("--grid", type=int, default=101, help="|a| grid points")
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--nu-list", default="0,0.25,0.5",
                   help="density sweep: comma-separated nu values")
    p.add_argument("--a-abs", type=float, default=1.0 / math.sqrt(2.0),
                   help="density sweep: coin weight")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def fold_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -1e-05`` into ``--flag=-1e-05``.

    argparse before Python 3.13 takes every token that starts with '-' for
    an option unless it is a plain decimal such as -0.5.
    """
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        pending = flag.startswith("--") and "=" not in flag
        if pending and token.startswith("-") and _is_number(token):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on first use and reused: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(fold_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ResourceLimitError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (
        NormalizationError,
        InfeasibleParamsError,
        AliasingError,
        UnderdeterminedError,
        ValueError,
        OSError,
        json.JSONDecodeError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())

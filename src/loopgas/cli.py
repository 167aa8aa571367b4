"""Command-line front end: machine-readable tables for every computation.

Commands
--------
partition   direct-channel series (optionally parity-restricted or naive)
crossed     crossed-channel series in the conjugate modulus
duality     evaluate both channels at one aspect ratio, report the residual
characters  decompose a partition function into minimal-model characters
crossing    percolation crossing probability at one modulus
saw         single wrapping self-avoiding loop at one modulus
logcft      ln(q)-coefficient series of dZ/dn at n = 0
boundary    strip boundary-energy shifts and effective central charge
sweep       one output row per grid point for crossing / duality / saw

Each subcommand's parser names the function it runs.  That function returns
its value (a series, one row or a list of rows), and `_payload` alone turns
the value into bytes: JSON (default) or CSV, to stdout or --output PATH; a
relative --output is resolved against $LOOPGAS_OUTDIR when that is set.
Exit codes: 0 success, 2 usage error (an --output that cannot be written
included), 3 domain error, 4 identity/duality failure, 5 tail-bound failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

# observables, characters and boundary are imported by the commands that run
# them, so that a one-shot call loads only what it uses
from . import annulus
from .errors import DomainError, IdentityError, TailBoundError
from .params import Phase, params_from_n, wrap_weight
from .qseries import Backend, GenSeries, format_number

OUTDIR_ENV = "LOOPGAS_OUTDIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IDENTITY = 4
EXIT_TAIL = 5


def _resolve_backend(args, params, w) -> Backend:
    if args.backend == "auto":
        exact = annulus._exact_ok(params, w, args.parity)
        return Backend.EXACT if exact else Backend.FLOAT
    return Backend.EXACT if args.backend == "exact" else Backend.FLOAT


def _csv(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _payload(value, fmt: str) -> str:
    """The bytes a command prints for its value: a series, one row (a dict) or
    a table (a list of dicts), as JSON or CSV."""
    if isinstance(value, GenSeries):
        if fmt == "csv":
            return _csv(["exponent", "coefficient"], value.to_csv_rows())
        value = value.to_json_dict()
    if fmt == "json":
        return json.dumps(value, indent=2) + "\n"
    rows = [value] if isinstance(value, dict) else value
    return _csv(
        rows[0].keys(),
        [[format_number(v) if isinstance(v, float) else v for v in row.values()]
         for row in rows],
    )


def _write(payload: str, args) -> None:
    if args.output is None:
        sys.stdout.write(payload)
        return
    path = args.output
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    with open(path, "w") as fh:
        fh.write(payload)


# -- subcommand bodies ----------------------------------------------------------


def _model(args):
    params = params_from_n(args.n, args.phase)
    w = wrap_weight(args.phase, args.n_prime) if args.n_prime is not None else None
    return params, w


def _direct(args, params, w, backend: Backend):
    """The direct-channel series, restricted to --parity when it is given."""
    if args.parity is None:
        return annulus.partition_direct(params, w, args.order, backend)
    return annulus.partition_direct_parity(params, w, args.order, args.parity, backend)


def _cmd_partition(args) -> GenSeries:
    if args.naive and (args.parity is not None or args.backend == "exact"):
        flag = "--parity" if args.parity is not None else "--backend exact"
        raise DomainError(f"--naive is the unrestricted floating series; it takes no {flag}")
    params, w = _model(args)
    if args.naive:
        return annulus.partition_naive(params, w, args.order)
    return _direct(args, params, w, _resolve_backend(args, params, w))


def _cmd_crossed(args) -> GenSeries:
    return annulus.partition_crossed(*_model(args), args.order)


def _minimal_model_basis(params) -> list:
    from .characters import CharacterSpec

    g = params.g_exact
    if g is None:
        raise DomainError(
            "character decomposition needs a rational coupling; this point "
            "is not in the exact registry"
        )
    frac = g if params.phase is Phase.DENSE else 1 / g
    p_minor, p_major = frac.numerator, frac.denominator
    if p_minor < 2:
        raise DomainError(
            f"coupling g={g} has no Kac labels (p_minor={p_minor}); "
            "no character basis exists"
        )
    return [
        CharacterSpec(p_minor, p_major, 1, s)
        for s in range(1, p_major, 2)
    ]


def _cmd_characters(args) -> dict | list:
    from . import characters

    params, w = _model(args)
    basis = _minimal_model_basis(params)
    Z = _direct(args, params, w, Backend.EXACT)
    payload = characters.decomposition_to_json(characters.decompose(Z, basis))
    if args.format == "json":
        return payload
    m = payload["model"]
    return [{"p_minor": m["p"], "p_major": m["q"], **t} for t in payload["terms"]]


def _cmd_logcft(args) -> GenSeries:
    from . import observables

    return observables.log_partition(args.phase, args.order)


def _cmd_boundary(args) -> dict:
    from . import boundary

    b = boundary.BoundaryCoupling(args.g, args.alpha1, args.alpha2, args.L)
    finite, divergent = boundary.e1_cutoff(b, args.epsilons)
    return {
        **b._asdict(),
        "e0_zeta": boundary.e0_zeta(b.L),
        "e1_zeta": boundary.e1_zeta(b),
        "e1_cutoff_finite": finite,
        "e1_cutoff_divergent": divergent,
        "c_effective": boundary.c_effective(b),
    }


def _modulus(name: str, value: float, to_q) -> float:
    """q = to_q(value) for the user's `name` value, refused by that name and value
    where it leaves 0 < q < 1 in double precision."""
    try:
        q = to_q(value)
    except OverflowError:
        q = math.inf
    if not 0.0 < q < 1.0:
        raise DomainError(f"{name} {value!r} gives q = {q!r}, outside 0 < q < 1 in doubles")
    return q


# Row makers: each builds its series once and returns modulus -> output row.


def _duality_rows(args):
    if args.n is None or args.phase is None:
        raise DomainError("duality sweep requires --n and --phase")
    evaluate = annulus._duality_evaluator(*_model(args), args.order, args.tol)

    def row(ratio: float) -> dict:
        ev = evaluate(ratio)
        if ev.residual > args.tol:
            raise IdentityError(
                f"channel duality violated: residual {ev.residual:.3e} > {args.tol:.1e}"
            )
        out = ev.to_json_dict()
        out["tail_bound_direct"], out["tail_bound_crossed"] = out.pop("tail_bounds")
        return out

    return row


def _crossing_rows(args):
    from . import observables

    P = observables.crossing_probability(args.order, Backend.EXACT)

    def row(q: float) -> dict:
        v, tail = P.eval_at(q)
        return {"q": q, "P": v, "tail_bound": tail}

    return row


def _saw_rows(args):
    if args.phase is None:
        raise DomainError("saw sweep requires --phase")
    from . import observables

    series = observables.saw_loop_derivative_series(args.phase, args.order)
    crossed = getattr(args, "crossed", False)

    def row(x: float) -> dict:
        if not crossed:
            v, tail = series.eval_at(x)
            return {"q": x, "Z1": v, "tail_bound": tail}
        if not 0.0 < x < 1.0:
            raise DomainError(
                f"conjugate modulus must satisfy 0 < qtilde < 1, got {x!r}"
            )
        q = _modulus("qtilde", x, lambda x: math.exp(2.0 * math.pi**2 / math.log(x)))
        v, tail = series.eval_at(q)
        asym = abs(math.log(x)) / (6.0 * math.pi)
        return {
            "q_tilde": x,
            "q": q,
            "Z1": v,
            "tail_bound": tail,
            "log_asymptote": asym,
            "ratio_to_log_asymptote": v / asym,
        }

    return row


_ROWS = {"duality": _duality_rows, "crossing": _crossing_rows, "saw": _saw_rows}


def _cmd_evaluate(args) -> dict:
    modulus = args.ratio  # duality evaluates at the aspect ratio itself
    if args.command != "duality":
        modulus = args.q if args.q is not None else _modulus(
            "--ratio", args.ratio, lambda ratio: math.exp(-math.pi * ratio))
    return _ROWS[args.command](args)(modulus)


#: The model flags each sweep target reads; one it does not read is refused.
_SWEEP_FLAGS = {"duality": ("n", "phase", "n_prime", "tol"), "crossing": (),
                "saw": ("phase", "crossed")}


def _cmd_sweep(args) -> list:
    for flag in ("n", "phase", "n_prime", "tol", "crossed"):
        if getattr(args, flag) is not None and flag not in _SWEEP_FLAGS[args.target]:
            raise DomainError(f"sweep --target {args.target} takes no --{flag.replace('_', '-')}")
    args.tol = 1e-8 if args.tol is None else args.tol
    row = _ROWS[args.target](args)
    return [row(v) for v in args.values]


# -- argument parsing -------------------------------------------------------------


def _float_list(text: str) -> list[float]:
    """argparse type for a non-empty comma-separated list of numbers."""
    try:
        values = [float(x) for x in text.split(",") if x]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        )
    return values


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="loopgas",
        description="Annulus partition functions of critical loop models",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, run, model=True, modulus=False):
        p.set_defaults(run=run)
        p.add_argument("--order", type=int, default=64, help="truncation exponent")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        if model:
            p.add_argument("--n", type=float, required=True, help="loop weight")
            p.add_argument("--phase", choices=["dilute", "dense"], required=True)
            p.add_argument("--n-prime", type=float, default=None,
                           help="winding-loop weight (default n)")
        if modulus:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--q", type=float, default=None)
            group.add_argument("--ratio", type=float, default=None)

    p = sub.add_parser("partition", help="direct-channel series")
    common(p, _cmd_partition)
    p.add_argument("--parity", choices=["even", "odd"], default=None)
    p.add_argument("--naive", action="store_true",
                   help="un-subtracted first-guess form")
    p.add_argument("--backend", choices=["exact", "floating", "auto"], default="auto")

    p = sub.add_parser("crossed", help="crossed-channel series")
    common(p, _cmd_crossed)

    p = sub.add_parser("duality", help="channel-duality residual at one ratio")
    common(p, _cmd_evaluate)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("characters", help="minimal-model decomposition")
    common(p, _cmd_characters)
    p.add_argument("--parity", choices=["even", "odd"], default=None)

    p = sub.add_parser("crossing", help="percolation crossing probability")
    common(p, _cmd_evaluate, model=False, modulus=True)

    p = sub.add_parser("saw", help="single wrapping self-avoiding loop")
    common(p, _cmd_evaluate, model=False, modulus=True)
    p.add_argument("--phase", choices=["dilute", "dense"], required=True)

    p = sub.add_parser("logcft", help="ln(q) coefficient of dZ/dn at n=0")
    common(p, _cmd_logcft, model=False)
    p.add_argument("--phase", choices=["dilute", "dense"], required=True)

    p = sub.add_parser("boundary", help="strip boundary-energy shifts")
    common(p, _cmd_boundary, model=False)
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--alpha1", type=float, required=True)
    p.add_argument("--alpha2", type=float, required=True)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--epsilons", type=_float_list, default="0.01,0.005,0.0025",
                   help="comma-separated regulator values")

    p = sub.add_parser("sweep", help="tabulate a target over a grid")
    common(p, _cmd_sweep, model=False)
    p.add_argument("--target", choices=["crossing", "duality", "saw"], required=True)
    p.add_argument("--values", type=_float_list, required=True,
                   help="comma-separated moduli (q, qtilde, or ratios)")
    p.add_argument("--n", type=float, default=None)
    p.add_argument("--phase", choices=["dilute", "dense"], default=None)
    p.add_argument("--n-prime", type=float, default=None)
    p.add_argument("--tol", type=float, default=None, help="duality target (default 1e-8)")
    p.add_argument("--crossed", action="store_true", default=None,
                   help="saw target: treat values as conjugate moduli")
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.order < 8:
            raise DomainError("truncation order must be at least 8")
        payload = _payload(args.run(args), args.format)
    except TailBoundError as exc:
        print(f"tail-bound failure: {exc}", file=sys.stderr)
        return EXIT_TAIL
    except IdentityError as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        _write(payload, args)
    except OSError as exc:
        if args.output is None:
            raise
        # a missing directory or a directory as the path: the user's to fix
        print(f"output error: cannot write {exc.filename or args.output}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

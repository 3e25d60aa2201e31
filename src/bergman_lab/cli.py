"""Command line front end.

Subcommands: ``weights``, ``coeffs``, ``verify``, ``beurling``, ``census``,
``suite``.  Reports are emitted as JSON, CSV, or text; exit status is 0 when
everything passed, 1 when any check failed, 2 on usage errors, 3 on I/O
errors.  ``--alpha`` accepts decimals and ``p/q`` rationals; rational syntax
selects exact mode unless ``--mode float64`` overrides it.

Dispatch is argparse's subcommand table: each subparser of
:func:`build_parser` sets its handler as ``run``, and :func:`main` calls
``args.run(parser, args)``.  Every JSON output goes through :func:`_json`
and every CSV output through :func:`_csv`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from .errors import BergmanLabError
from .verify import (
    CHECKS,
    CheckSpec,
    DEFAULT_TOLS,
    VerificationReport,
    _scalar_json,
    default_grid,
    run_check,
    run_suite,
    smoke_grid,
    weights_reach,
)
from .weights import (
    ScalarMode,
    WeightParams,
    lower_bound,
    shift_coeffs,
    weight_sequence,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _resolve_alpha_mode(parser: argparse.ArgumentParser, args) -> tuple:
    """(alpha, mode); 'p/q' syntax implies exact mode unless --mode says otherwise."""
    try:
        if "/" in args.alpha:
            alpha, implied = Fraction(args.alpha), ScalarMode.EXACT_RATIONAL
        else:
            alpha, implied = float(args.alpha), None
    except (ValueError, ZeroDivisionError):
        parser.error(f"--alpha: cannot parse {args.alpha!r}")
    if args.mode is not None:
        mode = ScalarMode(args.mode)
    else:
        mode = implied or ScalarMode.FLOAT64
    if mode.is_exact and not isinstance(alpha, Fraction):
        try:
            alpha = Fraction(args.alpha)
        except (ValueError, ZeroDivisionError):
            parser.error("--alpha: exact mode needs a rational value, use p/q syntax")
    if not mode.is_exact and isinstance(alpha, Fraction):
        alpha = float(alpha)
    return alpha, mode


def _parse_residues(parser: argparse.ArgumentParser, text: Optional[str], N: int):
    if text is None:
        return None
    text = text.strip()
    if not text:
        return None
    try:
        values = tuple(sorted({int(part) for part in text.split(",")}))
    except ValueError:
        parser.error(f"--residues: cannot parse {text!r}, expected e.g. 0,2")
    for k in values:
        if not 0 <= k < N:
            parser.error(f"--residues: residue {k} outside range(0, {N})")
    return values


def _alpha_str(alpha) -> str:
    return str(alpha) if isinstance(alpha, Fraction) else repr(float(alpha))


def _emit(text: str, out_path: Optional[str]) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _json(obj) -> str:
    """The one JSON writer: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv(header: list, rows: list) -> str:
    """The one CSV writer: a header row, then the rows, newline-terminated."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _report_json(report: VerificationReport) -> str:
    return _json(report.to_json_obj())


def _report_csv(report: VerificationReport) -> str:
    rows = []
    for e in report.sorted_entries():
        s = e.spec
        residues = "" if s.residues is None else ";".join(map(str, s.residues))
        rows.append([
            s.name, s.N, _alpha_str(s.alpha), s.D, residues, s.depth, s.seed,
            s.mode.value, repr(float(e.residual)), repr(float(s.tol)),
            "true" if e.passed else "false", f"{e.wall_ms:.3f}",
        ])
    return _csv(["name", "N", "alpha", "D", "residues", "depth", "seed",
                 "mode", "residual", "tol", "pass", "wall_ms"], rows)


def _report_text(report: VerificationReport) -> str:
    lines = []
    for e in report.sorted_entries():
        s = e.spec
        status = "PASS" if e.passed else "FAIL"
        residues = "-" if s.residues is None else "{" + ",".join(map(str, s.residues)) + "}"
        extra = " [exact]" if e.exact else ""
        note = f"  ({e.note})" if e.note else ""
        lines.append(
            f"{status} {s.name:<20} N={s.N} alpha={_alpha_str(s.alpha)} D={s.D} "
            f"residues={residues} depth={s.depth} seed={s.seed} mode={s.mode.value} "
            f"residual={float(e.residual):.3e} tol={s.tol:.1e}{extra}{note}"
        )
    lines.append(f"total={report.total} passed={report.passed} failed={report.failed}")
    return "\n".join(lines) + "\n"


_REPORT_WRITERS = {"json": _report_json, "csv": _report_csv, "text": _report_text}


def _emit_report(report: VerificationReport, args) -> int:
    status = _emit(_REPORT_WRITERS[args.format](report), args.out)
    if status != EXIT_OK:
        return status
    return EXIT_OK if report.all_passed else EXIT_FAIL


def _emit_table(args, payload: dict, header: list, rows: list, lines: list) -> int:
    """Write a table in ``--format``: the JSON ``payload``, the CSV ``header``
    and ``rows``, or the text ``lines``."""
    if args.format == "json":
        text = _json(payload)
    elif args.format == "csv":
        text = _csv(header, rows)
    else:
        text = "\n".join(lines) + "\n"
    return _emit(text, args.out)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--out", default=None, help="write output to this path")


def _add_mode_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("float64", "exact"), default=None,
                   help="scalar mode; defaults to exact for p/q alpha, float64 otherwise")


def _add_check_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--N", type=int, required=True, help="shift multiplicity")
    p.add_argument("--alpha", required=True, help="weight parameter, decimal or p/q")
    p.add_argument("--dim", type=int, required=True, help="truncation dimension D")
    p.add_argument("--residues", default=None,
                   help="comma-separated residue classes, e.g. 0,2; default all")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None,
                   help="override the default tolerance of the check")
    _add_mode_flag(p)
    _add_output_flags(p)


def build_parser() -> argparse.ArgumentParser:
    """The subcommand table: each subparser names its handler as ``run``."""
    parser = argparse.ArgumentParser(
        prog="bergman-lab",
        description="Finite truncations of the multiplicity-N Bergman shift: "
                    "weights, coefficients, and operator-identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_weights = sub.add_parser("weights", help="print the weight sequence")
    p_weights.add_argument("--alpha", required=True)
    p_weights.add_argument("--dim", type=int, required=True,
                           help="number of weights to print")
    _add_mode_flag(p_weights)
    _add_output_flags(p_weights)
    p_weights.set_defaults(run=_cmd_weights)

    p_coeffs = sub.add_parser("coeffs", help="print shift coefficients C(N, alpha, n)")
    p_coeffs.add_argument("--N", type=int, required=True)
    p_coeffs.add_argument("--alpha", required=True)
    p_coeffs.add_argument("--dim", type=int, required=True,
                          help="number of coefficients to print")
    _add_mode_flag(p_coeffs)
    _add_output_flags(p_coeffs)
    p_coeffs.set_defaults(run=_cmd_coeffs)

    p_verify = sub.add_parser("verify", help="run one named check")
    p_verify.add_argument("--check", required=True, choices=sorted(CHECKS))
    _add_check_params(p_verify)
    p_verify.set_defaults(run=_cmd_single_check)

    p_beurling = sub.add_parser(
        "beurling", help="reconstruct a residue subspace from its wandering part")
    _add_check_params(p_beurling)
    p_beurling.set_defaults(run=_cmd_single_check, check="beurling")

    p_census = sub.add_parser(
        "census", help="sweep all residue subspaces and certify there are no others")
    _add_check_params(p_census)
    p_census.set_defaults(run=_cmd_single_check, check="census")

    p_suite = sub.add_parser("suite", help="run a verification grid")
    p_suite.add_argument("--grid", choices=("default", "smoke"), default="default")
    _add_output_flags(p_suite)
    p_suite.set_defaults(run=_cmd_suite)

    return parser


def _cmd_weights(parser: argparse.ArgumentParser, args) -> int:
    alpha, mode = _resolve_alpha_mode(parser, args)
    if args.dim < 1:
        parser.error("--dim: must be >= 1")
    try:
        params = WeightParams(alpha, 1, max(args.dim, 2))
        values = weight_sequence(params, mode)[: args.dim]
    except BergmanLabError as exc:
        parser.error(f"--alpha: {exc}")
    payload = {
        "alpha": _scalar_json(alpha),
        "mode": mode.value,
        "dim": args.dim,
        "values": [_scalar_json(v) for v in values],
    }
    rows = [[n, _alpha_str(v)] for n, v in enumerate(values)]
    return _emit_table(args, payload, ["n", "omega"], rows,
                       [f"omega[{n}] = {v}" for n, v in rows])


def _cmd_coeffs(parser: argparse.ArgumentParser, args) -> int:
    alpha, mode = _resolve_alpha_mode(parser, args)
    if args.N < 1:
        parser.error("--N: must be >= 1")
    if args.dim < 1:
        parser.error("--dim: must be >= 1")
    try:
        values = shift_coeffs(args.N, alpha, args.dim, mode)
        bound = lower_bound(args.N, alpha)
    except BergmanLabError as exc:
        parser.error(f"--alpha: {exc}")
    payload = {
        "N": args.N,
        "alpha": _scalar_json(alpha),
        "mode": mode.value,
        "dim": args.dim,
        "lower_bound": _scalar_json(bound),
        "values": [_scalar_json(v) for v in values],
    }
    rows = [[n, _alpha_str(v)] for n, v in enumerate(values)]
    lines = [f"C[{n}] = {v}" for n, v in rows]
    lines.append(f"lower bound (strict): {_alpha_str(bound)}")
    return _emit_table(args, payload, ["n", "coeff"], rows, lines)


def _check_spec_from_args(parser: argparse.ArgumentParser, args) -> CheckSpec:
    alpha, mode = _resolve_alpha_mode(parser, args)
    if args.N < 1:
        parser.error("--N: must be >= 1")
    if args.dim < args.N + 1:
        parser.error(f"--dim: must be >= N + 1 = {args.N + 1}")
    residues = _parse_residues(parser, args.residues, args.N)
    if args.depth < 1:
        parser.error("--depth: must be >= 1")
    if args.seed < 0:
        parser.error("--seed: must be >= 0")
    tol = args.tol if args.tol is not None else DEFAULT_TOLS[args.check]
    if not 0 <= tol < math.inf:  # NaN and infinity have no JSON form
        parser.error("--tol: must be >= 0" if tol < 0 else f"--tol: must be finite, got {tol}")
    spec = CheckSpec(args.check, args.N, alpha, args.dim, residues,
                     args.depth, args.seed, mode, tol)
    try:
        params = WeightParams(alpha, args.N, weights_reach(spec))
        if not mode.is_exact:
            # float weights can underflow; check every weight the check reads
            weight_sequence(params, mode)
    except BergmanLabError as exc:
        parser.error(f"--alpha: {exc}")
    return spec


def _cmd_single_check(parser: argparse.ArgumentParser, args) -> int:
    spec = _check_spec_from_args(parser, args)
    return _emit_report(VerificationReport([run_check(spec)]), args)


def _cmd_suite(parser: argparse.ArgumentParser, args) -> int:
    specs = default_grid() if args.grid == "default" else smoke_grid()
    return _emit_report(run_suite(specs), args)


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(parser, args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: validate, chains, charpoly, euler, zeta, verify, generate.
Input is a category file (JSON with objects, morphisms, identity and
compose tables) or, with --matrix, a raw square integer matrix; the
algebra pipeline is well-defined on any such matrix, which is how the
synthetic cases are driven.

Exit codes: 0 success, 1 verification or numeric failure, 2 malformed
input (message carries the location) or a flag out of range, 3 category
axiom violation (message carries a violating pair or triple).

Exact values print as integer or fraction strings, never floats;
polynomials print lowest degree first; --json output is deterministic
(sorted keys, fixed number formatting), so identical invocations give
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from mpmath import mp

from .category import (
    CategoryFormatError,
    FiniteCategory,
    IntMatrix,
    adjacency,
    category_from_dict,
    category_to_dict,
    chain_counts,
    discrete,
    disjoint_union,
    monoid_delooping,
    poset_category,
    product,
    validate,
)
from .charpoly import char_poly_bundle
from .euler import series_euler_char
from .poly import RatPoly
from .roots import DEFAULT_PRECISION_BITS, DEFAULT_TOLERANCE, RootFindingError
from .zeta import (
    analyze_matrix,
    singularity_report,
    verify_matrix,
    zeta_series,
)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


# -- input loading ---------------------------------------------------------

def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise CliError(2, f"{path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        raise CliError(2, f"{path}:{e.lineno}:{e.colno}: {e.msg}")


def _parse_matrix(doc, path: str) -> IntMatrix:
    if not isinstance(doc, list) or not all(isinstance(row, list) for row in doc):
        raise CliError(2, f"{path}: matrix must be an array of arrays")
    n = len(doc)
    for i, row in enumerate(doc):
        if len(row) != n:
            raise CliError(2, f"{path}: row {i} has {len(row)} entries, expected {n}")
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, int):
                raise CliError(2, f"{path}: entry ({i}, {j}) is not an integer")
    return IntMatrix(doc)


def _load_category(path: str) -> FiniteCategory:
    doc = _read_json(path)
    try:
        cat = category_from_dict(doc)
    except CategoryFormatError as e:
        raise CliError(2, f"{path}: {e}")
    report = validate(cat)
    if not report.ok:
        raise CliError(3, f"{path}: " + "; ".join(report.violations))
    return cat


def _load_adjacency(args) -> IntMatrix:
    if args.matrix:
        return _parse_matrix(_read_json(args.file), args.file)
    return adjacency(_load_category(args.file))


# -- output formatting -----------------------------------------------------

def _digits(bits: int) -> int:
    return max(17, int(bits * 0.30103) + 2)


def _poly_json(p: RatPoly) -> list[str]:
    if p.is_zero():
        return ["0"]
    return [str(p.coeff(i)) for i in range(p.degree + 1)]


def _value_json(x, digits: int):
    """Exact values as fraction strings; mpf as a decimal string; mpc as
    a [re, im] pair of decimal strings."""
    if x is None:
        return None
    if isinstance(x, bool):
        return x
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if isinstance(x, mp.mpf):
        return mp.nstr(x, digits)
    if isinstance(x, mp.mpc):
        return [mp.nstr(x.real, digits), mp.nstr(x.imag, digits)]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _value_text(x, digits: int = 10) -> str:
    if x is None:
        return "-"
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    return mp.nstr(x, digits)


def _poly_text(p: RatPoly, var: str = "z") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree + 1):
        c = p.coeff(i)
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            zpart = var if i == 1 else f"{var}^{i}"
            body = zpart if mag == 1 else f"{mag} {zpart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _emit_json(doc) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


# -- subcommands -----------------------------------------------------------

def cmd_validate(args) -> int:
    if args.matrix:
        a = _parse_matrix(_read_json(args.file), args.file)
        if args.json:
            _emit_json({"command": "validate", "matrix": True, "n": a.n, "ok": True})
        else:
            print(f"ok: square integer matrix, n = {a.n}")
        return 0
    doc = _read_json(args.file)
    try:
        cat = category_from_dict(doc)
    except CategoryFormatError as e:
        raise CliError(2, f"{args.file}: {e}")
    report = validate(cat)
    if args.json:
        _emit_json({
            "command": "validate",
            "matrix": False,
            "name": cat.name,
            "objects": len(cat.objects),
            "morphisms": len(cat.morphisms),
            "ok": report.ok,
            "violations": report.violations,
        })
    else:
        label = cat.name or args.file
        if report.ok:
            print(f"ok: {label} ({len(cat.objects)} objects, "
                  f"{len(cat.morphisms)} morphisms)")
        else:
            print(f"invalid: {label}")
            for v in report.violations:
                print(f"  {v}")
    return 0 if report.ok else 3


def cmd_chains(args) -> int:
    a = _load_adjacency(args)
    counts = chain_counts(a, args.max)[1:]
    if args.json:
        _emit_json({"command": "chains", "max": args.max,
                    "counts": [str(c) for c in counts]})
    else:
        for m, c in enumerate(counts, start=1):
            print(f"#N_{m} = {c}")
    return 0


def cmd_charpoly(args) -> int:
    a = _load_adjacency(args)
    bundle = char_poly_bundle(a)
    if args.json:
        _emit_json({
            "command": "charpoly",
            "n": bundle.n,
            "d": _poly_json(bundle.d),
            "k": _poly_json(bundle.k),
            "m": _poly_json(bundle.m),
            "r": bundle.r,
            "s": bundle.s,
            "lead_d": str(bundle.lead_d),
        })
    else:
        print(f"N = {bundle.n}")
        print(f"d(z) = {_poly_text(bundle.d)}")
        print(f"k(z) = {_poly_text(bundle.k)}")
        print(f"m(z) = {_poly_text(bundle.m)}")
        print(f"r = {bundle.r}, s = {bundle.s}, lead d = {bundle.lead_d}")
    return 0


def cmd_euler(args) -> int:
    a = _load_adjacency(args)
    report = series_euler_char(char_poly_bundle(a))
    if args.json:
        _emit_json({
            "command": "euler",
            "exists": report.exists,
            "chi": None if report.chi is None else str(report.chi),
            "r": report.r,
            "s": report.s,
            "branch": report.branch,
        })
    else:
        if report.exists:
            print(f"chi = {report.chi}")
        else:
            print(f"chi does not exist (r = {report.r}, s = {report.s})")
    return 0


def _closed_form_json(analysis, sing, digits: int) -> dict:
    cf = analysis.closed
    factors = []
    for factor, point in zip(cf.factors, sing.points):
        factors.append({
            "theta": _value_json(factor.theta, digits),
            "multiplicity": factor.multiplicity,
            "kind": factor.kind,
            "alpha": _value_json(factor.alpha, digits),
            "beta0": _value_json(factor.beta0, digits),
            "betas": [_value_json(b, digits) for b in factor.betas],
            "classification": point.classification,
            "pole_order": point.pole_order,
            "essential": point.essential,
        })
    return {
        "path": analysis.path,
        "lead": str(analysis.pfd.lead),
        "q": _poly_json(analysis.pfd.q),
        "Q": _poly_json(cf.q_integral),
        "factors": factors,
        "corollary_violations": list(sing.violations),
    }


def cmd_zeta(args) -> int:
    a = _load_adjacency(args)
    series = zeta_series(a, args.order)
    coeffs = [series.coeff(i) for i in range(args.order + 1)]
    digits = _digits(args.precision)
    doc = {
        "command": "zeta",
        "order": args.order,
        "series": [str(c) for c in coeffs],
    }
    closed = None
    if args.closed:
        analysis = analyze_matrix(a, args.precision)
        sing = singularity_report(analysis.closed, analysis.rootset)
        closed = _closed_form_json(analysis, sing, digits)
        doc["closed_form"] = closed
    if args.json:
        _emit_json(doc)
        return 0
    print("series: " + ", ".join(str(c) for c in coeffs))
    if closed is not None:
        print(f"path: {closed['path']}")
        print(f"Q(z) = {_poly_text(analysis.closed.q_integral)}")
        print(f"lead = {closed['lead']}")
        if not analysis.closed.factors:
            print("no roots: zeta = exp(Q)")
        for factor, point in zip(analysis.closed.factors, sing.points):
            desc = point.classification
            if point.pole_order is not None:
                desc = f"pole of order {point.pole_order}"
            if point.essential and point.classification != "essential":
                desc += " with essential part"
            betas = ", ".join(_value_text(b) for b in factor.betas) or "-"
            print(f"  theta = {_value_text(factor.theta)} "
                  f"({factor.kind}, multiplicity {factor.multiplicity}): "
                  f"alpha = {_value_text(factor.alpha)}, "
                  f"beta0 = {_value_text(factor.beta0)}, "
                  f"betas = [{betas}]  -> {desc}")
    return 0


def cmd_verify(args) -> int:
    a = _load_adjacency(args)
    report = verify_matrix(a, order=args.order, tolerance=args.tol,
                           precision_bits=args.precision)
    digits = _digits(args.precision)
    if args.json:
        _emit_json({
            "command": "verify",
            "n": report.n,
            "order": report.order,
            "tolerance": report.tolerance,
            "precision": report.precision,
            "path": report.path,
            "chi_exists": report.chi_exists,
            "chi": None if report.chi is None else str(report.chi),
            "c1": {"max_rel_err": _value_json(report.c1_max_rel_err, digits),
                   "pass": report.c1_pass},
            "c2": {"applicable": report.c2_applicable,
                   "sum": _value_json(report.c2_sum, digits),
                   "residual": _value_json(report.c2_residual, digits),
                   "pass": report.c2_pass},
            "c3": {"residuals": [_value_json(x, digits) for x in report.c3_residuals],
                   "scales": [_value_json(x, digits) for x in report.c3_scales],
                   "pass": report.c3_pass},
            "c4": {"applicable": report.c4_applicable,
                   "value": _value_json(report.c4_value, digits),
                   "target": None if report.c4_target is None else str(report.c4_target),
                   "residual": _value_json(report.c4_residual, digits),
                   "imag": _value_json(report.c4_imag, digits),
                   "pass": report.c4_pass},
            "passed": report.passed,
        })
    else:
        def flag(x):
            return "PASS" if x else "n/a" if x is None else "FAIL"

        print(f"N = {report.n}, path = {report.path}, order = {report.order}, "
              f"tol = {report.tolerance}")
        chi = report.chi if report.chi_exists else "does not exist"
        print(f"chi = {chi}")
        print(f"C1 taylor match   max rel err = {_value_text(report.c1_max_rel_err)}"
              f"  [{flag(report.c1_pass)}]")
        print(f"C2 exponent sum   sum = {_value_text(report.c2_sum)}, "
              f"residual = {_value_text(report.c2_residual)}  [{flag(report.c2_pass)}]")
        res = ", ".join(_value_text(x) for x in report.c3_residuals) or "-"
        print(f"C3 eigenvalues    residuals = {res}  [{flag(report.c3_pass)}]")
        print(f"C4 alternating    value = {_value_text(report.c4_value)}, "
              f"target = {_value_text(report.c4_target)}, "
              f"imag = {_value_text(report.c4_imag)}  [{flag(report.c4_pass)}]")
        print(f"overall: {flag(report.passed)}")
    return 0 if report.passed else 1


def _generate_category(args) -> FiniteCategory:
    kind = args.kind
    rest = args.args
    if kind == "discrete":
        if len(rest) != 1 or not rest[0].isdigit():
            raise CliError(2, "generate discrete needs a nonnegative object count")
        return discrete(int(rest[0]))
    if kind in ("poset", "monoid"):
        if len(rest) != 1:
            raise CliError(2, f"generate {kind} needs exactly one file")
        doc = _read_json(rest[0])
        if not (isinstance(doc, list) and all(isinstance(r, list) for r in doc)):
            raise CliError(2, f"{rest[0]}: expected an array of arrays")
        for row in doc:
            if len(row) != len(doc):
                raise CliError(2, f"{rest[0]}: table must be square")
            for x in row:
                if not isinstance(x, int):
                    raise CliError(2, f"{rest[0]}: entries must be integers")
        try:
            if kind == "poset":
                return poset_category(doc)
            return monoid_delooping(doc)
        except ValueError as e:
            raise CliError(3, f"{rest[0]}: {e}")
    if kind in ("union", "product"):
        if len(rest) != 2:
            raise CliError(2, f"generate {kind} needs exactly two category files")
        c1 = _load_category(rest[0])
        c2 = _load_category(rest[1])
        return disjoint_union(c1, c2) if kind == "union" else product(c1, c2)
    raise CliError(2, f"unknown generator {kind!r}")


def cmd_generate(args) -> int:
    cat = _generate_category(args)
    _emit_json(category_to_dict(cat))
    return 0


# -- wiring ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=DEFAULT_PRECISION_BITS,
                        metavar="BITS", help="working binary precision")
    common.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                        metavar="T", help="verification tolerance")
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    common.add_argument("--matrix", action="store_true",
                        help="treat FILE as a raw square integer matrix")

    parser = argparse.ArgumentParser(
        prog="catzeta",
        description="Zeta functions and Euler characteristics of finite categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check the category axioms")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("chains", parents=[common],
                       help="count composable chains of morphisms")
    p.add_argument("file")
    p.add_argument("--max", type=int, default=8, metavar="M",
                   help="longest chain length")
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("charpoly", parents=[common],
                       help="the pencil polynomials d, k, m and degree defects")
    p.add_argument("file")
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("euler", parents=[common],
                       help="series Euler characteristic")
    p.add_argument("file")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("zeta", parents=[common],
                       help="zeta series and optional closed form")
    p.add_argument("file")
    p.add_argument("--order", type=int, default=10, metavar="K",
                   help="series truncation order")
    p.add_argument("--closed", action="store_true",
                   help="include the closed-form description")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("verify", parents=[common],
                       help="check the four closed-form identities")
    p.add_argument("file")
    p.add_argument("--order", type=int, default=30, metavar="K",
                   help="series comparison order")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", parents=[common],
                       help="emit a category file on standard output")
    p.add_argument("kind",
                   choices=["discrete", "poset", "monoid", "union", "product"])
    p.add_argument("args", nargs="*")
    p.set_defaults(func=cmd_generate)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "order", 0) < 0:
        print("error: --order must be nonnegative", file=sys.stderr)
        return 2
    if getattr(args, "max", 1) < 1:
        print("error: --max must be at least 1", file=sys.stderr)
        return 2
    if args.precision < 1:
        print("error: --precision must be at least 1", file=sys.stderr)
        return 2
    if not 0 <= args.tol < math.inf:
        print("error: --tol must be a finite nonnegative number", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except RootFindingError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ArithmeticError as e:
        print(f"error: internal consistency check failed: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

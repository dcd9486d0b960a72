"""Command-line front end.

Subcommands: validate, chains, charpoly, euler, zeta, verify, generate.
Input is a category file (JSON with objects, morphisms, identity and
compose tables) or, with --matrix, a raw square integer matrix; the
algebra pipeline is well-defined on any such matrix, which is how the
synthetic cases are driven.  validate, chains and generate load
catzeta.category alone; each other command imports the algebra it runs
(charpoly, poly, roots, zeta) when it runs.

Exit codes: 0 success, 1 verification or numeric failure, 2 malformed
input (message carries the location; an identity that does not run
x -> x is malformed) or a flag out of range, 3 category axiom violation
(message carries a violating pair or triple).

--json prints each command's library records as they are, by one value
rule: None, bools, ints, floats, strings, lists, tuples and dicts are
JSON already; _json gives the rest.  A Fraction prints as its string,
never a float, and without loading mpmath; a polynomial as its
coefficient strings, lowest degree first ("0" alone for zero); an mpf as
a decimal string and an mpc as a [re, im] pair of them.  verify's and
euler's reports print as they are, each of verify's identity dicts as
one object, so a new record field changes the --json bytes.  Output is
deterministic (sorted keys, fixed number formatting): identical
invocations give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    from .poly import RatPoly


MAX_DISCRETE_OBJECTS = 10_000


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
    except UnicodeDecodeError as e:
        raise CliError(2, f"{path}: not UTF-8 text: {e.reason} at byte {e.start}")


def _parse_matrix(doc, path: str) -> IntMatrix:
    if not isinstance(doc, list) or not all(isinstance(row, list) for row in doc):
        raise CliError(2, f"{path}: matrix must be an array of arrays")
    try:
        return IntMatrix(doc)
    except (ValueError, TypeError) as e:  # a row's length, an entry's type
        raise CliError(2, f"{path}: {e}")


def _parse_category(path: str) -> FiniteCategory:
    try:
        return category_from_dict(_read_json(path))
    except CategoryFormatError as e:
        raise CliError(2, f"{path}: {e}")


def _load_category(path: str) -> FiniteCategory:
    cat = _parse_category(path)
    violations = validate(cat)
    if violations:
        raise CliError(3, f"{path}: " + "; ".join(violations))
    return cat


def _load_adjacency(args) -> IntMatrix:
    if args.matrix:
        return _parse_matrix(_read_json(args.file), args.file)
    return adjacency(_load_category(args.file))


# -- output formatting -----------------------------------------------------

def _digits(precision_bits: int) -> int:
    return max(17, int(precision_bits * 0.30103) + 2)


def _json(x, digits: int | None):
    """The JSON form of a value that json cannot print by itself, by the
    rule in the module docstring; mpf parts carry `digits` digits, those
    of the default precision where None."""
    if isinstance(x, Fraction):
        return str(x)
    from .poly import RatPoly
    if isinstance(x, RatPoly):
        return [str(c) for c in x.coeffs] or ["0"]
    from mpmath import mp
    if digits is None:
        from .roots import DEFAULT_PRECISION_BITS
        digits = _digits(DEFAULT_PRECISION_BITS)
    if isinstance(x, mp.mpf):
        return mp.nstr(x, digits)
    if isinstance(x, mp.mpc):
        return [mp.nstr(x.real, digits), mp.nstr(x.imag, digits)]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _value_text(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    from mpmath import mp
    return mp.nstr(x, 10)


def _poly_text(p: RatPoly) -> str:
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
            zpart = "z" if i == 1 else f"z^{i}"
            body = zpart if mag == 1 else f"{mag} {zpart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _emit_json(doc, precision_bits: int | None = None) -> None:
    digits = None if precision_bits is None else _digits(precision_bits)
    print(json.dumps(doc, sort_keys=True, indent=2, default=lambda x: _json(x, digits)))


# -- subcommands -----------------------------------------------------------

def cmd_validate(args) -> int:
    if args.matrix:
        a = _load_adjacency(args)
        if args.json:
            _emit_json({"command": "validate", "matrix": True, "n": a.n, "ok": True})
        else:
            print(f"ok: square integer matrix, n = {a.n}")
        return 0
    cat = _parse_category(args.file)
    violations = validate(cat)
    if args.json:
        _emit_json({
            "command": "validate",
            "matrix": False,
            "name": cat.name,
            "objects": len(cat.objects),
            "morphisms": len(cat.morphisms),
            "ok": not violations,
            "violations": violations,
        })
    else:
        label = cat.name or args.file
        if not violations:
            print(f"ok: {label} ({len(cat.objects)} objects, "
                  f"{len(cat.morphisms)} morphisms)")
        else:
            print(f"invalid: {label}")
            for v in violations:
                print(f"  {v}")
    return 3 if violations else 0


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
    from .charpoly import char_poly_bundle

    a = _load_adjacency(args)
    bundle = char_poly_bundle(a)
    if args.json:
        # every field but the block factors and the diagonal counts
        _emit_json({"command": "charpoly", "n": bundle.n, "d": bundle.d, "k": bundle.k,
                    "m": bundle.m, "r": bundle.r, "s": bundle.s,
                    "lead_d": Fraction(bundle.d.lead)})
    else:
        print(f"N = {bundle.n}")
        print(f"d(z) = {_poly_text(bundle.d)}")
        print(f"k(z) = {_poly_text(bundle.k)}")
        print(f"m(z) = {_poly_text(bundle.m)}")
        print(f"r = {bundle.r}, s = {bundle.s}, lead d = {bundle.d.lead}")
    return 0


def cmd_euler(args) -> int:
    from .charpoly import char_poly_bundle, series_euler_char

    a = _load_adjacency(args)
    report = series_euler_char(char_poly_bundle(a))
    if args.json:
        _emit_json({"command": "euler", **vars(report)})
    else:
        if report.exists:
            print(f"chi = {report.chi}")
        else:
            print(f"chi does not exist (r = {report.r}, s = {report.s})")
    return 0


def cmd_zeta(args) -> int:
    from .zeta import analyze_matrix, series_from_pair, singularity_report, zeta_series

    a = _load_adjacency(args)
    analysis = analyze_matrix(a, args.precision) if args.closed else None
    if analysis is not None:  # the pencil's pair feeds the closed form and the series
        series = series_from_pair(*(x.coeffs for x in analysis.bundle.pair), args.order).coeffs
        cf, points = analysis.closed, singularity_report(analysis.closed)
    else:
        series = zeta_series(a, args.order).coeffs
    if args.json:
        doc = {"command": "zeta", "order": args.order, "series": series}
        if analysis is not None:
            doc["closed_form"] = {
                "path": analysis.path,
                "lead": analysis.rootset.lead,
                "q": cf.q_integral.derivative(),
                "Q": cf.q_integral,
                # each root's facts and its classification, in one record
                "factors": [{**vars(point), **vars(factor)}
                            for factor, point in zip(cf.factors, points)],
                "corollary_violations": [i for i, point in enumerate(points)
                                         if point.classification == "violation"],
            }
        _emit_json(doc, args.precision)
        return 0
    print("series: " + ", ".join(str(c) for c in series))
    if analysis is not None:
        print(f"path: {analysis.path}")
        print(f"Q(z) = {_poly_text(cf.q_integral)}")
        print(f"lead = {analysis.rootset.lead}")
        if not cf.factors:
            print("no roots: zeta = exp(Q)")
        for factor, point in zip(cf.factors, points):
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
    from .zeta import verify_matrix

    a = _load_adjacency(args)
    report = verify_matrix(a, order=args.order, tolerance=args.tol,
                           precision_bits=args.precision)
    if args.json:
        _emit_json({"command": "verify", "passed": report.passed, **vars(report)},
                   args.precision)
    else:
        def flag(x):
            return "PASS" if x else "n/a" if x is None else "FAIL"

        print(f"N = {report.n}, path = {report.path}, order = {report.order}, "
              f"tol = {report.tolerance}")
        chi = report.chi if report.chi_exists else "does not exist"
        print(f"chi = {chi}")
        c1, c2, c3, c4 = report.c1, report.c2, report.c3, report.c4
        print(f"C1 taylor match   max rel err = {_value_text(c1['max_rel_err'])}"
              f"  [{flag(c1['pass'])}]")
        print(f"C2 exponent sum   sum = {_value_text(c2['sum'])}, "
              f"residual = {_value_text(c2['residual'])}  [{flag(c2['pass'])}]")
        res = ", ".join(_value_text(x) for x in c3["residuals"]) or "-"
        print(f"C3 eigenvalues    residuals = {res}  [{flag(c3['pass'])}]")
        print(f"C4 alternating    value = {_value_text(c4['value'])}, "
              f"target = {_value_text(c4['target'])}, "
              f"imag = {_value_text(c4['imag'])}  [{flag(c4['pass'])}]")
        print(f"overall: {flag(report.passed)}")
    return 0 if report.passed else 1


def _generate_category(args) -> FiniteCategory:
    kind = args.kind
    rest = args.args
    if kind == "discrete":
        if len(rest) != 1 or not rest[0].isdecimal():
            raise CliError(2, "generate discrete needs a nonnegative object count")
        try:
            count = int(rest[0])
        except ValueError:  # more digits than int() reads from a string
            count = math.inf
        if count > MAX_DISCRETE_OBJECTS:
            raise CliError(2, f"generate discrete takes at most {MAX_DISCRETE_OBJECTS} objects")
        return discrete(count)
    if kind in ("poset", "monoid"):
        if len(rest) != 1:
            raise CliError(2, f"generate {kind} needs exactly one file")
        table = _parse_matrix(_read_json(rest[0]), rest[0]).rows
        try:
            if kind == "poset":
                return poset_category(table)
            return monoid_delooping(table)
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
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("file")
    inputs.add_argument("--json", action="store_true",
                        help="machine-readable output")
    inputs.add_argument("--matrix", action="store_true",
                        help="treat FILE as a raw square integer matrix")
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument("--precision", type=int, default=None,
                           metavar="BITS", help="working binary precision")

    parser = argparse.ArgumentParser(
        prog="catzeta",
        description="Zeta functions and Euler characteristics of finite categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[inputs],
                       help="check the category axioms")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("chains", parents=[inputs],
                       help="count composable chains of morphisms")
    p.add_argument("--max", type=int, default=8, metavar="M",
                   help="longest chain length")
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("charpoly", parents=[inputs],
                       help="the pencil polynomials d, k, m and degree defects")
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("euler", parents=[inputs],
                       help="series Euler characteristic")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("zeta", parents=[inputs, precision],
                       help="zeta series and optional closed form")
    p.add_argument("--order", type=int, default=10, metavar="K",
                   help="series truncation order")
    p.add_argument("--closed", action="store_true",
                   help="include the closed-form description")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("verify", parents=[inputs, precision],
                       help="check the four closed-form identities")
    p.add_argument("--tol", type=float, default=None,
                   metavar="T", help="verification tolerance")
    p.add_argument("--order", type=int, default=None, metavar="K",
                   help="series comparison order")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="emit a category file on standard output")
    p.add_argument("kind",
                   choices=["discrete", "poset", "monoid", "union", "product"])
    p.add_argument("args", nargs="*")
    p.set_defaults(func=cmd_generate)

    return parser


def _library_defaults(args) -> None:
    """Give zeta's and verify's --precision, and verify's --tol and
    --order, the library's defaults where the flag was not passed.  They
    are read after parsing, so that validate, chains and generate never
    import roots or zeta."""
    from .roots import DEFAULT_PRECISION_BITS, DEFAULT_TOLERANCE
    from .zeta import DEFAULT_ORDER

    for name, value in (("precision", DEFAULT_PRECISION_BITS), ("tol", DEFAULT_TOLERANCE),
                        ("order", DEFAULT_ORDER)):
        if getattr(args, name, 0) is None:
            setattr(args, name, value)


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "precision"):  # zeta and verify
        _library_defaults(args)
    if getattr(args, "order", 0) < 0:
        print("error: --order must be nonnegative", file=sys.stderr)
        return 2
    if getattr(args, "max", 1) < 1:
        print("error: --max must be at least 1", file=sys.stderr)
        return 2
    if getattr(args, "precision", 1) < 1:
        print("error: --precision must be at least 1", file=sys.stderr)
        return 2
    if not 0 <= getattr(args, "tol", 0) < math.inf:
        print("error: --tol must be a finite nonnegative number", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ArithmeticError as e:
        from .roots import RootFindingError

        prefix = "" if isinstance(e, RootFindingError) else "internal consistency check failed: "
        print(f"error: {prefix}{e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

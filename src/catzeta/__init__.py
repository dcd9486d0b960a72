"""Zeta functions and series Euler characteristics of finite categories.

The pipeline: a finite category (or any square integer matrix) yields an
adjacency matrix A; one sweep over its powers yields the chain counts,
the zeta series and the three exact polynomials d, k, m of the pencil
E - A z; their degree defects decide the Euler characteristic; the roots
of d turn m/d into partial fractions and hence a closed form for the
zeta function, whose identities are machine-verified against the exact
power series.

Each name in __all__ resolves on first use (PEP 562): `import catzeta`
loads no submodule, and `from catzeta import adjacency, poset_category`
loads catzeta.category alone, not the algebra of charpoly, poly, roots
and zeta.  The first lookup of a name imports its home module and binds
the name here, so later lookups are plain attribute reads.  The
submodules themselves (catzeta.zeta and the rest) resolve as attributes
too, and `import catzeta.zeta` is unchanged; they are not in __all__.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "category": (
        "CategoryFormatError",
        "FiniteCategory",
        "IntMatrix",
        "Morphism",
        "adjacency",
        "category_from_dict",
        "category_to_dict",
        "chain_counts",
        "discrete",
        "disjoint_union",
        "monoid_delooping",
        "poset_category",
        "product",
        "validate",
    ),
    "charpoly": ("CharPolyBundle", "EulerReport", "char_poly_bundle", "monic_charpoly",
                 "series_euler_char"),
    "poly": ("RatPoly", "RatSeries", "exp_trunc", "mul_coeffs", "poly_gcd",
             "squarefree_decompose"),
    "roots": (
        "DEFAULT_PRECISION_BITS",
        "DEFAULT_TOLERANCE",
        "Root",
        "RootFindingError",
        "RootSet",
        "factor_charpoly",
        "numeric_roots",
    ),
    "zeta": (
        "ClosedFormZeta",
        "SingularPoint",
        "VerificationReport",
        "ZetaAnalysis",
        "ZetaFactor",
        "analyze_matrix",
        "closed_form",
        "closed_form_counts",
        "closed_form_taylor",
        "singularity_report",
        "verify_matrix",
        "zeta_series",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _load(module: str):
    """catzeta.<module>, imported by the import statement's machinery,
    which -X importtime reports and importlib.import_module bypasses; the
    import binds the submodule on the package."""
    __import__(f"{__name__}.{module}")
    return globals()[module]


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return _load(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(_load(_HOME[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

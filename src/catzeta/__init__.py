"""Zeta functions and series Euler characteristics of finite categories.

The pipeline: a finite category (or any square integer matrix) yields an
adjacency matrix A; one sweep over its powers yields the chain counts,
the zeta series and the three exact polynomials d, k, m of the pencil
E - A z; their degree defects decide the Euler characteristic; the roots
of d turn m/d into partial fractions and hence a closed form for the
zeta function, whose identities are machine-verified against the exact
power series.
"""

from .category import (
    CategoryFormatError,
    FiniteCategory,
    IntMatrix,
    Morphism,
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
from .charpoly import (CharPolyBundle, EulerReport, char_poly_bundle, monic_charpoly,
                       series_euler_char)
from .poly import RatPoly, RatSeries, exp_trunc, mul_coeffs, poly_gcd, squarefree_decompose
from .roots import (
    DEFAULT_PRECISION_BITS,
    DEFAULT_TOLERANCE,
    Root,
    RootFindingError,
    RootSet,
    factor_charpoly,
    numeric_roots,
)
from .zeta import (
    ClosedFormZeta,
    SingularityReport,
    SingularPoint,
    VerificationReport,
    ZetaAnalysis,
    ZetaFactor,
    analyze_matrix,
    closed_form,
    closed_form_counts,
    closed_form_taylor,
    singularity_report,
    verify_matrix,
    zeta_series,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

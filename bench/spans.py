"""Per-layer spans recorded from outside catzeta, by rebinding module attributes.

Each traced layer is a public function that the pipeline reaches through
a module attribute, e.g. `catzeta.zeta.factor_charpoly`.  While a Tracer
is installed, those attributes point at wrappers that append a span
[name, start, end, parent] to an in-memory list; counters sit on the same
boundaries.  Self time is a span's duration minus its children's, which
cannot overlap because everything runs on one thread.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

NAME, START, END, PARENT = range(4)

# (module, attribute, span name).  The call sites that matter import these
# names into their own module, so each one is patched where it is looked up.
SPANNED = (
    ("catzeta.cli", "cli_main", "cli.main"),
    ("catzeta.zeta", "verify_matrix", "zeta.checks"),
    ("catzeta.cli", "verify_matrix", "zeta.checks"),
    ("catzeta.zeta", "char_poly_bundle", "charpoly.bundle"),
    ("catzeta.charpoly", "lagrange_interpolate", "poly.interp"),
    ("catzeta.zeta", "series_euler_char", "euler"),
    ("catzeta.zeta", "factor_charpoly", "roots.factor"),
    ("catzeta.roots", "squarefree_decompose", "poly.squarefree"),
    ("catzeta.roots", "rational_roots", "roots.rational"),
    ("catzeta.roots", "numeric_roots", "roots.numeric"),
    ("catzeta.zeta", "partial_fractions", "zeta.pfd"),
    ("catzeta.zeta", "closed_form", "zeta.closed"),
    ("catzeta.zeta", "closed_form_taylor", "zeta.taylor"),
    ("catzeta.zeta", "zeta_series", "zeta.series"),
    ("catzeta.zeta", "exp_trunc", "series.exp"),
    ("catzeta.zeta", "mul_trunc", "series.mul"),
    ("catzeta.zeta", "inv_trunc", "series.inv"),
)
# Calls counted without a span: too many and too short to time one by one.
COUNTED = (("catzeta.charpoly", "bareiss_det", "charpoly.det"),)
# Spans whose return values are kept, to read input properties after a pass.
KEPT = ("zeta.checks", "charpoly.bundle", "zeta.series")


def self_times(spans: list) -> dict[str, float]:
    """Total self time per span name: each span's duration minus its children's."""
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        dur = span[END] - span[START]
        out[span[NAME]] += dur
        if span[PARENT] is not None:
            out[spans[span[PARENT]][NAME]] -= dur
    return dict(out)


def inclusive_times(spans: list) -> dict[str, float]:
    """Total time per span name, not counting a span nested in one of the same name."""
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent is None:
            out[span[NAME]] += span[END] - span[START]
    return dict(out)


class Tracer:
    """Spans, call counts and returned values at each layer boundary."""

    def __init__(self) -> None:
        self.spans: list = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.numeric_degree = 0
        self.returned: dict[str, list] = defaultdict(list)
        self._open: list[int] = []
        self._saved: list = []

    def _spanned(self, name: str, fn):
        spans, opened, calls = self.spans, self._open, self.calls
        keep = name in KEPT

        def traced(*args, **kwargs):
            calls[name] += 1
            if name == "roots.numeric":
                self.numeric_degree += args[0].degree
            span = [name, 0.0, 0.0, opened[-1] if opened else None]
            opened.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                span[END] = perf_counter()
                opened.pop()
            if keep:
                self.returned[name].append(result)
            return result

        return traced

    def _counted(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self) -> "Tracer":
        category = importlib.import_module("catzeta.category")
        self._saved.append((category.IntMatrix, "__matmul__",
                            category.IntMatrix.__matmul__))
        category.IntMatrix.__matmul__ = self._spanned("category.matmul",
                                                      category.IntMatrix.__matmul__)
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue  # the layer is gone from this version; it reports 0
                self._saved.append((module, attr, original))
                setattr(module, attr, make(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

"""Where the benchmark finds the catzeta sources it measures."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"


def require_catzeta() -> None:
    """Put the checkout's own src/ first on sys.path, or exit with code 2.

    The benchmark measures the tree it sits in, never an installed copy.
    """
    if not (SRC / "catzeta" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"error: no catzeta sources and fixtures under {ROOT}", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))

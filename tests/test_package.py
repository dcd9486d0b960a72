"""The package namespace: each exported name resolves on first use
(PEP 562).  What a fresh import loads is checked in a fresh interpreter
by tests/test_cli.py's TestMpmathImport."""

import pytest

import catzeta

EXPORTS = 44
SUBMODULES = ("category", "charpoly", "poly", "roots", "zeta")


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from catzeta import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == catzeta.__all__
    assert len(catzeta.__all__) == EXPORTS
    assert not set(SUBMODULES) & set(catzeta.__all__)


def test_dir_lists_every_export():
    assert set(catzeta.__all__) <= set(dir(catzeta))
    assert "__version__" in dir(catzeta)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        catzeta.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from catzeta import no_such_name  # noqa: F401

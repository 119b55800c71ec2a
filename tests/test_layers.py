"""The package's modules form layers: each one imports only from layers
below it, and only at module level, so there is no import cycle to hide.

    errors < linalg < {graph, numbertheory} < {spectra, swaut, transfer}
           < circulant_pst < cli < __main__

__init__ re-exports the public names and is exempt.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import hermwalk
from hermwalk import linalg, swaut

PACKAGE = Path(hermwalk.__file__).parent
LAYERS = [
    {"errors"},
    {"linalg"},
    {"graph", "numbertheory"},
    {"spectra", "swaut", "transfer"},
    {"circulant_pst"},
    {"cli"},
    {"__main__"},
]
LAYER = {name: level for level, names in enumerate(LAYERS) for name in names}
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _tree(name: str) -> ast.Module:
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_imports(tree: ast.Module):
    """(line, imported module) for every import of a hermwalk module:
    `from .x import y`, `from . import x, y` and their absolute forms."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "hermwalk":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                yield node.lineno, parts[0]
            else:
                yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "hermwalk" and len(parts) > 1:
                    yield node.lineno, parts[1]


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYER)


@pytest.mark.parametrize("name", MODULES)
def test_no_import_inside_a_function(name):
    nested = [
        inner.lineno
        for node in ast.walk(_tree(name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert nested == [], f"{name}.py imports inside a function at lines {nested}"


@pytest.mark.parametrize("name", MODULES)
def test_imports_point_to_lower_layers(name):
    upward = [
        (line, target)
        for line, target in _package_imports(_tree(name))
        if not LAYER.get(target, len(LAYERS)) < LAYER[name]
    ]
    assert upward == [], f"{name}.py imports from its own or a higher layer: {upward}"


def test_monomial_algebra_is_one_set_of_names():
    assert hermwalk.MonomialMatrix is swaut.MonomialMatrix is linalg.MonomialMatrix
    for name in ("compose", "projectively_equal", "projective_order"):
        assert getattr(hermwalk, name) is getattr(linalg, name)
    assert swaut._cycles is linalg._cycles


def test_nearest_monomial_returns_the_linalg_type():
    m, residual = linalg.nearest_monomial(np.array([[0, 1j], [1, 0]]))
    assert type(m) is linalg.MonomialMatrix
    assert m.perm == (1, 0) and residual == 0.0

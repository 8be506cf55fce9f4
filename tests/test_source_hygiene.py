"""Static checks on the package source.

Every name a module imports must be used in that module: an import left
behind by a deletion is dead code that still costs load time and misleads
a reader about what the module depends on. ``__init__.py`` is exempt, since
its imports are the package's public re-exports.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "npivlab"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_package_modules_are_found():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == [], f"unused imports in {path.name} (line, name)"


# One factorization per operator: the operator's own SVD, and the stacked
# lam > 0 problem of the constrained solve, are the only SVD call sites; the
# derivative form is built once per operator, through its memo.
SVD_SITES = [
    ("estimators.py", "constrained_estimate", "lam > 0"),
    ("operators.py", "DiscreteOperator._build_svd", None),
]


def _parents(tree: ast.Module) -> dict:
    return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def _ancestors(node, parents):
    while node in parents:
        node = parents[node]
        yield node


def _qualname(node, parents) -> str:
    names = [
        a.name
        for a in _ancestors(node, parents)
        if isinstance(a, (ast.FunctionDef, ast.ClassDef, ast.AsyncFunctionDef))
    ]
    return ".".join(reversed(names))


def _svd_sites(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    parents = _parents(tree)
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
            for alias in node.names:
                if alias.name == "svd":
                    sites.append((path.name, "import", node.lineno))
        if isinstance(node, ast.Attribute) and node.attr == "svd":
            if ast.unparse(node.value).endswith("linalg"):
                branch = next(
                    (
                        ast.unparse(a.test)
                        for a in _ancestors(node, parents)
                        if isinstance(a, ast.If)
                    ),
                    None,
                )
                sites.append((path.name, _qualname(node, parents), branch))
    return sites


def test_svd_is_called_only_at_the_two_factorization_sites():
    sites = [site for path in MODULES for site in _svd_sites(path)]
    assert sorted(sites, key=str) == SVD_SITES


def _derivative_form_uses_outside_memo(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    parents = _parents(tree)
    stray = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "_derivative_form":
            in_memo = any(
                isinstance(a, ast.Call)
                and isinstance(a.func, ast.Attribute)
                and a.func.attr == "memo"
                for a in _ancestors(node, parents)
            )
            if not in_memo:
                stray.append((path.name, node.lineno))
    return stray


def test_derivative_form_is_reached_only_through_the_operator_memo():
    assert any("def _derivative_form" in p.read_text(encoding="utf-8") for p in MODULES)
    assert [s for p in MODULES for s in _derivative_form_uses_outside_memo(p)] == []

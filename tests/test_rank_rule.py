"""One rank rule and one linear-algebra path in the package.

``linalg._inverse_builder`` states the rule
|lambda| > DEFAULT_RTOL * m * max|lambda| that decides what every
pseudo-inverse W^+ keeps, and ``SymFactor``, at construction, and the
Riccati stages are the only callers that run it.  A module other than
``linalg`` that named ``DEFAULT_RTOL`` would state the rule a second time,
and any use of ``svd`` or ``pinv`` would open a second route to W^+ with a
rank decision of its own.  This lint scans the package with ``ast`` and
reports both, together with every name in ``mflq.__all__`` that the package
does not bind, so a removed function cannot stay exported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mflq"
RULE_OWNER = "linalg"
RULE_NAME = "DEFAULT_RTOL"
SECOND_PATHS = frozenset({"svd", "pinv"})


def identifiers(tree):
    """(line, identifier) of every name, attribute, import and definition."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.name.rsplit(".", 1)[-1]
                if alias.asname:
                    yield node.lineno, alias.asname


def offences(tree, module):
    """(line, name) of every second statement of the rank rule in ``module``."""
    banned = SECOND_PATHS | ({RULE_NAME} if module != RULE_OWNER else set())
    return sorted({(line, name) for line, name in identifiers(tree) if name in banned})


def unbound_exports(tree):
    """Names in the module's ``__all__`` that the module does not bind."""
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            bound.update(names)
            if "__all__" in names:
                exported = [elt.value for elt in node.value.elts]
    return sorted(set(exported) - bound)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_rank_rule_lives_in_linalg_alone():
    found = {
        path.stem: offences(_parse(path), path.stem)
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert found == dict.fromkeys(found, [])


def test_every_export_is_bound():
    assert unbound_exports(_parse(PACKAGE / "__init__.py")) == []


def test_lint_sees_rule_reads_second_paths_and_stale_exports():
    tree = ast.parse(
        "from .linalg import DEFAULT_RTOL as tol\n"
        "cut = linalg.DEFAULT_RTOL * m\n"
        "U, s, Vt = np.linalg.svd(M)\n"
        "inv = factor.pinv\n"
        '"""A docstring naming DEFAULT_RTOL, svd and pinv."""\n'
    )
    assert offences(tree, "riccati") == [
        (1, "DEFAULT_RTOL"), (2, "DEFAULT_RTOL"), (3, "svd"), (4, "pinv"),
    ]
    assert offences(tree, "linalg") == [(3, "svd"), (4, "pinv")]
    init = ast.parse(
        "from .linalg import sym_factor\n"
        "from .riccati import gains as g\n"
        "__all__ = ['sym_factor', 'g', 'gains', 'pinv', '__all__']\n"
    )
    assert unbound_exports(init) == ["gains", "pinv"]

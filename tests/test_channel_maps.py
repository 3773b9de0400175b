"""Only ``problem`` turns the quadratic coefficients into channel maps.

The deviation channel runs on (A, B, C, D, Q, S, R) and the terminal weight
G, and the mean channel on the sums with their ``_bar`` companions.
``problem._channel_maps`` stacks them once per coefficient table as
F = [A B], G = [C D] and H = [[Q S^T], [S R]], ``problem.tabulate`` pairs
the terminal weights as the table's ``terminal`` (G, G + G_bar), and the
Riccati, adjoint, moment and synthesis layers read those.  A module that
picked a quadratic coefficient out of a table or a problem by name would
decide a second time how the channels combine.  This lint scans those
modules with ``ast`` and reports every place that names one: a string
literal such as ``tab.node["A"]`` or ``tab.stack("R_bar")`` uses, or an
attribute such as ``p.B`` or ``p.G_bar``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mflq"
MAP_READERS = ("riccati.py", "affine.py", "moments.py", "synthesis.py")
QUADRATIC = frozenset(
    name + suffix for name in "ABCDQSRG" for suffix in ("", "_bar")
)


def named_reads(tree):
    """(line, name) of every quadratic coefficient ``tree`` names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in QUADRATIC:
            found.append((node.lineno, node.value))
        elif isinstance(node, ast.Attribute) and node.attr in QUADRATIC:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_map_readers_name_no_quadratic_coefficient():
    offenders = {
        name: named_reads(ast.parse((PACKAGE / name).read_text(), filename=name))
        for name in MAP_READERS
    }
    assert offenders == dict.fromkeys(MAP_READERS, [])


def test_lint_sees_subscripts_calls_and_attributes():
    tree = ast.parse(
        'x = c["A"] + tab.stack("R_bar") + p.D\n'
        'y = c["q_bar"] + c["rho1"] + p.G_bar + p.P\n'
        '"""A docstring that mentions A, B and S_bar."""\n'
    )
    assert named_reads(tree) == [(1, "A"), (1, "D"), (1, "R_bar"), (2, "G_bar")]

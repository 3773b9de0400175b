"""No pass copies a channel pair that the Riccati solution already holds.

``integrate_gre`` and ``dense_midpoints`` keep each channel pair (the
Riccati matrices ``P`` / ``P_mean``, the input weights ``input_weight*``,
the cross terms ``cross_term*`` and the gains ``gain_*``) as two slabs of
one channel-major buffer, and a pass that reads a pair node by node takes
it through ``riccati._pair``, a view of that buffer.  Stacking the two
channels again, or copying one into a contiguous array, would hold a
second copy of a (K+1, ...) array at the synthesis's peak.  This lint scans
the Riccati, affine and synthesis modules with ``ast`` and reports every
``np.stack``, ``np.ascontiguousarray`` or ``copy`` (method or function)
whose operands name one of those fields, as an attribute such as
``sol.cross_term`` or as a bare name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mflq"
PAIR_READERS = ("riccati.py", "affine.py", "synthesis.py")
COPYING = frozenset({"stack", "ascontiguousarray", "copy"})
NUMPY = frozenset({"np", "numpy"})


def is_pair_field(name):
    return name in ("P", "P_mean") or name.startswith(
        ("input_weight", "cross_term", "gain_")
    )


def copied_operands(call):
    """The call's name and the expressions it copies, or None if it copies
    nothing: the arguments of ``np.stack`` / ``np.ascontiguousarray`` /
    ``np.copy`` (or the bare functions) and the receiver of ``x.copy()``."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in COPYING:
        return func.id, list(call.args)
    if not isinstance(func, ast.Attribute) or func.attr not in COPYING:
        return None
    if isinstance(func.value, ast.Name) and func.value.id in NUMPY:
        return func.attr, list(call.args)
    if func.attr == "copy":
        return "copy", [func.value]
    return None


def pair_copies(tree):
    """(line, call, field) of every copy in ``tree`` of a channel-pair field."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        copied = copied_operands(node)
        if copied is None:
            continue
        name, operands = copied
        for operand in operands:
            for sub in ast.walk(operand):
                field = sub.attr if isinstance(sub, ast.Attribute) else (
                    sub.id if isinstance(sub, ast.Name) else None)
                if field is not None and is_pair_field(field):
                    found.append((node.lineno, name, field))
    return sorted(set(found))


def test_pair_readers_copy_no_channel_pair():
    offenders = {
        name: pair_copies(ast.parse((PACKAGE / name).read_text(), filename=name))
        for name in PAIR_READERS
    }
    assert offenders == dict.fromkeys(PAIR_READERS, [])


def test_lint_sees_stacks_contiguous_copies_and_copy_calls():
    tree = ast.parse(
        "Y = np.stack((sol.P, sol.P_mean), axis=1)\n"
        "w = np.ascontiguousarray(gre.input_weight_mean[:, 0])\n"
        "g = sol.gain_dev.copy()\n"
        "c = numpy.copy(cross_term)\n"
        "s = stack([P, x])\n"
        "fine = np.stack((first, second), axis=1) + eta.copy() + sol.P[0]\n"
        "fine2 = np.asarray(sol.P) + gains.copy() + np.stack((sol.gain,))\n"
    )
    assert pair_copies(tree) == [
        (1, "stack", "P"),
        (1, "stack", "P_mean"),
        (2, "ascontiguousarray", "input_weight_mean"),
        (3, "copy", "gain_dev"),
        (4, "copy", "cross_term"),
        (5, "stack", "P"),
    ]

"""Every optional parameter of the public API has a caller.

A parameter with a default that no call ever sets is a configuration no
one runs: it doubles what a reader must reason about and hides the
constant the code really uses.  This lint scans the source tree with
``ast``: for every function and method under ``src/mflq`` whose name has
no leading underscore, each parameter with a default must be passed, by
keyword or by position, by at least one call under ``src/`` or
``bench/``, or be named in ``OPTIONS_KEPT`` with its reason.  A call in
``tests/`` does not count: an option that only a test sets is a seam for
the test, not a configuration the program runs, and the test can reach
the same code through the public API or a monkeypatch.  Calls are matched
by the called name alone, so a call ``obj.f(...)`` counts for every
function or method named ``f``.

A parameter that every call passes its own default is the same dead knob
in disguise, so a second lint flags a parameter when some call, in
``tests/`` too, sets it and every call that does passes a literal equal
to the default (compared with ``ast.literal_eval``).  A non-literal
argument, or a call through ``*`` or ``**``, counts as a different value.

The command line gets the same lint: every ``--flag`` that ``mflq.cli``
adds to its parser must appear in some test or bench as a string of its
own, ``"--flag"`` or ``"--flag=value"``.  So must every value a parser
argument offers as a choice (a subcommand, a ``--suite``, a preset name),
read from ``cli.build_parser()``: a suite or preset added to a table cannot
land without a test or bench that runs it by name.

A public function that only tests call is a second path beside the one the
program runs.  So every public module-level function under ``src/mflq``
must be referenced from ``src/mflq`` itself, by name or as an attribute,
or be exported in ``mflq.__all__``; the few kept otherwise are named below
with their reasons.
"""

import argparse
import ast
from pathlib import Path

from mflq import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mflq"
CALLER_DIRS = ("src", "tests", "bench")
# The trees whose calls keep an optional parameter alive.
PROGRAM_DIRS = ("src", "bench")

# Optional parameters that no call under PROGRAM_DIRS sets, each with the
# reason it stays.
OPTIONS_KEPT = {
    "presets.example31(t)": "the paper's Example 3.1 from other start "
    "times, which the acceptance criteria solve",
    "presets.example31_null_control(t)": "the null control of Example 3.1 "
    "from the same other start times",
    "moments.propagate_moments(n_steps)": "criterion 10 propagates the "
    "moments on its own 600-step grid",
}

# Public functions that nothing under src/mflq references and mflq.__all__
# does not export, each with the reason it stays.
UNREFERENCED_KEPT = {
    "docio.emit_strategy": "writes the strategy document that "
    "`mflq simulate --strategy` reads",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _optional_params(tree):
    """(function name, {parameter: positional index or None}) per public def.

    Methods drop their bound first parameter, so the indices match the
    positional arguments of a call through an instance or the class.
    """
    return [
        (name, {param: index for param, (index, _) in params.items()})
        for name, params in _defaults(tree)
    ]


def _defaults(tree):
    """(function name, {parameter: (positional index or None, default node)})
    per public def, indexed as in ``_optional_params``."""
    found = []

    def visit(body, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                args = node.args
                positional = args.posonlyargs + args.args
                decorators = {
                    d.id for d in node.decorator_list if isinstance(d, ast.Name)
                }
                if in_class and "staticmethod" not in decorators:
                    positional = positional[1:]
                defaulted = positional[len(positional) - len(args.defaults):]
                params = {
                    a.arg: (positional.index(a), d)
                    for a, d in zip(defaulted, args.defaults)
                }
                params.update(
                    (a.arg, (None, d))
                    for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None
                )
                if params:
                    found.append((node.name, params))

    visit(tree.body, False)
    return found


def _called_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _record_calls(tree, passed):
    """Add the parameters and positions each call in ``tree`` sets to ``passed``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node)
        if name is None:
            continue
        seen = passed.setdefault(
            name, {"keywords": set(), "n_positional": 0, "anything": False}
        )
        for kw in node.keywords:
            if kw.arg is None:
                seen["anything"] = True
            else:
                seen["keywords"].add(kw.arg)
        if any(isinstance(a, ast.Starred) for a in node.args):
            seen["anything"] = True
        seen["n_positional"] = max(seen["n_positional"], len(node.args))
    return passed


def unset_options(callers, package):
    """Sorted "module.function(parameter)" entries of the {module: tree}
    ``package`` that no call in the trees ``callers`` sets."""
    passed = {}
    for tree in callers:
        _record_calls(tree, passed)

    unset = []
    for stem, tree in package.items():
        for func, params in _optional_params(tree):
            seen = passed.get(func)
            for param, index in params.items():
                if seen is not None and (
                    seen["anything"]
                    or param in seen["keywords"]
                    or (index is not None and index < seen["n_positional"])
                ):
                    continue
                unset.append(f"{stem}.{func}({param})")
    return sorted(unset)


def _package():
    return {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}


def _trees(dirs):
    return [_parse(path) for top in dirs
            for path in sorted((ROOT / top).rglob("*.py"))]


def test_every_optional_parameter_has_a_caller():
    assert unset_options(_trees(PROGRAM_DIRS), _package()) == sorted(OPTIONS_KEPT)


def test_option_lint_counts_no_test_as_a_caller():
    package = {"a": ast.parse("def f(x, y=1, z=2):\n    pass\n")}
    program, tests = ast.parse("f(0, z=3)\n"), ast.parse("f(0, y=4)\n")
    assert unset_options([program], package) == ["a.f(y)"]
    assert unset_options([program, tests], package) == []


def _literal(node):
    """The value of a literal expression node, or a fresh object that equals
    nothing when it is not a literal."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError):
        return object()


def _passed_values(calls, param, index):
    """The argument nodes of the calls that set ``param``, None for a call
    through ``*`` or ``**``, whose value cannot be read."""
    found = []
    for call in calls:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            kw.arg is None for kw in call.keywords
        ):
            found.append(None)
            continue
        by_name = [kw.value for kw in call.keywords if kw.arg == param]
        if by_name:
            found.append(by_name[0])
        elif index is not None and index < len(call.args):
            found.append(call.args[index])
    return found


def default_only_options(trees, package):
    """Sorted "module.function(parameter)" entries of the {module: tree}
    ``package`` that some call in ``trees`` sets and every call that sets
    passes the parameter's own default, as a literal."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) is not None:
                calls.setdefault(_called_name(node), []).append(node)

    flagged = []
    for stem, tree in package.items():
        for func, params in _defaults(tree):
            for param, (index, default) in params.items():
                passed = _passed_values(calls.get(func, []), param, index)
                want = _literal(default)
                if passed and all(
                    v is not None and _literal(v) == want for v in passed
                ):
                    flagged.append(f"{stem}.{func}({param})")
    return sorted(flagged)


def test_no_optional_parameter_is_only_passed_its_default():
    assert default_only_options(_trees(CALLER_DIRS), _package()) == []


def test_default_lint_sees_literals_names_and_star_calls():
    package = {"a": ast.parse(
        "def f(x, y=1.0, z=None, *, w='s'):\n    pass\n"
        "def g(a=2):\n    pass\n"
        "def h(b=3):\n    pass\n"
        "def k(c=0):\n    pass\n"
    )}
    callers = [ast.parse(
        "f(0, 1)\nf(0, y=1.0, z=None, w='t')\nf(1, z=None)\n"
        "g(2)\ng(a)\n"
        "h(3)\nh(*args)\n"
        "k()\n"
    )]
    assert default_only_options(callers, package) == ["a.f(y)", "a.f(z)"]


def test_lint_sees_keyword_and_positional_callers():
    tree = ast.parse(
        "class K:\n"
        "    def m(self, a, b=1, *, c=2):\n"
        "        pass\n"
        "def f(x, y=0, z=0):\n"
        "    pass\n"
    )
    assert _optional_params(tree) == [("m", {"b": 1, "c": None}),
                                      ("f", {"y": 1, "z": 2})]
    calls = _record_calls(ast.parse("f(1, 2)\nk.m(0, c=3)\ng(**kw)\n"), {})
    assert calls["f"]["n_positional"] == 2
    assert calls["m"]["keywords"] == {"c"}
    assert calls["g"]["anything"]


def cli_flags(tree):
    """Sorted ``--flag`` names of every ``add_argument`` call in ``tree``."""
    flags = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called_name(node) == "add_argument":
            flags.update(
                a.value for a in node.args
                if isinstance(a, ast.Constant) and isinstance(a.value, str)
                and a.value.startswith("--")
            )
    return sorted(flags)


def _strings(trees):
    """Every string constant in ``trees``."""
    return {
        node.value
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def unpassed_flags(flags, trees):
    """The flags that no string constant in ``trees`` passes."""
    strings = _strings(trees)
    return [
        flag for flag in flags
        if not any(s == flag or s.startswith(flag + "=") for s in strings)
    ]


def _caller_trees():
    """Tests and bench; this file names flags and choices itself, so it is
    not scanned for callers."""
    return [
        _parse(path)
        for top in ("tests", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path != Path(__file__).resolve()
    ]


def test_every_cli_flag_has_a_caller():
    flags = cli_flags(_parse(PACKAGE / "cli.py"))
    assert "--solver-steps" in flags
    assert unpassed_flags(flags, _caller_trees()) == []


def test_flag_lint_sees_add_argument_and_passed_strings():
    parser = ast.parse(
        'sp.add_argument("file")\n'
        'sp.add_argument("--alpha", type=int)\n'
        'sp.add_argument("--beta-gamma")\n'
        'sp.add_argument("--delta", default="--epsilon")\n'
    )
    flags = cli_flags(parser)
    assert flags == ["--alpha", "--beta-gamma", "--delta"]
    callers = ast.parse(
        'main(["run", "--alpha", "1", "--beta-gamma=2"])\n'
        'msg = "--delta must be positive"\n'
    )
    assert unpassed_flags(flags, [callers]) == ["--delta"]


def parser_choices(parser):
    """Sorted choice values of every argument of ``parser``, subcommand
    names included, and of every subcommand's parser."""
    found = set()
    for action in parser._actions:
        choices = action.choices or ()
        found.update(choices)
        if isinstance(choices, dict):  # subcommand name -> its parser
            for sub in choices.values():
                found.update(parser_choices(sub))
    return sorted(found)


def unnamed_choices(choices, trees):
    """The choices that no string constant in ``trees`` names exactly."""
    strings = _strings(trees)
    return [choice for choice in choices if choice not in strings]


def test_every_cli_choice_is_named_by_a_caller():
    choices = parser_choices(cli.build_parser())
    assert {"all", "qp", "degeneration", "example31", "verify"} <= set(choices)
    assert unnamed_choices(choices, _caller_trees()) == []


def test_choice_lint_sees_subcommands_and_argument_choices():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    sp = sub.add_parser("run")
    sp.add_argument("--mode", choices=["fast", "slow"])
    sp.add_argument("--label", default="fast-ish")
    sub.add_parser("show").add_argument("what", choices=["one", "two"])
    choices = parser_choices(parser)
    assert choices == ["fast", "one", "run", "show", "slow", "two"]
    callers = ast.parse(
        'main(["run", "--mode", "fast", "slow-ish"])\n'
        'main(["show", "two"])\n'
        'msg = "one of: one, slow"\n'
    )
    assert unnamed_choices(choices, [callers]) == ["one", "slow"]


def _exports(tree):
    """The names listed in the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts}
    return set()


def _referenced(tree):
    """Every name ``tree`` reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreferenced_functions(trees):
    """Sorted "module.function" of every public module-level def in
    ``trees`` ({module: tree}) that no tree references and the
    ``__init__`` tree does not export."""
    used = set().union(*map(_referenced, trees.values()))
    if "__init__" in trees:
        used |= _exports(trees["__init__"])
    return sorted(
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in used
    )


def test_every_public_function_is_referenced_or_exported():
    assert unreferenced_functions(_package()) == sorted(UNREFERENCED_KEPT)


def test_function_lint_sees_references_and_exports():
    trees = {
        "__init__": ast.parse("from .a import f\n__all__ = ['f']\n"),
        "a": ast.parse(
            "def f():\n    pass\n"
            "def g():\n    pass\n"
            "def h():\n    pass\n"
            "def _p():\n    pass\n"
            "class K:\n    def m(self):\n        pass\n"
        ),
        "b": ast.parse("from . import a\nx = a.h()\n"),
    }
    assert unreferenced_functions(trees) == ["a.g"]

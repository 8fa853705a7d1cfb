"""A family's role comes from its class, never from its kind name.

This walks the syntax tree of every module under src/breatherlab and fails
on any ``==``, ``!=``, ``in`` or ``not in`` comparison against a name of
``breathers.FAMILIES``: a string literal, a tuple, list, set or dict of them,
or a name bound to such a constant anywhere in the package (but a single
string in a class body, which is how each family class states its ``kind``).
So a local alias of ``family.kind`` or a kind tuple under any name is caught.
The only comparisons allowed are the CLI flag rules that name their family.
"""

import ast
import pathlib

from breatherlab import breathers

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "breatherlab"
NAMES = frozenset(breathers.FAMILIES)
COMPARISONS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
# the --dim-total and --a/--b flag rules
ALLOWED = {
    ("cli.py", "args.family != 'sg'"),
    ("cli.py", "args.family == 'sg-kink'"),
}


def _literal_strings(node) -> set:
    """The string constants a literal expression holds, through containers
    and frozenset(...) / tuple(...) / set(...) calls of them."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return set().union(*map(_literal_strings, node.elts))
    if isinstance(node, ast.Dict):
        return set().union(*(_literal_strings(k) for k in node.keys if k is not None))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and len(node.args) == 1:
        return _literal_strings(node.args[0])
    return set()


def _bound_constants(trees) -> dict:
    """Name -> family names of every constant of them bound to that name,
    but a single constant in a class body."""
    bound = {}
    for tree in trees:
        stated = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for node in cls.body if isinstance(getattr(node, "value", None), ast.Constant)}
        for node in ast.walk(tree):
            if id(node) in stated:
                continue
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            names = _literal_strings(value) & NAMES
            for target in targets:
                if names and isinstance(target, (ast.Name, ast.Attribute)):
                    key = target.id if isinstance(target, ast.Name) else target.attr
                    bound.setdefault(key, set()).update(names)
    return bound


def _family_names(node, bound) -> set:
    names = _literal_strings(node) & NAMES
    if isinstance(node, ast.Name):
        names |= bound.get(node.id, set())
    elif isinstance(node, ast.Attribute):
        names |= bound.get(node.attr, set())
    return names


def kind_comparisons(src: pathlib.Path) -> list:
    """(file, line, source) of each comparison against a family name."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    bound = _bound_constants(trees.values())
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare) or not any(isinstance(op, COMPARISONS) for op in node.ops):
                continue
            if any(_family_names(operand, bound) for operand in [node.left, *node.comparators]):
                found.append((name, node.lineno, ast.unparse(node)))
    return found


def test_no_comparison_against_a_family_name():
    found = [hit for hit in kind_comparisons(SRC) if (hit[0], hit[2]) not in ALLOWED]
    assert not found, "a family's role comes from its class, not its kind name: " + repr(found)


def test_the_allowed_flag_rules_exist():
    # an allowance whose line is gone would hide a new comparison of that form
    assert {(hit[0], hit[2]) for hit in kind_comparisons(SRC)} == ALLOWED


def test_catches_aliases_and_renamed_tuples(tmp_path):
    (tmp_path / "module.py").write_text(
        "_SCALAR_BREATHERS = ('mkdv', 'gardner')\n"
        "def f(family):\n"
        "    kind = family.kind\n"
        "    if kind in ('mkdv-soliton', 'gardner-soliton'):\n"
        "        return 1\n"
        "    if kind not in _SCALAR_BREATHERS:\n"
        "        return 2\n"
        "    return 'sg' == kind\n"
    )
    assert [line for _, line, _ in kind_comparisons(tmp_path)] == [4, 6, 8]

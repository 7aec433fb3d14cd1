"""Every function, method and class in src/solvlen is reached from src/."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "solvlen"

# names kept although no code in src/ refers to them
ALLOWED = {
    "normal_closure": "perfbench/spans.py wraps grp.normal_closure by name",
    "quotient_on_cosets": "perfbench/spans.py wraps grp.quotient_on_cosets "
                          "by name",
    "element_set": "perfbench/spans.py wraps SubgroupHandle.element_set by "
                   "name",
    "gl_order": "the order bound that gl and sl chains are to stop at",
}

DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(node):
    """How often each identifier is read or called below a node, as a
    name or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreached():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    everywhere = sum(map(references, trees), Counter())
    for tree in trees:
        for node in ast.walk(tree):
            name = getattr(node, "name", "")
            if (isinstance(node, DEFINITION)
                    and not (name.startswith("__") and name.endswith("__"))
                    and everywhere[name] == references(node)[name]):
                yield name


def test_no_definition_is_unreached():
    assert sorted(unreached()) == sorted(ALLOWED)

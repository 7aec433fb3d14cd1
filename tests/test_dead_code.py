"""Every function, method and class in src/solvlen is reached from src/,
every name a module imports is read in that module, no code sets a public
field of a handle after building it, elements are converted to images only
as generators (and normal_closure's seed), and the benchmark's tracer still
installs on src/."""

import ast
import dataclasses
import os
import pathlib
import subprocess
import sys
from collections import Counter

from solvlen.grp import GroupHandle

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "solvlen"

# names kept although no code in src/ refers to them
ALLOWED = {
    "as_perm": "perfbench/spans.py counts perm.as_perm calls by name",
    "normal_closure": "perfbench/spans.py wraps grp.normal_closure by name",
    "quotient_on_cosets": "perfbench/spans.py wraps grp.quotient_on_cosets "
                          "by name",
    "element_set": "perfbench/spans.py wraps SubgroupHandle.element_set by "
                   "name",
}

DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(node):
    """How often each identifier is read below a node: (attribute reads
    x.name, name reads)."""
    attrs, names = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            attrs[n.attr] += 1
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
    return attrs, names


def reads(counts, name, method):
    """A method is reached only as an attribute; a function or class also
    by its name."""
    attrs, names = counts
    return attrs[name] + (0 if method else names[name])


def unreached():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    everywhere = [sum(counts, Counter())
                  for counts in zip(*map(references, trees))]
    for tree in trees:
        methods = {id(d) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for d in c.body if isinstance(d, DEFINITION)}
        for node in ast.walk(tree):
            name = getattr(node, "name", "")
            method = id(node) in methods
            if (isinstance(node, DEFINITION)
                    and not (name.startswith("__") and name.endswith("__"))
                    and reads(everywhere, name, method)
                    == reads(references(node), name, method)):
                yield name


def test_no_definition_is_unreached():
    assert sorted(unreached()) == sorted(ALLOWED)


def unread_imports():
    """module.name for each name a module other than __init__.py imports
    (at any depth) and never reads."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        names = references(tree)[1]
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", "") != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if not names[name]:
                        yield f"{path.stem}.{name}"


def test_every_import_is_read():
    assert list(unread_imports()) == []


def test_no_handle_field_is_assigned_after_construction():
    # a renamed or bounded handle is a dataclasses.replace copy; only a
    # class's own methods assign through self
    public = {f.name for f in dataclasses.fields(GroupHandle)
              if not f.name.startswith("_")}
    found = [f"{path.name}:{a.lineno} .{a.attr}"
             for path in sorted(SRC.glob("*.py"))
             for a in ast.walk(ast.parse(path.read_text()))
             if isinstance(a, ast.Attribute) and isinstance(a.ctx, ast.Store)
             and a.attr in public
             and not (isinstance(a.value, ast.Name) and a.value.id == "self")]
    assert found == []


def to_perm_callers(node, scope):
    """The dotted name of the innermost definition around each call of
    .to_perm( below a node."""
    for child in ast.iter_child_nodes(node):
        inner = scope + [child.name] if isinstance(child, DEFINITION) else scope
        if (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "to_perm"):
            yield ".".join(inner)
        yield from to_perm_callers(child, inner)


def test_only_generators_and_the_identity_are_converted():
    # elements reach the image one at a time only as a handle's
    # generators, converted once, and the degree is read off their image,
    # not the identity's; normal_closure's seed is kept for
    # perfbench/spans.py, which wraps it by name
    found = {caller for path in sorted(SRC.glob("*.py"))
             for caller in to_perm_callers(ast.parse(path.read_text()),
                                           [path.stem])}
    assert found == {"grp.GroupHandle.perm_generators", "grp.normal_closure"}


TRACED_RUN = """
from spans import Tracer, install
install(Tracer())
from solvlen import atlas, grp
from solvlen.cli import build_report
build_report("extraspecial(3,1)")
build_report("prop8(7)", run_checks=False)
build_report("gsp(gl(2,3),3,1)", run_checks=False)
build_report("bo()")
grp.center(atlas.extraspecial(3, 1)).element_set()
"""


def test_traced_benchmark_installs_on_src():
    # perfbench/spans.py wraps src/ names (those in ALLOWED among them),
    # reads SubgroupHandle._elem_set and unpacks _closure's four
    # positional arguments; perfbench's own tests are not in this suite
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

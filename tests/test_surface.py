"""Every function, class and method in the package has a caller outside
the tests: in the package itself, the tools, the demos, the benchmark
or the README's code.  A member only tests use belongs in the tests."""

import ast
import re
from pathlib import Path

import tilingspectra

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tilingspectra"

# argparse calls these overrides of _Parser
ARGPARSE_OVERRIDES = {"print_help", "error"}


def defined_names(tree):
    """(name, qualified name) of each module-level def and class and of
    each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, f"{node.name}.{item.name}"


class References(ast.NodeVisitor):
    """Identifiers a module uses, each with the qualified name, as
    `defined_names` gives it, of the def it sits in (None at module
    level), so a body's mention of its own name does not count."""

    def __init__(self):
        self.found = set()  # (identifier, enclosing qualified name)
        self._owner = None
        self._in_class = False

    def _enter(self, node, owner, in_class):
        saved = self._owner, self._in_class
        self._owner, self._in_class = owner, in_class
        self.generic_visit(node)
        self._owner, self._in_class = saved

    def visit_ClassDef(self, node):
        self._enter(node, self._owner or node.name, self._owner is None)

    def visit_FunctionDef(self, node):
        if self._owner is None:
            owner = node.name
        elif self._in_class:
            owner = f"{self._owner}.{node.name}"
        else:  # a def nested in a function belongs to that function
            owner = self._owner
        self._enter(node, owner, False)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _add(self, ident):
        self.found.add((ident, self._owner))

    def visit_Name(self, node):
        self._add(node.id)

    def visit_Attribute(self, node):
        self._add(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._add(node.name.rsplit(".", 1)[-1])


def traced_names():
    """The attributes perfbench/tracer.py wraps, by their last part."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("TIMED", "COUNTED") for t in node.targets
        ):
            for entry in ast.literal_eval(node.value):
                names.add(entry[1].rsplit(".", 1)[-1])
    return names


def readme_code_names():
    """Identifiers inside the README's fenced blocks and code spans: a
    word of its prose is no caller."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return set(re.findall(r"[A-Za-z_]\w*", "\n".join(code)))


def test_tracer_tables_are_read():
    assert {"cli_dispatch", "grow", "kenyon_basis", "__mul__"} <= traced_names()


def test_every_member_has_a_caller_outside_the_tests():
    sources = sorted(PACKAGE.glob("*.py"))
    callers = [*sources, *(ROOT / "tools").glob("*.py"), *(ROOT / "demos").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    refs = References()
    for path in callers:
        refs.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    readme = readme_code_names()
    allowed = set(tilingspectra.__all__) | ARGPARSE_OVERRIDES | traced_names()
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, qualified in defined_names(tree):
            if name in allowed or name in readme or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(ident == name and owner != qualified for ident, owner in refs.found):
                unused.append(f"{path.stem}.{qualified}")
    assert not unused, f"no caller outside the tests: {unused}"

"""Every public name has a caller: each name in a layer module's ``__all__``
is read somewhere in the package outside its own definition, or by the
acceptance suite or the spin oracles."""

import ast
from pathlib import Path

import fieldcycle

PACKAGE = Path(fieldcycle.__file__).parent
TESTS = Path(__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names_read(tree, skip=None):
    """Names and attributes read in ``tree``, outside the node ``skip``."""
    stack, found = [tree], set()
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_public_name_has_a_caller():
    trees = {p: _tree(p) for p in MODULES}
    outside = set()  # names read by the acceptance suite and the oracles
    for name in ("test_acceptance.py", "oracles.py"):
        outside |= _names_read(_tree(TESTS / name))
    unused = []
    for path, tree in trees.items():
        defs = {n.name: n for n in tree.body
                if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        for name in _exports(tree):
            if name in outside:
                continue
            if not any(name in _names_read(t, defs.get(name) if p == path else None)
                       for p, t in trees.items()):
                unused.append(f"{path.stem}.{name}")
    assert unused == []


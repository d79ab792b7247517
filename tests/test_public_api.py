"""Every public name and parameter has a caller: each name in a layer
module's ``__all__``, and each defaulted parameter of an exported function
or of a public method of an exported class, is used somewhere in the
package outside its own definition, or by the acceptance suite or the spin
oracles."""

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


def _defaulted(fn, method):
    """(index, name) of ``fn``'s defaulted parameters, where index is the
    position a call site passes it at (None for keyword-only)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    offset = 1 if method else 0  # self
    out = [(i - offset, a.arg) for i, a in enumerate(positional) if i >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def _public_functions(tree):
    """(qualified name, def, is a method) of each exported function and each
    public method of an exported class."""
    exported = set(_exports(tree))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in exported:
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and node.name in exported:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def _sets(call, index, name):
    """True when ``call`` may pass the parameter ``name`` at ``index``."""
    if any(k.arg in (name, None) for k in call.keywords):  # None: **kwargs
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def _calls(tree, name, skip):
    """Calls of ``name``, bare or as an attribute, outside the node ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_every_defaulted_parameter_has_a_caller():
    """Each defaulted parameter of a public function is passed, by keyword
    or by position, outside the function's own body: in the package, the
    acceptance suite or the oracles.  A parameter only other tests set is a
    setting no user reaches."""
    trees = {p: _tree(p) for p in MODULES}
    callers = list(trees.values())
    callers += [_tree(TESTS / n) for n in ("test_acceptance.py", "oracles.py")]
    unused = []
    for path, tree in trees.items():
        for qual, fn, method in _public_functions(tree):
            for index, name in _defaulted(fn, method):
                if not any(_sets(c, index, name)
                           for t in callers for c in _calls(t, fn.name, fn)):
                    unused.append(f"{path.stem}.{qual}({name})")
    assert unused == []


def _is_frozen_dataclass(node):
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               and any(k.arg == "frozen" and getattr(k.value, "value", False)
                       for k in d.keywords)
               for d in node.decorator_list)


def _init_fields(cls):
    """(name, has a default) of the init fields of a dataclass body."""
    for item in cls.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            value = item.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
                kw = {k.arg: k.value for k in value.keywords}
                if getattr(kw.get("init"), "value", True) is False:
                    continue
                yield item.target.id, "default" in kw or "default_factory" in kw
            else:
                yield item.target.id, value is not None


def _field_setters(tree, cls_name, names):
    """The fields among ``names`` that ``tree`` sets: passed to ``cls_name``
    or by keyword to ``replace``, named as a string, or all of them when an
    instance is ``_layer``'s base without ``keys``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in names:
            found.add(node.value)
        if not isinstance(node, ast.Call):
            continue
        func = getattr(node.func, "id", getattr(node.func, "attr", None))
        keywords = {k.arg for k in node.keywords}
        if func == cls_name:
            found |= keywords | set(names[:len(node.args)])
        elif func == "replace":
            found |= keywords
        if (func == "_layer" and node.args and len(node.args) < 4
                and "keys" not in keywords and isinstance(node.args[0], ast.Call)
                and cls_name in (getattr(node.args[0].func, "id", None),
                                 getattr(node.args[0].func, "attr", None))):
            found |= set(names)
    return found & set(names)


def test_every_defaulted_field_has_a_setter():
    """Each defaulted init field of an exported frozen dataclass is set in
    the package, the acceptance suite or the oracles: by keyword or position
    to the class or to ``dataclasses.replace``, as a string key, or through
    ``orchestrator._layer`` reading every field from the spec.  A field only
    other tests set is a setting no user reaches."""
    trees = {p: _tree(p) for p in MODULES}
    callers = list(trees.values())
    callers += [_tree(TESTS / n) for n in ("test_acceptance.py", "oracles.py")]
    unset = []
    for path, tree in trees.items():
        exported = set(_exports(tree))
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in exported
                    and _is_frozen_dataclass(cls)):
                continue
            fields = list(_init_fields(cls))
            names = [n for n, _ in fields]
            set_ = set().union(*(_field_setters(t, cls.name, names) for t in callers))
            unset += [f"{path.stem}.{cls.name}.{n}" for n, has_default in fields
                      if has_default and n not in set_]
    assert unset == []

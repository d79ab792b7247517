"""Line count and settable-value count of a source tree.

Usage: python3 tools/design_counts.py <src-dir>

Reads every ``*.py`` file under <src-dir> (for this repository, ``src``)
and prints two lines:

    lines 2856
    settable 167 (fields 127, public 32, private 8)

``lines`` counts the lines of the Python files.  ``settable`` counts the
values a caller can set, by AST:

- fields: annotated names in the body of a class decorated ``@dataclass``
  (bare or called);
- public: defaulted parameters (positional or keyword-only) of functions
  and methods whose name does not start with ``_``, dunders included;
- private: defaulted parameters of the other functions (``_name``).

Run it on two trees to compare a change with its parent.  It uses only the
standard library.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def counts(src: Path) -> dict:
    lines = fields = public = private = 0
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(s, ast.AnnAssign)
                              and isinstance(s.target, ast.Name)
                              for s in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                n = len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    private += n
                else:
                    public += n
    return {"lines": lines, "fields": fields, "public": public,
            "private": private}


def main(argv) -> int:
    if len(argv) != 2 or not Path(argv[1]).is_dir():
        print("usage: python3 tools/design_counts.py <src-dir>", file=sys.stderr)
        return 2
    c = counts(Path(argv[1]))
    print(f"lines {c['lines']}")
    print(f"settable {c['fields'] + c['public'] + c['private']} "
          f"(fields {c['fields']}, public {c['public']}, "
          f"private {c['private']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

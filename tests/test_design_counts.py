import importlib.util
import textwrap
from pathlib import Path


def _design_counts():
    path = Path(__file__).parents[1] / "tools" / "design_counts.py"
    spec = importlib.util.spec_from_file_location("design_counts", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


# 5 fields (x, y, u, and N's p and r; Z is not annotated and C is neither
# a dataclass nor a NamedTuple), 3 public defaults (b, c and __init__'s k)
# and 3 private ones (_g's a, b and _h's q) in 38 lines
MODULE = textwrap.dedent('''\
    import dataclasses
    import typing
    from dataclasses import dataclass


    @dataclass
    class A:
        x: int
        y: float = 1.0
        Z = 3


    @dataclasses.dataclass(frozen=True)
    class B:
        u: int


    class N(typing.NamedTuple):
        p: int
        r: str = ""


    class C:
        v: int = 0

        def __init__(self, k=0):
            pass

        def _h(self, q=1):
            pass


    def f(a, b=1, *, c=2, d):
        pass


    def _g(a=1, b=2):
        pass
''')


def test_counts_lines_fields_and_defaults_of_a_tree(tmp_path, capsys):
    tool = _design_counts()
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    # 5 lines and one more public default
    (tmp_path / "pkg" / "sub" / "b.py").write_text("X = 1\n\n\ndef h(z=None):\n"
                                                  "    return z\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n" * 50)
    assert tool.main(["design_counts.py", str(tmp_path)]) == 0
    assert len(MODULE.splitlines()) == 38
    assert capsys.readouterr().out.splitlines() == [
        "lines 43",
        "settable 12 (fields 5, public 4, private 3)"]


def test_rejects_a_path_that_is_not_a_directory(tmp_path, capsys):
    tool = _design_counts()
    assert tool.main(["design_counts.py", str(tmp_path / "missing")]) == 2
    assert capsys.readouterr().err.startswith("usage: ")

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "horadam"


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # silently stops running; the library raises instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SRC.is_dir() and not found, found

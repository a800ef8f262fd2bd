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


def test_readme_quick_start_runs():
    # the README's library example names only API that exists and gives
    # the values it states
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    fib, U = namespace["fib"], namespace["SequenceKind"].U
    assert namespace["term"](fib, U, 10) == 55

import ast
import functools
import importlib
import importlib.util
import pathlib
import re
import types

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "horadam"


def test_one_term_cache():
    # the term layer caches in one dict type, each kind's run of terms; a
    # q-power is computed from q, not cached
    subclasses = [(path.name, node.name)
                  for path in sorted(SRC.glob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.ClassDef)
                  and any(getattr(base, "id", None) == "dict" for base in node.bases)]
    assert subclasses == [("sequences.py", "_Run")], subclasses


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # silently stops running; the library raises instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SRC.is_dir() and not found, found


def test_catalog_has_no_lambda():
    # every derivation record is formula-grammar text, compiled on first use
    tree = ast.parse((SRC / "catalog.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Lambda)]
    assert not found, found


def test_one_code_emitter():
    # generated source becomes a function in one place: nothing calls eval,
    # and exec is called once, inside formula._define
    calls = [(path.name, getattr(top, "name", None), node.func.id)
             for path in sorted(SRC.glob("*.py"))
             for top in ast.parse(path.read_text(encoding="utf-8")).body
             for node in ast.walk(top)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("eval", "exec")]
    assert calls == [("formula.py", "_define", "exec")], calls


def _imports(path):
    """The modules a source file imports, `from .x import` as x."""
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    return ({alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
            | {node.module for node in nodes if isinstance(node, ast.ImportFrom)})


def test_one_grammar_reader():
    # the formula grammar is read in formula.py alone: only it parses with
    # ast, only it and field.py (rational literals) use re, and theorems
    # reaches the grammar through formula, not through catalog
    imports = {path.name: _imports(path) for path in sorted(SRC.glob("*.py"))}
    assert [name for name, found in imports.items() if "ast" in found] == ["formula.py"]
    assert [name for name, found in imports.items() if "re" in found] == [
        "field.py", "formula.py"]
    assert "catalog" not in imports["theorems.py"]
    for name in ("catalog.py", "theorems.py"):
        assert '.replace("w("' not in (SRC / name).read_text(encoding="utf-8"), name


def test_readme_module_references_resolve():
    # every backticked `module.name` in the README names an attribute that
    # exists, so a removed helper cannot stay documented
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    refs = set(re.findall(r"`(catalog|formula|sequences|theorems|lemmas|field|cli|bench)\.([\w.]+)",
                          readme))
    missing = []
    for module, path in sorted(ref for ref in refs if ref[1] != "py"):   # skip file names
        obj = importlib.import_module(f"horadam.{module}")
        for name in path.split("."):
            if not hasattr(obj, name):
                missing.append(f"{module}.{path}")
                break
            obj = getattr(obj, name)
    assert refs and not missing, missing


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


def test_one_option_table():
    # every option string in cli.py is an argument of an add_argument call,
    # so the parser that build_parser declares is the only list of options
    # (the direct parse reads its actions) and no second one can appear
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    declared = {id(arg) for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
                for arg in node.args}
    options = [node for node in ast.walk(tree) if isinstance(node, ast.Constant)
               and isinstance(node.value, str) and re.fullmatch(r"--\w[\w-]*", node.value)]
    stray = [(node.lineno, node.value) for node in options if id(node) not in declared]
    assert len(options) > 20 and not stray, stray


def test_two_parse_routes():
    # main reads an argv by the direct parse or by parse_args: parse_args is
    # called once, inside main, and parse_known_args nowhere in cli.py, so
    # no third route can come back unnoticed
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    calls = [(getattr(top, "name", None), node.func.attr)
             for top in tree.body for node in ast.walk(top)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) in ("parse_args", "parse_known_args")]
    assert calls == [("main", "parse_args")], calls


def test_one_compile_per_record_and_field():
    # a theorem form compiles its operator code (`values`) and its pair code
    # (`pairs`); a relation, a plain record the form holds, compiles the
    # same two, its shape and its guards; each member on its own first read,
    # so a field compiles only the code it runs. The formula module keeps no
    # per-side compile helper. So a third per-field compile cannot come back
    # unnoticed
    from horadam import formula, theorems

    def first_use(cls):
        return {name for name, member in vars(cls).items()
                if isinstance(member, functools.cached_property)}
    assert first_use(theorems._Form) == {"values", "pairs"}
    assert first_use(theorems._Relation) == {"values", "pairs", "shape", "guards"}
    assert not [name for name in ("compile_side", "compile_pair_sides") if hasattr(formula, name)]


def test_relation_code_holds_no_closure():
    # a relation's X and Y name a sequence and its d holds Y's offset, so no
    # compiled member writes a lambda: shape returns the accessor's own
    # members, and values, pairs and the guards' index functions nest no code
    from horadam import theorems
    for text in {form.relation.text for form in theorems._FORMS.values()}:
        relation = theorems._Relation(text)
        compiled = [relation.values, relation.pairs, relation.shape,
                    *(index for _, index in relation.guards)]
        nested = [f.__name__ for f in compiled
                  if any(isinstance(x, types.CodeType) for x in f.__code__.co_consts)]
        assert not nested, (text, nested)


def test_no_hand_written_lemma_sum():
    # the lemma engine's sides are grammar texts, compiled by `formula`: its
    # module calls neither sum nor gcd, imports neither ratio_sum nor
    # binomial, and each variant's left side is a text
    from horadam import lemmas
    tree = ast.parse((SRC / "lemmas.py").read_text(encoding="utf-8"))
    calls = [node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("sum", "gcd")]
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name in ("ratio_sum", "binomial", "gcd")]
    assert not calls and not imported, (calls, imported)
    assert all(type(left_side) is str for left_side, _, _ in lemmas._VARIANTS.values())


def _names_modint(node):
    return any(getattr(n, "id", getattr(n, "attr", None)) == "ModInt" for n in ast.walk(node))


def test_only_the_input_check_probes_for_modint():
    # the field is named once, by HoradamParams.modulus; outside field.py the
    # scalar type is asked only where an input is checked: the parameters in
    # sequences._coerce and the lemma coefficients in RecurrenceConfig
    probes = [(path.name, getattr(top, "name", None), node.lineno)
              for path in sorted(SRC.glob("*.py")) if path.name != "field.py"
              for top in ast.parse(path.read_text(encoding="utf-8")).body
              for node in ast.walk(top)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
              and len(node.args) == 2 and _names_modint(node.args[1])]
    assert [probe[:2] for probe in probes] == [("lemmas.py", "RecurrenceConfig"),
                                               ("sequences.py", "_coerce")], probes


def test_benchmark_layer_bindings_resolve():
    # perfbench/layers.py rebinds library names (among them the public lemma
    # functions on horadam.theorems) by attribute; one removed or renamed
    # fails here rather than only in the benchmark's traced run
    path = SRC.parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    with layers.traced(layers.Tracer()):
        pass


# names with no code use in src/horadam that stay, each with its reason
CENSUS_ALLOWLIST = {
    "field.ratio_sum": "the tests' reference for the pair compiler's sum loop",
    "catalog.base_assignment": "called by the tests; the derivation map of ROADMAP item 6",
    "cli.fast_uv": "perfbench/layers.py rebinds cli.fast_uv by name",
    "theorems.lemma1_sum": "perfbench/layers.py rebinds it on theorems by name",
    "theorems.lemma2_sums": "perfbench/layers.py rebinds it on theorems by name",
    "theorems.lemma3_binomial_sums": "perfbench/layers.py rebinds it on theorems by name",
    "theorems.lemma45_reciprocal": "perfbench/layers.py rebinds it on theorems by name",
}


def _unused_names():
    """`module.name` (`module.Class.method` for a method) for each
    module-level function, class or assignment, and each method other than a
    dunder, in src/horadam that no code there reads and `horadam/__init__`
    does not export (a public method of an exported class counts as
    exported), and for each name a module imports and never reads."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    exported = {alias.asname or alias.name for node in trees.pop("__init__").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    reads = {module: {node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
             | {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
             for module, tree in trees.items()}
    read_anywhere = set().union(*reads.values())
    unused = []
    for module, tree in trees.items():
        for top in tree.body:
            defined = []
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append((top.name, top.name in exported))
            if isinstance(top, ast.ClassDef):
                defined += [(f"{top.name}.{member.name}",
                             top.name in exported and not member.name.startswith("_"))
                            for member in top.body if isinstance(member, ast.FunctionDef)
                            and not (member.name.startswith("__") and member.name.endswith("__"))]
            if isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                defined += [(node.id, node.id in exported) for target in targets
                            for node in ast.walk(target) if isinstance(node, ast.Name)]
            unused += [f"{module}.{name}" for name, public in defined
                       if not public and name.rsplit(".", 1)[-1] not in read_anywhere]
            if isinstance(top, (ast.Import, ast.ImportFrom)) and getattr(top, "module", "") != "__future__":
                unused += [f"{module}.{name}" for name in
                           ((alias.asname or alias.name).split(".")[0] for alias in top.names)
                           if name not in reads[module]]
    return unused


def test_every_name_has_a_caller():
    # a function, class, method, assignment or import that nothing reads is
    # dead unless it is exported or allowlisted with its reason; the
    # allowlist holds exactly what the census finds, so an entry whose name
    # gains a caller or goes is dropped with it
    assert sorted(_unused_names()) == sorted(CENSUS_ALLOWLIST)


def test_one_admission_path():
    # a theorem draw is admitted in one place: theorem_sum and the scan each
    # call theorems._admit once, and the stride check lives at the head of
    # the denominator window that the lemma leg and the scan both read
    def calls(path, name):
        return [(getattr(top, "name", None), node.func.id)
                for top in ast.parse((SRC / path).read_text(encoding="utf-8")).body
                for node in ast.walk(top)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name]
    assert sorted(calls("theorems.py", "_admit")) == [("singularity_scan", "_admit"),
                                                      ("theorem_sum", "_admit")]
    assert calls("lemmas.py", "DegenerateStride") == [("_denominator_window", "DegenerateStride")]

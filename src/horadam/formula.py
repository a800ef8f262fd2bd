"""The formula grammar, read in this module alone, and the code compiled
from it.

Formula grammar: u(e), v(e), w(e) are terms at an integer index expression
e; p, q, a, b are the parameters; the lemma engine's texts (`lemmas`) read
the terms X(e), Y(e) and the coefficients h, f1, f2 of its relation instead
(one member table, `_INDEXED` and `_SCALARS`); `^` is a power and `q^e` or
`q^(e)` reads the accessor's q-power qp(e), with one level of parentheses
inside (`q^((r-s)(k-j))`); a digit or a `)` before a letter or a parenthesis
multiplies (`2n`, `2(n+r)`, `4q`, `(r-s)k`, `(r-s)(k+1)`), and nothing else
does (`c*e`, not `ce`); `C(k,j)` is the binomial coefficient;
`sum_{j=0}^{k} S` is the sum of S over j = 0..k, and its summand S runs to
the end of its side, so a factor before `sum` multiplies the whole sum.
Text after ` # ` is a note, displayed but not evaluated. The catalog
(`catalog`), the summation theorems (`theorems`) and the lemma engine
compile their texts on first use (a displayed form side by side, `sides`),
on the operators with `compile_expression` or `compile_tuple`, which
translates each text on its own. The pair compiler (`compile_pairs`), which
computes on the checkers' unreduced `(n, d)` tuples for `fuzz` and for all
three theorem legs over Q, takes the grammar but for a few constructs: a
sum is a loop into one pair, `C(k,j)` an int factor, `/` a swapped pair,
and an index exponent (`(-1)^j`, `u(m-s)^(k-j)`) a power taken at run
time; it rejects a negative literal exponent, one that is not an index, a
variable used as a value (`n*u(n)`, which `compile_expression` evaluates),
and a sum whose index is one of the formula's variables; `fuzz` refuses an
entry it rejects.
Derivation records and relations hold `name=expr, ...` lists
(`assignments`), and are compiled on first use too.
"""
from __future__ import annotations

import ast
import re
from math import gcd
from typing import Callable, Optional

from .errors import HoradamError
from .field import binomial

_DERIVATION = re.compile(r"(\S+)(?: at (\w+=[^ ,=]+(?:, \w+=[^ ,=]+)*))?(?: as ([uv]))?")
# the accessor's members: the indexed reads (q^e reads qp(e)), then the scalars
_INDEXED = ("u", "v", "w", "qp", "X", "Y")
_SCALARS = ("p", "q", "a", "b", "h", "f1", "f2")
_MEMBER = "|".join((*_INDEXED, *_SCALARS))


def _python(side: str) -> str:
    """Formula-grammar text as a Python expression over the accessor `t`
    (the index variable t is renamed t_)."""
    side = re.sub(r"sum_\{(\w)=0\}\^\{(\w)\} (.*)", r"sum(\3 for \1 in range(\2+1))", side)
    side = re.sub(r"([\d)])([a-z(])", r"\1*\2", side)    # 2n, 2(n+r), 4q, (r-s)k
    side = re.sub(r"\bq\^(?:\(((?:[^()]|\([^()]*\))*)\)|([a-z]))", r"qp(\1\2)", side)
    side = re.sub(r"\bC\(", "binomial(", side.replace("^", "**"))
    side = re.sub(r"\bt\b", "t_", side)
    return re.sub(rf"\b({_MEMBER})\b", r"t.\1", side)


def _names(variables) -> list:
    """The variables' names in compiled code: t names the accessor, so the
    index variable t is t_."""
    return ["t_" if v == "t" else v for v in variables]


def sides(formula) -> list:
    """The two side texts of a displayed formula `lhs = rhs # note`."""
    return formula.partition(" # ")[0].split(" = ")


def reads(text) -> list:
    """(member, index) of each term read of a grammar text, side by side in
    source order: e's `_python` text for an indexed read (`_INDEXED`: u(e),
    X(e), q^e as member qp), None for a scalar (`_SCALARS`: p, h, f1)."""
    found = []
    for side in map(_python, sides(text)):
        at = []     # (column, member, index)
        for node in ast.walk(ast.parse(side, mode="eval")):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                e = node.args[0]
                at.append((node.col_offset, node.func.attr, side[e.col_offset:e.end_col_offset]))
            elif isinstance(node, ast.Attribute) and node.attr in _SCALARS:
                at.append((node.col_offset, node.attr, None))
        found += [read[1:] for read in sorted(at)]
    return found


def assignments(text) -> dict:
    """name -> expression text of a `name=expr, ...` list; ValueError naming
    a name the list assigns twice."""
    found = {}
    for name, expr in (item.split("=") for item in text.split(", ") if item):
        if name in found:
            raise ValueError(f"{text!r} assigns {name} twice")
        found[name] = expr
    return found


def derivation(text) -> Optional[tuple]:
    """(base, `assignments` of its map, "u", "v" or None) of a derivation
    record `<base>[ at <var>=<expr>, ...][ as u|v]`; None for another text."""
    match = _DERIVATION.fullmatch(text)
    return match and (match[1], assignments(match[2] or ""), match[3])


def as_kind(text, kind) -> str:
    """A grammar text with w read as the sequence `kind` ("u", "v" or "w")."""
    return text.replace("w(", f"{kind}(")


def compile_expression(variables, text) -> Callable:
    """An expression in the formula grammar as a function of the accessor and
    the variables, in order: `_define` of `return <_python text>`, whose
    term reads stay `t.u(e)` calls on the accessor."""
    return _define("expression", variables, [f"return {_python(text)}"])


def compile_tuple(variables, texts) -> Callable:
    """`compile_expression` for the tuple of several texts' values, each text
    translated on its own, so that a sum's summand ends with its own text."""
    values = "".join(f"{_python(text)}, " for text in texts)
    return _define("expression", variables, [f"return ({values})"])


def _times(x, y):
    """The source of x*y, where None stands for 1."""
    return y if x is None else x if y is None else f"({x} * {y})"


def _index(node) -> bool:
    """True for a non-literal integer expression over the variables: names
    other than the accessor, int literals, +, -, * and unary -."""
    nodes = list(ast.walk(node))
    return any(isinstance(x, ast.Name) for x in nodes) and all(
        isinstance(x, (ast.BinOp, ast.UnaryOp, ast.Add, ast.Sub, ast.Mult, ast.USub, ast.Load))
        or isinstance(x, ast.Name) and x.id != "t"
        or isinstance(x, ast.Constant) and type(x.value) is int for x in nodes)


def _pair_lines(key, variables, texts) -> tuple:
    """(lines, (n1, d1), (n2, d2), ...): the statements that evaluate the
    grammar texts `texts` on integer pairs, on an accessor whose values are
    all `(n, d)` tuples, and each text's numerator and denominator source
    (None for denominator 1). A displayed formula's two sides (`sides`) are
    equal when n1*d2 == n2*d1.

    Built from each text's `_python` text through `ast`. Every term read
    (t.u(e), t.qp(e), t.X(e), t.p, t.h, ...: a member of `_INDEXED` or
    `_SCALARS`) stays an accessor read, of the member that `_define`
    fetches into a local (`_u(e)`, `_q`), unpacked into two locals
    (`_3n, _3d = _u(e)`), in the order the operator compile of the texts,
    one after another, makes them, but for a read in a sum whose index does
    not mention the sum's index: that one is made once, before the loop (a
    read never raises, and the loop runs at least once). The arithmetic is
    integer arithmetic on the pairs' n and d:
      - +, -, unary - and * take no gcd: a*b is (na*nb, da*db) and a-b is
        (na*db - nb*da, da*db);
      - ** to a non-negative integer literal raises n and d; ** to an index
        expression (`(-1)^n`, `u(m-s)^(k+1)`) does the same at run time,
        and raises ValueError for a negative exponent, which the operator
        sides would take as a reciprocal; inside a sum over j = 0..k the
        exponents j and k-j cannot be negative, and are not checked;
      - a/b is a times b's pair swapped, and raises ZeroDivisionError when
        b's numerator is 0;
      - C(k,j) is an int factor;
      - `sum_{j=0}^{k} S` is a loop over j that adds each summand into one
        pair by `field.ratio_sum`'s rule, the gcd of the denominators and
        then of the result, without which telescoping sums grow without
        bound.
    Each text keeps its own pair, built from its terms' own denominators.
    ValueError naming the entry for any other node: another exponent,
    another call, a variable used as a value (`n*u(n)`; the operator code
    evaluates it), or a sum whose index is one of the variables.
    """
    lines = []
    indent = ""
    # inside a sum: its index, the line before which a read that does not
    # mention it is taken, once, and the exponents that cannot be negative
    # there (j and k-j in a loop over j = 0..k)
    inside, hoist, nonnegative = None, 0, ()

    def local(expr):
        """A new local bound to `expr`."""
        lines.append(f"{indent}_{len(lines)} = {expr}")
        return f"_{len(lines) - 1}"

    def name(expr):
        """`expr`, bound to a new local unless it is a name already."""
        if expr.isidentifier() or expr.isdigit():
            return expr
        return local(expr)

    def pair(node, text):
        """(numerator, denominator) source of `node` of the Python `text`;
        None for denominator 1."""
        nonlocal indent, inside, hoist, nonnegative
        source = text[node.col_offset:node.end_col_offset]
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return repr(node.value), None
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            n, d = pair(node.operand, text)
            return f"(-{n})", d
        op = isinstance(node, ast.BinOp) and type(node.op)
        e = node.right if op is ast.Pow else None
        if isinstance(e, ast.Constant) and type(e.value) is int and e.value >= 0:
            n, d = pair(node.left, text)
            return f"({n}) ** {e.value}", d and f"({d}) ** {e.value}"
        if e is not None and _index(e):
            n, d = pair(node.left, text)
            exponent = text[e.col_offset:e.end_col_offset]
            e = name(exponent)
            if exponent not in nonnegative:
                message = f"{key}: a negative exponent in {source}: "
                lines.append(f"{indent}if {e} < 0: raise ValueError({message!r} + str({e}))")
            return f"({n}) ** {e}", d and f"({d}) ** {e}"
        if op is ast.Mult:
            (na, da), (nb, db) = pair(node.left, text), pair(node.right, text)
            return _times(na, nb), _times(da, db)
        if op is ast.Div:
            # the product with the divisor's pair swapped
            (na, da), (nb, db) = pair(node.left, text), pair(node.right, text)
            nb = name(nb)
            lines.append(f"{indent}if not {nb}: raise ZeroDivisionError('division by zero')")
            return _times(na, db), _times(da, nb)
        if op in (ast.Add, ast.Sub):
            (na, da), (nb, db) = pair(node.left, text), pair(node.right, text)
            da, db = da and name(da), db and name(db)
            sign = "+" if op is ast.Add else "-"
            return f"({_times(na, db)} {sign} {_times(nb, da)})", _times(da, db)
        call = isinstance(node, ast.Call) and not node.keywords and node.func
        if isinstance(call, ast.Name) and call.id == "binomial":
            return source, None
        loop = (isinstance(call, ast.Name) and call.id == "sum"
                and isinstance(node.args[0], ast.GeneratorExp) and node.args[0].generators[0])
        # the loop rebinds its index in the function's scope, where a variable
        # of that name would be read after it
        if loop and loop.target.id not in variables:
            # a loop adding each summand into one pair by ratio_sum's two gcds
            n, d = local(0), local(1)
            inside, hoist = loop.target.id, len(lines)
            bound = loop.iter.args[0].left      # range(k+1)'s k
            nonnegative = {inside, f"{text[bound.col_offset:bound.end_col_offset]}-{inside}"}
            lines.append(f"{indent}for {text[loop.target.col_offset:loop.iter.end_col_offset]}:")
            indent += "    "
            sn, sd = pair(node.args[0].elt, text)
            sd = name(sd or "1")
            g = local(f"gcd({d}, {sd})")
            s = local(f"{d} // {g}")
            total = local(f"{n} * ({sd} // {g}) + {sn} * {s}")
            lines.append(f"{indent}{g} = gcd({total}, {g})")
            lines.append(f"{indent}{n}, {d} = {total} // {g}, {s} * ({sd} // {g})")
            indent, inside, nonnegative = indent[:-4], None, ()
            return n, d
        if (isinstance(node, ast.Attribute) and node.attr in _SCALARS
                or isinstance(call, ast.Attribute) and call.attr in _INDEXED
                and len(node.args) == 1):
            read = node if isinstance(node, ast.Attribute) else call
            if isinstance(read.value, ast.Name) and read.value.id == "t":
                n, d = f"_{len(lines)}n", f"_{len(lines)}d"
                if inside and not any(isinstance(x, ast.Name) and x.id == inside
                                      for x in ast.walk(node)):
                    # a read never raises, and the loop runs at least once
                    lines.insert(hoist, f"{indent[:-4]}{n}, {d} = _{source[2:]}")
                    hoist += 1
                else:
                    lines.append(f"{indent}{n}, {d} = _{source[2:]}")
                return n, d
        raise ValueError(f"{key}: the pair compiler cannot compile {source!r}; it takes "
                         "term reads, scalars (p, q, a, b, h, f1, f2), integer literals, C(k,j), "
                         "sums, +, -, *, /, "
                         "and ** to a non-negative integer literal or to an index expression")

    pairs = [pair(ast.parse(text, mode="eval").body, text) for text in map(_python, texts)]
    return lines, *pairs


def _define(name, variables, lines) -> Callable:
    """The function `name` of the accessor `t` and the variables with body
    `lines`, which may read `binomial`, `gcd` and `HoradamError`; a body's
    `_u`, `_qp`, `_p`, `_X`, `_f1`, ... (`_` and a member of `_INDEXED` or
    `_SCALARS`) are the accessor's members, fetched into locals first. The
    package's one `exec`, reached only by its constant formulas."""
    members = sorted(set(re.findall(rf"\b_({_MEMBER})\b", "\n".join(lines))))
    lines = [*(f"_{m} = t.{m}" for m in members), *lines]
    namespace = {"binomial": binomial, "gcd": gcd, "HoradamError": HoradamError}
    exec("".join([f"def {name}({', '.join(['t', *_names(variables)])}):",
                  *(f"\n    {line}" for line in lines)]), namespace)
    return namespace[name]


def compile_pairs(key, variables, texts) -> Callable:
    """Grammar texts as integer pairs (`_pair_lines`): one function, `sides`,
    of the accessor and the variables that returns (n1, d1, n2, d2, ...),
    text i's value being ni/di."""
    lines, *pairs = _pair_lines(key, variables, texts)
    values = ", ".join(f"{n}, {d or 1}" for n, d in pairs)
    return _define("sides", variables, [*lines, f"return {values}"])


def compile_trial_chunk(idents) -> Callable:
    """The verdicts of several entries as one function of the accessor and
    `drawn`, the entries' values one after another, each entry's in
    `variables` order; it returns a tuple of bools, in entry order.

    Entry after entry, the function binds the entry's variables from `drawn`,
    runs its `_pair_lines` statements and stores `ln*rd == rn*ld`, each inside
    its own `try`, so a `HoradamError` fails that entry alone and the later
    ones are still decided. The term reads are those of the entry's `lhs`
    then `rhs`, in the same order (the registry holds no sum, the one place
    where `_pair_lines` moves a read). A formula `_pair_lines` rejects (none
    in the registry) raises its ValueError, which names the entry.
    """
    body, verdicts, start = [], [], 0
    for i, ident in enumerate(idents):
        names = _names(ident.variables)
        body += [f"{name} = drawn[{start + j}]" for j, name in enumerate(names)]
        start += len(names)
        verdict = f"_ok{i}"
        lines, (ln, ld), (rn, rd) = _pair_lines(ident.key, ident.variables, sides(ident.formula))
        body += ["try:", *(f"    {line}" for line in lines),
                 f"    {verdict} = {_times(ln, rd)} == {_times(rn, ld)}",
                 "except HoradamError:", f"    {verdict} = False"]
        verdicts.append(verdict)
    return _define("chunk", ["drawn"], [*body, f"return {', '.join(verdicts)},"])

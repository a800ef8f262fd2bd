from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from horadam import catalog, theorems
from horadam.catalog import REGISTRY
from horadam.field import ratio_sum
from horadam.formula import compile_expression, compile_pairs, compile_tuple, reads
from horadam.sequences import HoradamParams, TermContext


class TestReads:
    """`reads`: the term reads of a grammar text, from its parsed tree."""

    @pytest.mark.parametrize("text,found", [
        ("w(n+1)", [("w", "n+1")]),
        ("-q^(r-s)*u(m-r)", [("qp", "r-s"), ("u", "m-r")]),
        ("q^m*v(2n) - 4q*p", [("qp", "m"), ("v", "2*n"), ("q", None), ("p", None)]),
        ("sum_{j=0}^{k} q^((r-s)(k-j))*u(m-s)^j*w(n+j)",
         [("qp", "(r-s)*(k-j)"), ("u", "m-s"), ("w", "n+j")]),
        ("C(k,j)*a*w(t)", [("a", None), ("w", "t_")]),
        ("w(n)/(u(n)*b)", [("w", "n"), ("u", "n"), ("b", None)]),
        ("u(n) = v(m) # a note, even with w(n) in it", [("u", "n"), ("v", "m")]),
    ], ids=["term", "q-power", "scalars", "sum", "binomial", "divide", "note"])
    def test_construct(self, text, found):
        assert reads(text) == found

    def test_members_are_those_the_operator_sides_read(self):
        class Recording:
            """An accessor that logs the name of each member it is asked for."""

            def __init__(self, t):
                self.t, self.members = t, set()

            def __getattr__(self, name):
                self.members.add(name)
                return getattr(self.t, name)

        t = TermContext(HoradamParams(3, 2, 1, -1))
        for ident in REGISTRY.values():
            recording = Recording(t)
            values = [i + 2 for i in range(len(ident.variables))]
            ident.lhs(recording, *values), ident.rhs(recording, *values)
            assert {member for member, _ in reads(ident.formula)} == recording.members, ident.key


class TestCompileTuple:
    """`compile_tuple`: one function returning each text's value."""

    def test_a_sum_ends_with_its_text(self):
        # the summand runs to the end of its own text, not of the tuple
        t = TermContext(HoradamParams(3, 2, 1, -1))
        values = compile_tuple("k", ["sum_{j=0}^{k} u(j)", "w(k)"])(t, 3)
        assert values == (t.u(0) + t.u(1) + t.u(2) + t.u(3), t.w(3))

    def test_maps_and_shapes_compile_as_the_joined_text(self, monkeypatch):
        # every derivation map and relation tuple, which hold no sum, compiles
        # to the code of its texts joined into one tuple expression
        calls = []

        def recording(variables, texts):
            calls.append((variables, texts))
            return compile_tuple(variables, texts)
        monkeypatch.setattr(catalog, "compile_tuple", recording)
        monkeypatch.setattr(theorems, "compile_tuple", recording)
        for ident in REGISTRY.values():
            if ident.derived is not None:
                catalog._derivation(ident, REGISTRY)
        for text in set(theorems._RELATIONS.values()):
            relation = theorems._relation_of.__wrapped__(text)
            relation.values, relation.shape
        assert len(calls) == 57 + 2 * 2
        for variables, texts in calls:
            joined = compile_expression(variables, "(" + "".join(f"{x}, " for x in texts) + ")")
            assert compile_tuple(variables, texts).__code__ == joined.__code__, texts


class TestPairSum:
    """The pair compiler's sum loop folds by `field.ratio_sum`'s rule."""

    LOOP = staticmethod(compile_pairs("sum", "k", ["sum_{j=0}^{k} u(j)"]))

    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-12, 12).filter(bool)),
                    min_size=1, max_size=8))
    def test_loop_returns_ratio_sums_pair(self, terms):
        # the exact unreduced pair, on summands of either sign
        t = SimpleNamespace(u=lambda j: terms[j])
        assert self.LOOP(t, len(terms) - 1) == ratio_sum(terms)

    def test_a_read_without_the_index_is_made_once_before_the_loop(self):
        # u(2) and q are read once, first; the loop still reads u(j) per j
        loop = compile_pairs("sum", "k", ["sum_{j=0}^{k} u(2)*q*u(j)"])
        terms = [(3, 2), (-5, 7), (4, 9), (1, 1)]
        made = []

        def u(j):
            made.append(j)
            return terms[j]
        t = SimpleNamespace(u=u, q=(2, 3))
        assert loop(t, 3) == ratio_sum((4 * 2 * n, 9 * 3 * d) for n, d in terms)
        assert made == [2, 0, 1, 2, 3]

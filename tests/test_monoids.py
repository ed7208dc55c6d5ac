import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewseries.monoids import (
    KINDS,
    MonoidInterval,
    UnsupportedOrderError,
    WindowRequiredError,
    decompositions,
    make_monoid,
    min_element,
)

from oracles import decomposition_pairs_by_double_loop


def elements_of(kind):
    if "Pair" in kind:
        lo = -8 if kind.startswith("Int") else 0
        coord = st.integers(min_value=lo, max_value=8)
        return st.tuples(coord, coord)
    if kind == "NatMulDirichlet":
        return st.integers(min_value=1, max_value=60)
    lo = -30 if kind == "IntAdd" else 0
    return st.integers(min_value=lo, max_value=30)


def test_make_monoid_basics():
    nat = make_monoid("NatAdd")
    assert nat.zero == 0 and nat.op(2, 3) == 5 and nat.less(2, 3)

    lex = make_monoid("NatPairLex")
    assert lex.less((0, 5), (1, 0))

    dirichlet = make_monoid("NatMulDirichlet")
    assert dirichlet.zero == 1
    assert dirichlet.op(2, 3) == 6
    assert dirichlet.less(2, 3)


def test_split_kind_and_order_variant():
    assert make_monoid("NatPair", "lex").kind == "NatPairLex"
    assert make_monoid("IntPair", "revlex").kind == "IntPairRevLex"


def test_product_order_rejected():
    with pytest.raises(UnsupportedOrderError, match="total"):
        make_monoid("NatPair", "product")


@pytest.mark.parametrize("kind, order", [("NatPairLex", "revlex"), ("NatPairLex", "lex"),
                                         ("NatAdd", "bogus"), ("NatAdd", "lex"),
                                         ("IntPairRevLex", "lex"), ("Weird", "lex")])
def test_an_order_variant_needs_a_pair_base(kind, order):
    # refused, not ignored: NatPairLex with revlex used to run under lex
    with pytest.raises(UnsupportedOrderError, match=rf"^order variant {order} needs monoid "
                       rf"kind NatPair or IntPair, got {kind}$"):
        make_monoid(kind, order)


def test_unknown_kind_rejected():
    with pytest.raises(UnsupportedOrderError):
        make_monoid("Weird")
    with pytest.raises(UnsupportedOrderError):
        make_monoid("NatPair", "colex")


def test_revlex_compares_right_component_first():
    revlex = make_monoid("NatPairRevLex")
    assert revlex.less((5, 0), (0, 1))
    assert revlex.less((1, 2), (2, 2))


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_monoid_laws(kind, data):
    m = make_monoid(kind)
    s = data.draw(elements_of(kind))
    t = data.draw(elements_of(kind))
    u = data.draw(elements_of(kind))
    # neutral element
    assert m.op(m.zero, s) == s == m.op(s, m.zero)
    # associativity and commutativity
    assert m.op(m.op(s, t), u) == m.op(s, m.op(t, u))
    assert m.op(s, t) == m.op(t, s)
    # cancellativity
    if m.op(s, t) == m.op(s, u):
        assert t == u
    # strict compatibility with the order
    if m.less(s, t):
        assert m.less(m.op(s, u), m.op(t, u))
        assert m.less(m.op(u, s), m.op(u, t))
    # totality
    assert m.less(s, t) or m.less(t, s) or s == t


def test_decompositions_nat_add():
    m = make_monoid("NatAdd")
    assert decompositions(3, m) == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_decompositions_dirichlet_divisor_pairs():
    m = make_monoid("NatMulDirichlet")
    assert decompositions(6, m) == [(1, 6), (2, 3), (3, 2), (6, 1)]


def test_decompositions_pair_lex_ordering():
    m = make_monoid("NatPairLex")
    assert decompositions((1, 1), m) == [
        ((0, 0), (1, 1)),
        ((0, 1), (1, 0)),
        ((1, 0), (0, 1)),
        ((1, 1), (0, 0)),
    ]


def test_decompositions_int_requires_window():
    m = make_monoid("IntAdd")
    with pytest.raises(WindowRequiredError):
        decompositions(3, m)
    window = MonoidInterval(m, 5)
    assert decompositions(3, m, window) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    # explicit element collections work too, including negatives
    assert decompositions(0, m, [-1, 0, 1]) == [(-1, 1), (0, 0), (1, -1)]


@pytest.mark.parametrize("kind,s,bound", [
    ("NatAdd", 7, 10),
    ("IntAdd", 4, 9),
    ("NatMulDirichlet", 36, 40),
    ("NatPairLex", (2, 3), (4, 4)),
    ("IntPairRevLex", (3, 1), (5, 5)),
])
def test_decomposition_matches_double_loop_oracle(kind, s, bound):
    m = make_monoid(kind)
    window = MonoidInterval(m, bound)
    got = decompositions(s, m, window)
    expected = decomposition_pairs_by_double_loop(m, s, list(window))
    assert sorted(got, key=lambda p: m.sort_key(p[0])) == \
        sorted(expected, key=lambda p: m.sort_key(p[0]))
    assert got == sorted(got, key=lambda p: m.sort_key(p[0]))


def test_window_membership_and_bounds():
    m = make_monoid("NatMulDirichlet")
    w = MonoidInterval(m, 10)
    assert 10 in w and 1 in w and 11 not in w and 0 not in w
    assert all(m.leq(m.zero, s) and m.leq(s, 10) for s in w)

    lex = make_monoid("NatPairLex")
    box = MonoidInterval(lex, (2, 3))
    assert (2, 3) in box and (0, 0) in box and (3, 0) not in box
    assert all(lex.leq(s, (2, 3)) for s in box)


def test_min_element():
    nat = make_monoid("NatAdd")
    assert min_element({3, 1, 2}, nat) == 1
    lex = make_monoid("NatPairLex")
    assert min_element({(1, 0), (0, 7)}, lex) == (0, 7)
    dirichlet = make_monoid("NatMulDirichlet")
    assert min_element({4, 2, 8}, dirichlet) == 2
    with pytest.raises(ValueError, match="empty"):
        min_element([], nat)


@pytest.mark.parametrize("kind", KINDS)
def test_monoid_laws_thousand_seeded_triples(kind):
    m = make_monoid(kind)
    rng = random.Random(hash(kind) & 0xFFFF)

    def draw():
        if "Pair" in kind:
            lo = -20 if kind.startswith("Int") else 0
            return (rng.randint(lo, 20), rng.randint(lo, 20))
        if kind == "NatMulDirichlet":
            return rng.randint(1, 400)
        lo = -200 if kind == "IntAdd" else 0
        return rng.randint(lo, 200)

    for _ in range(1000):
        s, t, u = draw(), draw(), draw()
        assert m.op(m.op(s, t), u) == m.op(s, m.op(t, u))
        if m.op(s, t) == m.op(s, u):
            assert t == u
        if m.less(s, t):
            assert m.less(m.op(s, u), m.op(t, u))


def test_positive_ordering_flags():
    assert make_monoid("NatAdd").positively_ordered
    assert make_monoid("NatMulDirichlet").positively_ordered
    assert not make_monoid("IntAdd").positively_ordered
    assert not make_monoid("IntPairLex").positively_ordered


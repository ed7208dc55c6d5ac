import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewseries.gallery import gallery_ring, named_automorphism, standard_contexts
from skewseries.monoids import KINDS, make_monoid, sample_pool
from skewseries.rings import (
    RingAut,
    RingAxiomError,
    _additive_generators,
    cyclic_ring,
    product_ring,
    swap_automorphism,
    table_ring,
)
from skewseries.series import (
    OmegaAction,
    SkewSeries,
    annihilates_via_all_middles,
    constant,
    convolve,
    from_terms,
    monomial,
    pair_action,
    single_generator_action,
    single_term,
    trivial_action,
    zero_series,
)

from skewseries.theorems import random_annihilating_pair

from oracles import (
    annihilates_through_random_middles,
    annihilates_via_all_middles_by_scan,
    convolve_by_terms,
    dirichlet_value,
)

F22 = product_ring(cyclic_ring(2), cyclic_ring(2))
SWAP = swap_automorphism(F22)
IDX_10 = 2  # encodes (1,0)
IDX_01 = 1  # encodes (0,1)


@pytest.fixture
def nat_swap_action():
    return single_generator_action(make_monoid("NatAdd"), F22, SWAP)


def random_series(action, rng, max_terms=3, span=4):
    pool = sample_pool(action.monoid, span)
    support = rng.sample(pool, rng.randint(1, max_terms))
    return SkewSeries(action, {s: rng.randrange(action.ring.size) for s in support})


def test_omega_eval_at_neutral_is_identity(nat_swap_action):
    assert nat_swap_action.automorphism(0).is_identity()


def test_omega_eval_swap_squared_is_identity(nat_swap_action):
    assert not nat_swap_action.automorphism(1).is_identity()
    assert nat_swap_action.automorphism(2).is_identity()


def test_omega_eval_pair_monoid_expands_homomorphically():
    R = cyclic_ring(5)
    # alpha, beta both identity on a commutative ring would be dull; build a
    # genuinely noncommuting-free example on F2xF2 with alpha = swap, beta = id
    from skewseries.rings import identity_automorphism
    act = pair_action(make_monoid("NatPairLex"), F22, SWAP, identity_automorphism(F22))
    manual = SWAP.compose(SWAP).compose(identity_automorphism(F22))
    assert act.automorphism((2, 1)) == manual
    assert act.automorphism((3, 4)) == SWAP  # swap^3 = swap


def test_omega_homomorphism_law_randomized(nat_swap_action):
    rng = random.Random(7)
    m = nat_swap_action.monoid
    for _ in range(200):
        s, t = rng.randrange(12), rng.randrange(12)
        assert nat_swap_action.automorphism(m.op(s, t)) == \
            nat_swap_action.automorphism(s).compose(nat_swap_action.automorphism(t))


def test_closure_callers_cannot_change_the_cached_values():
    F22_two = pair_action(make_monoid("NatPairLex"), F22, SWAP, SWAP)
    for act in (F22_two, single_generator_action(make_monoid("NatAdd"), F22, SWAP)):
        first = act.closure()
        expected = [(s, a.perm) for s, a in first]
        first.clear()
        act.closure().append((5, SWAP))
        assert [(s, a.perm) for s, a in act.closure()] == expected
        assert act.representatives() == [s for s, _ in expected]


@pytest.mark.parametrize("bad", [7, 6, -1, 2.0, "1", None])
def test_public_constructor_rejects_coefficients_outside_the_ring(bad):
    act = trivial_action(make_monoid("NatAdd"), cyclic_ring(6))
    with pytest.raises(ValueError, match=r"is not an element of Z6 \(0..5\)"):
        SkewSeries(act, {0: 1, 1: bad})
    with pytest.raises(ValueError, match=r"is not an element of Z6 \(0..5\)"):
        from_terms(act, [(0, 1), (1, bad)])
    assert SkewSeries(act, {0: 5, 1: 0}).coeffs == {0: 5}


def test_public_constructor_rejects_exponents_outside_the_monoid():
    act = trivial_action(make_monoid("NatAdd"), cyclic_ring(6))
    with pytest.raises(ValueError, match="not an element of NatAdd"):
        SkewSeries(act, {-1: 1})


def test_noncommuting_pair_rejected():
    from skewseries.rings import inner_automorphism, matrix_ring, units
    M = matrix_ring(cyclic_ring(2), 2)
    inner = [inner_automorphism(M, u) for u in units(M)]
    alpha = next(a for a in inner if not a.is_identity())
    beta = next(b for b in inner
                if a_ne(b, alpha) and b.compose(alpha) != alpha.compose(b))
    with pytest.raises(ValueError, match="commute"):
        pair_action(make_monoid("NatPairLex"), M, alpha, beta)


def a_ne(x, y):
    return x != y


def test_dirichlet_only_trivial_action():
    with pytest.raises(ValueError, match="trivial"):
        OmegaAction(make_monoid("NatMulDirichlet"), F22, {2: SWAP})


def test_only_images_other_than_the_identity_are_validated(monkeypatch):
    validated = []
    original = RingAut.validate
    monkeypatch.setattr(RingAut, "validate",
                        lambda aut: validated.append(aut.perm) or original(aut))
    OmegaAction(make_monoid("NatAdd"), F22, {1: RingAut(F22, range(4))})
    assert validated == []
    OmegaAction(make_monoid("NatAdd"), F22, {1: SWAP})
    assert validated == [SWAP.perm]


@pytest.mark.parametrize("perm", [range(3), range(5), [0, 1, 2, 2], [1, 0, 2, 3]])
def test_identity_like_images_of_the_wrong_shape_are_rejected(perm):
    # identity prefixes and extensions, a non-bijection, and a bijection that
    # moves zero: none is the identity of F2xF2, so each is validated
    with pytest.raises(RingAxiomError):
        OmegaAction(make_monoid("NatAdd"), F22, {1: RingAut(F22, perm)})


def test_convolution_nilpotent_coefficients():
    Z4 = cyclic_ring(4)
    act = trivial_action(make_monoid("NatAdd"), Z4)
    f = from_terms(act, [(0, 2), (1, 2)])   # 2 + 2x
    g = from_terms(act, [(1, 2)])           # 2x
    assert convolve(f, g).is_zero()


def test_convolution_twists_through_the_action(nat_swap_action):
    act = nat_swap_action
    lhs = convolve(single_term(act, IDX_10, 1), single_term(act, IDX_01, 1))
    assert lhs == single_term(act, IDX_10, 2)


def test_dirichlet_zeta_squared_counts_divisors():
    Z8 = cyclic_ring(8)
    act = trivial_action(make_monoid("NatMulDirichlet"), Z8)
    zeta = SkewSeries(act, {n: 1 for n in range(1, 13)})
    assert convolve(zeta, zeta).coefficient(6) == 4


def test_single_term_of_zero_is_zero_series(nat_swap_action):
    assert single_term(nat_swap_action, F22.zero, 3).is_zero()


def test_constant_one_is_multiplicative_identity(nat_swap_action):
    act = nat_swap_action
    one = constant(act, F22.one)
    rng = random.Random(3)
    for _ in range(25):
        f = random_series(act, rng)
        assert convolve(one, f) == f
        assert convolve(f, one) == f


def test_ring_embedding_laws():
    Z6 = cyclic_ring(6)
    act = trivial_action(make_monoid("NatAdd"), Z6)
    for a in Z6.elements():
        for b in Z6.elements():
            assert constant(act, Z6.add(a, b)) == constant(act, a) + constant(act, b)
            assert constant(act, Z6.mul(a, b)) == convolve(constant(act, a), constant(act, b))


def test_monomial_embedding_is_multiplicative(nat_swap_action):
    act = nat_swap_action
    for s in range(5):
        for t in range(5):
            assert convolve(monomial(act, s), monomial(act, t)) == monomial(act, s + t)


def test_twist_identity(nat_swap_action):
    act = nat_swap_action
    for r in F22.elements():
        for s in range(4):
            lhs = convolve(monomial(act, s), constant(act, r))
            rhs = convolve(constant(act, act.apply(s, r)), monomial(act, s))
            assert lhs == rhs


def test_single_term_factors_as_constant_times_monomial(nat_swap_action):
    act = nat_swap_action
    for r in F22.elements():
        for s in range(4):
            assert single_term(act, r, s) == convolve(constant(act, r), monomial(act, s))


def test_associativity_and_distributivity_randomized(nat_swap_action):
    act = nat_swap_action
    rng = random.Random(11)
    for _ in range(150):
        f, g, h = (random_series(act, rng) for _ in range(3))
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
        assert convolve(f, g + h) == convolve(f, g) + convolve(f, h)
        assert convolve(f + g, h) == convolve(f, h) + convolve(g, h)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_associativity_over_dirichlet_hypothesis(data):
    Z6 = cyclic_ring(6)
    act = trivial_action(make_monoid("NatMulDirichlet"), Z6)
    coeff = st.integers(min_value=0, max_value=5)
    exps = st.integers(min_value=1, max_value=12)
    series = st.dictionaries(exps, coeff, max_size=4).map(
        lambda d: SkewSeries(act, d))
    f, g, h = data.draw(series), data.draw(series), data.draw(series)
    assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


def test_least_support_and_leading_term_law(nat_swap_action):
    act = nat_swap_action
    f = from_terms(act, [(2, IDX_10), (5, IDX_01)])
    assert f.least_support() == 2
    assert constant(act, IDX_10).least_support() == 0
    with pytest.raises(ValueError, match="zero series"):
        zero_series(act).least_support()

    lex = make_monoid("NatPairLex")
    from skewseries.rings import identity_automorphism
    act2 = pair_action(lex, F22, identity_automorphism(F22), identity_automorphism(F22))
    g = from_terms(act2, [((1, 0), IDX_10), ((0, 3), IDX_01)])
    assert g.least_support() == (0, 3)


def test_leading_exponent_multiplies_when_leading_product_nonzero():
    Z7 = cyclic_ring(7)  # a field: leading products never vanish
    act = trivial_action(make_monoid("NatAdd"), Z7)
    rng = random.Random(5)
    for _ in range(100):
        f, g = random_series(act, rng), random_series(act, rng)
        if f.is_zero() or g.is_zero():
            continue
        prod = convolve(f, g)
        assert prod.least_support() == f.least_support() + g.least_support()

    # twisted version over a field with a nontrivial automorphism
    from skewseries.rings import automorphisms
    from test_rings import gf4
    F4 = gf4()
    frobenius = automorphisms(F4)[1]
    act4 = single_generator_action(make_monoid("NatAdd"), F4, frobenius)
    for _ in range(100):
        f, g = random_series(act4, rng), random_series(act4, rng)
        if f.is_zero() or g.is_zero():
            continue
        assert convolve(f, g).least_support() == \
            f.least_support() + g.least_support()

    Z6 = cyclic_ring(6)
    act6 = trivial_action(make_monoid("NatAdd"), Z6)
    for _ in range(200):
        f, g = random_series(act6, rng), random_series(act6, rng)
        if f.is_zero() or g.is_zero():
            continue
        u, v = f.least_support(), g.least_support()
        if Z6.mul(f.coefficient(u), g.coefficient(v)) != 0:
            assert convolve(f, g).least_support() == u + v


def test_dirichlet_specialization_matches_formula():
    for modulus in (8, 7):
        ring = cyclic_ring(modulus)
        act = trivial_action(make_monoid("NatMulDirichlet"), ring)
        rng = random.Random(modulus)
        for _ in range(20):
            f = random_series(act, rng, max_terms=6, span=30)
            g = random_series(act, rng, max_terms=6, span=30)
            prod = convolve(f, g)
            for n in range(1, 61):
                assert prod.coefficient(n) == dirichlet_value(
                    ring, f.coeffs, g.coeffs, n)


def test_context_mismatch_rejected(nat_swap_action):
    other = trivial_action(make_monoid("NatAdd"), F22)
    f = constant(nat_swap_action, F22.one)
    g = constant(other, F22.one)
    with pytest.raises(ValueError, match="context"):
        convolve(f, g)


def test_middle_annihilation_examples():
    Z4 = cyclic_ring(4)
    act = trivial_action(make_monoid("NatAdd"), Z4)
    c2, c1 = constant(act, 2), constant(act, 1)
    assert annihilates_via_all_middles(c2, c2)        # 2*r*2 = 0 mod 4
    assert not annihilates_via_all_middles(c2, c1)    # 2*1*1 = 2
    assert annihilates_via_all_middles(zero_series(act), c1)
    assert annihilates_via_all_middles(c1, zero_series(act))


def test_middle_annihilation_agrees_with_random_product_oracle(nat_swap_action):
    rng = random.Random(23)
    Z6 = cyclic_ring(6)
    act = trivial_action(make_monoid("NatAdd"), Z6)
    for _ in range(40):
        g, f = random_series(act, rng), random_series(act, rng)
        via_reps = annihilates_via_all_middles(g, f)
        via_random = annihilates_through_random_middles(g, f, rng, samples=40)
        if via_reps:
            assert via_random  # representative test passing forces all products to vanish
        if not via_random:
            assert not via_reps


# ---------------------------------------------------------------------------
# convolve against the term-by-term oracle

def _relabelled_z3():
    """Z3 with each x stored at index (x + 2) % 3, so the zero is index 2."""
    add_t = [[(x + y - 2) % 3 for y in range(3)] for x in range(3)]
    mul_t = [[((x - 2) * (y - 2) + 2) % 3 for y in range(3)] for x in range(3)]
    return table_ring(add_t, mul_t)


Z3_RELABELLED = _relabelled_z3()
# (ring, generator automorphism): twisted actions and a zero that is not index 0
DIFF_CONTEXTS = {
    "Z2": (cyclic_ring(2), None),
    "Z6": (cyclic_ring(6), None),
    "Z3 relabelled": (Z3_RELABELLED, None),
    "F2xF2/swap": (F22, SWAP),
    "M2F2/inner:6": (gallery_ring("M2F2"), named_automorphism(gallery_ring("M2F2"), "inner:6")),
}


def _action(kind, ring, aut):
    monoid = make_monoid(kind)
    if aut is None or kind == "NatMulDirichlet":
        return trivial_action(monoid, ring)
    if monoid.kind in ("NatAdd", "IntAdd"):
        return single_generator_action(monoid, ring, aut)
    return pair_action(monoid, ring, aut, aut)


def test_relabelled_z3_has_its_zero_off_index_0():
    assert Z3_RELABELLED.zero == 2 and Z3_RELABELLED.tables is not None


@pytest.mark.parametrize("grouped", [False, True], ids=["term_by_term", "grouped"])
@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_convolve_matches_term_by_term_oracle(kind, grouped, data):
    ring, aut = DIFF_CONTEXTS[data.draw(st.sampled_from(sorted(DIFF_CONTEXTS)))]
    action = _action(kind, ring, aut)
    n = ring.size
    # g with more terms than the ring has nonzero elements takes the grouped path
    g_terms = data.draw(st.integers(n, 2 * n) if grouped else st.integers(0, n - 1))
    pool = sample_pool(action.monoid, 6 if "Pair" in kind else 40)
    nonzero = [r for r in ring.elements() if r != ring.zero]

    def series(terms):
        exps = data.draw(st.lists(st.sampled_from(pool), min_size=terms,
                                  max_size=terms, unique=True))
        return SkewSeries(action, {s: data.draw(st.sampled_from(nonzero)) for s in exps})

    f, g = series(data.draw(st.integers(0, 12))), series(g_terms)
    product = convolve(f, g)
    assert product == convolve_by_terms(f, g)
    # canonical: what the checked public constructor would store
    assert product == SkewSeries(action, dict(product.coeffs))
    assert ring.zero not in product.coeffs.values()


def test_grouped_product_drops_sums_that_cancel():
    Z2 = cyclic_ring(2)
    act = trivial_action(make_monoid("NatAdd"), Z2)
    one_plus_x = from_terms(act, [(0, 1), (1, 1)])  # two terms: the grouped path
    square = convolve(one_plus_x, one_plus_x)
    assert square.coeffs == {0: 1, 2: 1}  # 2x cancels and is not stored
    assert square == convolve_by_terms(one_plus_x, one_plus_x)
    act3 = trivial_action(make_monoid("NatAdd"), Z3_RELABELLED)
    one, minus_one = 0, 1  # Z3 elements 1 and 2 sit at indices 0 and 1
    f = from_terms(act3, [(0, one), (1, one)])
    g = from_terms(act3, [(0, one), (1, minus_one), (2, one), (3, minus_one)])
    product = convolve(f, g)
    assert product == convolve_by_terms(f, g)
    assert product.coeffs == {0: one, 4: minus_one}
    # the term-by-term path (g shorter than Z6 has nonzero elements) too:
    # (1 + x)(1 + 5x) = 1 + 5x^2
    act6 = trivial_action(make_monoid("NatAdd"), cyclic_ring(6))
    f, g = from_terms(act6, [(0, 1), (1, 1)]), from_terms(act6, [(0, 1), (1, 5)])
    assert convolve(f, g).coeffs == {0: 1, 2: 5}


def test_untabled_ring_multiplies_term_by_term():
    Z257 = cyclic_ring(257)
    assert Z257.tables is None
    rng = random.Random(3)
    act = trivial_action(make_monoid("NatAdd"), Z257)
    f = SkewSeries(act, {s: rng.randrange(1, 257) for s in rng.sample(range(600), 20)})
    g = SkewSeries(act, {s: rng.randrange(1, 257) for s in rng.sample(range(600), 300)})
    assert convolve(f, g) == convolve_by_terms(f, g)


# ---------------------------------------------------------------------------
# middles over an additive basis against the scan over every ring element

MIDDLE_CONTEXTS = {f"{rn}/{an}": (ring, aut) for ring, aut, rn, an in standard_contexts()}


def test_middle_contexts_include_rings_with_several_additive_generators():
    for name in ("M2F2/inner:6", "T2F2/inner:7", "F2xF2/swap"):
        assert len(_additive_generators(MIDDLE_CONTEXTS[name][0])) > 1


@pytest.mark.parametrize("context", sorted(MIDDLE_CONTEXTS))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_middles_over_an_additive_basis_match_the_full_scan(context, data):
    ring, aut = MIDDLE_CONTEXTS[context]
    action = _action(data.draw(st.sampled_from(KINDS)), ring, aut)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    g, f = random_annihilating_pair(action, rng)
    pool = sample_pool(action.monoid, 6)

    def bumped(series):
        return series + single_term(action, rng.randrange(ring.size), rng.choice(pool))

    shape = data.draw(st.sampled_from(["constructed", "g bumped", "f bumped", "random"]))
    if shape == "g bumped":
        g = bumped(g)
    elif shape == "f bumped":
        f = bumped(f)
    elif shape == "random":
        g, f = random_series(action, rng), random_series(action, rng)
    assert annihilates_via_all_middles(g, f) == annihilates_via_all_middles_by_scan(g, f)

import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewseries.gallery import gallery_ring, named_automorphism, standard_contexts
from skewseries.monoids import KINDS, make_monoid, sample_pool
from skewseries.rings import (
    RingAut,
    RingAxiomError,
    _additive_coordinates,
    _additive_generators,
    cyclic_ring,
    identity_automorphism,
    inner_automorphism,
    matrix_ring,
    product_ring,
    swap_automorphism,
    table_ring,
    units,
    upper_triangular_ring,
)
from skewseries.series import (
    OmegaAction,
    SkewSeries,
    _dirichlet,
    _first_failure,
    _kronecker,
    _middle_test,
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
    first_failing_middle_by_scan,
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


@pytest.mark.parametrize("exponent", [-1, "x", 1.0])
def test_public_constructors_reject_exponents_outside_the_monoid_with_zero_coefficients(
        exponent):
    act = trivial_action(make_monoid("NatAdd"), cyclic_ring(6))
    with pytest.raises(ValueError, match="not an element of NatAdd"):
        SkewSeries(act, {0: 1, exponent: 0})
    with pytest.raises(ValueError, match="not an element of NatAdd"):
        from_terms(act, [(exponent, 0)])


@pytest.mark.parametrize("bad", [-1, 12, True])
def test_apply_refuses_non_elements(bad):
    act = trivial_action(make_monoid("NatAdd"), cyclic_ring(12))
    assert act.apply(0, 11) == 11
    with pytest.raises(ValueError, match=r"is not an element of Z12 \(0..11\)"):
        act.apply(0, bad)


# a bool is an int, but neither an exponent nor an element index
@pytest.mark.parametrize("kind, terms", [("NatAdd", {True: 1}), ("NatAdd", {1: True}),
                                         ("NatPairLex", {(True, 0): 1})])
def test_public_constructors_reject_bool_exponents_and_coefficients(kind, terms):
    act = trivial_action(make_monoid(kind), cyclic_ring(4))
    with pytest.raises(ValueError, match="not an element of"):
        SkewSeries(act, terms)
    with pytest.raises(ValueError, match="not an element of"):
        from_terms(act, list(terms.items()))


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
        OmegaAction(make_monoid("NatMulDirichlet"), F22, SWAP)


def _built(build):
    """The closure of the action ``build()`` returns, or its error text."""
    try:
        action = build()
    except ValueError as exc:
        return str(exc)
    return [(e, aut.perm) for e, aut in action.closure()]


@pytest.mark.parametrize("kind", KINDS)
def test_the_forwards_build_what_the_constructor_builds(kind):
    # OmegaAction alone decides which images a kind takes
    monoid, ident = make_monoid(kind), identity_automorphism(F22)
    assert _built(lambda: trivial_action(monoid, F22)) == _built(
        lambda: OmegaAction(monoid, F22))
    assert _built(lambda: single_generator_action(monoid, F22, SWAP)) == _built(
        lambda: OmegaAction(monoid, F22, SWAP))
    for beta in (ident, SWAP):
        assert _built(lambda: pair_action(monoid, F22, SWAP, beta)) == _built(
            lambda: OmegaAction(monoid, F22, SWAP, beta))


def test_only_images_other_than_the_identity_are_validated(monkeypatch):
    validated = []
    original = RingAut.validate
    monkeypatch.setattr(RingAut, "validate",
                        lambda aut: validated.append(aut.perm) or original(aut))
    OmegaAction(make_monoid("NatAdd"), F22, RingAut(F22, range(4)))
    assert validated == []
    OmegaAction(make_monoid("NatAdd"), F22, SWAP)
    assert validated == [SWAP.perm]


@pytest.mark.parametrize("perm", [range(3), range(5), [0, 1, 2, 2], [1, 0, 2, 3]])
def test_identity_like_images_of_the_wrong_shape_are_rejected(perm):
    # identity prefixes and extensions, a non-bijection, and a bijection that
    # moves zero: none is the identity of F2xF2, so each is validated
    with pytest.raises(RingAxiomError):
        OmegaAction(make_monoid("NatAdd"), F22, RingAut(F22, perm))


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


def _first_nontrivial_inner(ring):
    return next(a for a in (inner_automorphism(ring, u) for u in units(ring))
                if not a.is_identity())


def _relabelled_product(a, b):
    """Z_a x Z_b as tables with (1,1) at index 1 and (0,1) at index 2, the
    other pairs in order after them: the coordinate search from index 1
    takes (1,1), of order lcm(a, b), then (0,1), which it does not reach,
    so for gcd(a, b) > 1 the generators are not a direct-sum basis."""
    pairs = [(0, 0), (1, 1), (0, 1)]
    pairs += sorted({(i, j) for i in range(a) for j in range(b)} - set(pairs))
    index = {x: k for k, x in enumerate(pairs)}
    add_t, mul_t = ([[index[op(x, y)] for y in pairs] for x in pairs]
                    for op in (lambda x, y: ((x[0] + y[0]) % a, (x[1] + y[1]) % b),
                               lambda x, y: (x[0] * y[0] % a, x[1] * y[1] % b)))
    return table_ring(add_t, mul_t, name=f"Z{a}xZ{b} relabelled")


Z3_RELABELLED = _relabelled_z3()
T2Z4 = upper_triangular_ring(cyclic_ring(4), 2)
# (ring, generator automorphism): twisted actions, a zero that is not index
# 0, and additive generating sets that are not direct-sum bases (Z2xZ4,
# Z6xZ4, Z12xZ18, relabelled), one of them with more than 256 coordinate
# vectors
DIFF_CONTEXTS = {
    "Z2": (cyclic_ring(2), None),
    "Z6": (cyclic_ring(6), None),
    "Z12": (cyclic_ring(12), None),
    "Z3 relabelled": (Z3_RELABELLED, None),
    "Z2xZ4": (_relabelled_product(2, 4), None),
    "Z6xZ4": (_relabelled_product(6, 4), None),
    "Z12xZ18": (_relabelled_product(12, 18), None),
    "F2xF2/swap": (F22, SWAP),
    "M2F2/inner:6": (gallery_ring("M2F2"), named_automorphism(gallery_ring("M2F2"), "inner:6")),
    "T2(Z4)/inner": (T2Z4, _first_nontrivial_inner(T2Z4)),
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


@pytest.mark.parametrize("name, vectors", [("Z2xZ4", 16), ("Z6xZ4", 48), ("Z12xZ18", 648)])
def test_diff_contexts_include_generating_sets_that_are_not_bases(name, vectors):
    ring = DIFF_CONTEXTS[name][0]
    orders, coords, elements, products, _ = _additive_coordinates(ring)
    assert len(elements) == vectors > ring.size
    # every element is the sum its coordinate vector names
    strides = [1]
    for d in orders:
        strides.append(strides[-1] * d)
    for r in ring.elements():
        assert elements[sum(c[r] * p for c, p in zip(coords, strides))] == r
    gens = [elements[p] for p in strides[:-1]]  # the vector with one 1
    for a, row in zip(gens, products):
        for b, x in zip(gens, row):
            assert elements[sum(c * p for c, p in zip(x, strides))] == ring.mul(a, b)
    # above 256 vectors the Kronecker kernel declines, and convolve takes
    # the grouped loop
    act = trivial_action(make_monoid("NatAdd"), ring)
    rng = random.Random(vectors)
    f = SkewSeries(act, {s: rng.randrange(1, ring.size) for s in range(12)})
    g = SkewSeries(act, {s: rng.randrange(1, ring.size) for s in range(ring.size + 5)})
    assert (_kronecker(f, g) is None) == (vectors > 256)
    assert convolve(f, g) == convolve_by_terms(f, g)


def test_factory_rings_over_cyclic_bases_get_a_direct_sum_basis():
    # the coordinate search from index 1 finds one vector per element on
    # Z1..Z256 and every product and cell ring over Z1..Z16 up to 256 elements
    bases = [cyclic_ring(n) for n in range(1, 17)]
    built = [cyclic_ring(n) for n in range(1, 257)]
    built += [product_ring(a, b) for a in bases for b in bases if a.size * b.size <= 256]
    for base in bases:
        n = base.size
        built.append(matrix_ring(base, 1))
        built += [matrix_ring(base, 2)] if n ** 4 <= 256 else []
        built += [upper_triangular_ring(base, 2)] if n ** 3 <= 256 else []
        built += [upper_triangular_ring(base, 3)] if n ** 6 <= 256 else []
    for ring in built:
        assert len(_additive_coordinates(ring)[2]) == ring.size, ring.name


@pytest.mark.parametrize("grouped", [False, True], ids=["term_by_term", "grouped"])
@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_convolve_matches_term_by_term_oracle(kind, grouped, data):
    ring, aut = DIFF_CONTEXTS[data.draw(st.sampled_from(sorted(DIFF_CONTEXTS)))]
    action = _action(kind, ring, aut)
    n = ring.size
    # g with more terms than the ring has nonzero elements takes the Kronecker
    # kernel (the additive kinds) or the Dirichlet kernel (NatMulDirichlet),
    # each falling back to the grouped loop where it declines, as every
    # shorter g does.  The Dirichlet kernel pays only where f and g fill most
    # of a dense window, so those draws are longer.  Half of the draws for
    # either kernel add a term at 10^6 to g, where the kernel declines and
    # the grouped loop runs
    dense = kind == "NatMulDirichlet" and grouped
    span = max(100, 2 * n) if dense else max(40, 2 * n)
    g_terms = data.draw(st.integers(max(n, span - 20), span) if dense else
                        st.integers(n, 2 * n) if grouped else st.integers(0, n - 1))
    f_terms = data.draw(st.integers(0, span) if dense else st.integers(0, 12))
    pool = sample_pool(action.monoid, max(6, isqrt(2 * n)) if "Pair" in kind else span)
    nonzero = [r for r in ring.elements() if r != ring.zero]

    def series(terms):
        exps = data.draw(st.lists(st.sampled_from(pool), min_size=terms,
                                  max_size=terms, unique=True))
        return SkewSeries(action, {s: data.draw(st.sampled_from(nonzero)) for s in exps})

    f, g = series(f_terms), series(g_terms)
    if grouped and data.draw(st.booleans()):
        far = (10 ** 6, 10 ** 6) if "Pair" in kind else 10 ** 6
        g = SkewSeries(action, g.coeffs | {far: data.draw(st.sampled_from(nonzero))})
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
    # g shorter than Z6 has nonzero elements, so no kernel is tried:
    # (1 + x)(1 + 5x) = 1 + 5x^2
    act6 = trivial_action(make_monoid("NatAdd"), cyclic_ring(6))
    f, g = from_terms(act6, [(0, 1), (1, 1)]), from_terms(act6, [(0, 1), (1, 5)])
    assert convolve(f, g).coeffs == {0: 1, 2: 5}


@pytest.mark.parametrize("kind", KINDS)
def test_untabled_ring_multiplies_term_by_term(kind):
    # no kernel over an untabled ring: the grouped loop runs, and 300 values
    # drawn from Z257 repeat, so some groups hold several exponents
    Z257 = cyclic_ring(257)
    assert Z257.tables is None
    rng = random.Random(3)
    act = trivial_action(make_monoid(kind), Z257)
    pool = sample_pool(act.monoid, 600 if "Pair" not in kind else 24)
    f = SkewSeries(act, {s: rng.randrange(1, 257) for s in rng.sample(pool, 20)})
    g = SkewSeries(act, {s: rng.randrange(1, 257) for s in rng.sample(pool, 300)})
    assert len(set(g.coeffs.values())) < 300
    assert convolve(f, g) == convolve_by_terms(f, g)


ADDITIVE_KINDS = [k for k in KINDS if k != "NatMulDirichlet"]


def _kernel_product(f, g):
    """convolve(f, g), checked to be the Kronecker kernel's product."""
    product = _kronecker(f, g)
    assert product is not None
    assert convolve(f, g) == product
    return product


@pytest.mark.parametrize("kind", ["NatAdd", "IntAdd"])
def test_kronecker_widest_slot_bound_is_exact(kind):
    # every coefficient 255 = -1 in Z256 on dense windows of 300 exponents:
    # the slot where all 300 pairs meet collects 300 * 255 * 255, the bound
    # the slot width follows
    Z256 = cyclic_ring(256)
    act = trivial_action(make_monoid(kind), Z256)
    f = SkewSeries(act, {s: 255 for s in range(300)})
    g = SkewSeries(act, {s: 255 for s in range(-20 if kind == "IntAdd" else 0, 280)})
    product = _kernel_product(f, g)
    assert product == convolve_by_terms(f, g)
    # one pair meets at the least exponent: (-1) * (-1) = 1
    assert product.coefficient(min(product.coeffs)) == 1


@pytest.mark.parametrize("kind", ["IntPairLex", "IntPairRevLex"])
def test_kronecker_pair_corners_do_not_carry(kind):
    # terms at the four corners of the window and on its edges, the rest of
    # the window about half filled so the kernel takes the product: the j-part
    # of a product key reaches the j-spans of f and g added, one below the
    # row width W
    act = pair_action(make_monoid(kind), F22, SWAP, SWAP)
    lo, hi = -7, 9
    corners = [(lo, lo), (lo, hi), (hi, lo), (hi, hi)]
    edges = [(lo, 0), (0, hi), (hi, 1), (2, lo)]
    one = F22.one
    rng = random.Random(5)
    inner = [(i, j) for i in range(lo + 1, hi) for j in range(lo + 1, hi) if rng.random() < 0.5]
    f = SkewSeries(act, {s: c for s, c in zip(corners, (one, 2, 1, one))}
                   | {s: rng.randrange(1, 4) for s in inner})
    g = SkewSeries(act, {s: c for s, c in zip(corners + edges, (one, 1, 2, one, 1, 3, 2, 1))}
                   | {s: rng.randrange(1, 4) for s in inner[::2]})
    for left in (f, g):
        product = _kernel_product(left, g)
        assert product == convolve_by_terms(left, g)
        # one pair of terms meets at each outer corner, with 1 * w(1) = 1
        assert product.coefficient((2 * lo, 2 * lo)) == one
        assert product.coefficient((2 * hi, 2 * hi)) == one


@pytest.mark.parametrize("kind", ADDITIVE_KINDS)
def test_kronecker_products_that_vanish(kind):
    # over Z6, 2 and 4 times 3 are 0: every slot sums to 0 mod 6 (0, 6, ...)
    Z6 = cyclic_ring(6)
    act = trivial_action(make_monoid(kind), Z6)
    pool = sample_pool(act.monoid, 9)
    g = SkewSeries(act, {s: 3 for s in pool[:8]})
    f = SkewSeries(act, {s: 2 + 2 * (i % 2) for i, s in enumerate(pool[3:9])})
    assert len(g.coeffs) >= Z6.size
    for left in (zero_series(act), f):
        product = convolve(left, g)
        assert product.is_zero() and product == convolve_by_terms(left, g)
    assert _kernel_product(f, g).is_zero()


def test_kronecker_kernel_runs_for_the_additive_kinds(monkeypatch):
    from skewseries import series
    calls = []  # (kernel, its return value) of every kernel call

    def record(name):
        kernel = getattr(series, name)

        def recorded(f, g):
            calls.append((name, kernel(f, g)))
            return calls[-1][1]
        monkeypatch.setattr(series, name, recorded)
    record("_kronecker")
    record("_dirichlet")
    for kind in KINDS:
        act = trivial_action(make_monoid(kind), F22)
        pool = sample_pool(act.monoid, 3)
        f, g = SkewSeries(act, {pool[1]: 1}), SkewSeries(act, {s: 3 for s in pool[:4]})
        calls.clear()
        product = convolve(f, g)
        if kind == "NatMulDirichlet":
            assert not calls  # g = 3 (x + x^2 + x^3) is too short
        else:
            assert calls == [("_kronecker", product)], kind
        calls.clear()
        convolve(g, f)  # f has fewer terms than F2xF2 has elements: the grouped loop
        assert not calls
    # a series filling 1..60 is dense enough for the Dirichlet kernel; one
    # more term at 10^6 makes the window too sparse, and the grouped loop runs
    act = trivial_action(make_monoid("NatMulDirichlet"), F22)
    dense = SkewSeries(act, {s: 1 + s % 3 for s in range(1, 61)})
    calls.clear()
    product = convolve(dense, dense)
    assert calls == [("_dirichlet", product)] and not product.is_zero()
    calls.clear()
    convolve(SkewSeries(act, dense.coeffs | {10 ** 6: 1}), dense)
    assert calls == [("_dirichlet", None)]


SPARSE_CONTEXTS = {"Z2": (cyclic_ring(2), None), "M2F2/inner:6": DIFF_CONTEXTS["M2F2/inner:6"]}


@pytest.mark.parametrize("context", sorted(SPARSE_CONTEXTS))
@pytest.mark.parametrize("kind", ADDITIVE_KINDS)
def test_sparse_windows_are_multiplied_term_by_term(kind, context):
    # exponents 10^12 apart: the packed window would have about 10^12 slots,
    # so the kernel declines before allocating and convolve takes the grouped
    # loop
    ring, aut = SPARSE_CONTEXTS[context]
    action = _action(kind, ring, aut)
    far = 10 ** 12
    lo = -far if kind.startswith("Int") else 0
    exps = ([lo, 0, 1, far, far + 3] if "Pair" not in kind else
            [(lo, 0), (0, lo), (0, 0), (far, 1), (1, far), (far, far)])
    rng = random.Random(len(exps) + ring.size)
    nonzero = [r for r in ring.elements() if r != ring.zero]
    pool = list(dict.fromkeys(exps + sample_pool(action.monoid, ring.size)))[:ring.size + 2]
    g = SkewSeries(action, {s: rng.choice(nonzero) for s in pool})
    f = SkewSeries(action, {s: rng.choice(nonzero) for s in exps[::2]})
    assert len(g.coeffs) >= ring.size
    for left in (f, g):
        assert _kronecker(left, g) is None
        assert convolve(left, g) == convolve_by_terms(left, g)


@pytest.mark.parametrize("kind", ADDITIVE_KINDS)
def test_annihilating_coordinates_on_a_sparse_window_give_zero(kind):
    # over F2xF2, f is (0,1) at two exponents 10^12 apart and g is (1,0) at
    # ring.size exponents: no coordinate pair with a nonzero product has
    # terms on both sides, so no polynomial product is formed and the
    # product is zero, found before the window of about 10^12 slots is packed
    action = _action(kind, F22, None)
    far = 10 ** 12
    f = SkewSeries(action, dict.fromkeys([(0, 0), (far, far)] if "Pair" in kind else [0, far],
                                         IDX_01))
    g = SkewSeries(action, dict.fromkeys(sample_pool(action.monoid, F22.size)[:F22.size], IDX_10))
    assert len(g.coeffs) == F22.size
    assert _kronecker(f, g).is_zero()
    assert convolve(f, g).is_zero()
    assert convolve(f, g) == convolve_by_terms(f, g)


def test_kernel_takes_a_dense_block_of_a_sparse_support():
    # 200 terms on a window of 400 slots, then one term 10^9 away: the
    # same terms take the kernel until that last one is added
    act = trivial_action(make_monoid("NatAdd"), cyclic_ring(2))
    rng = random.Random(11)
    f = SkewSeries(act, {s: 1 for s in rng.sample(range(400), 200)})
    g = SkewSeries(act, {s: 1 for s in rng.sample(range(400), 200)})
    assert _kronecker(f, g) == convolve_by_terms(f, g)
    far = SkewSeries(act, dict(g.coeffs) | {10 ** 9: 1})
    assert _kronecker(f, far) is None
    assert convolve(f, far) == convolve_by_terms(f, far)


def _record_slots(monkeypatch):
    """The slot widths ``_kronecker`` packs at and the orders it reduces by,
    one entry per ``_pack`` and per ``_reduced`` call."""
    from skewseries import series
    widths, reductions = [], []
    pack, reduced = series._pack, series._reduced
    monkeypatch.setattr(series, "_pack", lambda slots, width: widths.append(width)
                        or pack(slots, width))
    monkeypatch.setattr(series, "_reduced", lambda a, d, width, length:
                        reductions.append(d) or reduced(a, d, width, length))
    return widths, reductions


def test_kronecker_slot_width_follows_the_coordinate_counts(monkeypatch):
    # over F2xF2, whose coordinates are the idempotents (0,1) and (1,0): f has
    # 255 terms on each coordinate, g 256, so at most 255 pairs meet in a
    # slot of either coordinate, and 255 do; the bound min(|f|, |g|) = 510
    # alone would need 16-bit slots.  One more (0,1) term of f lets 256
    # pairs meet, and the slots widen
    widths, _ = _record_slots(monkeypatch)
    act = trivial_action(make_monoid("NatAdd"), F22)
    f = {s: IDX_01 for s in range(255)} | {s: IDX_10 for s in range(1000, 1255)}
    g = SkewSeries(act, {s: IDX_01 for s in range(256)}
                   | {s: IDX_10 for s in range(1000, 1256)})
    for extra, width in (({}, 1), ({255: IDX_01}, 2)):
        left = SkewSeries(act, f | extra)
        widths.clear()
        product = _kronecker(left, g)
        assert set(widths) == {width}
        assert product == convolve_by_terms(left, g) == convolve(left, g)
        # the fullest slot: 255 (then 256) pairs of (0,1) * (0,1)
        fullest = 254 + len(extra)
        assert product.coefficient(fullest) == (IDX_01 if width == 1 else F22.zero)
        assert sum(1 for u in left.coeffs if fullest - u in g.coeffs
                   and left.coeffs[u] == g.coeffs[fullest - u] == IDX_01) == 254 + width


LAZY_POOLS = {"NatAdd": list(range(400)), "IntAdd": list(range(-200, 200)),
              "IntPairLex": [(i, j) for i in range(-10, 10) for j in range(-10, 10)]}


@pytest.mark.parametrize("context", ["F2xF2/swap", "M2F2/inner:6"])
@pytest.mark.parametrize("kind", sorted(LAZY_POOLS))
def test_kronecker_reduces_byte_slots_mid_sum(kind, context, monkeypatch):
    # f is 1 on 400 exponents, so each twist holds at most 200 of them, and
    # one product F_{rho,i} * G_{rho,j}, which needs x_i(1) != 0, adds at
    # most 200 to a slot of d_k = 2: it fits a byte on top of a reduced
    # slot.  The middle slots collect up to 400 pairs under both twists, so
    # the whole-sum bound needs 16 bits, and an accumulator is reduced mod 2
    # before its next product could carry out of its byte
    ring, aut = DIFF_CONTEXTS[context]
    action = _action(kind, ring, aut)
    pool = LAZY_POOLS[kind]
    rng = random.Random(len(pool) + ring.size)
    nonzero = [r for r in ring.elements() if r != ring.zero]
    f = SkewSeries(action, dict.fromkeys(pool, ring.one))
    g = SkewSeries(action, {s: rng.choice(nonzero) for s in pool})
    widths, reductions = _record_slots(monkeypatch)
    product = _kronecker(f, g)
    assert set(widths) == {1}
    orders = _additive_coordinates(ring)[0]
    assert len(reductions) > len(orders)  # the final digits, and more mid-sum
    assert product == convolve_by_terms(f, g) == convolve(f, g)
    assert not product.is_zero()


def test_kronecker_share_leaves_room_for_a_reduced_slot(monkeypatch):
    # F2xF2 under the swap, f = 1 on 510 exponents: each twist holds 255 of
    # them, so one product adds up to 255 to a slot, and on top of a slot
    # reduced to 1 that needs 16 bits.  At x^509 each twist's product is
    # 255, odd, so byte slots would carry there after one reduction
    action = single_generator_action(make_monoid("NatAdd"), F22, SWAP)
    f = SkewSeries(action, dict.fromkeys(range(510), F22.one))
    widths, reductions = _record_slots(monkeypatch)
    product = _kronecker(f, f)
    assert set(widths) == {2}
    assert len(reductions) == 2  # the whole-sum bound 510 fits 16 bits too
    assert product == convolve_by_terms(f, f)


def test_kronecker_reduces_wide_slots_mid_sum(monkeypatch):
    # Z16xZ16 under the swap: f is -1 = (15, 15) on 400 exponents, 200 per
    # twist, so one product adds at most 200 * 15 * 15 = 45000 to a slot,
    # which fits 16 bits on top of 15, while the whole-sum bound
    # 400 * 225 = 90000 does not.  Both coordinates of g are 12 to 15, so the
    # middle slot of each accumulator does pass 65535: the first product is
    # reduced mod 16 and re-packed before the second is added
    ring = product_ring(cyclic_ring(16), cyclic_ring(16))
    action = single_generator_action(make_monoid("NatAdd"), ring, swap_automorphism(ring))
    rng = random.Random(16)
    f = SkewSeries(action, dict.fromkeys(range(400), ring.neg(ring.one)))
    g = SkewSeries(action, {s: 16 * rng.randrange(12, 16) + rng.randrange(12, 16)
                            for s in range(400)})
    coords = _additive_coordinates(ring)[1]
    for x in coords:
        assert sum(15 * x[action.apply(u, g.coeffs[399 - u])] for u in range(400)) > 65535
    widths, reductions = _record_slots(monkeypatch)
    product = _kronecker(f, g)
    assert set(widths) == {2}
    assert reductions == [16, 16, 16, 16]  # one mid-sum per coordinate, then the digits
    assert product == convolve_by_terms(f, g) == convolve(f, g)


# ---------------------------------------------------------------------------
# the Dirichlet kernel against the term-by-term oracle

def _dirichlet_product(f, g):
    """convolve(f, g), checked to be the Dirichlet kernel's product."""
    product = _dirichlet(f, g)
    assert product is not None
    assert convolve(f, g) == product
    return product


# every DIFF_CONTEXTS ring whose additive coordinates fit a byte slot
@pytest.mark.parametrize("context", sorted(set(DIFF_CONTEXTS) - {"Z12xZ18"}))
def test_dirichlet_kernel_matches_the_oracle_on_dense_windows(context):
    ring = DIFF_CONTEXTS[context][0]
    act = trivial_action(make_monoid("NatMulDirichlet"), ring)
    rng = random.Random(ring.size)
    nonzero = [r for r in ring.elements() if r != ring.zero]
    for _ in range(3):
        f = SkewSeries(act, {s: rng.choice(nonzero) for s in rng.sample(range(1, 121), 110)})
        g = SkewSeries(act, {s: rng.choice(nonzero) for s in rng.sample(range(1, 121), 115)})
        product = _dirichlet_product(f, g)
        assert product == convolve_by_terms(f, g)
        assert ring.zero not in product.coeffs.values()
        assert list(product.coeffs) == sorted(product.coeffs)


def test_dirichlet_kernel_on_rows_that_vanish_and_sums_that_cancel():
    Z6 = cyclic_ring(6)
    act = trivial_action(make_monoid("NatMulDirichlet"), Z6)
    rng = random.Random(6)
    g = SkewSeries(act, {s: rng.choice((2, 4)) for s in range(1, 101)})
    # 3 times every coefficient of g is 0: each row of f(u) = 3 is zero
    f = SkewSeries(act, {s: rng.choice((1, 3, 5)) for s in range(1, 101)})
    assert _dirichlet_product(f, g) == convolve_by_terms(f, g)
    assert _dirichlet_product(SkewSeries(act, {s: 3 for s in range(1, 101)}), g).is_zero()
    # over M2(F2), (a x + b x^2)(c x + d x^2) = ac x + (ad + bc) x^2 + bd x^4
    # vanishes with ad = bc nonzero for a = d = E11, b = E12, c = E21; times
    # zeta on 1..100 (central coefficients), f and g are dense and f * g = 0
    M2F2 = gallery_ring("M2F2")
    act = trivial_action(make_monoid("NatMulDirichlet"), M2F2)
    by_repr = {M2F2.element_repr(r): r for r in M2F2.elements()}
    a, b, c = by_repr["[[1,0],[0,0]]"], by_repr["[[0,1],[0,0]]"], by_repr["[[0,0],[1,0]]"]
    zeta = SkewSeries(act, {s: M2F2.one for s in range(1, 101)})
    f = convolve_by_terms(SkewSeries(act, {1: a, 2: b}), zeta)
    g = convolve_by_terms(SkewSeries(act, {1: c, 2: a}), zeta)
    assert any(M2F2.mul(fu, gv) != M2F2.zero for fu in f.coeffs.values()
               for gv in g.coeffs.values())
    assert _dirichlet_product(f, g).is_zero()
    assert convolve_by_terms(f, g).is_zero()


@pytest.mark.parametrize("case", ["sparse window", "Z256", "Z12xZ18"])
def test_dirichlet_kernel_declines(case, monkeypatch):
    from skewseries import series
    # a window of 4 * 10^7 slots for 1640 term pairs; an additive order of
    # 256, whose coordinate sums carry out of a byte; 648 coordinate vectors,
    # more than a byte indexes
    ring = {"sparse window": cyclic_ring(6), "Z256": cyclic_ring(256),
            "Z12xZ18": DIFF_CONTEXTS["Z12xZ18"][0]}[case]
    act = trivial_action(make_monoid("NatMulDirichlet"), ring)
    rng = random.Random(ring.size)
    span = max(40, ring.size + 20)
    g = SkewSeries(act, {s: rng.randrange(1, ring.size) for s in range(1, span + 1)})
    f = SkewSeries(act, {s: rng.randrange(1, ring.size)
                         for s in rng.sample(range(1, span + 1), 40)})
    if case == "sparse window":
        f = SkewSeries(act, f.coeffs | {10 ** 6: 1})
    else:
        # with the window rule switched off, the ring alone must decline
        monkeypatch.setattr(series, "_DIRICHLET_PAIR", 10 ** 9)
    assert _dirichlet(f, g) is None
    assert convolve(f, g) == convolve_by_terms(f, g)


def _products_up_to(top_f, top_g):
    """The sorted distinct u * v with 1 <= u <= top_f and 1 <= v <= top_g."""
    return tuple(sorted({u * v for u in range(1, top_f + 1) for v in range(1, top_g + 1)}))


@pytest.mark.parametrize("context", ["Z6", "Z3 relabelled", "F2xF2/swap", "M2F2/inner:6"])
def test_dirichlet_reads_back_at_the_kept_window_products(context, monkeypatch):
    from skewseries import series
    # every window shape with the cost rule switched off, so the kernel
    # takes even one-term and three-term factors
    monkeypatch.setattr(series, "_DIRICHLET_PAIR", 10 ** 9)
    monkeypatch.setattr(series, "_window_products", None)
    ring = DIFF_CONTEXTS[context][0]
    act = trivial_action(make_monoid("NatMulDirichlet"), ring)
    rng = random.Random(ring.size)
    nonzero = [r for r in ring.elements() if r != ring.zero]

    def drawn(top, terms):
        exps = rng.sample(range(1, top), min(terms, top) - 1) + [top]
        return SkewSeries(act, {s: rng.choice(nonzero) for s in exps})

    def checked(f, g):
        product = _dirichlet(f, g)
        assert product == convolve_by_terms(f, g)
        assert list(product.coeffs) == sorted(product.coeffs)
        return product

    # (top f, top g, terms of f, terms of g, whether the kept table covers it)
    shapes = [(60, 50, 40, 45, False),
              (40, 30, 30, 25, True),
              (7, 5, 1, 1, True),      # one-term f and g
              (1, 1, 1, 1, True),      # a one-entry cut of the table
              (60, 2, 60, 1, True),
              (3, 200, 3, 150, False),  # U << V
              (200, 3, 150, 3, False),  # U >> V
              (150, 2, 100, 2, True)]
    for top_f, top_g, f_terms, g_terms, covered in shapes:
        before = series._window_products
        checked(drawn(top_f, f_terms), drawn(top_g, g_terms))
        kept = series._window_products
        if covered:
            assert kept[:3] == before[:3] and kept[2] is before[2]
        else:
            assert kept[:3] == (top_f, top_g, _products_up_to(top_f, top_g))
    # a lone (1, 1) window, with nothing kept before it
    monkeypatch.setattr(series, "_window_products", None)
    one = SkewSeries(act, {1: ring.one})
    assert checked(one, one).coeffs == {1: ring.one}
    assert series._window_products[:3] == (1, 1, (1,))
    # zeta * zeta is d(n) * 1 at n, which cancels wherever the additive order
    # of 1 divides d(n): a product slot that stays empty
    zeta = SkewSeries(act, dict.fromkeys(range(1, 41), ring.one))
    square = checked(zeta, zeta)
    assert set(square.coeffs) < set(_products_up_to(40, 40))
    # one table is kept, the exact one of the last window it did not cover
    assert series._window_products[:3] == (40, 40, _products_up_to(40, 40))


def _relabelled_cyclic(n, scale, shift):
    """Z_n with each x stored at index (scale * x + shift) % n."""
    index = [(scale * x + shift) % n for x in range(n)]
    add_t, mul_t = ([[0] * n for _ in range(n)] for _ in range(2))
    for x in range(n):
        for y in range(n):
            add_t[index[x]][index[y]] = index[(x + y) % n]
            mul_t[index[x]][index[y]] = index[x * y % n]
    return table_ring(add_t, mul_t, name=f"Z{n} relabelled")


@pytest.mark.parametrize("kind", ["NatAdd", "NatMulDirichlet"])
def test_kernels_read_one_coordinate_through_the_elements(kind):
    # a cyclic ring has one additive coordinate, whose digits index the
    # elements without a mixed-radix combine; relabelled, the multiples of
    # the generator are not the indices 0, 1, 2, ..., so digits read as
    # element indices would give wrong coefficients
    ring = _relabelled_cyclic(7, 3, 2)
    orders, _, elements, _, _ = _additive_coordinates(ring)
    assert orders == (7,) and elements != bytes(range(7))
    act = trivial_action(make_monoid(kind), ring)
    kernel = _dirichlet if kind == "NatMulDirichlet" else _kronecker
    rng = random.Random(7)
    nonzero = [r for r in ring.elements() if r != ring.zero]
    low = 1 if kind == "NatMulDirichlet" else 0
    for _ in range(3):
        f, g = (SkewSeries(act, {s: rng.choice(nonzero) for s in rng.sample(range(low, 101), 90)})
                for _ in range(2))
        product = kernel(f, g)
        assert product is not None and not product.is_zero()
        assert product == convolve_by_terms(f, g) == convolve(f, g)


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


# g * (r x^s) is built directly in the middle test, which is exact because
# every monoid kind is cancellative: against the scans on each kind, on pairs
# that annihilate and pairs that do not
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("context",
                         ["F2xF2/swap", "T2F2/inner:7", "M2F2/inner:6", "Z12/identity"])
def test_the_middle_test_matches_the_scans_on_every_monoid_kind(kind, context):
    ring, aut = MIDDLE_CONTEXTS[context]
    action = _action(kind, ring, aut)
    rng = random.Random(f"{kind}/{context}")
    pool = sample_pool(action.monoid, 6)
    fails, nonzero_pairs = [], 0
    for _ in range(8):
        g, f = random_annihilating_pair(action, rng)
        nonzero_pairs += not g.is_zero()
        bumped = g + single_term(action, rng.randrange(1, ring.size), rng.choice(pool))
        drawn = random_series(action, rng), random_series(action, rng)
        for g, f in ((g, f), (bumped, f), drawn):
            failure = _first_failure(action, _middle_test(g, f))
            assert failure == first_failing_middle_by_scan(g, f)
            assert annihilates_via_all_middles(g, f) == annihilates_via_all_middles_by_scan(g, f)
            fails.append(failure is not None)
    assert any(fails) and not all(fails)
    # T2F2 and Z12 have nonzero orbit annihilators, so pairs with g != 0
    assert nonzero_pairs > 0 or context in ("F2xF2/swap", "M2F2/inner:6")

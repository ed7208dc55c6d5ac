"""Randomly drawn rings (``strategies``) against the brute-force oracles:
the cell-ring factories, the bitset kernel and its verdicts, the orbit
condition and its obstructions under the identity and an inner action, the
middles and coefficientwise quantifiers, convolution on each of its paths,
the automorphism search, units, and exact ring validation."""

import random
from functools import partial
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewseries import series
from skewseries.gallery import gallery_ring, named_automorphism
from skewseries.ideals import FL, FR, ZL, ZR, _bits, _principal_annihilator, _scan
from skewseries.monoids import KINDS, make_monoid, sample_pool
from skewseries.properties import (
    is_left_app,
    is_left_pq_baer,
    is_quasi_baer,
    is_right_pp,
    orbit_annihilators_s_unital,
)
from skewseries.rings import (
    RingAut,
    RingAxiomError,
    _additive_coordinates,
    _additive_generators,
    _element_invariants,
    automorphisms,
    cyclic_ring,
    identity_automorphism,
    inner_automorphism,
    product_ring,
    table_ring,
    unit_inverse,
    units,
    validate_ring,
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
)
from skewseries.theorems import (
    _coefficientwise_conclusion,
    _reproduces,
    _terms_vanish,
    annihilator_obstructions,
    random_annihilating_pair,
)

from oracles import (
    annihilates_via_all_middles_by_scan,
    annihilator_obstructions_by_scan,
    automorphism_perms_by_additive_extension,
    cell_ring_tables_by_digits,
    coefficientwise_by_scan,
    convolve_by_terms,
    element_invariants_by_scan,
    first_failing_middle_by_scan,
    left_app_by_scan,
    left_pq_baer_by_scan,
    orbit_condition_by_scan,
    quasi_baer_by_scan,
    right_pp_by_scan,
    ring_aut_validate_oracle,
    table_lists,
)
from strategies import cell_rings, matrix_subrings, rings

# deterministic draws, so a failure reproduces and tier-1 time stays fixed
RANDOM = settings(deadline=None, derandomize=True)


@settings(RANDOM, max_examples=25)
@given(cell_rings())
def test_cell_rings_match_the_matrix_products_over_their_base(drawn):
    # a cell ring is decided from its base alone, never from its rows, so
    # these tables and negatives are what checks them
    ring, base, k, triangular = drawn
    sums, products = cell_ring_tables_by_digits(base, k, triangular)
    assert table_lists(ring.tables) == (sums, products)
    assert [ring.neg(x) for x in range(ring.size)] == [row.index(ring.zero) for row in sums]
    cells = [(i, j) for i in range(k) for j in range(i if triangular else 0, k)]
    b = base.size
    assert ring.zero == sum(base.zero * b ** t for t in range(len(cells)))
    assert ring.one == sum((base.one if i == j else base.zero) * b ** t
                           for t, (i, j) in enumerate(cells))


@settings(RANDOM, max_examples=40)
@given(rings(max_size=64))
def test_bitsets_and_verdicts_match_the_scans(ring):
    n, mul, zero = ring.size, ring.mul, ring.zero
    for x in range(n):
        assert _bits(ring, ZL)[x] == sum(1 << r for r in range(n) if mul(r, x) == zero)
        assert _bits(ring, ZR)[x] == sum(1 << r for r in range(n) if mul(x, r) == zero)
        assert _bits(ring, FR)[x] == sum(1 << y for y in range(n) if mul(x, y) == x)
        assert _bits(ring, FL)[x] == sum(1 << y for y in range(n) if mul(y, x) == x)
    for check, oracle in ((is_left_app, left_app_by_scan),
                          (is_left_pq_baer, left_pq_baer_by_scan),
                          (is_right_pp, right_pp_by_scan)):
        report = check(ring)
        assert (report.verdict, report.witnesses) == oracle(ring), check.__name__


@settings(RANDOM, max_examples=40)
@given(rings(max_size=64), st.data())
def test_quasi_baer_and_orbit_checks_match_the_scans(ring, data):
    assert (lambda r: (r.verdict, r.witnesses))(is_quasi_baer(ring)) == quasi_baer_by_scan(ring)
    u = data.draw(st.sampled_from(units(ring)), label="unit")
    nat = make_monoid("NatAdd")
    for alpha in (None, inner_automorphism(ring, u)):
        action = OmegaAction(nat, ring, alpha)
        for check, oracle in ((orbit_annihilators_s_unital, orbit_condition_by_scan),
                              (annihilator_obstructions, annihilator_obstructions_by_scan)):
            report = check(ring, action)
            assert (report.verdict, report.witnesses) == oracle(ring, action), check.__name__


@pytest.mark.parametrize("ring", [cyclic_ring(12), gallery_ring("T2F2")], ids=["Z12", "T2F2"])
def test_scan_tests_each_distinct_annihilator_once(ring):
    annihilator = partial(_principal_annihilator, ring)
    tested = []

    def test(ann):
        tested.append(ann)
        return len(tested)

    scanned = list(_scan(ring, annihilator, test))
    anns = [annihilator(a) for a in ring.elements()]
    assert [(a, ann) for a, ann, _ in scanned] == list(enumerate(anns))
    # in order of first appearance, once each, and each verdict is its ann's
    assert tested == list(dict.fromkeys(anns))
    assert len(tested) < ring.size
    assert all(verdict == tested.index(ann) + 1 for _, ann, verdict in scanned)


@settings(RANDOM, max_examples=40)
@given(rings(), st.data())
def test_validation_rejects_single_entry_mutations(ring, data):
    validate_ring(ring)
    n = ring.size
    if n == 1:
        return
    # the addition table of a ring is a Latin square and each row and column
    # of its multiplication table is additive, so no ring has tables that
    # differ from another ring's in one entry
    tables = table_lists(ring.tables)
    which = data.draw(st.sampled_from([0, 1]), label="table")
    a, b = (data.draw(st.integers(0, n - 1), label=label) for label in ("a", "b"))
    old = tables[which][a][b]
    tables[which][a][b] = data.draw(st.integers(0, n - 1).filter(lambda v: v != old),
                                    label="value")
    with pytest.raises(RingAxiomError):
        table_ring(*tables, zero=ring.zero, one=ring.one)


def _drawn_series(data, action, exponents, coefficients, label):
    """A series with a coefficient drawn from ``coefficients`` at each of
    ``exponents``."""
    values = data.draw(st.lists(st.sampled_from(coefficients), min_size=len(exponents),
                                max_size=len(exponents)), label=label)
    return SkewSeries(action, dict(zip(exponents, values)))


@settings(RANDOM, max_examples=20)
@given(rings(max_size=16), st.data())
def test_middles_and_the_coefficientwise_conclusion_match_the_scans(ring, data):
    if ring.size == 1:  # no nonzero coefficient to draw
        return
    u = data.draw(st.sampled_from(units(ring)), label="unit")
    rng = random.Random(data.draw(st.integers(0, 2 ** 16), label="pair seed"))
    nonzero = [r for r in ring.elements() if r != ring.zero]
    nat = make_monoid("NatAdd")
    for alpha in (None, inner_automorphism(ring, u)):
        action = OmegaAction(nat, ring, alpha)
        pairs = [random_annihilating_pair(action, rng) for _ in range(2)]
        # pairs that need not annihilate, and one that never does
        pairs += [tuple(_drawn_series(data, action, sorted(rng.sample(range(4), 2)),
                                      nonzero, label) for label in ("g", "f")),
                  (constant(action, ring.one), constant(action, ring.one))]
        for g, f in pairs:
            assert annihilates_via_all_middles(g, f) == annihilates_via_all_middles_by_scan(g, f)
            assert _first_failure(action, _middle_test(g, f)) == \
                first_failing_middle_by_scan(g, f)
            report = _coefficientwise_conclusion(g, f)
            assert report.witnesses == coefficientwise_by_scan(g, f)
            assert report.verdict == ("products_checked" in report.witnesses)


def _assert_class_decisions_match_the_pair_code(action, constructed, arbitrary):
    """The term-class decisions of the harnesses against the per-pair code
    they replace: "every term vanishes" implies the middles (and equals the
    scan of every term) on every pair, holds on every constructed pair, and
    for every witness e the class checks agree with c_e's middle test and
    with g * c_e == g."""
    ring = action.ring
    for g, f in constructed:
        assert _terms_vanish(g, f)
    for g, f in constructed + arbitrary:
        vanish = _terms_vanish(g, f)
        assert _coefficientwise_conclusion(g, f).witnesses == coefficientwise_by_scan(g, f)
        assert vanish == _coefficientwise_conclusion(g, f).verdict
        assert not vanish or annihilates_via_all_middles(g, f)
        for e in ring.elements():
            c_e = constant(action, e)
            assert _terms_vanish(c_e, f) == (_first_failure(action, _middle_test(c_e, f)) is None)
            assert _reproduces(g, e) == (convolve(g, c_e) == g)


def _arbitrary_pairs(action, rng, count: int):
    """``count`` pairs of series with at most 2 terms each, over exponents of
    ``sample_pool`` and any coefficients, zero included."""
    pool = sample_pool(action.monoid, 3)
    return [tuple(SkewSeries(action, {s: rng.randrange(action.ring.size)
                                      for s in rng.sample(pool, rng.randint(1, 2))})
                  for _ in range(2)) for _ in range(count)]


@settings(RANDOM, max_examples=20)
@given(rings(max_size=16), st.data())
def test_term_classes_match_the_pair_code_on_drawn_rings(ring, data):
    u = data.draw(st.sampled_from(units(ring)), label="unit")
    rng = random.Random(data.draw(st.integers(0, 2 ** 16), label="pair seed"))
    nat = make_monoid("NatAdd")
    for alpha in (None, inner_automorphism(ring, u)):
        action = OmegaAction(nat, ring, alpha)
        constructed = [random_annihilating_pair(action, rng) for _ in range(3)]
        _assert_class_decisions_match_the_pair_code(
            action, constructed, _arbitrary_pairs(action, rng, 3))


@pytest.mark.parametrize("ring_name, aut_name", [("F2xF2", "swap"), ("M2F2", "inner:6")])
def test_term_classes_name_the_failure_of_their_own_twist(ring_name, aut_name):
    # whether a term class vanishes does not depend on w_u, which maps the
    # orbit ideal of f(v) onto itself, but its first failing (s, r) does:
    # one action decides every (g(u), w_u, f(v)) and names each failure as
    # the scan of that single term does
    ring = gallery_ring(ring_name)
    action = OmegaAction(make_monoid("NatAdd"), ring, named_automorphism(ring, aut_name))
    nonzero = [r for r in ring.elements() if r != ring.zero]
    for gu in nonzero:
        for fv in nonzero:
            f = constant(action, fv)
            for u in action.representatives():
                g = SkewSeries(action, {u: gu})
                assert _coefficientwise_conclusion(g, f).witnesses == \
                    coefficientwise_by_scan(g, f)


# the contexts of the series_harness benchmark workload
HARNESS_CONTEXTS = (("M2F2", "inner:6"), ("T2F2", "inner:7"), ("F2xF2", "swap"),
                    ("F2xF3", "identity"), ("Z5", "identity"), ("Z7", "identity"),
                    ("Z12", "identity"))


@pytest.mark.parametrize("kind", ["NatAdd", "IntAdd", "NatPairLex", "IntPairRevLex",
                                  "NatMulDirichlet"])
@pytest.mark.parametrize("ring_name, aut_name", HARNESS_CONTEXTS)
def test_term_classes_match_the_pair_code_on_the_harness_contexts(ring_name, aut_name, kind):
    ring = gallery_ring(ring_name)
    monoid = make_monoid(kind)
    aut = None if monoid._mul else named_automorphism(ring, aut_name)
    action = OmegaAction(monoid, ring, aut, aut if monoid._pair else None)
    rng = random.Random(f"{ring_name}/{aut_name}:{kind}")
    constructed = [random_annihilating_pair(action, rng) for _ in range(4)]
    _assert_class_decisions_match_the_pair_code(
        action, constructed, _arbitrary_pairs(action, rng, 4))


@pytest.mark.parametrize("ring_name, aut_name",
                         [("Z12", "identity"), ("F2xF2", "swap"), ("M2F2", "inner:6")])
def test_first_failure_tests_each_generator_once_per_representative(ring_name, aut_name):
    ring = gallery_ring(ring_name)
    action = OmegaAction(make_monoid("NatAdd"), ring, named_automorphism(ring, aut_name))
    tested = []
    assert _first_failure(action, lambda s, r: bool(tested.append((s, r)))) is None
    assert tested == [(s, r) for s in action.representatives()
                      for r in _additive_generators(ring)]
    # fewer than the scan over every nonzero element
    assert len(tested) < len(action.representatives()) * (ring.size - 1)


@settings(RANDOM, max_examples=60)
@given(st.one_of(st.tuples(rings(max_size=8), rings(max_size=8)).map(
                     lambda pair: product_ring(*pair)),
                 cell_rings(max_size=64).map(lambda drawn: drawn[0]),
                 matrix_subrings()))
def test_automorphisms_match_the_additive_extension_search(ring):
    # the stabilizer chain lists products of transversal elements, its
    # images drawn by invariants; the oracle extends every generator image
    # additively and uses no invariants
    found = [aut.perm for aut in automorphisms(ring)]
    assert found == automorphism_perms_by_additive_extension(ring)
    invariants = element_invariants_by_scan(ring)
    assert _element_invariants(ring, [ring.mul_row(a) for a in range(ring.size)]) == invariants
    for perm in found:
        assert [invariants[y] for y in perm] == invariants


@settings(RANDOM, max_examples=40)
@given(st.one_of(matrix_subrings(),
                 st.tuples(rings(max_size=8), rings(max_size=8)).map(
                     lambda pair: product_ring(*pair)),
                 cell_rings(max_size=64).map(lambda drawn: drawn[0])))
def test_automorphisms_built_unchecked_pass_the_pair_scan(ring):
    # identity_automorphism, inner_automorphism, automorphisms, compose and
    # inverse build their maps without RingAut.validate, and OmegaAction
    # checks no image, so the scan of every pair checks each distinct map
    # they give, and every value of a single and a pair action's closure
    found = automorphisms(ring)
    maps = [identity_automorphism(ring), *(inner_automorphism(ring, u) for u in units(ring)),
            *found]
    inverses = [a.inverse() for a in maps]
    assert all(a.compose(b).is_identity() and b.compose(a).is_identity()
               for a, b in zip(maps, inverses))
    maps += inverses + [a.compose(b) for a in found for b in found]
    nat, pair = make_monoid("NatAdd"), make_monoid("NatPairLex")
    commuting = [(a, b) for a in found for b in found if a.compose(b) == b.compose(a)]
    actions = [OmegaAction(nat, ring, a) for a in {a.perm: a for a in maps}.values()]
    actions.append(OmegaAction(pair, ring, *commuting[-1]))
    maps += [aut for action in actions for _, aut in action.closure()]
    assert all(aut.ring is ring for aut in maps)
    for aut in {aut.perm: aut for aut in maps}.values():
        ring_aut_validate_oracle(aut)


@settings(RANDOM, max_examples=30)
@given(rings())
def test_unit_inverse_is_a_left_inverse_too(ring):
    # the row search finds u*v == 1 only; v*u == 1 follows in a finite ring
    for u in units(ring):
        assert ring.mul(unit_inverse(ring, u), u) == ring.one


@settings(RANDOM, max_examples=20)
@given(rings(max_size=16), st.data())
def test_convolve_matches_the_term_loop_on_every_path(ring, data):
    n = ring.size
    if n == 1:
        return
    nonzero = [r for r in ring.elements() if r != ring.zero]
    u = data.draw(st.sampled_from(units(ring)), label="unit")
    nat = OmegaAction(make_monoid("NatAdd"), ring, inner_automorphism(ring, u))
    dirichlet = OmegaAction(make_monoid("NatMulDirichlet"), ring)

    def draw(action, exponents, label):
        return _drawn_series(data, action, exponents, nonzero, label)

    f_nat, f_mul = draw(nat, [0, 2, 3], "f"), draw(dirichlet, [1, 2, 3], "f")
    # g with at least a term per element: the Kronecker kernel, the
    # Dirichlet kernel on a dense window long enough to pay and the grouped
    # loop on a sparse one; with fewer terms, the grouped loop without a
    # kernel tried
    cases = [(f_nat, draw(nat, range(n), "dense g"), "kernel"),
             (f_mul, draw(dirichlet, range(1, 129), "dense g"), "kernel"),
             (f_mul, draw(dirichlet, range(1000, 1000 * (n + 1), 1000), "sparse g"), "grouped"),
             (f_nat, draw(nat, range(n - 1), "short g"), "short"),
             (f_mul, draw(dirichlet, range(1, n), "short g"), "short")]
    for f, g, path in cases:
        if path != "short":
            kernel = _dirichlet if f.monoid._mul else _kronecker
            assert (kernel(f, g) is None) == (path == "grouped")
        assert convolve(f, g) == convolve_by_terms(f, g)


def _non_identity_automorphisms(ring, factors):
    """Automorphisms of ``ring`` other than the identity: alpha x beta over
    the automorphisms of a product's two factors, the inner ones of a cell
    ring."""
    if factors is None:
        auts = [inner_automorphism(ring, u) for u in units(ring)]
    else:
        a, b = map(automorphisms, factors)
        n = factors[1].size
        auts = [RingAut(ring, [x.perm[i // n] * n + y.perm[i % n] for i in range(ring.size)])
                for x in a for y in b]
    return [aut for aut in auts if not aut.is_identity()]


@pytest.mark.parametrize("kind", [kind for kind in KINDS if kind != "NatMulDirichlet"])
@settings(RANDOM, max_examples=10)
@given(st.one_of(st.tuples(rings(max_size=16), rings(max_size=16)).map(
                     lambda pair: (product_ring(*pair), pair)),
                 cell_rings().map(lambda drawn: (drawn[0], None))), st.data())
def test_kronecker_matches_the_term_loop_on_drawn_rings(kind, drawn, data):
    # the coordinate generators of a product of two drawn rings, and of a
    # cell ring over a drawn base, under an automorphism other than the
    # identity, on dense windows, with the kernel's cost rule switched off
    ring, factors = drawn
    auts = _non_identity_automorphisms(ring, factors)
    assume(auts)
    aut = data.draw(st.sampled_from(auts), label="automorphism")
    monoid = make_monoid(kind)
    action = OmegaAction(monoid, ring, aut, aut if monoid._pair else None)
    pool = sample_pool(monoid, 3 if monoid._pair else 12)
    nonzero = [r for r in ring.elements() if r != ring.zero]
    f, g = (_drawn_series(data, action, data.draw(st.lists(
        st.sampled_from(pool), min_size=3 * len(pool) // 4, max_size=len(pool), unique=True),
        label=label), nonzero, label) for label in ("f", "g"))
    # a relabelled base can give more than 256 coordinate vectors, where the
    # kernel declines
    with patch.object(series, "_KRONECKER_COST", 10 ** 12):
        product = _kronecker(f, g)
    if len(_additive_coordinates(ring)[2]) > 256:
        assert product is None
    else:
        assert product == convolve_by_terms(f, g)

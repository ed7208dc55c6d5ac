import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewseries import ideals
from skewseries.gallery import gallery_names, gallery_ring
from skewseries.ideals import (
    IdealSet,
    additive_closure,
    idempotent_generator,
    is_right_s_unital,
    left_annihilator,
    left_ideal_generated,
    orbit_ideal,
    right_annihilator,
    tominaga_common_witness,
)
from skewseries.monoids import make_monoid
from skewseries.rings import (
    cyclic_ring,
    inner_automorphism,
    matrix_ring,
    product_ring,
    swap_automorphism,
    units,
    upper_triangular_ring,
)
from skewseries.series import single_generator_action, trivial_action
from skewseries.theorems import set_orbit_annihilator

from oracles import (
    additive_closure_by_fixpoint,
    all_left_ideals,
    smallest_left_ideal_containing,
)

Z4 = cyclic_ring(4)
Z6 = cyclic_ring(6)
T2 = upper_triangular_ring(cyclic_ring(2), 2)
# T2 packs (a11, a12, a22) as bits: e11 = 1, e12 = 2, e22 = 4
E11, E12, E22 = 1, 2, 4

SMALL_RINGS = [
    cyclic_ring(4),
    cyclic_ring(6),
    product_ring(cyclic_ring(2), cyclic_ring(2)),
    product_ring(cyclic_ring(2), cyclic_ring(3)),
    T2,
    matrix_ring(cyclic_ring(2), 2),
]


def test_left_annihilator_examples():
    assert left_annihilator({2}, Z4).sorted_members() == [0, 2]
    assert left_annihilator({0}, Z4).sorted_members() == [0, 1, 2, 3]
    assert left_annihilator({1}, Z4).sorted_members() == [0]


def _closed(ring, members, left: bool) -> bool:
    """Whether r*a (left) or a*r is in ``members`` for every r and member a."""
    return all((ring.mul(r, a) if left else ring.mul(a, r)) in members
               for r in ring.elements() for a in members)


def test_annihilator_of_left_stable_set_is_two_sided():
    stable = left_ideal_generated({E11}, T2)
    ann = left_annihilator(stable.members, T2).members
    assert _closed(T2, ann, left=True) and _closed(T2, ann, left=False)
    # of a plain one-element set it is still at least a left ideal
    assert _closed(T2, left_annihilator({E12}, T2).members, left=True)


def test_left_ideal_generated_examples():
    assert left_ideal_generated({2}, Z4).sorted_members() == [0, 2]
    assert left_ideal_generated({1}, Z4).sorted_members() == [0, 1, 2, 3]


def test_left_ideal_generated_in_triangular_ring():
    # the matrix unit with a single diagonal 1 in the top corner generates a
    # 2-element left ideal; the bottom-corner unit generates 4 elements
    assert left_ideal_generated({E11}, T2).members == \
        smallest_left_ideal_containing(T2, {E11})
    assert len(left_ideal_generated({E11}, T2)) == 2
    assert left_ideal_generated({E22}, T2).members == \
        smallest_left_ideal_containing(T2, {E22})
    assert len(left_ideal_generated({E22}, T2)) == 4


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.name)
def test_left_ideal_generated_matches_fixpoint_oracle(ring):
    rng = random.Random(ring.size)
    for _ in range(10):
        gens = set(rng.sample(range(ring.size), rng.randint(1, 3)))
        assert left_ideal_generated(gens, ring).members == \
            smallest_left_ideal_containing(ring, gens)


def test_orbit_ideal_trivial_action_reduces_to_left_ideal():
    act = trivial_action(make_monoid("NatAdd"), Z6)
    for a in Z6.elements():
        assert orbit_ideal({a}, act).members == left_ideal_generated({a}, Z6).members


def test_orbit_ideal_with_swap_covers_both_coordinates():
    F22 = product_ring(cyclic_ring(2), cyclic_ring(2))
    act = single_generator_action(make_monoid("NatAdd"), F22, swap_automorphism(F22))
    idx_10 = 2
    assert orbit_ideal({idx_10}, act).sorted_members() == [0, 1, 2, 3]


def test_orbit_ideal_of_empty_set_is_zero():
    act = trivial_action(make_monoid("NatAdd"), Z6)
    assert orbit_ideal(set(), act).sorted_members() == [0]


def test_s_unital_counterexample_in_z4():
    res = is_right_s_unital(left_annihilator({2}, Z4))
    assert not res.holds
    assert res.failing == 2


def test_s_unital_trivial_cases():
    zero_ideal = left_annihilator({1}, Z4)
    res = is_right_s_unital(zero_ideal)
    assert res.holds and res.witnesses == {0: 0}

    whole = left_annihilator({0}, Z4)
    res = is_right_s_unital(whole)
    assert res.holds
    assert all(Z4.mul(a, x) == a for a, x in res.witnesses.items())


def test_tominaga_common_witness_examples():
    whole = left_annihilator({0}, Z6)
    assert tominaga_common_witness(whole, [1, 2, 3]) == 1

    evens = left_annihilator({3}, Z6)
    assert evens.sorted_members() == [0, 2, 4]
    assert tominaga_common_witness(evens, [2, 4]) == 4  # 2*4=2, 4*4=4

    # singleton falls back to the pointwise witness
    res = is_right_s_unital(evens)
    assert tominaga_common_witness(evens, [2]) == res.witnesses[2]
    # empty subset gets the zero witness by convention
    assert tominaga_common_witness(evens, []) == 0


def test_tominaga_requires_s_unital_input():
    bad = left_annihilator({2}, Z4)
    with pytest.raises(ValueError, match="not right s-unital"):
        tominaga_common_witness(bad, [2])


def test_tominaga_rejects_foreign_elements():
    evens = left_annihilator({3}, Z6)
    with pytest.raises(ValueError, match="not in the ideal"):
        tominaga_common_witness(evens, [3])


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.name)
def test_annihilators_are_closed(ring):
    rng = random.Random(1)
    for _ in range(8):
        xs = set(rng.sample(range(ring.size), rng.randint(1, 3)))
        left = left_annihilator(xs, ring)
        for a in left.members:
            for b in left.members:
                assert ring.add(a, b) in left.members
            for r in ring.elements():
                assert ring.mul(r, a) in left.members
        right = right_annihilator(xs, ring)
        for a in right.members:
            for r in ring.elements():
                assert ring.mul(a, r) in right.members


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_annihilator_antitone_law(data):
    ring = data.draw(st.sampled_from(SMALL_RINGS))
    small = data.draw(st.sets(st.integers(0, ring.size - 1), min_size=1, max_size=3))
    extra = data.draw(st.sets(st.integers(0, ring.size - 1), max_size=3))
    big = small | extra
    assert left_annihilator(big, ring).members <= left_annihilator(small, ring).members


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.name)
def test_annihilator_of_generated_ideal_equals_annihilator_of_products(ring):
    for a in ring.elements():
        via_ideal = left_annihilator(left_ideal_generated({a}, ring).members, ring)
        products = {ring.mul(r, a) for r in ring.elements()}
        assert via_ideal.members == left_annihilator(products, ring).members


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.name)
def test_intersection_of_s_unital_ideals_is_s_unital(ring):
    from skewseries.ideals import IdealSet
    ideals = all_left_ideals(ring)
    unital = [i for i in ideals if is_right_s_unital(i).holds]
    for a in unital:
        for b in unital:
            assert is_right_s_unital(
                IdealSet.classified(ring, a.members & b.members)).holds


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.name)
def test_left_ideal_enumeration_is_complete_and_sound(ring):
    ideals = all_left_ideals(ring)
    members = {i.members for i in ideals}
    assert frozenset({ring.zero}) in members
    assert frozenset(ring.elements()) in members
    for ideal in ideals:
        assert ideal.members == smallest_left_ideal_containing(ring, ideal.members)
    # every principal left ideal appears
    for a in ring.elements():
        assert left_ideal_generated({a}, ring).members in members


def test_left_ideal_count_in_triangular_ring():
    assert len(all_left_ideals(T2)) == 7


def test_left_ideal_enumeration_respects_cap():
    with pytest.raises(ValueError, match="capped"):
        all_left_ideals(cyclic_ring(32), size_cap=16)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_additive_closure_matches_fixpoint_oracle(data):
    ring = data.draw(st.sampled_from(SMALL_RINGS + [product_ring(cyclic_ring(4), cyclic_ring(6))]))
    seed = data.draw(st.lists(st.integers(0, ring.size - 1), max_size=4))
    assert additive_closure(ring, seed) == additive_closure_by_fixpoint(ring, seed)


# Each public function that takes elements, called with a set of them.
ELEMENT_TAKERS = {
    "left_annihilator": lambda xs: left_annihilator(xs, Z4),
    "right_annihilator": lambda xs: right_annihilator(xs, Z4),
    "left_ideal_generated": lambda xs: left_ideal_generated(xs, Z4),
    "orbit_ideal": lambda xs: orbit_ideal(xs, trivial_action(make_monoid("NatAdd"), Z4)),
    "is_right_s_unital": lambda xs: is_right_s_unital(IdealSet(Z4, frozenset(xs))),
    "idempotent_generator": lambda xs: idempotent_generator(IdealSet(Z4, frozenset(xs)),
                                                            "left"),
    "tominaga_common_witness": lambda xs: tominaga_common_witness(
        IdealSet(Z4, frozenset({0, 1, 2, 3})), xs),
    "set_orbit_annihilator": lambda xs: set_orbit_annihilator(
        xs, trivial_action(make_monoid("NatAdd"), Z4)),
}


@pytest.mark.parametrize("call", list(ELEMENT_TAKERS.values()), ids=list(ELEMENT_TAKERS))
@pytest.mark.parametrize("bad", [-1, -3, 4, 2.0, "2", True])
def test_public_functions_reject_non_elements(call, bad):
    # A negative index would otherwise alias element n + bad, a bool 0 or 1.
    call({0, 2})  # elements are accepted
    with pytest.raises(ValueError, match=rf"^{bad!r} is not an element of Z4 \(0\.\.3\)$"):
        call({0, bad})


def test_a_bool_is_not_an_element():
    # bool subclasses int, and JSON true and false load as bools
    with pytest.raises(ValueError, match=r"^True is not an element of Z4"):
        Z4.check_element(True)
    with pytest.raises(ValueError, match=r"^True is not an element of Z4"):
        left_annihilator([True], Z4)


@pytest.mark.parametrize("name", gallery_names())
def test_inner_orbit_annihilators_are_principal_annihilators(name):
    # under w_s(x) = u^s x u^-s, R*w_s(a) = R*a*u^-s, and R*a*u^-s has the
    # same left annihilator as R*a, so l(O(a)) = l(R*a) bitset for bitset
    ring = gallery_ring(name)
    for u in units(ring):
        action = single_generator_action(make_monoid("NatAdd"), ring,
                                         inner_automorphism(ring, u))
        for a in ring.elements():
            assert (ideals._orbit_annihilator(action, a)
                    == ideals._principal_annihilator(ring, a)), (u, a)

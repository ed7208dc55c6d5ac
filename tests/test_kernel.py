"""The bitset kernel of ``skewseries.ideals`` against the element scans it
replaced (``oracles``), on tabled rings and on rings above TABLE_LIMIT."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewseries.gallery import gallery_ring, standard_contexts
from skewseries.ideals import (
    FL,
    FR,
    ZL,
    ZR,
    IdealSet,
    WitnessNotFoundError,
    _bits,
    idempotent_generator,
    is_right_s_unital,
    left_annihilator,
    left_ideal_generated,
    orbit_ideal,
    right_annihilator,
    tominaga_common_witness,
)
from skewseries.monoids import make_monoid
from skewseries.properties import (
    is_left_app,
    is_left_pq_baer,
    is_quasi_baer,
    is_right_pp,
    orbit_annihilators_s_unital,
)
from skewseries.rings import (
    TABLE_LIMIT,
    automorphisms,
    cyclic_ring,
    inner_automorphism,
    matrix_ring,
    product_ring,
    units,
    upper_triangular_ring,
)
from skewseries.series import single_generator_action
from skewseries.theorems import (
    annihilator_obstructions,
    element_orbit_annihilator,
    elementwise_condition_holds,
    set_orbit_annihilator,
)

from oracles import (
    common_witness_by_scan,
    idempotent_generator_left_by_scan,
    idempotent_generator_right_by_scan,
    left_annihilator_by_scan,
    left_app_by_scan,
    left_ideal_by_products,
    left_pq_baer_by_scan,
    orbit_condition_by_scan,
    orbit_ideal_by_products,
    quasi_baer_by_scan,
    right_annihilator_by_scan,
    right_pp_by_scan,
    s_unital_by_scan,
)

Z = {n: cyclic_ring(n) for n in (2, 3, 4, 8, 9, 27, 33, 65, 129)}
T2F2 = gallery_ring("T2F2")
# Above TABLE_LIMIT these compute through closures: one commutative ring
# that is left APP, one that fails at once, and one noncommutative ring.
LARGE_RINGS = [product_ring(Z[2], Z[129]), product_ring(Z[4], Z[65]),
               product_ring(T2F2, Z[33])]
STRUCTURED_RINGS = (
    [product_ring(Z[a], Z[b]) for a, b in ((2, 2), (2, 3), (2, 4), (4, 2), (3, 9), (2, 8))]
    + [product_ring(T2F2, Z[3]), product_ring(gallery_ring("M2F2"), Z[2])]
    + [matrix_ring(Z[2], 2), matrix_ring(Z[3], 2), matrix_ring(Z[4], 2)]
    + [upper_triangular_ring(Z[n], 2) for n in (2, 3, 4)]
    + [upper_triangular_ring(Z[2], 3)])
RINGS = ([gallery_ring(name) for name in ("M2F2", "T2F2", "F2xF2", "F2xF3")]
         + [gallery_ring(f"Z{n}") for n in range(1, 65)] + STRUCTURED_RINGS)
ALL_RINGS = RINGS + LARGE_RINGS


def test_large_rings_have_no_tables():
    assert all(ring.size > TABLE_LIMIT and ring.tables is None for ring in LARGE_RINGS)


def test_no_bitset_is_built_before_it_is_needed():
    ring = product_ring(Z[3], Z[9])
    assert ring._ideal_bits is None
    is_right_pp(ring)
    assert sorted(ring._ideal_bits) == sorted([ZR, FL])


@pytest.mark.parametrize("ring", [Z[9], T2F2, matrix_ring(Z[3], 2)] + LARGE_RINGS[2:],
                         ids=lambda r: r.name)
def test_bitsets_follow_their_definitions(ring):
    n, mul = ring.size, ring.mul
    bits = {kind: _bits(ring, kind) for kind in (ZL, ZR, FR, FL)}
    for x in range(0, n, max(1, n // 40)):
        assert bits[ZL][x] == sum(1 << r for r in range(n) if mul(r, x) == ring.zero)
        assert bits[ZR][x] == sum(1 << r for r in range(n) if mul(x, r) == ring.zero)
        assert bits[FR][x] == sum(1 << y for y in range(n) if mul(x, y) == x)
        assert bits[FL][x] == sum(1 << y for y in range(n) if mul(y, x) == x)


@st.composite
def ring_and_subset(draw, rings=ALL_RINGS, max_size=6):
    ring = draw(st.sampled_from(rings))
    xs = draw(st.sets(st.integers(0, ring.size - 1), max_size=max_size))
    return ring, xs


@given(ring_and_subset())
@settings(max_examples=150, deadline=None)
def test_annihilators_match_the_scans(case):
    ring, xs = case
    assert left_annihilator(xs, ring).sorted_members() == left_annihilator_by_scan(ring, xs)
    assert right_annihilator(xs, ring).sorted_members() == right_annihilator_by_scan(ring, xs)


@given(ring_and_subset(max_size=3))
@settings(max_examples=120, deadline=None)
def test_generated_left_ideal_matches_the_product_closure(case):
    ring, gens = case
    assert left_ideal_generated(gens, ring).members == left_ideal_by_products(ring, gens)


@st.composite
def ideal_like_set(draw):
    """An annihilator, a generated left ideal, or a plain subset (most plain
    subsets are no ideal at all)."""
    ring, xs = draw(ring_and_subset(rings=RINGS + LARGE_RINGS[1:2]))
    shape = draw(st.sampled_from(("left-ann", "right-ann", "generated", "plain")))
    if shape == "left-ann":
        members = left_annihilator(xs, ring).members
    elif shape == "right-ann":
        members = right_annihilator(xs, ring).members
    elif shape == "generated":
        members = left_ideal_generated(xs, ring).members
    else:
        members = frozenset(xs)
    return IdealSet(ring, frozenset(members))


@given(ideal_like_set())
@settings(max_examples=200, deadline=None)
def test_right_s_unital_matches_the_scan(ideal):
    res = is_right_s_unital(ideal)
    assert (res.holds, res.witnesses, res.failing) == \
        s_unital_by_scan(ideal.ring, ideal.members)


@given(ideal_like_set(), st.data())
@settings(max_examples=200, deadline=None)
def test_common_witness_matches_the_scan(ideal, data):
    ring = ideal.ring
    pool = sorted(ideal.members) + list(range(min(ring.size, 4)))
    subset = data.draw(st.lists(st.sampled_from(pool), max_size=4))
    holds = s_unital_by_scan(ring, ideal.members)[0]
    if not subset:
        expected = ring.zero
    elif not holds or any(a not in ideal.members for a in subset):
        expected = ValueError
    else:
        expected = common_witness_by_scan(ring, ideal.members, subset)
        if expected is None:
            expected = WitnessNotFoundError
    if isinstance(expected, type):
        with pytest.raises(expected):
            tominaga_common_witness(ideal, subset)
    else:
        assert tominaga_common_witness(ideal, subset) == expected


@given(ring_and_subset(max_size=3))
@settings(max_examples=150, deadline=None)
def test_idempotent_generators_match_the_scans(case):
    ring, xs = case
    for ideal in (left_annihilator(xs, ring), left_ideal_generated(xs, ring)):
        assert idempotent_generator(ideal, "left") == \
            idempotent_generator_left_by_scan(ring, ideal.members)
    ideal = right_annihilator(xs, ring)
    assert idempotent_generator(ideal, "right") == \
        idempotent_generator_right_by_scan(ring, ideal.members)


def test_idempotent_generator_names_its_side():
    ideal = left_annihilator([], Z[4])
    assert idempotent_generator(ideal, "left") == idempotent_generator(ideal, "right") == 1
    with pytest.raises(ValueError, match="side must be"):
        idempotent_generator(ideal, "two-sided")


def test_non_ideal_subsets_can_lack_a_common_witness():
    # in Z2xZ2 the set {(1,0), (0,1)} is right s-unital elementwise, but no
    # element of it fixes both
    ring = gallery_ring("F2xF2")
    plain = IdealSet(ring, frozenset({2, 1}))
    assert is_right_s_unital(plain).holds
    with pytest.raises(WitnessNotFoundError):
        tominaga_common_witness(plain, [1, 2])


PROPERTY_ORACLES = ((is_left_app, left_app_by_scan),
                    (is_left_pq_baer, left_pq_baer_by_scan),
                    (is_quasi_baer, quasi_baer_by_scan),
                    (is_right_pp, right_pp_by_scan))


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
def test_properties_match_the_scans(ring):
    for check, oracle in PROPERTY_ORACLES:
        report = check(ring)
        assert (report.verdict, report.witnesses) == oracle(ring), check.__name__


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
def test_left_app_and_pq_baer_agree(ring):
    # fact (c): a left ideal is right s-unital exactly when it is R*e for an
    # idempotent e, so the two checks fail at the same first element
    app, pq = is_left_app(ring), is_left_pq_baer(ring)
    assert app.verdict == pq.verdict
    if not app.verdict:
        assert app.witnesses["counterexample"]["element"] == \
            pq.witnesses["counterexample"]["element"]


def _orbit_contexts():
    nat = make_monoid("NatAdd")
    out = [(f"{name}/{aut_name}", single_generator_action(nat, ring, aut))
           for ring, aut, name, aut_name in standard_contexts()]
    for ring in (upper_triangular_ring(Z[2], 3), matrix_ring(Z[3], 2),
                 product_ring(T2F2, Z[3])):
        for u in units(ring)[:6]:
            out.append((f"{ring.name}/inner:{u}", single_generator_action(
                nat, ring, inner_automorphism(ring, u))))
    for ring in (product_ring(Z[2], Z[4]), product_ring(Z[3], Z[3])):
        out += [(f"{ring.name}/{aut.perm}", single_generator_action(nat, ring, aut))
                for aut in automorphisms(ring)]
    big = LARGE_RINGS[2]
    unit = next(u for u in units(big) if not inner_automorphism(big, u).is_identity())
    out.append((f"{big.name}/inner:{unit}", single_generator_action(
        nat, big, inner_automorphism(big, unit))))
    return out


ORBIT_CONTEXTS = _orbit_contexts()


@pytest.mark.parametrize("name,action", ORBIT_CONTEXTS, ids=[c[0] for c in ORBIT_CONTEXTS])
def test_orbit_kernel_matches_the_scans(name, action):
    ring = action.ring
    report = orbit_annihilators_s_unital(ring, action)
    verdict, witnesses = orbit_condition_by_scan(ring, action)
    assert (report.verdict, report.witnesses) == (verdict, witnesses)
    assert elementwise_condition_holds(ring, action) == verdict
    step = max(1, ring.size // 24)
    for a in range(0, ring.size, step):
        orbit = orbit_ideal_by_products(action, {a})
        assert orbit_ideal({a}, action).members == orbit
        assert element_orbit_annihilator(a, action).sorted_members() == \
            left_annihilator_by_scan(ring, orbit)
    some = list(range(0, ring.size, step))[:3]
    together = orbit_ideal_by_products(action, some)
    assert set_orbit_annihilator(some, action).sorted_members() == \
        left_annihilator_by_scan(ring, together)
    obstructions = annihilator_obstructions(ring, action)
    assert obstructions.verdict == verdict
    for obs in obstructions.witnesses["obstructions"]:
        ann = obs["annihilator"]
        assert ann == left_annihilator_by_scan(ring, orbit_ideal_by_products(
            action, {obs["element"]}))
        assert s_unital_by_scan(ring, ann)[2] == obs["blocked"]

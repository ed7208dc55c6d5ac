"""The bitset kernel of ``skewseries.ideals`` against the element scans it
replaced (``oracles``), on tabled rings and on rings above TABLE_LIMIT."""

import random

import pytest
import skewseries.ideals as ideals
import skewseries.properties as properties
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewseries.gallery import gallery_ring, named_automorphism, standard_contexts
from skewseries.ideals import (
    FL,
    FR,
    ZL,
    ZR,
    IdealSet,
    WitnessNotFoundError,
    _bits,
    _first_orbit_failure,
    _mask,
    _transpose,
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
    RingAut,
    automorphisms,
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
from skewseries.series import single_generator_action
from skewseries.theorems import (
    annihilator_obstructions,
    app_equivalence_check,
    check_coefficientwise_annihilation,
    element_orbit_annihilator,
    elementwise_condition_holds,
    random_annihilating_pair,
    set_orbit_annihilator,
)

from oracles import (
    annihilator_obstructions_by_scan,
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
    ring = product_ring(Z[3], Z[9])
    is_left_app(ring)
    assert sorted(ring._ideal_bits) == sorted([ZR, ZL, FR])


def _definitions(ring, x):
    """Zl[x], Zr[x], Fr[x] and Fl[x] from the row and column of x."""
    row = [ring.mul(x, y) for y in ring.elements()]
    column = [ring.mul(y, x) for y in ring.elements()]

    def where(values, v):
        return sum(1 << i for i, w in enumerate(values) if w == v)

    return {ZL: where(column, ring.zero), ZR: where(row, ring.zero),
            FR: where(row, x), FL: where(column, x)}


# what a request for each kind builds on a fresh ring: only Zr reads products
BUILT_FOR = {ZR: {ZR}, ZL: {ZR, ZL}, FL: {ZR, FL}, FR: {ZR, ZL, FR}}
FRESH_TABLED = {"Z9": lambda: cyclic_ring(9), "T2F2xZ3": lambda: product_ring(T2F2, Z[3]),
                "M2(Z3)": lambda: matrix_ring(Z[3], 2),
                "T3(Z2)": lambda: upper_triangular_ring(Z[2], 3)}


@pytest.mark.parametrize("kind", list(BUILT_FOR))
@pytest.mark.parametrize("build", FRESH_TABLED.values(), ids=FRESH_TABLED)
def test_each_kind_requested_first_follows_its_definition(build, kind):
    ring = build()
    bits = _bits(ring, kind)
    assert set(ring._ideal_bits) == BUILT_FOR[kind]
    assert all(bits[x] == _definitions(ring, x)[kind] for x in ring.elements())


# T3(Z3) and M2(Z5) compute through closures: requesting Zl first, on rings
# no other test touches, builds all four kinds from one product pass
@pytest.mark.parametrize("ring", [Z[9], T2F2, matrix_ring(Z[3], 2)] + LARGE_RINGS[2:]
                         + [upper_triangular_ring(Z[3], 3), matrix_ring(cyclic_ring(5), 2)],
                         ids=lambda r: r.name)
def test_bitsets_follow_their_definitions(ring):
    bits = {kind: _bits(ring, kind) for kind in (ZL, ZR, FR, FL)}
    for x in range(0, ring.size, max(1, ring.size // 40)):
        assert {kind: bits[kind][x] for kind in bits} == _definitions(ring, x)


@given(st.integers(1, 40).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
@example([0])
@example([1])
@settings(max_examples=40, deadline=None)
def test_transpose_is_an_involution_on_the_bits(masks):
    n = len(masks)
    out = _transpose(masks, n)
    assert all((out[x] >> y & 1) == (masks[y] >> x & 1) for x in range(n) for y in range(n))
    assert _transpose(out, n) == masks


def _relabelled_z512():
    """Z512 given to ``table_ring`` with each x stored at a seeded-shuffled
    index, so its zero is not 0 and its 16-bit rows hold every value."""
    n = 512
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    add, mul = ([[0] * n for _ in range(n)] for _ in range(2))
    for x in range(n):
        for y in range(n):
            add[perm[x]][perm[y]] = perm[(x + y) % n]
            mul[perm[x]][perm[y]] = perm[x * y % n]
    return table_ring(add, mul)


def test_masks_of_16_bit_rows_follow_the_scalar_rule():
    # _mask matches an entry's high and low bytes against x's separately,
    # so an entry sharing one byte with x (x +- 256, or x's high byte) must
    # not be a hit; a list row is packed into an array('H') first
    ring = _relabelled_z512()
    assert ring.zero != 0
    rows = [ring.mul_row(a) for a in range(0, ring.size, 37)] + [ring.add_row(ring.one)]
    for row in rows:
        assert row.typecode == "H"
        for x in {0, 1, 255, 256, 257, 300, 511, ring.zero, row[0], row[-1]}:
            want = sum(1 << i for i, v in enumerate(row) if v == x)
            assert _mask(row, x) == _mask(list(row), x) == want
    assert _bits(ring, ZR) == [_definitions(ring, x)[ZR] for x in ring.elements()]


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


def test_the_empty_set_has_no_idempotent_generator():
    # the lowest bit of an empty mask used to come back as -1
    empty = IdealSet(Z[4], frozenset())
    assert idempotent_generator(empty, "left") is idempotent_generator(empty, "right") is None


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


def _named_pair(build, first, second):
    def pair():
        ring = build()
        return ring, named_automorphism(ring, first), named_automorphism(ring, second)
    return pair


def _relabelled_z4_squared():
    # Z4xZ4 with the labels of (0,1) and (2,1) traded, and its coordinate
    # swap: the orbit condition fails first at element 1, (2,1), without a
    # twist, and at element 2 under the swap, where (2,1) passes
    base = product_ring(Z[4], Z[4])
    p = list(range(16))
    p[1], p[9] = 9, 1
    ring = table_ring(*([[p[op(p[a], p[b])] for b in range(16)] for a in range(16)]
                        for op in (base.add, base.mul)))
    swap = swap_automorphism(base).perm
    return ring, identity_automorphism(ring), RingAut(ring, [p[swap[p[a]]] for a in range(16)])


ORBIT_STATE_PAIRS = {
    "F2xF2/identity,swap": _named_pair(lambda: product_ring(Z[2], Z[2]), "identity", "swap"),
    "M2F2/identity,inner:6": _named_pair(lambda: matrix_ring(Z[2], 2), "identity", "inner:6"),
    "relabelled-Z4xZ4/identity,swap": _relabelled_z4_squared,
}


@pytest.mark.parametrize("build", ORBIT_STATE_PAIRS.values(), ids=ORBIT_STATE_PAIRS)
def test_orbit_state_is_kept_per_action(build):
    # two actions over one ring, queried in turn, answer as actions over a
    # fresh copy of the ring do
    nat = make_monoid("NatAdd")

    def report(act):
        out = orbit_annihilators_s_unital(act.ring, act)
        return out.verdict, out.witnesses

    def orbit_annihilator_of(xs):
        return lambda act: set_orbit_annihilator(xs, act).members

    ring, *auts = build()
    n = ring.size
    queries = ([lambda act: elementwise_condition_holds(act.ring, act), report]
               + [orbit_annihilator_of([a]) for a in range(n)]
               + [orbit_annihilator_of([a, b]) for a in range(n) for b in range(a + 1, n)])
    acts = [single_generator_action(nat, ring, aut) for aut in auts]
    got = ([], [])
    for query in queries:
        for out, act in zip(got, acts):
            out.append(query(act))

    def fresh(which, query):
        ring, *auts = build()
        return query(single_generator_action(nat, ring, auts[which]))

    want = tuple([fresh(which, query) for query in queries] for which in (0, 1))
    assert got == want
    assert want[0] != want[1]


def _count_s_unital(monkeypatch, module):
    """The masks passed to ``module._s_unital`` from now on."""
    tested, real = [], module._s_unital
    monkeypatch.setattr(module, "_s_unital",
                        lambda ring, mask: tested.append(mask) or real(ring, mask))
    return tested


@pytest.mark.parametrize("ring_name, aut_name", [("Z4", "identity"), ("Z8", "identity"),
                                                 ("Z6", "identity"), ("F2xF2", "swap"),
                                                 ("M2F2", "inner:6")])
def test_each_orbit_annihilator_is_tested_once_per_action(ring_name, aut_name, monkeypatch):
    # every reader of the orbit condition reads the action's one record, so
    # each distinct orbit annihilator is tested once however many checks
    # run; the witness pairs of a true orbit report are computed apart
    ring = gallery_ring(ring_name)
    nat = make_monoid("NatAdd")
    aut = named_automorphism(ring, aut_name)
    action = single_generator_action(nat, ring, aut)
    distinct = sorted({ideals._orbit_annihilator(action, a) for a in ring.elements()})
    tested = _count_s_unital(monkeypatch, ideals)
    evidence = _count_s_unital(monkeypatch, properties)
    obstructions = annihilator_obstructions(ring, action)
    orbit = orbit_annihilators_s_unital(ring, action)
    app_equivalence_check(ring, action, pairs=5)
    check_coefficientwise_annihilation(*random_annihilating_pair(action, random.Random(0)))
    assert sorted(tested) == distinct
    assert obstructions.verdict == orbit.verdict
    assert len(evidence) == len(orbit.witnesses.get("distinct_orbit_ideals", []))
    # a new action over the same ring builds its own record
    elementwise_condition_holds(ring, single_generator_action(nat, ring, aut))
    assert sorted(tested) == sorted(distinct * 2)


LATE_FAILURES = {
    "Z8/identity": lambda: (cyclic_ring(8), None),
    "relabelled-Z4xZ4/identity": lambda: _relabelled_z4_squared()[:2],
    "relabelled-Z4xZ4/swap": lambda: _relabelled_z4_squared()[::2],
}


@pytest.mark.parametrize("first", ["obstructions", "first failure"])
@pytest.mark.parametrize("build", LATE_FAILURES.values(), ids=LATE_FAILURES)
def test_the_least_failing_element_survives_the_full_scan(build, first):
    # the record scans every element, past the first failure too; whichever
    # reader builds it, the first failure is still the least failing element
    ring, aut = build()
    action = single_generator_action(make_monoid("NatAdd"), ring, aut)
    if first == "obstructions":
        obstructions = annihilator_obstructions(ring, action)
    failure = _first_orbit_failure(action)
    if first != "obstructions":
        obstructions = annihilator_obstructions(ring, action)
    verdict, witnesses = annihilator_obstructions_by_scan(ring, action)
    assert (obstructions.verdict, obstructions.witnesses) == (verdict, witnesses)
    failing = [obs["element"] for obs in witnesses["obstructions"]]
    assert len(failing) > 1 and failure == failing[0] > 0

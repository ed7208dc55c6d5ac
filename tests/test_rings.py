from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewseries.rings import (
    TABLE_LIMIT,
    FiniteRing,
    RingAut,
    RingAxiomError,
    automorphisms,
    cyclic_ring,
    idempotents,
    identity_automorphism,
    inner_automorphism,
    matrix_ring,
    product_ring,
    swap_automorphism,
    table_ring,
    unit_inverse,
    units,
    upper_triangular_ring,
    validate_ring,
)
from skewseries.gallery import gallery_names, gallery_ring

from oracles import (
    brute_force_automorphism_perms,
    closure_tables,
    cyclic_ops,
    matrix_ops,
    product_ops,
    ring_aut_validate_oracle,
    units_by_scan,
    validate_ring_oracle,
)


def test_cyclic_ring_arithmetic():
    Z4 = cyclic_ring(4)
    assert Z4.mul(2, 2) == 0
    assert Z4.mul(3, 3) == 1
    assert Z4.add(3, 2) == 1


def test_zero_ring_is_degenerate_unital():
    Z1 = cyclic_ring(1)
    assert Z1.size == 1
    assert Z1.zero == Z1.one


def test_empty_ring_rejected():
    with pytest.raises(RingAxiomError, match="empty ring"):
        cyclic_ring(0)


def test_idempotents_of_z6():
    assert idempotents(cyclic_ring(6)) == [0, 1, 3, 4]


def test_idempotents_of_z4():
    assert idempotents(cyclic_ring(4)) == [0, 1]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fields_have_trivial_idempotents(p):
    assert idempotents(cyclic_ring(p)) == [0, 1]


def test_matrix_ring_size():
    assert matrix_ring(cyclic_ring(2), 2).size == 16


def test_upper_triangular_ring_size():
    assert upper_triangular_ring(cyclic_ring(2), 2).size == 8


def test_product_ring_isomorphic_to_z6():
    # explicit remainder map x -> (x mod 2, x mod 3) must carry both tables over
    Z6 = cyclic_ring(6)
    P = product_ring(cyclic_ring(2), cyclic_ring(3))
    assert P.size == 6
    phi = {x: (x % 2) * 3 + (x % 3) for x in range(6)}
    assert sorted(phi.values()) == list(range(6))
    for a in range(6):
        for b in range(6):
            assert phi[Z6.add(a, b)] == P.add(phi[a], phi[b])
            assert phi[Z6.mul(a, b)] == P.mul(phi[a], phi[b])
    assert phi[Z6.one] == P.one


def test_size_cap_enforced():
    with pytest.raises(RingAxiomError, match="size cap"):
        matrix_ring(cyclic_ring(3), 2, size_cap=50)


def test_table_ring_roundtrip():
    Z3 = cyclic_ring(3)
    add = [[Z3.add(a, b) for b in range(3)] for a in range(3)]
    mul = [[Z3.mul(a, b) for b in range(3)] for a in range(3)]
    T = table_ring(add, mul, name="Z3-tables")
    assert T.zero == 0 and T.one == 1
    validate_ring(T)


def test_table_ring_reports_first_failing_triple():
    Z3 = cyclic_ring(3)
    add = [[Z3.add(a, b) for b in range(3)] for a in range(3)]
    mul = [[Z3.mul(a, b) for b in range(3)] for a in range(3)]
    mul[2][2] = 2  # breaks associativity/distributivity
    with pytest.raises(RingAxiomError, match=r"\(\d+,\d+,\d+\)"):
        table_ring(add, mul)


@pytest.mark.parametrize("build", [
    lambda: cyclic_ring(6),
    lambda: product_ring(cyclic_ring(2), cyclic_ring(2)),
    lambda: matrix_ring(cyclic_ring(2), 2),
    lambda: upper_triangular_ring(cyclic_ring(2), 2),
])
def test_factory_rings_pass_full_validation(build):
    validate_ring(build())  # raises on any axiom violation


def test_cyclic_ring_has_only_identity_automorphism():
    assert len(automorphisms(cyclic_ring(4))) == 1
    assert automorphisms(cyclic_ring(4))[0].is_identity()


def test_product_square_automorphisms_are_identity_and_swap():
    R = product_ring(cyclic_ring(2), cyclic_ring(2))
    auts = automorphisms(R)
    assert len(auts) == 2
    assert auts[0].is_identity()
    assert auts[1] == swap_automorphism(R)
    # cross-check against the factorial search
    assert {a.perm for a in auts} == brute_force_automorphism_perms(R)


def test_triangular_automorphisms_match_brute_force():
    R = upper_triangular_ring(cyclic_ring(2), 2)
    assert {a.perm for a in automorphisms(R)} == brute_force_automorphism_perms(R)


def test_matrix_ring_automorphisms_all_inner():
    R = matrix_ring(cyclic_ring(2), 2)
    auts = automorphisms(R)
    assert len(auts) == 6
    inner = {inner_automorphism(R, u).perm for u in units(R)}
    assert {a.perm for a in auts} == inner


@pytest.mark.parametrize("build", [
    lambda: product_ring(cyclic_ring(2), cyclic_ring(2)),
    lambda: upper_triangular_ring(cyclic_ring(2), 2),
    lambda: matrix_ring(cyclic_ring(2), 2),
])
def test_automorphisms_form_a_group(build):
    R = build()
    auts = automorphisms(R)
    perms = {a.perm for a in auts}
    assert identity_automorphism(R).perm in perms
    for a in auts:
        assert a.inverse().perm in perms
        for b in auts:
            assert a.compose(b).perm in perms


@pytest.mark.parametrize("build", [
    lambda: cyclic_ring(6),
    lambda: product_ring(cyclic_ring(2), cyclic_ring(3)),
    lambda: matrix_ring(cyclic_ring(2), 2),
])
def test_automorphisms_permute_idempotents(build):
    R = build()
    idem = set(idempotents(R))
    for aut in automorphisms(R):
        assert {aut.apply(e) for e in idem} == idem


def test_automorphism_cap_requires_generators():
    with pytest.raises(ValueError, match="generators"):
        automorphisms(cyclic_ring(6), cap=4)
    # supplying generators works above the cap
    auts = automorphisms(cyclic_ring(6), cap=4,
                         generators=[identity_automorphism(cyclic_ring(6))])
    assert len(auts) == 1


def test_swap_requires_square_product():
    with pytest.raises(RingAxiomError, match="square"):
        swap_automorphism(cyclic_ring(6))


def test_inner_automorphism_requires_unit():
    Z4 = cyclic_ring(4)
    with pytest.raises(ValueError, match="unit"):
        inner_automorphism(Z4, 2)
    assert inner_automorphism(Z4, 3).is_identity()  # Z4 is commutative


def gf4():
    # elements 0, 1, a, a+1 with a^2 = a+1; addition is xor of bit patterns
    add = [[a ^ b for b in range(4)] for a in range(4)]
    mul = [[0, 0, 0, 0],
           [0, 1, 2, 3],
           [0, 2, 3, 1],
           [0, 3, 1, 2]]
    return table_ring(add, mul, name="GF4")


def test_gf4_field_automorphisms_are_identity_and_squaring():
    R = gf4()
    auts = automorphisms(R)
    assert len(auts) == 2
    squaring = tuple(R.mul(x, x) for x in range(4))
    assert {a.perm for a in auts} == {(0, 1, 2, 3), squaring}
    assert {a.perm for a in auts} == brute_force_automorphism_perms(R)


def test_product_z4_z2_automorphisms_match_brute_force():
    R = product_ring(cyclic_ring(4), cyclic_ring(2))
    assert {a.perm for a in automorphisms(R)} == brute_force_automorphism_perms(R)


# Rings whose tables get corrupted below: triples are exhaustive up to 64
# elements and seeded samples above.
CORRUPTIBLE = [
    cyclic_ring(2),
    cyclic_ring(5),
    cyclic_ring(12),
    cyclic_ring(64),
    product_ring(cyclic_ring(2), cyclic_ring(3)),
    product_ring(cyclic_ring(4), cyclic_ring(4)),
    upper_triangular_ring(cyclic_ring(2), 2),
    upper_triangular_ring(cyclic_ring(2), 3),
    cyclic_ring(72),
    product_ring(cyclic_ring(9), cyclic_ring(10)),
]


def _axiom_outcome(check, ring, seed):
    """None when ``check`` accepts the ring, else the error's type and text."""
    try:
        check(ring, seed=seed)
    except (RingAxiomError, IndexError) as exc:
        return type(exc).__name__, str(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_validate_ring_matches_scalar_oracle_on_corrupted_tables(data):
    base = data.draw(st.sampled_from(CORRUPTIBLE), label="ring")
    n = base.size
    add, mul = closure_tables(n, base.add, base.mul)
    # Mostly entries in range; -1 wraps to the last row and n raises
    # IndexError, in both checks alike.  Sums are corrupted in symmetric
    # pairs so that commutativity, checked first, does not catch every change.
    value = st.one_of(st.integers(0, n - 1), st.sampled_from([-1, n]))
    element = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(0, 3), label="corruptions")):
        a, b, v = data.draw(element), data.draw(element), data.draw(value)
        if data.draw(st.booleans(), label="sum"):
            add[a][b] = add[b][a] = v
        else:
            mul[a][b] = v
    ring = FiniteRing(n, add=lambda a, b: add[a][b], mul=lambda a, b: mul[a][b],
                      zero=base.zero, one=base.one, neg=base.neg, validate=False)
    seed = data.draw(st.integers(0, 3), label="seed")
    assert _axiom_outcome(validate_ring, ring, seed) == \
        _axiom_outcome(validate_ring_oracle, ring, seed)


@pytest.mark.parametrize("pair", [None, (7, 150), (150, 7)])
def test_closure_backed_commutativity_matches_oracle(pair):
    n = TABLE_LIMIT + 44

    def add(a, b):
        return (a + b + ((a, b) == pair)) % n

    ring = FiniteRing(n, add=add, mul=lambda a, b: a * b % n, neg=lambda a: -a % n,
                      zero=0, one=1, validate=False)
    expected = None if pair is None else \
        ("RingAxiomError", f"addition not commutative at ({min(pair)},{max(pair)})")
    assert _axiom_outcome(validate_ring_oracle, ring, 0) == expected
    assert _axiom_outcome(validate_ring, ring, 0) == expected


def _near_ring(k: int, opposite: bool) -> FiniteRing:
    """Every map Z_k -> Z_k under pointwise sum and composition.

    With f*g = f after g this is a near-ring: every ring axiom holds except
    left distributivity.  The opposite product breaks right distributivity
    only.
    """
    maps = list(product(range(k), repeat=k))
    index = {f: i for i, f in enumerate(maps)}
    add = [[index[tuple((x + y) % k for x, y in zip(f, g))] for g in maps] for f in maps]
    mul = [[index[tuple(f[x] for x in g)] for g in maps] for f in maps]
    if opposite:
        mul = [list(col) for col in zip(*mul)]
    return FiniteRing(len(maps), add=lambda a, b: add[a][b], mul=lambda a, b: mul[a][b],
                      zero=index[(0,) * k], one=index[tuple(range(k))], validate=False)


@pytest.mark.parametrize("k", [3, 4])  # 27 elements, exhaustive; 256, sampled
@pytest.mark.parametrize("opposite, law", [(False, "left"), (True, "right")])
def test_near_ring_fails_one_distributive_law_like_oracle(k, opposite, law):
    ring = _near_ring(k, opposite)
    expected = _axiom_outcome(validate_ring_oracle, ring, 0)
    assert expected[1].startswith(f"{law} distributivity fails")
    assert _axiom_outcome(validate_ring, ring, 0) == expected


def _small_product(*moduli):
    ring = cyclic_ring(moduli[0])
    for m in moduli[1:]:
        ring = product_ring(ring, cyclic_ring(m))
    return ring


# (label, build, ops, whole): ops are the reference add, mul, neg, zero and
# one; whole=False compares addition only, for rings whose multiplication is
# the same closure as the reference's.
FACTORY_CASES = [
    *[(f"Z{n}", lambda n=n: cyclic_ring(n), lambda n=n: cyclic_ops(n), True)
      for n in (*range(1, 9), 255, 256, 257)],
    *[(f"Z{a}xZ{b}", lambda a=a, b=b: product_ring(cyclic_ring(a), cyclic_ring(b)),
       lambda a=a, b=b: product_ops(cyclic_ring(a), cyclic_ring(b)), True)
      for a, b in ((2, 3), (3, 2), (4, 2), (2, 4), (3, 5), (1, 7), (7, 1), (4, 64), (2, 129))],
    ("(Z2xZ3)xZ4", lambda: product_ring(_small_product(2, 3), cyclic_ring(4)),
     lambda: product_ops(_small_product(2, 3), cyclic_ring(4)), True),
    ("Z5x(Z2xZ3)", lambda: product_ring(cyclic_ring(5), _small_product(2, 3)),
     lambda: product_ops(cyclic_ring(5), _small_product(2, 3)), True),
    *[(f"M{k}(Z{b})", lambda b=b, k=k: matrix_ring(cyclic_ring(b), k),
       lambda b=b, k=k: matrix_ops(b, k), b ** (k * k) <= TABLE_LIMIT)
      for b, k in ((1, 2), (2, 1), (3, 1), (7, 1), (2, 2), (3, 2), (4, 2), (5, 2))],
    *[(f"T{k}(Z{b})", lambda b=b, k=k: upper_triangular_ring(cyclic_ring(b), k),
       lambda b=b, k=k: matrix_ops(b, k, triangular=True), b ** (k * (k + 1) // 2) <= TABLE_LIMIT)
      for b, k in ((2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3))],
]


@pytest.mark.parametrize("build, ops, whole", [c[1:] for c in FACTORY_CASES],
                         ids=[c[0] for c in FACTORY_CASES])
def test_factory_tables_match_closure_tables(build, ops, whole):
    ring = build()
    add, mul, neg, zero, one = ops()
    n = ring.size
    assert (ring._add_rows is not None) == (n <= TABLE_LIMIT)
    if not whole:
        assert closure_tables(n, ring.add) == closure_tables(n, add)
    elif ring._add_rows is not None:
        assert (ring._add_rows, ring._mul_rows) == closure_tables(n, add, mul)
    else:
        assert closure_tables(n, ring.add, ring.mul) == closure_tables(n, add, mul)
    assert [ring.neg(a) for a in range(n)] == [neg(a) for a in range(n)]
    assert (ring.zero, ring.one) == (zero, one)


def _relabelled_cyclic(b: int, perm: list[int]):
    """Z_b with each x stored at index perm[x]."""
    add_t = [[0] * b for _ in range(b)]
    mul_t = [[0] * b for _ in range(b)]
    for x in range(b):
        for y in range(b):
            add_t[perm[x]][perm[y]] = perm[(x + y) % b]
            mul_t[perm[x]][perm[y]] = perm[x * y % b]
    return table_ring(add_t, mul_t)


@pytest.mark.parametrize("b, perm", [(2, [1, 0]), (3, [2, 0, 1]), (3, [1, 2, 0])])
@pytest.mark.parametrize("triangular", [False, True])
def test_cell_rings_over_a_base_whose_zero_is_not_index_0(b, perm, triangular):
    base = _relabelled_cyclic(b, perm)
    assert base.zero == perm[0] != 0
    ring = (upper_triangular_ring if triangular else matrix_ring)(base, 2)
    add, mul, neg, zero, one = matrix_ops(b, 2, triangular)
    ncells = 3 if triangular else 4
    n = ring.size
    # the index in ``ring`` of the matrix packed as x over the cyclic Z_b
    phi = [sum(perm[x // b ** t % b] * b ** t for t in range(ncells)) for x in range(n)]
    assert (ring.zero, ring.one) == (phi[zero], phi[one])
    for x in range(n):
        assert ring.neg(phi[x]) == phi[neg(x)]
        for y in range(n):
            assert ring.add(phi[x], phi[y]) == phi[add(x, y)]
            assert ring.mul(phi[x], phi[y]) == phi[mul(x, y)]


@pytest.mark.parametrize("which", ["add", "mul"])
@pytest.mark.parametrize("bad", [3, -1, 1.0, "2"])
def test_table_ring_rejects_entries_outside_the_ring(which, bad):
    Z3 = cyclic_ring(3)
    tables = dict(zip(("add", "mul"), closure_tables(3, Z3.add, Z3.mul)))
    tables[which][2][1] = bad
    with pytest.raises(RingAxiomError,
                       match=rf"^{which} table entry {bad!r} at \(2,1\) is not an element 0..2$"):
        table_ring(tables["add"], tables["mul"])


def test_table_ring_owns_copies_of_its_rows():
    Z3 = cyclic_ring(3)
    add, mul = closure_tables(3, Z3.add, Z3.mul)
    ring = table_ring(add, mul)
    add[1][1], mul[2][2] = 0, 0
    assert (ring.add(1, 1), ring.mul(2, 2)) == (2, 1)


UNIT_RINGS = [*(gallery_ring(name) for name in gallery_names()),
              matrix_ring(cyclic_ring(3), 2), matrix_ring(cyclic_ring(4), 2),
              upper_triangular_ring(cyclic_ring(2), 3)]


@pytest.mark.parametrize("ring", UNIT_RINGS, ids=lambda r: r.name)
def test_units_and_inverses_match_scan(ring):
    want = units_by_scan(ring)
    assert units(ring) == sorted(want)
    assert {u: unit_inverse(ring, u) for u in want} == want
    non_unit = next((x for x in range(ring.size) if x not in want), None)
    if non_unit is not None:
        with pytest.raises(ValueError, match="not a unit"):
            unit_inverse(ring, non_unit)


SMALL_RINGS = [
    *(cyclic_ring(n) for n in range(1, 9)),
    *(_small_product(*ms) for ms in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 2, 2))),
    upper_triangular_ring(cyclic_ring(2), 2),
    gf4(),
    product_ring(cyclic_ring(2), gf4()),
]


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.name)
def test_automorphisms_match_brute_force_in_order(ring):
    ident = tuple(range(ring.size))
    found = brute_force_automorphism_perms(ring)
    assert [a.perm for a in automorphisms(ring)] == [ident] + sorted(found - {ident})


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_automorphisms_of_f2_power_are_the_coordinate_permutations(k):
    assert len(automorphisms(_small_product(*[2] * k))) == factorial(k)


AUT_RINGS = [
    cyclic_ring(6),
    product_ring(cyclic_ring(2), cyclic_ring(2)),
    product_ring(cyclic_ring(3), cyclic_ring(3)),
    upper_triangular_ring(cyclic_ring(2), 2),
    matrix_ring(cyclic_ring(2), 2),
    gf4(),
    product_ring(cyclic_ring(2), gf4()),
]
AUT_GROUPS = {ring.name: automorphisms(ring) for ring in AUT_RINGS}


def _aut_outcome(check, aut):
    try:
        check(aut)
    except RingAxiomError as exc:
        return str(exc)
    return None


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_automorphism_validation_matches_pair_scan(data):
    ring = data.draw(st.sampled_from(AUT_RINGS), label="ring")
    n = ring.size
    perm = list(data.draw(st.sampled_from(AUT_GROUPS[ring.name])).perm)
    element = st.integers(0, n - 1)
    # Transpositions make non-automorphisms, some of which move 1; copying
    # one image over another makes a non-bijection.
    for _ in range(data.draw(st.integers(0, 2), label="swaps")):
        a, b = data.draw(element), data.draw(element)
        perm[a], perm[b] = perm[b], perm[a]
    if data.draw(st.booleans(), label="copy"):
        perm[data.draw(element)] = perm[data.draw(element)]
    aut = RingAut(ring, perm)
    assert _aut_outcome(RingAut.validate, aut) == _aut_outcome(ring_aut_validate_oracle, aut)


@pytest.mark.parametrize("perm", [(0, 1, 5), (0, 1, -1), (0, 1)])
def test_automorphism_images_outside_the_ring_are_not_a_bijection(perm):
    with pytest.raises(RingAxiomError, match="not a bijection"):
        RingAut(cyclic_ring(3), perm, validate=True)

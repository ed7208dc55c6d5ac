import random
import re
import time
from array import array
from itertools import product
from math import factorial, gcd
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import skewseries
from skewseries.rings import (
    DEFAULT_SIZE_CAP,
    TABLE_LIMIT,
    AutomorphismBudgetError,
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
from skewseries.rings import (_additive_generators, _byte_tables, _factory_ring,
                              _sample_triples, _triple_axioms_hold, _unvalidated_table)
from skewseries.gallery import gallery_names, gallery_ring
from skewseries.ideals import FL, FR, ZL, ZR, _bits, _members

from oracles import (
    additive_generators_by_span,
    automorphism_perms_by_additive_extension,
    brute_force_automorphism_perms,
    cell_ring_tables_by_digits,
    closure_tables,
    cyclic_ops,
    matrix_ops,
    product_ops,
    ring_aut_validate_oracle,
    sum_generators_of_table,
    table_lists,
    units_by_scan,
    validate_ring_oracle,
)
from strategies import matrix_subrings, rings


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


# Cell rings above the cap and their messages.  M3(Z3) has 3**9 elements,
# refused with the message cyclic_ring gives; the others are refused from
# their cell count, before a cell list or the power base.size ** cells is
# formed: over Z1 that work grows as k^3, and over Z2 with k = 10^5 the
# power would have 10^10 bits.
CELL_RINGS_OVER_THE_CAP = [
    (lambda: matrix_ring(cyclic_ring(3), 3), "19683 > 4096"),
    (lambda: matrix_ring(cyclic_ring(2), 4), "2^16 > 4096"),
    (lambda: upper_triangular_ring(cyclic_ring(2), 5), "2^15 > 4096"),
    (lambda: matrix_ring(cyclic_ring(1), 10**4), "100000000 cells > 4096"),
    (lambda: upper_triangular_ring(cyclic_ring(1), 100), "5050 cells > 4096"),
    (lambda: matrix_ring(cyclic_ring(2), 10**5), "10000000000 cells > 4096"),
]


def test_size_cap_enforced():
    for build, message in CELL_RINGS_OVER_THE_CAP:
        with pytest.raises(RingAxiomError, match=f"^size cap exceeded: {re.escape(message)}$"):
            build()


@pytest.mark.parametrize("factory", [matrix_ring, upper_triangular_ring])
@pytest.mark.parametrize("k", [0, -1])
def test_cell_ring_factories_refuse_k_below_one(factory, k):
    # k = -1 used to build a one-element ring named M-1(Z5)
    with pytest.raises(RingAxiomError, match=rf"^a matrix ring needs k >= 1, got {k}$"):
        factory(cyclic_ring(5), k)


@pytest.mark.parametrize("build, message", [
    (lambda: cyclic_ring(True), "a modulus must be an int, got True"),
    (lambda: cyclic_ring(300.0), "a modulus must be an int, got 300.0"),
    (lambda: cyclic_ring(8192.0), "a modulus must be an int, got 8192.0"),
    (lambda: matrix_ring(cyclic_ring(2), True), "a matrix ring needs an int k, got True"),
    (lambda: upper_triangular_ring(cyclic_ring(2), 2.0), "a matrix ring needs an int k, got 2.0"),
    (lambda: matrix_ring(cyclic_ring(2), 1e5), "a matrix ring needs an int k, got 100000.0"),
], ids=["Z(True)", "Z(300.0)", "Z(8192.0)", "M(True)", "T(2.0)", "M(1e5)"])
def test_factories_refuse_a_modulus_or_k_that_is_not_an_int(build, message):
    # a bool built ZTrue and MTrue(Z2), and a float failed on its own one or
    # size; each is refused first, before any size cap or table
    with pytest.raises(RingAxiomError, match=f"^{re.escape(message)}$"):
        build()


def test_cyclic_ring_size_cap():
    # refused before any table or closure is built, like the other factories
    with pytest.raises(RingAxiomError, match=r"^size cap exceeded: 8192 > 4096$"):
        cyclic_ring(8192)


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


def test_automorphism_cap_is_enforced():
    with pytest.raises(ValueError, match="Z6 has 6 elements; raise cap"):
        automorphisms(cyclic_ring(6), cap=4)


def test_swap_requires_square_product():
    with pytest.raises(RingAxiomError, match="square"):
        swap_automorphism(cyclic_ring(6))


def test_inner_automorphism_requires_unit():
    Z4 = cyclic_ring(4)
    with pytest.raises(ValueError, match="unit"):
        inner_automorphism(Z4, 2)
    assert inner_automorphism(Z4, 3).is_identity()  # Z4 is commutative


@pytest.mark.parametrize("ring", [matrix_ring(cyclic_ring(2), 2), cyclic_ring(300)],
                         ids=["M2(Z2)", "Z300"])
@pytest.mark.parametrize("u", [-1, "size", True])
def test_unit_inverse_and_inner_automorphism_refuse_a_non_element(ring, u):
    # -1 used to read the last row of a tabled ring, and size to raise
    # IndexError there; a closure-backed ring multiplied the non-element
    u = ring.size if u == "size" else u
    message = rf"^{u!r} is not an element of {re.escape(ring.name)} \(0\.\.{ring.size - 1}\)$"
    for call in (unit_inverse, inner_automorphism):
        with pytest.raises(ValueError, match=message):
            call(ring, u)


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


# Rings whose tables get corrupted below, at most 64 elements and more.
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


def _axiom_outcome(check, ring, **options):
    """None when ``check`` accepts the ring, else the error's type and text."""
    try:
        check(ring, **options)
    except (RingAxiomError, IndexError) as exc:
        return type(exc).__name__, str(exc)
    return None


def _corrupted(data, rings, values):
    """The tables of a ring of ``rings``, as lists, with up to three entries
    overwritten by ``values(n)``, and the ring's zero and one.  Sums are
    corrupted in symmetric pairs so that commutativity, checked first, does
    not catch every change."""
    base = data.draw(st.sampled_from(rings), label="ring")
    n = base.size
    add, mul = closure_tables(n, base.add, base.mul)
    element = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(0, 3), label="corruptions")):
        a, b, v = data.draw(element), data.draw(element), data.draw(values(n))
        if data.draw(st.booleans(), label="sum"):
            add[a][b] = add[b][a] = v
        else:
            mul[a][b] = v
    return add, mul, base.zero, base.one


# Oracle outcomes by table contents: the uncorrupted tables of the larger
# rings come up again and again.
_EXHAUSTIVE_OUTCOMES: dict = {}


def _entry_outcome(add, mul):
    """The error for the first table entry that is not an element, in
    row-major order with the addition table first; None when all are."""
    n = len(add)
    for label, table in (("add table", add), ("mul table", mul)):
        for a, row in enumerate(table):
            for b, x in enumerate(row):
                if not 0 <= x < n:
                    return ("RingAxiomError",
                            f"{label} entry {x!r} at ({a},{b}) is not an element 0..{n - 1}")
    return None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_validate_ring_matches_scalar_oracle_on_corrupted_tables(data):
    # Mostly entries in range; -1 and n are named as entries that are not
    # elements.
    add, mul, zero, one = _corrupted(data, CORRUPTIBLE, lambda n: st.one_of(
        st.integers(0, n - 1), st.sampled_from([-1, n])))
    # A table with entries in range is checked exactly, at every size: the
    # first failing triple of all.  An entry out of range is named, and a
    # row of sums without zero refused, when the ring is built.
    key = repr((add, mul))
    if key not in _EXHAUSTIVE_OUTCOMES:
        _EXHAUSTIVE_OUTCOMES[key] = _table_ring_by_scans(add, mul, zero, one)
    assert _axiom_outcome(lambda _: validate_ring(
        _unvalidated_table(len(add), add, mul, zero, one)), None) == _EXHAUSTIVE_OUTCOMES[key]


def test_tables_above_64_elements_are_checked_on_every_triple():
    # One wrong product that none of the 2000 seeded samples meets.
    Z = cyclic_ring(200)
    add, mul = closure_tables(200, Z.add, Z.mul)
    mul[150][151] = (mul[150][151] + 100) % 200
    ring = _unvalidated_table(200, add, mul, 0, 1)
    assert _axiom_outcome(validate_ring_oracle, ring) is None
    expected = ("RingAxiomError", "right distributivity fails at (1,149,151)")
    assert _axiom_outcome(validate_ring_oracle, ring, exhaustive_cap=200) == expected
    assert _axiom_outcome(validate_ring, ring) == expected


def test_tables_above_64_elements_report_their_first_failing_triple():
    # Every product by 90 but 90*1 is off by one.  A seeded sample meets a
    # failing triple before the first one in lexicographic order; the table
    # is reported at the latter.
    Z = cyclic_ring(100)
    add, mul = closure_tables(100, Z.add, Z.mul)
    mul[90] = [(x + (c != 1)) % 100 for c, x in enumerate(mul[90])]
    ring = _unvalidated_table(100, add, mul, 0, 1)
    assert _axiom_outcome(validate_ring_oracle, ring) == \
        ("RingAxiomError", "multiplication not associative at (68,90,77)")
    expected = ("RingAxiomError", "right distributivity fails at (1,89,0)")
    assert _axiom_outcome(validate_ring_oracle, ring, exhaustive_cap=100) == expected
    assert _axiom_outcome(validate_ring, ring) == expected


@pytest.mark.parametrize("bad", [-1, 3, 300, 1.0, None])
def test_validate_ring_names_the_first_entry_that_is_not_an_element(bad):
    Z3 = cyclic_ring(3)
    add, mul = closure_tables(3, Z3.add, Z3.mul)
    # the addition table is scanned first, row by row
    mul[1][2], add[2][1], add[2][2] = bad, bad, bad
    # named as the rows are converted to bytes, when the ring is built
    assert _axiom_outcome(lambda _: validate_ring(_unvalidated_table(3, add, mul, 0, 1)),
                          None) == \
        ("RingAxiomError", f"add table entry {bad!r} at (2,1) is not an element 0..2")


def _triple_laws_outcome(ring) -> bool | None:
    """Whether every triple satisfies the triple axioms, by a scan of all
    triples; None when a law checked before them already fails."""
    outcome = _axiom_outcome(validate_ring_oracle, ring, exhaustive_cap=ring.size)
    if outcome is None:
        return True
    first_laws = ("additive identity", "additive inverse", "multiplicative identity",
                  "addition not commutative")
    return None if outcome[1].startswith(first_laws) else False


def _fast_outcome(ring, add, mul) -> bool:
    """The exact check from the ring's additive generators, which must agree
    with the check from the generating set validation used before them; the
    tables are converted to bytes rows, as ``FiniteRing`` keeps them."""
    tables = _byte_tables(list(map(bytes, add)), list(map(bytes, mul)))
    outcome = _triple_axioms_hold(tables, _additive_generators(ring))
    assert _triple_axioms_hold(tables, sum_generators_of_table(tables[0], ring.zero)) \
        == outcome
    return outcome


# Small enough for a scan of every triple; commutative and not.
DIFFERENTIAL_RINGS = [
    cyclic_ring(2),
    cyclic_ring(9),
    cyclic_ring(12),
    product_ring(cyclic_ring(2), cyclic_ring(3)),
    product_ring(cyclic_ring(2), product_ring(cyclic_ring(2), cyclic_ring(2))),
    product_ring(cyclic_ring(3), cyclic_ring(3)),
    product_ring(cyclic_ring(4), cyclic_ring(4)),
    upper_triangular_ring(cyclic_ring(2), 2),
    upper_triangular_ring(cyclic_ring(3), 2),
    matrix_ring(cyclic_ring(2), 2),
]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exact_triple_check_matches_triple_scan_on_corrupted_tables(data):
    add, mul, zero, one = _corrupted(data, DIFFERENTIAL_RINGS,
                                     lambda n: st.integers(0, n - 1))
    # a row of sums without zero, refused as the ring is built, breaks a law
    # checked before the triple axioms
    assume(all(zero in row for row in add))
    ring = _unvalidated_table(len(add), add, mul, zero, one)
    expected = _triple_laws_outcome(ring)
    assume(expected is not None)
    assert _fast_outcome(ring, add, mul) == expected


@pytest.mark.parametrize("n", [65, 100, 257, 1024, 4096])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_sampled_triples_are_those_of_randrange(n, seed):
    # The triples are drawn from getrandbits in C; this pins them to the
    # randrange calls they replace, so a change in the random module shows.
    rng = random.Random(seed)
    want = [(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(500)]
    assert list(_sample_triples(n, 500, seed)) == want


def _scalar_ring(add, mul, neg, zero, one):
    """What ``validate_ring_oracle`` reads of a ring, looked up entry by
    entry in the list tables ``add`` and ``mul``."""
    return SimpleNamespace(size=len(add), add=lambda a, b: add[a][b],
                           mul=lambda a, b: mul[a][b], neg=neg, zero=zero, one=one)


@pytest.mark.parametrize("pair", [None, (7, 150), (150, 7)])
def test_table_ring_commutativity_above_the_table_limit_matches_oracle(pair):
    # table_ring reads commutativity off its add table; one asymmetric
    # entry, in either order of the pair, names the pair as a scan does
    n = TABLE_LIMIT + 44
    add, mul, neg, zero, one = cyclic_ops(n)
    add_t, mul_t = closure_tables(n, add, mul)
    if pair is not None:
        a, b = pair
        add_t[a][b] = (a + b + 1) % n
    expected = None if pair is None else \
        ("RingAxiomError", f"addition not commutative at ({min(pair)},{max(pair)})")
    ring = _scalar_ring(add_t, mul_t, neg, zero, one)
    assert _axiom_outcome(validate_ring_oracle, ring) == expected
    # the same tables as a FiniteRing, built without validation
    ring = _unvalidated_table(n, add_t, mul_t, zero, one)
    assert _axiom_outcome(validate_ring, ring) == expected
    assert _axiom_outcome(lambda _: table_ring(add_t, mul_t), None) == expected


@pytest.mark.parametrize("pair", [None, (7, 150), (150, 7)])
def test_tabled_commutativity_matches_oracle(pair):
    # a tabled add table is compared with its columns whole; one asymmetric
    # entry, in either order of the pair, names the pair as a scan does
    n = 200
    add, mul, _, zero, one = cyclic_ops(n)
    add_t, mul_t = closure_tables(n, add, mul)
    if pair is not None:
        a, b = pair
        add_t[a][b] = (a + b + 1) % n
    expected = None if pair is None else \
        ("RingAxiomError", f"addition not commutative at ({min(pair)},{max(pair)})")
    ring = _unvalidated_table(n, add_t, mul_t, zero, one)
    assert ring.tables is not None
    assert _axiom_outcome(validate_ring_oracle, ring) == expected
    assert _axiom_outcome(validate_ring, ring) == expected
    assert _axiom_outcome(lambda _: table_ring(add_t, mul_t), None) == expected


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
    return _unvalidated_table(len(maps), add, mul, index[(0,) * k], index[tuple(range(k))])


@pytest.mark.parametrize("k", [3, 4])  # 27 and 256 elements
@pytest.mark.parametrize("opposite, law", [(False, "left"), (True, "right")])
def test_near_ring_fails_one_distributive_law_like_oracle(k, opposite, law):
    ring = _near_ring(k, opposite)
    expected = _axiom_outcome(validate_ring_oracle, ring, exhaustive_cap=ring.size)
    assert expected[1].startswith(f"{law} distributivity fails")
    assert _axiom_outcome(validate_ring, ring) == expected


def _unital_algebra(p: int, constants) -> FiniteRing:
    """Z_p^d on base-p digits, with basis e_0 = 1, e_1, ..., e_(d-1) and
    e_i * e_j = constants[i-1][j-1] (a digit vector) for i, j >= 1.

    The product is bilinear with identity e_0, so every ring axiom holds
    except, perhaps, associativity of the product.
    """
    d = len(constants) + 1
    n = p ** d
    unit = [[int(i == t) for t in range(d)] for i in range(d)]
    # basis[i][j] = e_i * e_j; e_0 * e_j = e_j and e_i * e_0 = e_i
    basis = [[unit[i + j] if i == 0 or j == 0 else constants[i - 1][j - 1]
              for j in range(d)] for i in range(d)]
    digits = [[x // p ** t % p for t in range(d)] for x in range(n)]

    def pack(v):
        return sum(c % p * p ** t for t, c in enumerate(v))

    add = [[pack([u + v for u, v in zip(dx, dy)]) for dy in digits] for dx in digits]
    mul = [[pack([sum(dx[i] * dy[j] * basis[i][j][t] for i in range(d) for j in range(d))
                  for t in range(d)]) for dy in digits] for dx in digits]
    return _unvalidated_table(n, add, mul, 0, 1)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_triple_check_matches_triple_scan_on_unital_algebras(data):
    # Only associativity of the product can fail here: the check on G^3
    # must catch it.
    p, d = data.draw(st.sampled_from([(2, 3), (2, 4), (3, 3)]), label="p, d")
    vector = st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
    constants = data.draw(st.lists(st.lists(vector, min_size=d - 1, max_size=d - 1),
                                   min_size=d - 1, max_size=d - 1), label="constants")
    ring = _unital_algebra(p, constants)
    expected = _triple_laws_outcome(ring)
    assert expected is not None
    assert _fast_outcome(ring, *ring.tables) == expected


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("opposite", [False, True])
def test_exact_triple_check_rejects_near_rings_like_triple_scan(k, opposite):
    ring = _near_ring(k, opposite)
    assert _triple_laws_outcome(ring) is False
    assert _fast_outcome(ring, *ring.tables) is False


@pytest.mark.parametrize("ring", [*CORRUPTIBLE, *DIFFERENTIAL_RINGS,
                                  matrix_ring(cyclic_ring(3), 2), matrix_ring(cyclic_ring(4), 2)],
                         ids=lambda r: r.name)
def test_exact_triple_check_accepts_factory_rings(ring):
    assert _fast_outcome(ring, *ring.tables)


def _small_product(*moduli):
    ring = cyclic_ring(moduli[0])
    for m in moduli[1:]:
        ring = product_ring(ring, cyclic_ring(m))
    return ring


# (label, build, ops): ops are the reference add, mul, neg, zero and one.
FACTORY_CASES = [
    *[(f"Z{n}", lambda n=n: cyclic_ring(n), lambda n=n: cyclic_ops(n))
      for n in (*range(1, 9), 255, 256, 257)],
    *[(f"Z{a}xZ{b}", lambda a=a, b=b: product_ring(cyclic_ring(a), cyclic_ring(b)),
       lambda a=a, b=b: product_ops(cyclic_ring(a), cyclic_ring(b)))
      for a, b in ((2, 3), (3, 2), (4, 2), (2, 4), (3, 5), (1, 7), (7, 1), (4, 64), (2, 129))],
    ("(Z2xZ3)xZ4", lambda: product_ring(_small_product(2, 3), cyclic_ring(4)),
     lambda: product_ops(_small_product(2, 3), cyclic_ring(4))),
    ("Z5x(Z2xZ3)", lambda: product_ring(cyclic_ring(5), _small_product(2, 3)),
     lambda: product_ops(cyclic_ring(5), _small_product(2, 3))),
    *[(f"M{k}(Z{b})", lambda b=b, k=k: matrix_ring(cyclic_ring(b), k),
       lambda b=b, k=k: matrix_ops(b, k))
      for b, k in ((1, 2), (2, 1), (3, 1), (7, 1), (2, 2), (3, 2), (4, 2), (5, 2))],
    *[(f"T{k}(Z{b})", lambda b=b, k=k: upper_triangular_ring(cyclic_ring(b), k),
       lambda b=b, k=k: matrix_ops(b, k, triangular=True))
      for b, k in ((2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3))],
]


@pytest.mark.parametrize("build, ops", [c[1:] for c in FACTORY_CASES],
                         ids=[c[0] for c in FACTORY_CASES])
def test_factory_tables_match_closure_tables(build, ops):
    ring = build()
    add, mul, neg, zero, one = ops()
    n = ring.size
    assert (ring._add_rows is not None) == (n <= TABLE_LIMIT)
    if ring._add_rows is not None:
        # the factory's rows, and table_ring's from the reference tables,
        # are bytes that read back as the reference tables
        want = closure_tables(n, add, mul)
        for tabled in (ring, table_ring(*want)):
            assert all(type(row) is bytes for table in tabled.tables for row in table)
            assert table_lists(tabled.tables) == want
    else:
        assert closure_tables(n, ring.add, ring.mul) == closure_tables(n, add, mul)
    assert [ring.neg(a) for a in range(n)] == [neg(a) for a in range(n)]
    assert (ring.zero, ring.one) == (zero, one)


# Closure-backed factory rings, each a ring because the parts its closures
# read are, with the reference rows of a few of their elements.  Z257, M2(Z5) and
# T3(Z3) are compared in full in FACTORY_CASES.
LARGE_FACTORY_CASES = [
    ("Z4096", lambda: cyclic_ring(4096),
     lambda xs: closure_tables(4096, *cyclic_ops(4096)[:2], rows=xs)),
    *[(f"Z{a}xZ{b}", lambda a=a, b=b: product_ring(cyclic_ring(a), cyclic_ring(b)),
       lambda xs, a=a, b=b: closure_tables(
           a * b, *product_ops(cyclic_ring(a), cyclic_ring(b))[:2], rows=xs))
      # Z300 is itself closure-backed
      for a, b in ((16, 32), (2, 300), (64, 64))],
    ("M2(Z8)", lambda: matrix_ring(cyclic_ring(8), 2),
     lambda xs: cell_ring_tables_by_digits(cyclic_ring(8), 2, rows=xs)),
    # one cell over a closure-backed base: the base itself
    ("M1(Z300)", lambda: matrix_ring(cyclic_ring(300), 1),
     lambda xs: cell_ring_tables_by_digits(cyclic_ring(300), 1, rows=xs)),
]


@pytest.mark.parametrize("build, reference", [c[1:] for c in LARGE_FACTORY_CASES],
                         ids=[c[0] for c in LARGE_FACTORY_CASES])
def test_closure_factory_rings_match_reference_rows(build, reference):
    ring = build()
    n = ring.size
    assert n > TABLE_LIMIT and ring._parts is not None
    xs = [ring.zero, ring.one, *random.Random(n).sample(range(n), 6)]
    sums, products = reference(xs)
    assert closure_tables(n, ring.add, ring.mul, rows=xs) == (sums, products)
    assert [ring.neg(x) for x in xs] == [row.index(ring.zero) for row in sums]


def _assert_is_its_base(ring, base, name):
    """A one-cell ring has the base's size, zero, one, sums, products and
    negatives, on the base's indices, and prints x as [[x]]."""
    n = base.size
    assert (ring.name, ring.size, ring.zero, ring.one) == (name, n, base.zero, base.one)
    assert ring.tables == base.tables
    xs = [base.zero, base.one, *random.Random(n).sample(range(n), min(n, 6))]
    assert closure_tables(n, ring.add, ring.mul, rows=xs) == \
        closure_tables(n, base.add, base.mul, rows=xs)
    assert [ring.neg(a) for a in range(n)] == [base.neg(a) for a in range(n)]
    assert [ring.element_repr(a) for a in range(n)] == \
        [f"[[{base.element_repr(a)}]]" for a in range(n)]


@pytest.mark.parametrize("base", [cyclic_ring(5), cyclic_ring(1024)], ids=["Z5", "Z1024"])
def test_a_one_cell_ring_is_its_base(base):
    _assert_is_its_base(matrix_ring(base, 1), base, f"M1({base.name})")
    _assert_is_its_base(upper_triangular_ring(base, 1), base, f"T1({base.name})")


@settings(max_examples=5, deadline=None, derandomize=True)
@given(matrix_subrings())
def test_a_one_cell_ring_over_a_relabelled_base_is_its_base(base):
    _assert_is_its_base(matrix_ring(base, 1), base, f"M1({base.name})")
    _assert_is_its_base(upper_triangular_ring(base, 1), base, f"T1({base.name})")


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.sampled_from([(False, 8, 5), (True, 16, 7)]).flatmap(
    lambda shape: st.tuples(st.just(shape[0]), matrix_subrings(shape[1]).filter(
        lambda base: base.size >= shape[2]))), st.data())
def test_matrix_rings_over_relabelled_bases_match_reference_rows(drawn, data):
    # M2 over a base of 5-8 elements, T2 over one of 7-16: 343-4096
    # elements, closure-backed and a ring because the base is
    triangular, base = drawn
    ring = (upper_triangular_ring if triangular else matrix_ring)(base, 2)
    n = ring.size
    assert n > TABLE_LIMIT and ring._parts == (base,)
    xs = [ring.zero, ring.one,
          *data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3), label="rows")]
    sums, products = cell_ring_tables_by_digits(base, 2, triangular=triangular, rows=xs)
    assert sums[0] == products[1] == list(range(n))
    assert closure_tables(n, ring.add, ring.mul, rows=xs) == (sums, products)
    assert [ring.neg(x) for x in xs] == [row.index(ring.zero) for row in sums]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(rings(max_size=128), st.data())
def test_products_of_drawn_rings_match_the_componentwise_tables(a, data):
    # a tabled product is decided from its factors alone, so only these
    # tables check its rows and negatives
    b = data.draw(matrix_subrings(TABLE_LIMIT // a.size), label="b")
    ring = product_ring(a, b)
    n = ring.size
    assert n <= TABLE_LIMIT and ring._parts == (a, b)
    add, mul, neg, zero, one = product_ops(a, b)
    assert table_lists(ring.tables) == closure_tables(n, add, mul)
    assert [ring.neg(x) for x in range(n)] == [neg(x) for x in range(n)]
    assert (ring.zero, ring.one) == (zero, one)


def _broken_cyclic(n: int) -> FiniteRing:
    """Z_n with 2*2 set to 2, built without validation: not distributive,
    but 0 and 1 still act as they should."""
    add, mul = ([list(row) for row in table] for table in cyclic_ring(n).tables)
    mul[2][2] = 2
    return _unvalidated_table(n, add, mul, 0, 1)


def _broken_sum_z3() -> FiniteRing:
    """Z3 with 0 + 1 = 1 + 0 = 2, built without validation."""
    add, mul = ([list(row) for row in table] for table in cyclic_ring(3).tables)
    add[0][1] = add[1][0] = 2
    return _unvalidated_table(3, add, mul, 0, 1)


@pytest.mark.parametrize("broken", [
    lambda: _broken_cyclic(3), lambda: _broken_cyclic(5), lambda: _broken_cyclic(3),
    _broken_sum_z3,
], ids=["T3(Z3')", "M2(Z5')", "T2(Z3')", "M2(Z3'')"])
def test_closure_backed_cell_rings_validate_their_base(broken):
    # a cell ring is a ring because its base is, and the base is checked
    # where it is made: a broken base raises its own error there, so no
    # factory is ever handed one
    outcome = _axiom_outcome(validate_ring, broken())
    assert outcome is not None and outcome[0] == "RingAxiomError"


def test_products_validate_their_factors():
    # a product is a ring because its factors are, each checked where it
    # is made: a broken factor raises its own error there
    broken = _broken_cyclic(3)
    message = "right distributivity fails at (1,1,2)"
    assert _axiom_outcome(validate_ring, broken) == ("RingAxiomError", message)


def test_a_product_reports_its_factors_identity_failure():
    # 0 + 1 = 2 in a Z3 built without validation: the factor raises its
    # own message and index where it is made, before any product sees it
    broken = _broken_sum_z3()
    message = "additive identity fails at 1"
    assert _axiom_outcome(validate_ring, broken) == ("RingAxiomError", message)


def test_the_generator_search_refuses_a_zero_that_is_no_identity():
    # 0 + 1 = 2 in an unvalidated Z3: 1 is never reached from 0, and the
    # search used to pick it as a generator again and again, without end
    with pytest.raises(RingAxiomError, match=r"^additive identity fails at 1$"):
        automorphisms(_broken_sum_z3())


@pytest.mark.parametrize("build", [lambda: product_ring(cyclic_ring(6), cyclic_ring(10)),
                                   lambda: matrix_ring(cyclic_ring(3), 2),
                                   lambda: upper_triangular_ring(cyclic_ring(2), 3)],
                         ids=["Z6xZ10", "M2(Z3)", "T3(Z2)"])
def test_a_corrupted_factory_table_is_checked_from_its_rows(build):
    # a factory's parts are its own promise: the same rows with one product
    # changed, given to table_ring or to FiniteRing, are decided from the
    # rows, at the oracle's first failing triple
    ring = build()
    n, zero, one = ring.size, ring.zero, ring.one
    add, mul = table_lists(ring.tables)
    mul[n - 1][n - 1] = add[mul[n - 1][n - 1]][one]
    expected = _axiom_outcome(validate_ring_oracle, _unvalidated_table(n, add, mul, zero, one),
                              exhaustive_cap=n)
    assert expected is not None and expected[0] == "RingAxiomError"
    for make in (lambda: table_ring(add, mul),
                 lambda: FiniteRing(n, add=add, mul=mul, zero=zero, one=one)):
        assert _axiom_outcome(lambda _: make(), None) == expected


def _relabelled_tables(size: int, add, mul, seed: int) -> tuple:
    """The tables of ``add`` and ``mul`` on 0..size-1 as lists, each x
    stored at index perm[x] of a seeded shuffle, and perm."""
    perm = list(range(size))
    random.Random(seed).shuffle(perm)
    add_t, mul_t = ([[0] * size for _ in range(size)] for _ in range(2))
    for x in range(size):
        ax, mx = add_t[perm[x]], mul_t[perm[x]]
        for y in range(size):
            ax[perm[y]] = perm[add(x, y)]
            mx[perm[y]] = perm[mul(x, y)]
    return add_t, mul_t, perm


def _relabelled_table_ring(factory):
    """``factory`` given to ``table_ring`` as tables relabelled by a seeded
    shuffle, with the permutation: x of ``factory`` is perm[x]."""
    add_t, mul_t, perm = _relabelled_tables(factory.size, factory.add, factory.mul,
                                            factory.size)
    return table_ring(add_t, mul_t), perm


def _relabelled_z512():
    """Z512 as ``table_ring`` lists, each x stored at a seeded-shuffled index."""
    return _relabelled_table_ring(cyclic_ring(512))[0]


@pytest.mark.parametrize("build, table", [(lambda: cyclic_ring(1024), False),
                                          (lambda: product_ring(cyclic_ring(16),
                                                                cyclic_ring(32)), False),
                                          (lambda: matrix_ring(cyclic_ring(5), 2), False),
                                          (_relabelled_z512, True)],
                         ids=["Z1024", "Z16xZ32", "M2(Z5)", "table512"])
def test_factory_rings_are_validated_without_their_own_operations(build, table):
    # a table ring above the limit holds its own 16-bit rows and has no
    # functions or parts; a factory ring checks nothing of its own, its
    # parts having been checked where they were made
    ring = build()
    assert ring.size > TABLE_LIMIT
    if table:
        assert ring._add is ring._mul is ring._parts is None
        assert {(type(row), row.typecode) for rows in (ring._add_rows, ring._mul_rows)
                for row in rows} == {(array, "H")}
        return
    assert all(isinstance(part, FiniteRing) for part in ring._parts)
    calls = []
    add, mul = ring._add, ring._mul
    ring._add = lambda a, b: calls.append("add") or add(a, b)
    ring._mul = lambda a, b: calls.append("mul") or mul(a, b)
    validate_ring(ring)
    assert calls == []


@pytest.mark.parametrize("keywords", [True, False])
def test_functions_above_the_table_limit_need_their_parts(keywords):
    # a ring on functions above the limit is a factory's, which names its
    # parts and negatives through _factory_ring; FiniteRing refuses such
    # functions, and takes no parts, negatives, printer or skipped check
    n = TABLE_LIMIT + 1
    ops = {"add": lambda a, b: (a + b) % n, "mul": lambda a, b: a * b % n, "zero": 0, "one": 1}
    if keywords:
        for keyword in ({"neg": lambda a: -a % n}, {"parts": ()}, {"validate": False},
                        {"element_repr": str}):
            with pytest.raises(TypeError, match=rf"unexpected keyword argument '{[*keyword][0]}'"):
                FiniteRing(n, **ops, **keyword)
        return
    with pytest.raises(RingAxiomError, match=(
            r"^a ring of 257 > 256 elements is built by cyclic_ring, product_ring, "
            r"matrix_ring, upper_triangular_ring or table_ring$")):
        FiniteRing(n, **ops)
    ring = _factory_ring(n, ops["add"], ops["mul"], [-a % n for a in range(n)], 0, 1, "Z257",
                         ())
    assert (ring.tables, ring.add(200, 100), ring.mul(20, 20), ring.neg(1)) == \
        (None, 43, 143, 256)


def _z6_tables() -> tuple:
    """The sum and product tables of Z6, as lists."""
    return closure_tables(6, *cyclic_ops(6)[:2])


def test_a_table_with_a_broken_product_is_refused_from_its_rows():
    # Z6 with 5*5 set to 0 is no ring, and a caller cannot vouch for it by
    # naming parts: its rows decide it, at the oracle's first failing triple
    add, mul = _z6_tables()
    mul[5][5] = 0
    expected = _axiom_outcome(validate_ring_oracle, _unvalidated_table(6, add, mul, 0, 1),
                              exhaustive_cap=6)
    assert expected == ("RingAxiomError", "right distributivity fails at (1,4,5)")
    assert _axiom_outcome(lambda _: FiniteRing(6, add, mul, zero=0, one=1), None) == expected
    with pytest.raises(TypeError, match="unexpected keyword argument 'parts'"):
        FiniteRing(6, add, mul, zero=0, one=1, parts=())


def test_a_table_takes_its_units_from_its_rows_not_from_named_parts():
    # Z6's own tables with Z2 and Z3 named as parts would read units off
    # the parts' index pairs, [4, 5]; the rows give 1 and 5
    add, mul = _z6_tables()
    assert units(FiniteRing(6, add, mul)) == [1, 5] == sorted(units_by_scan(cyclic_ring(6)))
    with pytest.raises(TypeError, match="unexpected keyword argument 'parts'"):
        FiniteRing(6, add, mul, parts=(cyclic_ring(2), cyclic_ring(3)))


def test_table_ring_size_cap():
    # refused before any entry is read, like the factories; the rows are
    # shared, so the tables take no n^2 memory
    row = [0] * (DEFAULT_SIZE_CAP + 1)
    with pytest.raises(RingAxiomError, match=r"^size cap exceeded: 4097 > 4096$"):
        table_ring([row] * len(row), [row] * len(row))


@pytest.mark.parametrize("bad", [-1, 12, True])
def test_automorphism_apply_refuses_non_elements(bad):
    # -1 would read the image of 11, and True that of 1
    aut = identity_automorphism(cyclic_ring(12))
    assert aut.apply(11) == 11
    with pytest.raises(ValueError, match=r"is not an element of Z12 \(0..11\)"):
        aut.apply(bad)


# The closure-backed rings of test_kernel.
KERNEL_LARGE_RINGS = [product_ring(cyclic_ring(2), cyclic_ring(129)),
                      product_ring(cyclic_ring(4), cyclic_ring(65)),
                      product_ring(gallery_ring("T2F2"), cyclic_ring(33))]


@pytest.mark.parametrize("build", [
    *(c[1] for c in FACTORY_CASES),
    *(lambda name=name: gallery_ring(name) for name in gallery_names()),
    *(lambda ring=ring: ring for ring in KERNEL_LARGE_RINGS),
], ids=[*(c[0] for c in FACTORY_CASES), *gallery_names(),
        *(r.name for r in KERNEL_LARGE_RINGS)])
def test_additive_generators_are_those_of_the_span_search(build):
    # FACTORY_CASES includes Z1, whose one is its zero.
    ring = build()
    assert _additive_generators(ring) == additive_generators_by_span(ring)


@pytest.mark.parametrize("name", ["Z0", "Z007", "Z01", "Z\u0663", "z7", "Z7 ", "M2F2x"])
def test_gallery_accepts_only_the_names_it_lists(name):
    # none is a listed name: Z007, Z01 and Z with an Arabic-Indic three
    # would be second cache keys, and second instances, of Z7, Z1 and Z3
    with pytest.raises(KeyError, match=rf"^'unknown gallery ring: {re.escape(name)}'$"):
        gallery_ring(name)
    with pytest.raises(KeyError, match=r"^'cyclic gallery rings stop at Z64'$"):
        gallery_ring("Z65")
    assert [gallery_ring(name).size for name in gallery_names()[:64]] == list(range(1, 65))


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


# (n, bad), one table at each side of TABLE_LIMIT; a case at n = 300 has
# n in its id
_BAD_ENTRIES = [(3, 3), (3, -1), (3, 65536), (3, 1.0), (3, "2"),
                (300, 300), (300, -1), (300, 65536), (300, 1.0), (300, "2")]


@pytest.mark.parametrize("which", ["add", "mul"])
@pytest.mark.parametrize("n, bad", _BAD_ENTRIES,
                         ids=[str(bad) if n == 3 else f"{bad}-n{n}" for n, bad in _BAD_ENTRIES])
def test_table_ring_rejects_entries_outside_the_ring(which, n, bad):
    # the same text on both sides of TABLE_LIMIT: an entry that is not an
    # int, one out of 0..65535 and one out of 0..n-1 alike
    add, mul, _, _, _ = cyclic_ops(n)
    tables = dict(zip(("add", "mul"), closure_tables(n, add, mul)))
    tables[which][2][1] = bad
    with pytest.raises(RingAxiomError, match=rf"^{which} table entry {re.escape(repr(bad))} "
                       rf"at \(2,1\) is not an element 0..{n - 1}$"):
        table_ring(tables["add"], tables["mul"])


@pytest.mark.parametrize("n", [3, 300])
def test_table_ring_owns_copies_of_its_rows(n):
    add, mul, _, _, _ = cyclic_ops(n)
    add_t, mul_t = closure_tables(n, add, mul)
    # a bool entry is stored as the int it equals
    mul_t[1][1] = True
    ring = table_ring(add_t, mul_t)
    assert ring.mul(1, 1) == 1 and type(ring.mul(1, 1)) is int
    add_t[1][1], mul_t[2][2] = 0, 0
    assert (ring.add(1, 1), ring.mul(2, 2)) == (2, 4 % n)


def _table_ring_by_scans(add, mul, zero=None, one=None):
    """What ``table_ring`` must give on list tables, by scalar scans: the
    first entry that is not an element, the first row that is the identity
    of + and the first element that is the identity of * on both sides, the
    first index of zero in each row of the addition table, then
    ``validate_ring_oracle`` on those, on every triple up to TABLE_LIMIT
    and above it on its 2000 triples of seed 0.  None, or the error's type
    and text."""
    n = len(add)
    outcome = _entry_outcome(add, mul)
    if outcome is not None:
        return outcome
    if zero is None:
        zero = next((z for z in range(n) if all(add[z][a] == a for a in range(n))), None)
        if zero is None:
            return "RingAxiomError", "no additive identity found in table"
    if one is None:
        one = next((e for e in range(n)
                    if all(mul[e][a] == a == mul[a][e] for a in range(n))), None)
        if one is None:
            return "RingAxiomError", "no multiplicative identity found in table"
    for a, row in enumerate(add):
        if zero not in row:
            return "RingAxiomError", f"element {a} has no additive inverse"
    neg = [row.index(zero) for row in add]
    return _axiom_outcome(validate_ring_oracle,
                          _scalar_ring(add, mul, neg.__getitem__, zero, one),
                          exhaustive_cap=TABLE_LIMIT)


# Z12xZ25 relabelled, a 300-element table ring, with its zero, one and negatives
_Z12XZ25 = product_ring(cyclic_ring(12), cyclic_ring(25))
_Z12XZ25_TABLES = _relabelled_tables(300, _Z12XZ25.add, _Z12XZ25.mul, 300)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_table_ring_above_the_table_limit_matches_scalar_scans(data):
    # Up to three entries are overwritten, each by one of the kinds below:
    # sums in symmetric pairs as in _corrupted, or alone, products, the
    # row of zero, the column of one, a sum that was zero, and an entry
    # that is not an element.  zero and one are given or found by scanning.
    add_t, mul_t, perm = _Z12XZ25_TABLES
    add, mul = [list(row) for row in add_t], [list(row) for row in mul_t]
    n, ring = 300, _Z12XZ25
    zero, one = perm[ring.zero], perm[ring.one]
    element = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(0, 3), label="corruptions")):
        kind = data.draw(st.sampled_from(
            ["sums", "sum", "product", "zero row", "one column", "negative", "entry"]))
        a, b, v = data.draw(element), data.draw(element), data.draw(element)
        if kind == "sums":
            add[a][b] = add[b][a] = v
        elif kind == "sum":
            add[a][b] = v
        elif kind == "product":
            mul[a][b] = v
        elif kind == "zero row":
            add[zero][b] = add[b][zero] = v
        elif kind == "one column":
            mul[b][one] = v
        elif kind == "negative":
            b = perm[ring.neg(perm.index(a))]
            add[a][b] = add[b][a] = v
        else:
            (add, mul)[a % 2][b][v] = data.draw(st.sampled_from([-1, n]))
    given_ids = data.draw(st.booleans(), label="zero and one given")
    ids = {"zero": zero, "one": one} if given_ids else {}
    expected = _table_ring_by_scans(add, mul, **ids)
    assert _axiom_outcome(lambda _: table_ring(add, mul, **ids), None) == expected


def test_table_ring_above_the_table_limit_names_a_missing_identity():
    add_t, mul_t, perm = _Z12XZ25_TABLES
    zero, one = perm[_Z12XZ25.zero], perm[_Z12XZ25.one]
    add, mul = [list(row) for row in add_t], [list(row) for row in mul_t]
    # one entry of the row of zero, then one entry of the column of one
    add[zero][7] = add[7][zero] = add[zero][8]
    mul[5][one] = mul[5][(one + 1) % 300]
    for tables, law in (((add, mul_t), "additive"), ((add_t, mul), "multiplicative")):
        want = ("RingAxiomError", f"no {law} identity found in table")
        assert _table_ring_by_scans(*tables) == want
        assert _axiom_outcome(lambda _: table_ring(*tables), None) == want


# (n, which, bad): a zero or one that is not an element, an int 0..n-1 and
# not a bool, on each side of TABLE_LIMIT
_BAD_IDENTITIES = [(n, which, bad) for n in (3, 300) for which in ("zero", "one")
                   for bad in sorted({-1, n, 300, 70000}) + [1.0, True]]


@pytest.mark.parametrize("n, which, bad", _BAD_IDENTITIES,
                         ids=[f"{which}={bad!r}-n{n}" for n, which, bad in _BAD_IDENTITIES])
def test_a_zero_or_one_that_is_not_an_element_is_named(n, which, bad):
    add, mul, _, _, _ = cyclic_ops(n)
    tables = closure_tables(n, add, mul)
    with pytest.raises(RingAxiomError, match=rf"^{which} {re.escape(repr(bad))} "
                       rf"is not an element 0..{n - 1}$"):
        table_ring(*tables, **{which: bad})


@pytest.mark.parametrize("n, add, mul", [
    (3, [[0, 1], [1, 0]], [[0, 0], [0, 1]]),
    (2, [[0, 1, 0], [1, 0, 1]], [[0, 0], [0, 1]]),
    (2, [[0, 1], [1, 0]], [[0, 0], [0, 1], [0, 0]]),
    (300, [list(range(300))] * 299, [list(range(300))] * 300),
], ids=["2x2-for-3", "2x3-add", "3x2-mul", "299x300-add"])
def test_finite_ring_refuses_tables_of_the_wrong_shape(n, add, mul):
    # the text table_ring gives, before any entry is read
    with pytest.raises(RingAxiomError, match=r"^tables must be square and of matching size$"):
        FiniteRing(n, add=add, mul=mul, zero=0, one=1)


@pytest.mark.parametrize("n", [3, 300])
def test_table_ring_packs_each_table_once(n, monkeypatch):
    import skewseries.rings as rings
    calls = []
    for name in ("_byte_rows", "_wide_rows"):
        packer = getattr(rings, name)
        monkeypatch.setattr(rings, name, lambda table, size, label, name=name, packer=packer:
                            calls.append((name, label)) or packer(table, size, label))
    table_ring(*closure_tables(n, *cyclic_ops(n)[:2]))
    name = "_byte_rows" if n <= TABLE_LIMIT else "_wide_rows"
    assert calls == [(name, "add table"), (name, "mul table")]


@pytest.mark.parametrize("a, b", [(12, 25), (16, 32)])
def test_table_rings_above_the_table_limit_match_the_factory_ring(a, b):
    # every bitset kind of the ideals kernel, the units and their inverses
    # read off the table's own 16-bit rows, against the factory ring's,
    # carried through the relabelling
    factory = product_ring(cyclic_ring(a), cyclic_ring(b))
    table, perm = _relabelled_table_ring(factory)
    n = table.size
    assert n > TABLE_LIMIT and table.tables is None and factory._parts is not None
    for kind in (ZL, ZR, FR, FL):
        want = [0] * n
        for x, mask in enumerate(_bits(factory, kind)):
            want[perm[x]] = sum(1 << perm[i] for i in _members(mask))
        assert _bits(table, kind) == want, kind
    assert units(table) == sorted(perm[u] for u in units(factory))
    assert [unit_inverse(table, perm[u]) for u in units(factory)] == \
        [perm[unit_inverse(factory, u)] for u in units(factory)]


def test_automorphism_validation_on_a_table_above_the_limit_matches_the_factory():
    # the swap of Z17xZ17, a 289-element table, carried through the
    # relabelling; the swap after a transposition fails on both, and the
    # table names the pair a scan of every pair names
    factory = _small_product(17, 17)
    table, perm = _relabelled_table_ring(factory)
    swap = swap_automorphism(factory).perm
    broken = list(swap)
    broken[2], broken[3] = broken[3], broken[2]
    for images in (swap, broken):
        moved = [0] * table.size
        for x, y in enumerate(images):
            moved[perm[x]] = perm[y]
        want = _aut_outcome(RingAut.validate, RingAut._trusted(factory, images))
        got = _aut_outcome(RingAut.validate, RingAut._trusted(table, moved))
        assert (got is None) == (want is None)
        assert got == _aut_outcome(ring_aut_validate_oracle, RingAut._trusted(table, moved))
    assert want is not None


def _check_units_against_scan(ring):
    want = units_by_scan(ring)
    assert units(ring) == sorted(want)
    assert {u: unit_inverse(ring, u) for u in want} == want
    non_unit = next((x for x in range(ring.size) if x not in want), None)
    if non_unit is not None:
        with pytest.raises(ValueError, match="not a unit"):
            unit_inverse(ring, non_unit)


@pytest.mark.parametrize("build", [
    lambda: _small_product(17, 17), lambda: _small_product(2, 300),
    lambda: _small_product(6, 10), lambda: _small_product(2, 3, 4),
    lambda: _small_product(1, 7),
], ids=["17-17", "2-300", "Z6xZ10", "(Z2xZ3)xZ4", "Z1xZ7"])
def test_units_of_a_closure_backed_product_match_the_element_scan(build):
    # read off the factors' units, against the scan of every element, for
    # products above the table limit and below it alike; the factor Z300 is
    # closure-backed itself
    ring = build()
    assert len(ring._parts) == 2
    assert units(ring) == sorted(units_by_scan(ring))


@pytest.mark.parametrize("build", [lambda: cyclic_ring(300),
                                   lambda: matrix_ring(cyclic_ring(300), 1),
                                   lambda: upper_triangular_ring(cyclic_ring(7), 2),
                                   lambda: matrix_ring(_small_product(2, 300), 1)],
                         ids=["Z300", "M1(Z300)", "T2(Z7)", "M1(Z2xZ300)"])
def test_units_of_closure_backed_rings_that_are_not_products_match_the_scan(build):
    # the row rule on closure rows: u is a unit when its row holds 1; a
    # one-cell ring takes its base's units, by the factors' rule over a
    # product
    ring = build()
    assert ring.tables is None and len(ring._parts) < 2
    _check_units_against_scan(ring)
    if ring.size == 300:
        assert units(ring) == [u for u in range(300) if gcd(u, 300) == 1]


UNIT_RINGS = [*(gallery_ring(name) for name in gallery_names()),
              matrix_ring(cyclic_ring(3), 2), matrix_ring(cyclic_ring(4), 2),
              upper_triangular_ring(cyclic_ring(2), 3),
              product_ring(cyclic_ring(17), cyclic_ring(17))]


@pytest.mark.parametrize("ring", UNIT_RINGS, ids=lambda r: r.name)
def test_units_and_inverses_match_scan(ring):
    _check_units_against_scan(ring)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(matrix_subrings().filter(lambda ring: ring.one != 1))
def test_units_of_relabelled_rings_match_scan(ring):
    # the row search looks for the index of one, which is not 1 here
    _check_units_against_scan(ring)


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


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_automorphisms_of_f2_power_are_the_coordinate_permutations(k):
    assert len(automorphisms(_small_product(*[2] * k))) == factorial(k)


DIFFERENTIAL_AUT_RINGS = [
    *SMALL_RINGS,
    product_ring(_small_product(2, 2), _small_product(2, 2)),
    matrix_ring(cyclic_ring(2), 2),
    upper_triangular_ring(cyclic_ring(3), 2),
    upper_triangular_ring(cyclic_ring(4), 2),
    _small_product(8, 8),
    product_ring(_small_product(2, 2), _small_product(3, 3)),
]


@pytest.mark.parametrize("ring", DIFFERENTIAL_AUT_RINGS, ids=lambda r: r.name)
def test_automorphisms_match_the_additive_extension_search(ring):
    assert [a.perm for a in automorphisms(ring)] == \
        automorphism_perms_by_additive_extension(ring)


@pytest.mark.parametrize("build, order", [
    (lambda: upper_triangular_ring(cyclic_ring(2), 3), 8),
    (lambda: product_ring(matrix_ring(cyclic_ring(2), 2), cyclic_ring(2)), 6),
])
def test_automorphism_group_orders_of_64_and_32_element_rings(build, order):
    assert len(automorphisms(build())) == order


def _f2_square_zero(k):
    """F2[x1..xk]/(x1..xk)^2, with a + b1*x1 + ... + bk*xk stored as the
    bits bk..b1a.

    An automorphism fixes 1 and maps the ideal (x1..xk), whose products all
    vanish, onto itself by any invertible linear map, so Aut is GL_k(F2).
    """
    def mul(u, v):
        out = u & v & 1
        if u & 1:
            out ^= v & ~1
        if v & 1:
            out ^= u & ~1
        return out
    n = 2 << k
    return table_ring([[u ^ v for v in range(n)] for u in range(n)],
                      [[mul(u, v) for v in range(n)] for u in range(n)],
                      name=f"F2[x1..x{k}]/(x)^2")


def test_automorphisms_of_f2_x1_to_x4_mod_squares_are_gl4_f2():
    ring = _f2_square_zero(4)
    auts = automorphisms(ring)
    perms = [aut.perm for aut in auts]
    assert len(set(perms)) == len(perms) == 20160
    assert perms[0] == tuple(range(ring.size)) and perms[1:] == sorted(perms[1:])
    for aut in random.Random(0).sample(auts, 60):
        aut.validate()


def test_automorphisms_of_f2_x1_to_x5_mod_squares_exceed_the_budget():
    # |GL5(F2)| = 9999360: the chain gives the order before listing a map
    ring = _f2_square_zero(5)
    assert ring.size == 64
    start = time.perf_counter()
    with pytest.raises(AutomorphismBudgetError, match="9999360"):
        automorphisms(ring)
    assert time.perf_counter() - start < 1.0
    assert issubclass(AutomorphismBudgetError, ValueError)
    assert skewseries.AutomorphismBudgetError is AutomorphismBudgetError


def test_automorphisms_of_z257_search_closure_rows():
    # 1 generates Z257 additively and is fixed: the identity alone
    ring = cyclic_ring(257)
    assert ring.tables is None
    assert automorphisms(ring, cap=257) == [identity_automorphism(ring)]


def test_automorphisms_above_the_table_limit_search_closure_rows():
    ring = _small_product(17, 17)
    assert ring.size > TABLE_LIMIT and ring.tables is None
    assert automorphisms(ring, cap=ring.size) == \
        [identity_automorphism(ring), swap_automorphism(ring)]


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


def _perturbed(data, perm) -> list:
    """``perm`` after up to two drawn transpositions, which make
    non-automorphisms, some of which move 1, and perhaps one image copied
    over another, which makes a non-bijection."""
    perm = list(perm)
    element = st.integers(0, len(perm) - 1)
    for _ in range(data.draw(st.integers(0, 2), label="swaps")):
        a, b = data.draw(element), data.draw(element)
        perm[a], perm[b] = perm[b], perm[a]
    if data.draw(st.booleans(), label="copy"):
        perm[data.draw(element)] = perm[data.draw(element)]
    return perm


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_automorphism_validation_matches_pair_scan(data):
    ring = data.draw(st.sampled_from(AUT_RINGS), label="ring")
    aut = RingAut._trusted(
        ring, _perturbed(data, data.draw(st.sampled_from(AUT_GROUPS[ring.name])).perm))
    assert _aut_outcome(RingAut.validate, aut) == _aut_outcome(ring_aut_validate_oracle, aut)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(matrix_subrings(), st.data())
def test_automorphism_validation_of_drawn_rings_matches_pair_scan(ring, data):
    # from an automorphism or from any permutation of the elements
    perm = data.draw(st.sampled_from([aut.perm for aut in automorphisms(ring)])
                     | st.permutations(range(ring.size)), label="perm")
    aut = RingAut._trusted(ring, _perturbed(data, perm))
    assert _aut_outcome(RingAut.validate, aut) == _aut_outcome(ring_aut_validate_oracle, aut)


CLOSURE_AUT_RING = _small_product(17, 17)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_automorphism_validation_on_a_closure_ring_matches_pair_scan(data):
    ring = CLOSURE_AUT_RING
    assert ring.tables is None
    perm = data.draw(st.sampled_from([identity_automorphism(ring), swap_automorphism(ring)])).perm
    aut = RingAut._trusted(ring, _perturbed(data, perm))
    assert _aut_outcome(RingAut.validate, aut) == _aut_outcome(ring_aut_validate_oracle, aut)


def test_automorphism_validation_reads_only_the_generator_rows():
    base = CLOSURE_AUT_RING
    calls = {"add": 0, "mul": 0}

    def counted(op, name):
        def call(a, b):
            calls[name] += 1
            return op(a, b)
        return call

    ring = _factory_ring(base.size, counted(base.add, "add"), counted(base.mul, "mul"),
                         base._neg_row, base.zero, base.one, base.name, base._parts)
    n, gens = ring.size, _additive_generators(ring)
    calls.update(add=0, mul=0)
    RingAut._trusted(ring, swap_automorphism(base).perm).validate()
    # rows a and perm[a] of each table, for each generator a
    assert calls == {"add": 2 * len(gens) * n, "mul": 2 * len(gens) * n}


@pytest.mark.parametrize("perm", [(0, 1, 5), (0, 1, -1), (0, 1), (0.0, 1.0, 2.0),
                                  (False, True, 2)])
def test_automorphism_images_outside_the_ring_are_not_a_bijection(perm):
    # floats and bools equal to element indices are not indices: a float
    # used to fail with TypeError from list indexing, and (False, True, 2)
    # was kept as the perm
    with pytest.raises(RingAxiomError, match="not a bijection"):
        RingAut(cyclic_ring(3), perm)


def test_the_public_constructor_always_validates():
    Z5 = cyclic_ring(5)
    with pytest.raises(RingAxiomError, match=r"not additive at \(1,1\)"):
        RingAut(Z5, (0, 1, 3, 2, 4))
    with pytest.raises(TypeError):
        RingAut(Z5, (0, 1, 3, 2, 4), validate=False)


def test_compose_refuses_an_automorphism_of_another_ring():
    # the swap of F2xF2 after the identity of Z4 used to give a map labelled
    # as an automorphism of F2xF2
    F22 = product_ring(cyclic_ring(2), cyclic_ring(2))
    swap, other = swap_automorphism(F22), identity_automorphism(cyclic_ring(4))
    with pytest.raises(ValueError, match="different rings"):
        swap.compose(other)
    with pytest.raises(ValueError, match="different rings"):
        other.compose(swap)
    assert swap.compose(swap) == identity_automorphism(F22)


def test_automorphisms_of_different_rings_are_not_equal():
    # the identities of Z4 and F2xF2 have one perm; they used to compare
    # equal and to collapse to one member of a set
    z4, f22 = cyclic_ring(4), product_ring(cyclic_ring(2), cyclic_ring(2))
    a, b = identity_automorphism(z4), identity_automorphism(f22)
    assert a.perm == b.perm and a != b and len({a, b}) == 2
    # another instance of the same table is another ring
    assert identity_automorphism(cyclic_ring(4)) != a
    assert identity_automorphism(z4) == a and hash(identity_automorphism(z4)) == hash(a)

"""Randomly drawn rings (``strategies``) against the brute-force oracles:
the cell-ring factories, the bitset kernel and its verdicts, the orbit
condition and its obstructions under the identity and an inner action, and
exact ring validation."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewseries.gallery import gallery_ring
from skewseries.ideals import FL, FR, ZL, ZR, _bits, _principal_annihilator, _scan
from skewseries.monoids import make_monoid
from skewseries.properties import (
    is_left_app,
    is_left_pq_baer,
    is_quasi_baer,
    is_right_pp,
    orbit_annihilators_s_unital,
)
from skewseries.rings import (
    RingAxiomError,
    cyclic_ring,
    inner_automorphism,
    table_ring,
    units,
    validate_ring,
)
from skewseries.series import OmegaAction
from skewseries.theorems import annihilator_obstructions

from oracles import (
    annihilator_obstructions_by_scan,
    cell_ring_tables_by_digits,
    left_app_by_scan,
    left_pq_baer_by_scan,
    orbit_condition_by_scan,
    quasi_baer_by_scan,
    right_pp_by_scan,
    table_lists,
)
from strategies import cell_rings, rings

# deterministic draws, so a failure reproduces and tier-1 time stays fixed
RANDOM = settings(deadline=None, derandomize=True)


@settings(RANDOM, max_examples=25)
@given(cell_rings())
def test_cell_rings_match_the_matrix_products_over_their_base(drawn):
    ring, base, k, triangular = drawn
    assert table_lists(ring.tables) == cell_ring_tables_by_digits(base, k, triangular)
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

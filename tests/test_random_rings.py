"""Randomly drawn rings (``strategies``) against the brute-force oracles:
the cell-ring factories, the bitset kernel and its verdicts, and exact ring
validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewseries.ideals import FL, FR, ZL, ZR, _bits
from skewseries.properties import is_left_app, is_left_pq_baer, is_right_pp
from skewseries.rings import RingAxiomError, table_ring, validate_ring

from oracles import (
    cell_ring_tables_by_digits,
    left_app_by_scan,
    left_pq_baer_by_scan,
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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewseries.gallery import gallery_ring, named_automorphism, standard_contexts
from skewseries.ideals import is_right_s_unital, left_annihilator
from skewseries.monoids import make_monoid
from skewseries.properties import (
    is_left_app,
    is_left_pq_baer,
    is_quasi_baer,
    is_reduced,
    is_right_pp,
    orbit_annihilators_s_unital,
)
from skewseries.rings import (
    automorphisms,
    cyclic_ring,
    matrix_ring,
    product_ring,
    table_ring,
    upper_triangular_ring,
)
from skewseries.series import single_generator_action, trivial_action
from skewseries.theorems import set_orbit_annihilator

from oracles import (
    orbit_condition_by_subsets,
    quasi_baer_by_left_ideals,
    smallest_left_ideal_containing,
)

SMALL_PRODUCTS = [product_ring(cyclic_ring(a), cyclic_ring(b))
                  for a, b in ((2, 2), (2, 3), (2, 4), (4, 2), (3, 3), (2, 6), (3, 5),
                               (4, 4), (2, 8))]
# Every context of at most 16 elements the subset oracle can scan: the
# standard contexts, Z1-Z16, and the small products, M2F2 and T2F2 under
# every automorphism.
ORBIT_CONTEXTS = (
    [(f"{name}/{aut_name}", ring, aut) for ring, aut, name, aut_name in standard_contexts()]
    + [(f"Z{n}/identity", gallery_ring(f"Z{n}"), None) for n in range(1, 17)]
    + [(f"{ring.name}/{aut.perm}", ring, aut)
       for ring in SMALL_PRODUCTS + [gallery_ring("M2F2"), gallery_ring("T2F2")]
       for aut in automorphisms(ring)])


def _f2_c2xc2():
    """F2[x, y]/(x^2, y^2), with a + b*x + c*y + d*xy stored as the bits dcba.

    Its annihilator l(x) ∩ l(y) = (xy) is l(R*a) for no single a, so only the
    closure under intersection reaches it.
    """
    def mul(u, v):
        out = 0
        for m in range(4):
            for n in range(4):
                if u >> m & 1 and v >> n & 1 and not m & n:
                    out ^= 1 << (m | n)
        return out
    return table_ring([[u ^ v for v in range(16)] for u in range(16)],
                      [[mul(u, v) for v in range(16)] for u in range(16)],
                      name="F2[C2xC2]")


QUASI_BAER_RINGS = (
    [gallery_ring(f"Z{n}") for n in range(1, 17)] + SMALL_PRODUCTS
    + [gallery_ring(name) for name in ("M2F2", "T2F2", "F2xF2", "F2xF3")] + [_f2_c2xc2()]
    + [upper_triangular_ring(cyclic_ring(2), 3), cyclic_ring(32),
       matrix_ring(cyclic_ring(3), 2), product_ring(cyclic_ring(4), cyclic_ring(8))])


def nat_action(ring, aut=None):
    m = make_monoid("NatAdd")
    if aut is None:
        return trivial_action(m, ring)
    return single_generator_action(m, ring, aut)


def test_left_app_counterexample_z4():
    report = is_left_app(cyclic_ring(4))
    assert not report.verdict
    counter = report.witnesses["counterexample"]
    assert counter["element"] == 2
    assert counter["annihilator"] == [0, 2]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_left_app_fields(p):
    assert is_left_app(cyclic_ring(p)).verdict


def test_left_app_z6():
    assert is_left_app(cyclic_ring(6)).verdict


def test_pq_baer_t2f2():
    assert is_left_pq_baer(gallery_ring("T2F2")).verdict


def test_pq_baer_z4_fails_with_annihilator_evidence():
    report = is_left_pq_baer(cyclic_ring(4))
    assert not report.verdict
    assert report.witnesses["counterexample"] == {"element": 2, "annihilator": [0, 2]}


@pytest.mark.parametrize("p", [2, 5])
def test_fields_satisfy_all_four_properties(p):
    field = cyclic_ring(p)
    assert is_left_pq_baer(field).verdict
    assert is_quasi_baer(field).verdict
    assert is_right_pp(field).verdict
    assert is_reduced(field).verdict


def test_quasi_baer_matrix_ring():
    assert is_quasi_baer(gallery_ring("M2F2")).verdict


def test_quasi_baer_z4_fails():
    assert not is_quasi_baer(cyclic_ring(4)).verdict


def test_right_pp_z4_fails():
    assert not is_right_pp(cyclic_ring(4)).verdict


def test_reduced_detects_nilpotents():
    report = is_reduced(cyclic_ring(4))
    assert not report.verdict
    assert report.witnesses["counterexample"]["element"] == 2
    assert is_reduced(cyclic_ring(6)).verdict


def test_implication_lattice_over_standard_contexts():
    seen = set()
    for ring, _, name, _ in standard_contexts():
        if name in seen:
            continue
        seen.add(name)
        quasi = is_quasi_baer(ring).verdict
        pq = is_left_pq_baer(ring).verdict
        app = is_left_app(ring).verdict
        pp = is_right_pp(ring).verdict
        assert not quasi or pq, name
        assert not pq or app, name
        assert not pp or app, name


def test_reduced_app_rings_pass_singleton_condition():
    for ring, aut, name, aut_name in standard_contexts():
        if is_reduced(ring).verdict and is_left_app(ring).verdict:
            action = nat_action(ring, aut)
            report = orbit_annihilators_s_unital(ring, action)
            assert report.verdict, (name, aut_name)


def test_orbit_condition_z6_exhaustive():
    ring = cyclic_ring(6)
    action = nat_action(ring)
    report = orbit_annihilators_s_unital(ring, action)
    assert report.verdict
    assert report.witnesses["subsets_scanned"] == 6
    verdict, witnesses = orbit_condition_by_subsets(ring, action)
    assert verdict and witnesses["subsets_scanned"] == 63
    assert all(entry in witnesses["distinct_orbit_ideals"]
               for entry in report.witnesses["distinct_orbit_ideals"])


def test_orbit_condition_z4_fails_at_singleton_two():
    ring = cyclic_ring(4)
    report = orbit_annihilators_s_unital(ring, nat_action(ring))
    assert not report.verdict
    counter = report.witnesses["counterexample"]
    assert counter["subset"] == [2]
    assert counter["annihilator"] == [0, 2]


def test_orbit_condition_swap_action_holds():
    ring = gallery_ring("F2xF2")
    action = nat_action(ring, named_automorphism(ring, "swap"))
    assert orbit_annihilators_s_unital(ring, action).verdict


def test_orbit_condition_sampled_mode_is_deterministic():
    ring = gallery_ring("M2F2")
    action = nat_action(ring, named_automorphism(ring, "inner:6"))
    a = orbit_annihilators_s_unital(ring, action)
    b = orbit_annihilators_s_unital(ring, action)
    assert a.verdict == b.verdict
    assert a.witnesses == b.witnesses


def test_orbit_condition_exhaustive_agrees_with_sampled_on_failure():
    ring = cyclic_ring(4)
    action = nat_action(ring)
    sampled = orbit_annihilators_s_unital(ring, action)
    assert not sampled.verdict
    assert sampled.witnesses["counterexample"]["subset"] == [2]


def test_exhaustive_report_carries_replayable_witnesses():
    ring = cyclic_ring(6)
    report = orbit_annihilators_s_unital(ring, nat_action(ring))
    for entry in report.witnesses["distinct_orbit_ideals"]:
        ann = entry["annihilator"]
        for a, x in entry["witnesses"]:
            assert a in ann and x in ann
            assert ring.mul(a, x) == a


@pytest.mark.parametrize("name,ring,aut", ORBIT_CONTEXTS, ids=[c[0] for c in ORBIT_CONTEXTS])
def test_orbit_condition_matches_subset_oracle(name, ring, aut):
    action = nat_action(ring, aut)
    report = orbit_annihilators_s_unital(ring, action)
    verdict, witnesses = orbit_condition_by_subsets(ring, action)
    assert report.verdict == verdict
    if not verdict:
        assert report.witnesses == witnesses
        return
    assert report.witnesses["subsets_scanned"] == ring.size
    entries = report.witnesses["distinct_orbit_ideals"]
    assert entries == sorted(entries, key=lambda e: (len(e["orbit_ideal"]), e["orbit_ideal"]))
    assert all(entry in witnesses["distinct_orbit_ideals"] for entry in entries)


HOLDING_CONTEXTS = [(ring, aut) for _, ring, aut in ORBIT_CONTEXTS
                    if orbit_annihilators_s_unital(ring, nat_action(ring, aut)).verdict]


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_true_orbit_condition_makes_every_subset_annihilator_s_unital(data):
    ring, aut = data.draw(st.sampled_from(HOLDING_CONTEXTS))
    action = nat_action(ring, aut)
    element = st.integers(0, ring.size - 1)
    left = data.draw(st.lists(element, min_size=1, max_size=4))
    right = data.draw(st.lists(element, min_size=1, max_size=4))
    i, j = set_orbit_annihilator(left, action), set_orbit_annihilator(right, action)
    both = set_orbit_annihilator(left + right, action)
    assert both.members == i.members & j.members
    assert is_right_s_unital(both).holds
    xs, ys = is_right_s_unital(i).witnesses, is_right_s_unital(j).witnesses
    for b in both.members:
        z = ring.mul(ys[b], xs[b])
        assert z in both.members and ring.mul(b, z) == b


@pytest.mark.parametrize("ring", QUASI_BAER_RINGS, ids=lambda r: r.name)
def test_quasi_baer_matches_left_ideal_oracle(ring):
    report = is_quasi_baer(ring)
    verdict, annihilators = quasi_baer_by_left_ideals(ring, size_cap=ring.size)
    assert report.verdict == verdict
    elements = range(ring.size)
    if verdict:
        pairs = report.witnesses["idempotent_generators"]
        assert {left_annihilator(ideal, ring).members for ideal, _ in pairs} == annihilators
        for ideal, e in pairs:
            assert ring.mul(e, e) == e
            assert frozenset(ring.mul(r, e) for r in elements) == \
                left_annihilator(ideal, ring).members
        return
    counter = report.witnesses["counterexample"]
    ann, ideal = frozenset(counter["annihilator"]), frozenset(counter["ideal"])
    assert smallest_left_ideal_containing(ring, ideal) == ideal
    assert left_annihilator(ideal, ring).members == ann
    generated = {frozenset(ring.mul(r, e) for r in elements)
                 for e in elements if ring.mul(e, e) == e}
    failing = sorted((t for t in annihilators if t not in generated),
                     key=lambda t: (len(t), sorted(t)))
    assert failing[0] == ann


def test_quasi_baer_beyond_sixteen_elements():
    assert is_quasi_baer(upper_triangular_ring(cyclic_ring(2), 3)).verdict
    report = is_quasi_baer(cyclic_ring(32))
    assert not report.verdict
    assert report.witnesses["counterexample"] == {
        "ideal": list(range(0, 32, 2)), "annihilator": [0, 16]}

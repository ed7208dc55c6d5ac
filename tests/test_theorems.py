import random

import pytest

import skewseries.theorems as theorems
from skewseries.gallery import gallery_ring, named_automorphism, standard_contexts
from skewseries.ideals import FR, _bits
from skewseries.monoids import make_monoid
from skewseries.properties import orbit_annihilators_s_unital
from skewseries.rings import _additive_generators, cyclic_ring, identity_automorphism
from skewseries.series import (
    OmegaAction,
    SkewSeries,
    annihilates_via_all_middles,
    constant,
    from_terms,
    pair_action,
    single_generator_action,
    trivial_action,
    zero_series,
)
from skewseries.theorems import (
    PreconditionError,
    annihilator_obstructions,
    app_equivalence_check,
    check_coefficientwise_annihilation,
    coefficientwise_harness,
    construct_annihilator_witness,
    element_orbit_annihilator,
    elementwise_condition_holds,
    extract_cascade_witnesses,
    preset_by_name,
    random_annihilating_pair,
    run_preset,
    specialization_presets,
    witness_paths_agree,
)

from oracles import (
    coefficientwise_by_scan,
    first_failing_middle_by_scan,
    random_annihilating_pair_reference,
)

Z4 = cyclic_ring(4)
Z6 = cyclic_ring(6)
NAT = make_monoid("NatAdd")


def nat_action(ring, aut=None):
    if aut is None:
        return trivial_action(NAT, ring)
    return single_generator_action(NAT, ring, aut)


# ---------------------------------------------------------------------------
# coefficientwise annihilation

def test_coefficientwise_vacuous_for_zero_series():
    act = nat_action(Z6)
    report = check_coefficientwise_annihilation(zero_series(act), constant(act, 1))
    assert report.verdict
    report = check_coefficientwise_annihilation(constant(act, 1), zero_series(act))
    assert report.verdict


def test_coefficientwise_hand_example_over_z6():
    act = nat_action(Z6)
    g = from_terms(act, [(0, 3), (2, 3)])
    f = from_terms(act, [(0, 2), (1, 4)])
    assert annihilates_via_all_middles(g, f)
    report = check_coefficientwise_annihilation(g, f)
    assert report.verdict
    assert report.witnesses["products_checked"] == 2 * 2 * 1 * 6


def test_coefficientwise_reports_hypothesis_failure_distinctly():
    act = nat_action(Z4)
    c2 = constant(act, 2)
    report = check_coefficientwise_annihilation(c2, c2)
    assert not report.verdict
    assert report.witnesses["failure"] == "hypothesis"


def test_coefficientwise_on_constructed_pairs():
    rng = random.Random(0)
    for ring, aut in [(Z6, None),
                      (gallery_ring("F2xF2"), None),
                      (gallery_ring("T2F2"), None)]:
        act = nat_action(ring, aut)
        for _ in range(50):
            g, f = random_annihilating_pair(act, rng)
            report = check_coefficientwise_annihilation(g, f)
            assert report.verdict, report.witnesses


def test_coefficientwise_matches_scan_on_standard_contexts():
    rng = random.Random(4)
    for ring, aut, name, aut_name in standard_contexts():
        act = nat_action(ring, aut)
        holds = elementwise_condition_holds(ring, act)
        for _ in range(25):
            g, f = random_annihilating_pair(act, rng)
            report = check_coefficientwise_annihilation(g, f)
            if not holds:
                assert report.witnesses["failure"] == "hypothesis", (name, aut_name)
                continue
            assert report.verdict, (name, aut_name)
            assert report.witnesses == coefficientwise_by_scan(g, f), (name, aut_name)


# The pair_annihilation shapes of the long-series benchmark: over Z6, g takes
# values in {2, 4} and f the value 3; a broken pair has 1 on both least exponents.
PAIR_SHAPES = [("NatAdd", None, list(range(0, 1000))),
               ("IntAdd", None, list(range(-500, 500))),
               ("NatPair", "lex", [(i, j) for i in range(40) for j in range(40)]),
               ("NatMulDirichlet", None, list(range(1, 2001)))]


def _z6_pair(kind, order, pool, rng, terms, broken):
    monoid = make_monoid(kind, order)
    act = trivial_action(monoid, Z6)
    g_exps = sorted(rng.sample(pool, terms), key=monoid.sort_key)
    f_exps = sorted(rng.sample(pool, terms), key=monoid.sort_key)
    g_coeffs = [rng.choice((2, 4)) for _ in g_exps]
    f_coeffs = [3] * terms
    if broken:
        g_coeffs[0] = f_coeffs[0] = 1
    return (from_terms(act, list(zip(g_exps, g_coeffs))),
            from_terms(act, list(zip(f_exps, f_coeffs))))


@pytest.mark.parametrize("kind, order, pool", PAIR_SHAPES, ids=[k for k, _, _ in PAIR_SHAPES])
def test_coefficientwise_matches_scan_on_long_pairs(kind, order, pool, monkeypatch):
    rng = random.Random(kind)
    g, f = _z6_pair(kind, order, pool, rng, 200, broken=False)
    report = check_coefficientwise_annihilation(g, f)
    assert report.verdict
    assert report.witnesses == coefficientwise_by_scan(g, f)
    g, f = _z6_pair(kind, order, pool, rng, 200, broken=True)
    assert check_coefficientwise_annihilation(g, f).witnesses == {
        "failure": "hypothesis",
        "detail": "the pair does not annihilate through all middles"}
    # without the middle-annihilation hypothesis the conclusion check runs
    # and must name the same first violation as the scan
    monkeypatch.setattr(theorems, "annihilates_via_all_middles", lambda g, f: True)
    report = check_coefficientwise_annihilation(g, f)
    assert report.witnesses["failure"] == "conclusion"
    assert report.witnesses == coefficientwise_by_scan(g, f)


@pytest.mark.parametrize("ring_name, aut_name", [("Z6", "identity"), ("F2xF2", "swap"),
                                                 ("M2F2", "inner:6")])
def test_first_conclusion_violation_matches_scan(ring_name, aut_name, monkeypatch):
    ring = gallery_ring(ring_name)
    act = nat_action(ring, named_automorphism(ring, aut_name))
    assert elementwise_condition_holds(ring, act)
    monkeypatch.setattr(theorems, "annihilates_via_all_middles", lambda g, f: True)
    rng = random.Random(ring_name)
    failures = 0
    for _ in range(60):
        g, f = (SkewSeries(act, {s: rng.randrange(ring.size)
                                 for s in rng.sample(range(8), rng.randint(1, 5))})
                for _ in range(2))
        report = check_coefficientwise_annihilation(g, f)
        assert report.witnesses == coefficientwise_by_scan(g, f)
        failures += report.witnesses.get("failure") == "conclusion"
    assert failures > 10


# ---------------------------------------------------------------------------
# cascade witnesses

def test_cascade_empty_for_single_decomposition():
    act = nat_action(Z6)
    g = from_terms(act, [(0, 3)])
    f = from_terms(act, [(1, 2)])
    assert extract_cascade_witnesses(g, f, 1) == []


def test_cascade_two_term_overlap_over_z6():
    act = nat_action(Z6)
    g = from_terms(act, [(0, 3), (1, 3)])
    f = from_terms(act, [(0, 2), (1, 2)])
    assert annihilates_via_all_middles(g, f)
    witnesses = extract_cascade_witnesses(g, f, 1)
    assert witnesses == [3]
    # the witness reproduces the later coefficients through the twist
    assert Z6.mul(3, 3) == 3


def test_cascade_three_term_over_product_ring():
    F22 = gallery_ring("F2xF2")
    act = nat_action(F22, identity_automorphism(F22))
    idx_10, idx_01 = 2, 1
    f = from_terms(act, [(0, idx_10), (1, idx_10), (2, idx_10)])
    g = from_terms(act, [(0, idx_01), (1, idx_01), (2, idx_01)])
    assert annihilates_via_all_middles(g, f)
    witnesses = extract_cascade_witnesses(g, f, 2)
    assert len(witnesses) == 2
    ann = element_orbit_annihilator(idx_10, act)
    for e in witnesses:
        assert e in ann.members
        assert F22.mul(idx_01, e) == idx_01


def test_pair_checks_refuse_series_over_different_contexts():
    # Z4's orbit condition fails, so the hypothesis test would answer first
    g = constant(nat_action(Z4), 2)
    f = constant(nat_action(Z6), 3)
    match = "^series built over different ring/action contexts$"
    with pytest.raises(ValueError, match=match):
        check_coefficientwise_annihilation(g, f)
    with pytest.raises(ValueError, match=match):
        extract_cascade_witnesses(g, f, 0)


def test_cascade_flags_hypothesis_violation_upstream():
    act = nat_action(Z6)
    g = from_terms(act, [(0, 1), (1, 3)])  # coefficient 1 escapes the annihilator
    f = from_terms(act, [(0, 2), (1, 2)])
    with pytest.raises(PreconditionError, match="escapes"):
        extract_cascade_witnesses(g, f, 1)


# ---------------------------------------------------------------------------
# obstructions

def test_obstructions_z4():
    report = annihilator_obstructions(Z4, nat_action(Z4))
    assert not report.verdict
    assert report.witnesses["obstructions"] == [
        {"element": 2, "blocked": 2, "annihilator": [0, 2]}]


@pytest.mark.parametrize("check", [annihilator_obstructions, elementwise_condition_holds,
                                   orbit_annihilators_s_unital])
@pytest.mark.parametrize("ring", [cyclic_ring(2), cyclic_ring(4)], ids=["Z2", "Z4-copy"])
def test_ring_checks_refuse_an_action_over_another_ring(check, ring):
    with pytest.raises(ValueError, match="^action was built over a different ring instance$"):
        check(ring, nat_action(Z4))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_no_obstructions_in_app_rings(n):
    ring = cyclic_ring(n)
    report = annihilator_obstructions(ring, nat_action(ring))
    assert report.verdict
    assert report.witnesses["obstructions"] == []


# ---------------------------------------------------------------------------
# witness construction

def test_witness_construction_z6_constants():
    act = nat_action(Z6)
    outcome = construct_annihilator_witness(constant(act, 3), constant(act, 2))
    assert outcome.witness == 3
    assert outcome.annihilator == [0, 3]
    assert outcome.twisted_coefficients == [3]


def test_witness_for_zero_series_is_zero():
    act = nat_action(Z6)
    outcome = construct_annihilator_witness(zero_series(act), constant(act, 2))
    assert outcome.witness == 0


def test_witness_construction_requires_condition():
    act = nat_action(Z4)
    c2 = constant(act, 2)
    with pytest.raises(PreconditionError, match="condition"):
        construct_annihilator_witness(c2, c2)


def test_witness_construction_requires_annihilation():
    act = nat_action(Z6)
    with pytest.raises(PreconditionError, match="middles"):
        construct_annihilator_witness(constant(act, 2), constant(act, 1))


def test_witness_construction_with_swap_action():
    F22 = gallery_ring("F2xF2")
    act = nat_action(F22, named_automorphism(F22, "swap"))
    rng = random.Random(4)
    for _ in range(25):
        g, f = random_annihilating_pair(act, rng)
        outcome = construct_annihilator_witness(g, f)
        # contexts with zero annihilators only admit g = 0, witnessed by 0
        if g.is_zero():
            assert outcome.witness == 0


def test_witness_alarm_names_the_first_failing_middle_of_the_full_scan(monkeypatch):
    """A wrong witness e (one with y*e == y for every twisted coefficient y,
    but outside the annihilator) must raise the alarm for the first (s, r)
    of the scan over every ring element, not the first over the additive
    generators the check itself tries."""
    handed_out = []

    def wrong_witness(ring, ann, targets, kind):
        handed_out.append(next(e for e in ring.elements() if not ann >> e & 1
                               and all(ring.mul(y, e) == y for y in targets)))
        return handed_out[-1]

    monkeypatch.setattr(theorems, "_lowest_common", wrong_witness)
    alarms = off_generator_alarms = 0
    for ring, aut, name, aut_name in standard_contexts():
        for kind in ("NatAdd", "NatPairLex"):
            # one stream per context, so that how many draws one context
            # takes does not move the pairs of the next
            rng = random.Random(f"11:{name}/{aut_name}:{kind}")
            monoid = make_monoid(kind)
            act = (single_generator_action(monoid, ring, aut) if kind == "NatAdd"
                   else pair_action(monoid, ring, aut, aut))
            if not elementwise_condition_holds(ring, act):
                continue
            for _ in range(6):
                g, f = random_annihilating_pair(act, rng)
                # g == 0 takes the witness 0 without a search
                if f.is_zero() or g.is_zero():
                    continue
                with pytest.raises(theorems.CoherenceAlarm) as alarm:
                    construct_annihilator_witness(g, f)
                s, r = first_failing_middle_by_scan(constant(act, handed_out[-1]), f)
                assert str(alarm.value) == (f"witness constant fails to annihilate f "
                                            f"through middle (r={r}, s={s!r})")
                alarms += 1
                off_generator_alarms += r not in _additive_generators(ring)
    assert alarms > 50 and off_generator_alarms > 0


def test_missing_common_witness_raises_the_alarm(monkeypatch):
    monkeypatch.setattr(theorems, "_lowest_common", lambda ring, mask, xs, kind: None)
    act = nat_action(Z6)
    rng = random.Random(3)
    g, f = next(pair for pair in (random_annihilating_pair(act, rng) for _ in range(50))
                if not pair[0].is_zero())
    with pytest.raises(theorems.CoherenceAlarm, match="^no common witness in "):
        construct_annihilator_witness(g, f)


def test_chain_search_selects_minimal_subset_and_verifies():
    act = nat_action(Z6)
    g = from_terms(act, [(0, 3), (1, 3), (2, 3)])
    f = from_terms(act, [(0, 2), (1, 4)])
    full = construct_annihilator_witness(g, f)
    chain = construct_annihilator_witness(g, f, chain_search=True)
    assert full.witness == 3 and chain.witness == 3
    # all three twisted coefficients equal 3; one of them already pins the
    # minimal right annihilator
    assert full.selected_subset == [3]
    assert chain.selected_subset == [3]


def test_witness_paths_agree_over_gallery():
    for ring, aut in [(Z6, None), (gallery_ring("F2xF3"), None),
                      (gallery_ring("T2F2"), None)]:
        report = witness_paths_agree(ring, nat_action(ring, aut), instances=40)
        assert report.verdict
        assert report.witnesses["applicable"]


def _counting(monkeypatch, name):
    """Count the calls of ``theorems.<name>``, which still does its work."""
    calls = []
    real = getattr(theorems, name)
    monkeypatch.setattr(theorems, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_witness_paths_verify_each_distinct_witness_once(monkeypatch):
    ring = gallery_ring("T2F2")
    middle_checks = _counting(monkeypatch, "_middle_test")
    report = witness_paths_agree(ring, nat_action(ring), instances=20, seed=1)
    # the two paths agree on every pair: c_e's middles are checked once each
    assert report.witnesses["witness_disagreements"] == 0 and len(middle_checks) == 20

    # a chain path that picks the highest common witness instead of the
    # lowest, still a valid one, is verified on its own wherever it differs
    chain_searches = _counting(monkeypatch, "_minimal_annihilator_subset")
    lowest = theorems._lowest_common

    def highest_after_a_chain_search(ring, ann, selected, kind):
        if not chain_searches:
            return lowest(ring, ann, selected, kind)
        chain_searches.clear()
        return max(e for e in ring.elements() if ann >> e & 1
                   and all(ring.mul(y, e) == y for y in selected))

    monkeypatch.setattr(theorems, "_lowest_common", highest_after_a_chain_search)
    middle_checks.clear()
    report = witness_paths_agree(ring, nat_action(ring), instances=20, seed=1)
    differing = report.witnesses["witness_disagreements"]
    assert 0 < differing < 20 and len(middle_checks) == 20 + differing


def test_witness_paths_raise_the_full_set_alarm_before_the_chain_path_runs(monkeypatch):
    # the witness 1 reproduces every twisted coefficient but lies outside
    # every proper orbit annihilator, so the full-set path's middle check
    # alarms on the first pair with g != 0, before the chain search runs
    monkeypatch.setattr(theorems, "_lowest_common", lambda ring, mask, xs, kind: ring.one)
    chain_searches = _counting(monkeypatch, "_minimal_annihilator_subset")
    pairs = []
    real = theorems.random_annihilating_pair
    monkeypatch.setattr(theorems, "random_annihilating_pair",
                        lambda action, rng: pairs.append(real(action, rng)) or pairs[-1])
    act = nat_action(Z6)
    with pytest.raises(theorems.CoherenceAlarm) as alarm:
        witness_paths_agree(Z6, act, instances=50, seed=2)
    g, f = pairs[-1]
    assert not g.is_zero() and all(g.is_zero() for g, _ in pairs[:-1])
    assert chain_searches == []
    s, r = first_failing_middle_by_scan(constant(act, Z6.one), f)
    assert str(alarm.value) == (f"witness constant fails to annihilate f "
                                f"through middle (r={r}, s={s!r})")


# ---------------------------------------------------------------------------
# constructed pairs

# the contexts of the series_harness benchmark workload, and its monoids
# with the Dirichlet one
HARNESS_CONTEXTS = (("M2F2", "inner:6"), ("T2F2", "inner:7"), ("F2xF2", "swap"),
                    ("F2xF3", "identity"), ("Z5", "identity"), ("Z7", "identity"),
                    ("Z12", "identity"))
HARNESS_KINDS = ("NatAdd", "IntAdd", "NatPairLex", "IntPairRevLex", "NatMulDirichlet")


@pytest.mark.parametrize("kind", HARNESS_KINDS)
@pytest.mark.parametrize("ring_name, aut_name", HARNESS_CONTEXTS)
def test_pair_draws_match_the_reference_draw(ring_name, aut_name, kind):
    ring = gallery_ring(ring_name)
    monoid = make_monoid(kind)
    aut = None if monoid._mul else named_automorphism(ring, aut_name)
    action = OmegaAction(monoid, ring, aut, aut if monoid._pair else None)
    rng, ref = (random.Random(f"{ring_name}/{aut_name}:{kind}") for _ in range(2))
    for _ in range(25):
        got = random_annihilating_pair(action, rng)
        want = random_annihilating_pair_reference(action, ref)
        # the same terms in the same order, and the same state of the stream
        assert [list(s.coeffs.items()) for s in got] == [list(s.coeffs.items()) for s in want]
        assert rng.getstate() == ref.getstate()

def test_random_pairs_annihilate_and_replay_deterministically():
    act = nat_action(Z6)
    rng1, rng2 = random.Random(99), random.Random(99)
    for _ in range(30):
        g1, f1 = random_annihilating_pair(act, rng1)
        g2, f2 = random_annihilating_pair(act, rng2)
        assert g1 == g2 and f1 == f2
        assert annihilates_via_all_middles(g1, f1)


def test_the_zero_ring_gives_the_zero_pair_without_a_draw():
    act = nat_action(cyclic_ring(1))
    rng = random.Random(7)
    state = rng.getstate()
    g, f = random_annihilating_pair(act, rng)
    assert g.is_zero() and f.is_zero() and g.action is f.action is act
    assert rng.getstate() == state


def test_random_pairs_are_often_nonzero_where_possible():
    act = nat_action(Z6)
    rng = random.Random(5)
    nonzero = sum(
        1 for _ in range(100)
        if not (lambda pair: pair[0].is_zero() or pair[1].is_zero())(
            random_annihilating_pair(act, rng)))
    assert nonzero > 50


# ---------------------------------------------------------------------------
# batch harnesses

def test_coefficientwise_harness_applicable_and_clean():
    report = coefficientwise_harness(Z6, nat_action(Z6), pairs=100, seed=3)
    assert report.verdict
    assert report.witnesses["applicable"]
    assert report.witnesses["nonzero_pairs"] > 0


def test_coefficientwise_harness_not_applicable_on_z4():
    report = coefficientwise_harness(Z4, nat_action(Z4), pairs=10)
    assert report.verdict
    assert not report.witnesses["applicable"]


def test_coefficientwise_harness_alarms(monkeypatch):
    act = nat_action(Z6)
    not_through_middles = (constant(act, 2), constant(act, 1))
    monkeypatch.setattr(theorems, "random_annihilating_pair",
                        lambda action, rng: not_through_middles)
    with pytest.raises(theorems.CoherenceAlarm,
                       match=r"^constructed pair 0 fails to annihilate through middles$"):
        coefficientwise_harness(Z6, act, pairs=3)
    # with the middle hypothesis granted, the conclusion alarm names the pair
    monkeypatch.setattr(theorems, "annihilates_via_all_middles", lambda g, f: True)
    with pytest.raises(theorems.CoherenceAlarm,
                       match=r"^coefficientwise annihilation failed on pair 0: "
                             r"\{'failure': 'conclusion'"):
        coefficientwise_harness(Z6, act, pairs=3)


def test_app_equivalence_builds_the_orbit_report_only_when_the_condition_fails(monkeypatch):
    real, calls = theorems.orbit_annihilators_s_unital, []

    def counted(ring, action):
        calls.append(ring.name)
        return real(ring, action)

    monkeypatch.setattr(theorems, "orbit_annihilators_s_unital", counted)
    assert app_equivalence_check(Z6, nat_action(Z6), pairs=5).verdict
    assert calls == []
    report = app_equivalence_check(Z4, nat_action(Z4), pairs=5)
    assert calls == ["Z4"]
    assert report.witnesses["condition_counterexample"] == \
        real(Z4, nat_action(Z4)).witnesses["counterexample"]


def test_app_equivalence_checks_each_reported_obstruction(monkeypatch):
    report = app_equivalence_check(Z4, nat_action(Z4), pairs=5)
    assert not report.verdict and report.witnesses["obstructions"]
    real = theorems.annihilator_obstructions

    def naming(blocked):
        def obstructions(ring, action):
            out = real(ring, action)
            out.witnesses["obstructions"][0]["blocked"] = blocked
            return out
        return obstructions

    # Z4's obstruction is b = 2 in the orbit annihilator {0, 2} of 2: the
    # element 0 has the witness 0 there, and 1 lies outside it
    for blocked in (0, 1):
        monkeypatch.setattr(theorems, "annihilator_obstructions", naming(blocked))
        with pytest.raises(theorems.CoherenceAlarm, match="not blocked"):
            app_equivalence_check(Z4, nat_action(Z4), pairs=5)


def test_app_equivalence_alarms_on_a_false_condition_without_obstructions(monkeypatch):
    real = theorems.annihilator_obstructions

    def none_found(ring, action):
        out = real(ring, action)
        out.witnesses["obstructions"] = []
        return out

    monkeypatch.setattr(theorems, "annihilator_obstructions", none_found)
    with pytest.raises(theorems.CoherenceAlarm, match="no obstruction is reported"):
        app_equivalence_check(Z4, nat_action(Z4), pairs=5)


def test_app_equivalence_alarm_catches_a_corrupt_kernel():
    # with the bit of 0 cleared from Fr[0], the kernel finds 0 without a
    # right witness in every orbit annihilator; the ring's multiplication
    # says otherwise (0*0 == 0)
    ring = cyclic_ring(4)
    _bits(ring, FR)[0] = 0
    with pytest.raises(theorems.CoherenceAlarm, match="names 0, which is not blocked"):
        app_equivalence_check(ring, nat_action(ring), pairs=5)


@pytest.mark.parametrize("harness", [coefficientwise_harness, app_equivalence_check,
                                     witness_paths_agree], ids=lambda h: h.__name__)
def test_harnesses_check_the_middles_once_per_pair(harness, monkeypatch):
    calls = []
    real = theorems.annihilates_via_all_middles
    monkeypatch.setattr(theorems, "annihilates_via_all_middles",
                        lambda g, f: calls.append(1) or real(g, f))
    act = nat_action(Z6)
    assert harness(Z6, act, 7, 1).verdict and len(calls) == 7


def test_witness_paths_refuse_a_pair_outside_the_middles(monkeypatch):
    # a constructed pair that fails the middles is an internal fault, as in
    # the other two harnesses
    act = nat_action(Z6)
    monkeypatch.setattr(theorems, "random_annihilating_pair",
                        lambda action, rng: (constant(act, 2), constant(act, 1)))
    for harness in (witness_paths_agree, app_equivalence_check):
        with pytest.raises(theorems.CoherenceAlarm,
                           match=r"^constructed pair 0 fails to annihilate through middles$"):
            harness(Z6, act, 2)


@pytest.mark.parametrize("ring_name, aut_name", [("Z5", "identity"), ("M2F2", "inner:6")])
def test_f_is_drawn_once_where_every_orbit_annihilator_is_zero(ring_name, aut_name,
                                                               monkeypatch):
    ring = gallery_ring(ring_name)
    act = nat_action(ring, named_automorphism(ring, aut_name))
    calls = []
    real = theorems._set_orbit_annihilator
    monkeypatch.setattr(theorems, "_set_orbit_annihilator",
                        lambda action, elements: calls.append(1) or real(action, elements))
    rng = random.Random(5)
    for _ in range(20):
        g, f = random_annihilating_pair(act, rng)
        assert g.is_zero() and not f.is_zero()
    assert len(calls) == 20
    # where some element has a nonzero orbit annihilator, f is redrawn
    calls.clear()
    z4 = nat_action(Z4)
    for _ in range(20):
        random_annihilating_pair(z4, rng)
    assert len(calls) > 20


def test_app_equivalence_true_side():
    report = app_equivalence_check(Z6, nat_action(Z6), pairs=100, seed=2)
    assert report.verdict
    assert report.witnesses["condition"]


def test_app_equivalence_false_side_produces_obstruction():
    report = app_equivalence_check(Z4, nat_action(Z4), pairs=10, seed=2)
    assert not report.verdict
    assert report.witnesses["obstructions"]
    assert report.witnesses["condition_counterexample"]["subset"] == [2]


def test_app_equivalence_across_standard_contexts():
    for ring, aut, name, aut_name in standard_contexts():
        report = app_equivalence_check(ring, nat_action(ring, aut),
                                       pairs=60, seed=1)
        exhaustive = report.witnesses.get("condition")
        assert report.verdict == bool(exhaustive), (name, aut_name)


# ---------------------------------------------------------------------------
# presets

def test_preset_catalog():
    names = [p.name for p in specialization_presets()]
    assert names == [
        "skew_power_series", "skew_laurent_series",
        "two_variable_lex", "two_variable_revlex",
        "two_variable_laurent_lex", "two_variable_laurent_revlex",
        "arithmetic_functions",
    ]
    with pytest.raises(KeyError):
        preset_by_name("nonsense")


def test_arithmetic_functions_preset_on_z6():
    report = run_preset(preset_by_name("arithmetic_functions"), Z6)
    assert report.verdict
    assert report.name == "preset_arithmetic_functions"


def test_skew_power_series_preset_on_z4_fails():
    report = run_preset(preset_by_name("skew_power_series"), Z4,
                        identity_automorphism(Z4))
    assert not report.verdict
    assert report.witnesses["counterexample"]["subset"] == [2]


def test_two_variable_preset_on_field():
    Z5 = cyclic_ring(5)
    ident = identity_automorphism(Z5)
    report = run_preset(preset_by_name("two_variable_lex"), Z5, ident, ident)
    assert report.verdict


def test_two_variable_presets_agree_between_orders():
    F22 = gallery_ring("F2xF2")
    swap = named_automorphism(F22, "swap")
    ident = identity_automorphism(F22)
    for alpha, beta in [(ident, ident), (swap, ident), (swap, swap)]:
        lex = run_preset(preset_by_name("two_variable_lex"), F22, alpha, beta)
        rev = run_preset(preset_by_name("two_variable_revlex"), F22, alpha, beta)
        assert lex.verdict == rev.verdict


def test_noncommuting_pair_rejected_by_preset():
    M = gallery_ring("M2F2")
    a = named_automorphism(M, "inner:6")
    b = named_automorphism(M, "inner:7")
    if a.compose(b) != b.compose(a):
        with pytest.raises(ValueError, match="commut"):
            run_preset(preset_by_name("two_variable_lex"), M, a, b)


def test_arithmetic_functions_preset_rejects_twists():
    F22 = gallery_ring("F2xF2")
    with pytest.raises(ValueError, match="trivial"):
        run_preset(preset_by_name("arithmetic_functions"), F22,
                   named_automorphism(F22, "swap"))


def test_laurent_presets_share_verdicts_with_their_positive_variants():
    # same attainable automorphism set, so the subset condition must agree
    for ring, aut, name, aut_name in standard_contexts():
        pos = run_preset(preset_by_name("skew_power_series"), ring, aut)
        lau = run_preset(preset_by_name("skew_laurent_series"), ring, aut)
        assert pos.verdict == lau.verdict, (name, aut_name)


# ---------------------------------------------------------------------------
# harnesses over non-NatAdd exponent monoids

def test_harnesses_over_laurent_exponents():
    act = trivial_action(make_monoid("IntAdd"), Z6)
    report = coefficientwise_harness(Z6, act, pairs=100, seed=6)
    assert report.verdict and report.witnesses["nonzero_pairs"] > 0
    assert app_equivalence_check(Z6, act, pairs=100, seed=6).verdict


def test_harnesses_over_pair_exponents_with_swap():
    F22 = gallery_ring("F2xF2")
    act = pair_action(make_monoid("NatPairLex"), F22,
                      named_automorphism(F22, "swap"),
                      identity_automorphism(F22))
    assert len(act.closure()) == 2
    report = coefficientwise_harness(F22, act, pairs=100, seed=8)
    assert report.verdict
    assert app_equivalence_check(F22, act, pairs=100, seed=8).verdict


def test_harnesses_over_dirichlet_exponents():
    act = trivial_action(make_monoid("NatMulDirichlet"), Z6)
    report = coefficientwise_harness(Z6, act, pairs=100, seed=9)
    assert report.verdict and report.witnesses["nonzero_pairs"] > 0
    assert witness_paths_agree(Z6, act, instances=50, seed=9).verdict

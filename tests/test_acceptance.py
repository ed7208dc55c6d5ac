"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

All algebraic assertions are exact; the only tolerances are wall-clock
budgets on the timed criteria.
"""

import io
import json
import random
import time
from itertools import combinations

import pytest

from skewseries.cli import JobSpec, run_job
from skewseries.gallery import gallery_ring, named_automorphism, standard_contexts
from skewseries.ideals import is_right_s_unital
from skewseries.monoids import make_monoid, sample_pool
from skewseries.properties import is_left_app, orbit_annihilators_s_unital
from skewseries.rings import cyclic_ring, identity_automorphism
from skewseries.series import (
    SkewSeries,
    constant,
    convolve,
    monomial,
    single_generator_action,
    trivial_action,
)
from skewseries.theorems import (
    app_equivalence_check,
    coefficientwise_harness,
    elementwise_condition_holds,
    preset_by_name,
    run_preset,
    witness_paths_agree,
)

from oracles import all_left_ideals, dirichlet_value

NAT = make_monoid("NatAdd")


def _report(criterion, description, elapsed=None):
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"PASS criterion {criterion}: {description}{timing}")


def nat_context(ring, aut):
    if aut.is_identity():
        return trivial_action(NAT, ring)
    return single_generator_action(NAT, ring, aut)


def random_series(action, rng, pool, max_terms):
    support = rng.sample(pool, rng.randint(1, max_terms))
    return SkewSeries(action, {s: rng.randrange(action.ring.size) for s in support})


def test_criterion_1_dirichlet_construction_fidelity():
    t0 = time.perf_counter()
    monoid = make_monoid("NatMulDirichlet")
    rng = random.Random(2024)
    pool = list(range(1, 201))
    for modulus in (8, 7):
        ring = cyclic_ring(modulus)
        action = trivial_action(monoid, ring)
        for _ in range(50):
            f = random_series(action, rng, pool, max_terms=40)
            g = random_series(action, rng, pool, max_terms=40)
            product = convolve(f, g)
            for n in range(1, 201):
                assert product.coefficient(n) == dirichlet_value(
                    ring, f.coeffs, g.coeffs, n), (modulus, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 1 exceeded its 5s budget: {elapsed:.2f}s"
    _report(1, "convolution over (N,*) matches the divisor-sum formula on "
               "100 random pairs, n <= 200, over Z8 and Z7", elapsed)


def test_criterion_2_algebraic_laws_under_nontrivial_actions():
    t0 = time.perf_counter()
    contexts = []
    F22 = gallery_ring("F2xF2")
    contexts.append((F22, named_automorphism(F22, "swap")))
    M = gallery_ring("M2F2")
    contexts.append((M, named_automorphism(M, "inner:6")))
    for ring, aut in contexts:
        action = single_generator_action(NAT, ring, aut)
        rng = random.Random(ring.size)
        pool = sample_pool(NAT, 5)
        for _ in range(500):
            f = random_series(action, rng, pool, 3)
            g = random_series(action, rng, pool, 3)
            h = random_series(action, rng, pool, 3)
            assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
            assert convolve(f, g + h) == convolve(f, g) + convolve(f, h)
            assert convolve(f + g, h) == convolve(f, h) + convolve(g, h)
        for _ in range(500):
            a, b = rng.randrange(ring.size), rng.randrange(ring.size)
            s, t = rng.randrange(6), rng.randrange(6)
            assert constant(action, ring.add(a, b)) == \
                constant(action, a) + constant(action, b)
            assert constant(action, ring.mul(a, b)) == \
                convolve(constant(action, a), constant(action, b))
            assert convolve(monomial(action, s), monomial(action, t)) == \
                monomial(action, s + t)
            assert convolve(monomial(action, s), constant(action, a)) == \
                convolve(constant(action, action.apply(s, a)), monomial(action, s))
    _report(2, "associativity, distributivity, embeddings, and the twist "
               "identity hold on 500 random instances per law under swap and "
               "inner actions", time.perf_counter() - t0)


def test_criterion_3_counterexample_reproduction():
    t0 = time.perf_counter()
    report = is_left_app(cyclic_ring(4))
    assert not report.verdict
    assert report.witnesses["counterexample"]["element"] == 2
    assert report.witnesses["counterexample"]["annihilator"] == [0, 2]
    for p in (2, 3, 5, 7):
        assert is_left_app(cyclic_ring(p)).verdict
    assert is_left_app(cyclic_ring(6)).verdict
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 3 exceeded its 1s budget: {elapsed:.2f}s"
    _report(3, "left APP verdicts: Z4 fails at a=2 with annihilator {0,2}; "
               "prime fields and Z6 pass", elapsed)


def test_criterion_4_finite_subset_witness_equivalence():
    t0 = time.perf_counter()
    seen = set()
    ideals_checked = 0
    for ring, _, name, _ in standard_contexts():
        if name in seen or ring.size > 16:
            continue
        seen.add(name)
        for ideal in all_left_ideals(ring):
            ideals_checked += 1
            pointwise = is_right_s_unital(ideal).holds
            members = ideal.sorted_members()
            common_up_to_3 = all(
                any(all(ring.mul(a, x) == a for a in subset)
                    for x in members)
                for size in (1, 2, 3)
                for subset in combinations(members, min(size, len(members))))
            assert pointwise == common_up_to_3, (name, members)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 4 exceeded its 60s budget: {elapsed:.2f}s"
    _report(4, f"pointwise witnesses match common witnesses on subsets of "
               f"size <= 3 across all {ideals_checked} left ideals of the "
               f"gallery rings", elapsed)


def test_criterion_5_coefficientwise_annihilation_harness():
    t0 = time.perf_counter()
    applicable = 0
    for ring, aut, name, aut_name in standard_contexts():
        action = nat_context(ring, aut)
        if not elementwise_condition_holds(ring, action):
            continue
        applicable += 1
        report = coefficientwise_harness(ring, action, pairs=1000, seed=11)
        assert report.verdict and report.witnesses["applicable"], (name, aut_name)
        assert report.witnesses["pairs"] == 1000
    assert applicable >= 8
    _report(5, f"1000 constructed annihilating pairs per applicable context "
               f"({applicable} contexts) all annihilate coefficientwise; "
               f"zero violations", time.perf_counter() - t0)


def test_criterion_6_equivalence_coherence_zero_alarms():
    t0 = time.perf_counter()
    true_side = false_side = 0
    for ring, aut, name, aut_name in standard_contexts():
        action = nat_context(ring, aut)
        # raises CoherenceAlarm (the exit-2 condition) on any coherence break
        report = app_equivalence_check(ring, action, pairs=1000, seed=23)
        if report.witnesses.get("condition"):
            true_side += 1
            assert report.verdict, (name, aut_name)
        else:
            false_side += 1
            assert not report.verdict
            assert report.witnesses["obstructions"], (name, aut_name)
    assert true_side >= 8 and false_side >= 2
    _report(6, f"witness construction verified on 1000 pairs in each of "
               f"{true_side} condition-true contexts; {false_side} "
               f"condition-false contexts produced obstruction pairs; "
               f"zero alarms", time.perf_counter() - t0)


def test_criterion_7_witness_path_equivalence():
    t0 = time.perf_counter()
    for ring, aut, name, aut_name in standard_contexts():
        action = nat_context(ring, aut)
        if not elementwise_condition_holds(ring, action):
            continue
        report = witness_paths_agree(ring, action, instances=200, seed=31)
        assert report.verdict, (name, aut_name)
        assert report.witnesses["instances"] == 200
    _report(7, "full-set and minimal-subset witness constructions both "
               "verify on 200 shared instances per applicable context",
            time.perf_counter() - t0)


def test_criterion_8_specialization_presets():
    t0 = time.perf_counter()
    seen_rings = {}
    for ring, aut, name, aut_name in standard_contexts():
        action = nat_context(ring, aut)
        condition = orbit_annihilators_s_unital(ring, action).verdict
        one_var = run_preset(preset_by_name("skew_power_series"), ring, aut)
        laurent = run_preset(preset_by_name("skew_laurent_series"), ring, aut)
        assert one_var.verdict == condition == laurent.verdict, (name, aut_name)
        ident = identity_automorphism(ring)
        for alpha, beta in ((aut, aut), (aut, ident)):
            lex = run_preset(preset_by_name("two_variable_lex"), ring, alpha, beta)
            rev = run_preset(preset_by_name("two_variable_revlex"), ring, alpha, beta)
            int_lex = run_preset(preset_by_name("two_variable_laurent_lex"),
                                 ring, alpha, beta)
            int_rev = run_preset(preset_by_name("two_variable_laurent_revlex"),
                                 ring, alpha, beta)
            assert lex.verdict == rev.verdict == int_lex.verdict == int_rev.verdict
        if name not in seen_rings:
            seen_rings[name] = ring
    # the untwisted arithmetic-functions preset matches the plain APP verdict
    for name, ring in seen_rings.items():
        preset = run_preset(preset_by_name("arithmetic_functions"), ring)
        assert preset.verdict == is_left_app(ring).verdict, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 8 exceeded its 120s budget: {elapsed:.2f}s"
    _report(8, "preset verdicts agree across one-variable, Laurent, and both "
               "two-variable orders, and the untwisted arithmetic-functions "
               "preset reproduces the APP verdicts", elapsed)


SAMPLED_JOB = """
ring.kind = gallery
ring.name = M2F2
monoid.kind = NatAdd
action.alpha = inner:6
checks = left_app, orbit_condition, app_equivalence
mode = sampled
trials = 120
seed = 77
"""


def test_criterion_9_deterministic_reports(tmp_path):
    t0 = time.perf_counter()
    job = JobSpec.from_text(SAMPLED_JOB)
    outputs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = run_job(job, out_path=str(out), stream=io.StringIO())
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    tree = json.loads(outputs[0])
    assert tree["seed"] == 77
    assert tree["timings"] == {}
    _report(9, "rerunning a sampled-mode job with the same seed yields "
               "byte-identical reports", time.perf_counter() - t0)

"""Mechanical verification of the annihilator-transfer results.

The central facts being checked, stated operationally:

* Coefficientwise annihilation.  Over a strictly totally ordered exponent
  monoid acting by automorphisms, if every element's orbit annihilator
  l(sum_s R*w_s(a)) is right s-unital, then any two series with
  g * T * f == 0 (T the whole series ring) annihilate coefficientwise:
  g(u) * w_u(r * w_s(f(v))) == 0 for all exponents u, v, s and all r.

* Necessity.  If the series ring were left APP, those orbit annihilators
  must be right s-unital; so every element a whose orbit annihilator fails
  the test yields a concrete obstruction pair (a, b).

* Witness construction.  When the orbit annihilator condition holds for all
  subsets, each annihilating pair (g, f) admits a single ring element e in
  the orbit annihilator of f's coefficients with g = g * c_e and
  c_e * h * f == 0 for every middle h; building and verifying that e is the
  constructive content of the equivalence.

Functions here raise CoherenceAlarm when a fact that must hold under verified
hypotheses fails to verify; that is an alarm condition, distinct from an
honest ``verdict=False`` about a ring that simply lacks a property.
"""

from __future__ import annotations

import random
import time
import weakref
from dataclasses import dataclass, field

from .ideals import (
    IdealSet,
    _first_orbit_failure,
    _members,
    _orbit_annihilator,
    _s_unital,
    right_annihilator,
    tominaga_common_witness,
)
from .monoids import OrderedMonoid, make_monoid, sample_pool
from .properties import PropertyReport, orbit_annihilators_s_unital
from .rings import FiniteRing, RingAut, _additive_generators, identity_automorphism
from .series import (
    OmegaAction,
    SkewSeries,
    _first_failing_middle,
    annihilates_via_all_middles,
    constant,
    convolve,
    pair_action,
    single_generator_action,
    trivial_action,
)


class PreconditionError(ValueError):
    """A check was invoked on inputs that do not satisfy its hypothesis."""


class CoherenceAlarm(RuntimeError):
    """A conclusion that must hold under verified hypotheses failed.

    Reaching this means the machine found a counterexample to a proved
    statement, which indicates an implementation bug; batch runs surface it
    with a dedicated exit code instead of a normal false verdict.
    """


# The IdealSets handed out for sets of elements, per action; the bitsets
# they come from are kept by ``ideals``.
_set_orbit_cache: "weakref.WeakKeyDictionary[OmegaAction, dict]" = \
    weakref.WeakKeyDictionary()


def element_orbit_annihilator(a: int, action: OmegaAction) -> IdealSet:
    """l(sum over attained automorphisms s of R * w_s(a)) as an IdealSet."""
    return set_orbit_annihilator((a,), action)


def set_orbit_annihilator(elements, action: OmegaAction) -> IdealSet:
    """l(sum over a in elements of the orbit ideal of a).

    Annihilating a sum of left ideals means annihilating each summand, so
    this is the intersection of the per-element orbit annihilators; an empty
    input gives the whole ring.  Cached per action and set of elements.
    """
    by_set = _set_orbit_cache.get(action)
    if by_set is None:
        by_set = _set_orbit_cache[action] = {}
    key = frozenset(elements)
    hit = by_set.get(key)
    if hit is None:
        mask = (1 << action.ring.size) - 1
        for a in key:
            mask &= _orbit_annihilator(action, a)
        hit = by_set[key] = IdealSet.classified(action.ring, _members(mask))
    return hit


def elementwise_condition_holds(ring: FiniteRing, action: OmegaAction) -> bool:
    """The orbit annihilator condition, from the same per-action scan as
    ``orbit_annihilators_s_unital(ring, action).verdict``."""
    if action.ring is not ring:
        raise ValueError("action was built over a different ring instance")
    return _first_orbit_failure(action) is None


_NOT_THROUGH_MIDDLES = "the pair does not annihilate through all middles"


def check_coefficientwise_annihilation(g: SkewSeries, f: SkewSeries) -> PropertyReport:
    """Given g * T * f == 0, verify g(u) * w_u(r * w_s(f(v))) == 0 throughout.

    The hypothesis has two parts, checked first: every element's orbit
    annihilator must be right s-unital, and the pair must annihilate through
    all middles.  A hypothesis failure is reported distinctly (as
    ``witnesses["failure"] == "hypothesis"``) from a conclusion failure
    (``"conclusion"``), since only the latter contradicts the statement.
    ``products_checked`` counts the products the conclusion covers,
    |supp g| * |supp f| * |exponent representatives| * |R|, although each
    distinct (g(u), w_u, f(v)) is tested only once.
    """
    t0 = time.perf_counter()
    action = g.action
    ring = action.ring
    failing = _first_orbit_failure(action)
    if failing is not None:
        return PropertyReport(
            ring.name, "coefficientwise_annihilation", False,
            {"failure": "hypothesis",
             "detail": f"orbit annihilator of element {failing} is not right s-unital"},
            time.perf_counter() - t0)
    if not annihilates_via_all_middles(g, f):
        return PropertyReport(
            ring.name, "coefficientwise_annihilation", False,
            {"failure": "hypothesis", "detail": _NOT_THROUGH_MIDDLES},
            time.perf_counter() - t0)
    # g(u) * w_u(r * w_s(f(v))) depends on (u, v) only through the class
    # (g(u), w_u) and the value f(v): decide each (class, value) once.
    reps = action.representatives()
    mul, zero = ring.mul, ring.zero

    def first_violation(gu, twist_u, fv):
        for s in reps:
            fv_s = action.apply(s, fv)
            for r in ring.elements():
                if mul(gu, twist_u[mul(r, fv_s)]) != zero:
                    return s, r
        return None

    twists = {u: action.automorphism(u).perm for u in g.coeffs}
    classes = {(gu, twists[u]) for u, gu in g.coeffs.items()}
    values = set(f.coeffs.values())
    violations = {}
    for gu, twist_u in classes:
        for fv in values:
            hit = first_violation(gu, twist_u, fv)
            if hit is not None:
                violations[gu, twist_u, fv] = hit
    if violations:
        # The first violation in (u, v, s, r) order lies in the first failing
        # (u, v) pair, at that pair's first failing (s, r).
        u, v = next((u, v) for u, gu in g.coeffs.items() for v, fv in f.coeffs.items()
                    if (gu, twists[u], fv) in violations)
        s, r = violations[g.coeffs[u], twists[u], f.coeffs[v]]
        return PropertyReport(
            ring.name, "coefficientwise_annihilation", False,
            {"failure": "conclusion",
             "violation": {"u": repr(u), "v": repr(v), "s": repr(s), "r": r}},
            time.perf_counter() - t0)
    checked = len(g.coeffs) * len(f.coeffs) * len(reps) * ring.size
    return PropertyReport(ring.name, "coefficientwise_annihilation", True,
                          {"products_checked": checked},
                          time.perf_counter() - t0)


def extract_cascade_witnesses(g: SkewSeries, f: SkewSeries, w) -> list[int]:
    """Witnesses for the leading-term elimination cascade at exponent w.

    Writing the decompositions of w inside the two supports as pairs
    (u_i, v_i) with v_1 < v_2 < ... < v_n, the i-th witness e_i lies in the
    orbit annihilator of f(v_i) and reproduces every later coefficient:
    g(u_j) == g(u_j) * w_{u_j}(e_i) for all j > i.  Eliminating terms with
    these witnesses one at a time is what reduces a sum of n products to its
    last summand.  Returns n-1 witnesses; a single decomposition needs none.
    """
    action = g.action
    ring = action.ring
    monoid = action.monoid
    pairs = [(u, v) for u in g.coeffs for v in f.coeffs if monoid.op(u, v) == w]
    pairs.sort(key=lambda p: monoid.sort_key(p[1]))
    witnesses = []
    for i in range(len(pairs) - 1):
        v_i = pairs[i][1]
        ann = element_orbit_annihilator(f.coeffs[v_i], action)
        targets = []
        for (u_j, _) in pairs[i + 1:]:
            a_j = action.automorphism(u_j).inverse().perm[g.coeffs[u_j]]
            if a_j not in ann.members:
                raise PreconditionError(
                    f"twisted coefficient at {u_j!r} escapes the orbit annihilator "
                    f"of f({v_i!r}); the pair violates the hypothesis below {w!r}")
            targets.append(a_j)
        witnesses.append(tominaga_common_witness(ann, targets))
    return witnesses


def annihilator_obstructions(ring: FiniteRing, action: OmegaAction) -> PropertyReport:
    """Concrete obstructions to the elementwise orbit annihilator condition.

    For every element a whose orbit annihilator I fails the right s-unital
    test, exhibits b in I such that no x in I satisfies b*x == b.  Any such
    pair (a, b) certifies that the twisted-series ring over this context is
    not left APP: the constant series of b would need exactly such an x as
    its witness coefficient at the neutral exponent.  Verdict True means no
    obstruction exists.
    """
    t0 = time.perf_counter()
    obstructions = []
    blocked: dict[int, int | None] = {}
    for a in ring.elements():
        ann = _orbit_annihilator(action, a)
        if ann not in blocked:
            blocked[ann] = _s_unital(ring, ann).failing
        if blocked[ann] is not None:
            obstructions.append({
                "element": a,
                "blocked": blocked[ann],
                "annihilator": _members(ann),
            })
    return PropertyReport(
        ring.name, "annihilator_obstructions", not obstructions,
        {"obstructions": obstructions}, time.perf_counter() - t0)


@dataclass
class WitnessOutcome:
    """Result of the annihilator-witness construction for one pair."""

    witness: int
    twisted_coefficients: list[int]
    selected_subset: list[int] = field(default_factory=list)
    annihilator: list[int] = field(default_factory=list)


def construct_annihilator_witness(g: SkewSeries, f: SkewSeries,
                                  chain_search: bool = False,
                                  skip_condition_check: bool = False) -> WitnessOutcome:
    """Build e with g == g * c_e and c_e * h * f == 0 for all middles h.

    Let Y collect the twisted coefficients w_u^{-1}(g(u)) over supp(g); each
    lies in I = l(orbit ideal of f's coefficients), and e is a common
    right-identity witness for Y inside I.  The default path hands all of Y
    to the common-witness search at once.  ``chain_search=True`` instead
    selects a smallest subset Y0 whose right annihilator is minimal (equal to
    the right annihilator of all of Y), finds the witness for Y0 alone, and
    relies on that minimality to reproduce the remaining coefficients; both
    paths verify the same two product identities at the end.

    Raises PreconditionError when the hypotheses fail, CoherenceAlarm when a
    step the hypotheses guarantee does not verify.
    """
    action = g.action
    if not skip_condition_check and not elementwise_condition_holds(action.ring, action):
        raise PreconditionError(
            "orbit annihilator condition fails; witness construction not licensed")
    _require_middles(g, f)
    return _build_witness(g, f, chain_search)


def _require_middles(g: SkewSeries, f: SkewSeries) -> None:
    if not annihilates_via_all_middles(g, f):
        raise PreconditionError("pair does not annihilate through all middles")


def _build_witness(g: SkewSeries, f: SkewSeries, chain_search: bool) -> WitnessOutcome:
    """The witness construction for a pair whose preconditions hold."""
    action = g.action
    ring = action.ring
    ann = set_orbit_annihilator(f.coeffs.values(), action)
    targets = []
    for u, gu in g.coeffs.items():
        y = action.automorphism(u).inverse().perm[gu]
        if y not in ann.members:
            raise CoherenceAlarm(
                f"twisted coefficient {y} at exponent {u!r} is outside the "
                f"orbit annihilator {ann.describe()}")
        targets.append(y)

    selected = targets
    if chain_search and targets:
        selected = _minimal_annihilator_subset(ring, targets)
    witness = tominaga_common_witness(ann, selected)
    for y in targets:
        if ring.mul(y, witness) != y:
            raise CoherenceAlarm(
                f"witness {witness} fails to reproduce twisted coefficient {y}")

    c_e = constant(action, witness)
    reps = action.representatives()
    if _first_failing_middle(c_e, f, reps, _additive_generators(ring)) is not None:
        # name the first failing middle over all of R, in (s, r) order
        s, r = _first_failing_middle(c_e, f, reps, ring.elements())
        raise CoherenceAlarm(
            f"witness constant fails to annihilate f through middle "
            f"(r={r}, s={s!r})")
    if convolve(g, c_e) != g:
        raise CoherenceAlarm(f"g * c_e differs from g for witness {witness}")
    return WitnessOutcome(
        witness=witness,
        twisted_coefficients=sorted(set(targets)),
        selected_subset=sorted(set(selected)),
        annihilator=ann.sorted_members(),
    )


def _minimal_annihilator_subset(ring: FiniteRing, targets: list[int]) -> list[int]:
    """Smallest subset of targets whose right annihilator is already minimal.

    Right annihilators shrink as the subset grows, so the full set attains
    the minimum; searching subsets in size order finds a smallest one with
    the same right annihilator, mirroring a minimal-element selection under
    the descending chain condition.
    """
    from itertools import combinations

    distinct = sorted(set(targets))
    bottom = right_annihilator(distinct, ring).members
    for size in range(0, len(distinct) + 1):
        for combo in combinations(distinct, size):
            if right_annihilator(combo, ring).members == bottom:
                return list(combo)
    return distinct


# ---------------------------------------------------------------------------
# constructive generation of annihilating pairs

def random_annihilating_pair(action: OmegaAction, rng: random.Random,
                             max_support: int = 4, span: int = 6,
                             retries: int = 8) -> tuple[SkewSeries, SkewSeries]:
    """A seeded random pair (g, f) with g * T * f == 0, built constructively.

    Rejection sampling almost never finds annihilating pairs, so f is drawn
    first and g's coefficients are taken as w_u(b) for elements b of the
    orbit annihilator of f's coefficients; every product term then vanishes
    individually.  When that annihilator is zero (as in any prime ring) the
    only possible g is the zero series.
    """
    ring = action.ring
    pool = sample_pool(action.monoid, span)
    nonzero = [r for r in ring.elements() if r != ring.zero]

    def draw_support():
        k = rng.randint(1, max_support)
        return rng.sample(pool, min(k, len(pool)))

    f = None
    ann_members: list[int] = []
    for _ in range(retries):
        candidate = SkewSeries._trusted(
            action, {s: rng.choice(nonzero) for s in draw_support()})
        members = set_orbit_annihilator(candidate.coeffs.values(), action).members
        f = candidate
        ann_members = sorted(members)
        if len(members) > 1:
            break
    choices = [b for b in ann_members if b != ring.zero] or [ring.zero]
    g_coeffs = {}
    for u in draw_support():
        b = rng.choice(choices)
        g_coeffs[u] = action.apply(u, b)
    g = SkewSeries(action, g_coeffs)
    return g, f


# ---------------------------------------------------------------------------
# batch harnesses over one (ring, action) context

def coefficientwise_harness(ring: FiniteRing, action: OmegaAction,
                            pairs: int = 1000, max_support: int = 4,
                            seed: int = 0) -> PropertyReport:
    """Run the coefficientwise-annihilation check on constructed pairs.

    Contexts that do not satisfy the elementwise hypothesis are reported as
    not applicable (vacuously true) rather than failed.  A conclusion
    violation on a valid pair raises CoherenceAlarm.
    """
    t0 = time.perf_counter()
    if not elementwise_condition_holds(ring, action):
        return PropertyReport(
            ring.name, "coefficientwise_harness", True,
            {"applicable": False,
             "detail": "elementwise orbit annihilator condition fails"},
            time.perf_counter() - t0)
    rng = random.Random(seed)
    nonzero_pairs = 0
    for i in range(pairs):
        g, f = random_annihilating_pair(action, rng, max_support=max_support)
        report = check_coefficientwise_annihilation(g, f)
        if report.witnesses.get("detail") == _NOT_THROUGH_MIDDLES:
            raise CoherenceAlarm(
                f"constructed pair {i} fails to annihilate through middles")
        if not report.verdict:
            raise CoherenceAlarm(
                f"coefficientwise annihilation failed on pair {i}: "
                f"{report.witnesses}")
        if not g.is_zero() and not f.is_zero():
            nonzero_pairs += 1
    return PropertyReport(
        ring.name, "coefficientwise_harness", True,
        {"applicable": True, "pairs": pairs, "nonzero_pairs": nonzero_pairs,
         "seed": seed}, time.perf_counter() - t0)


def app_equivalence_check(ring: FiniteRing, action: OmegaAction,
                          pairs: int = 1000, max_support: int = 4,
                          seed: int = 0, chain_search: bool = False) -> PropertyReport:
    """Desk-scale rendering of the main equivalence for one context.

    When the orbit annihilator condition holds for all subsets, the witness
    construction must succeed and verify on every constructed annihilating
    pair.  When the condition fails, at least one obstruction (a, b) must be
    reported, and each must name a b in the orbit annihilator I of a with no
    x in I such that b*x == b; this is checked with the ring's own
    multiplication, not with the bitsets that found b.  Either guarantee
    failing raises CoherenceAlarm; otherwise the verdict mirrors the
    condition itself.
    """
    t0 = time.perf_counter()
    condition = orbit_annihilators_s_unital(ring, action)
    if condition.verdict:
        rng = random.Random(seed)
        witnesses_seen = set()
        for i in range(pairs):
            g, f = random_annihilating_pair(action, rng, max_support=max_support)
            outcome = construct_annihilator_witness(
                g, f, chain_search=chain_search, skip_condition_check=True)
            witnesses_seen.add(outcome.witness)
        return PropertyReport(
            ring.name, "app_equivalence", True,
            {"condition": True, "pairs": pairs,
             "distinct_witnesses": sorted(witnesses_seen), "seed": seed},
            time.perf_counter() - t0)
    obstructions = annihilator_obstructions(ring, action)
    if not obstructions.witnesses["obstructions"]:
        raise CoherenceAlarm(
            f"{ring.name}: the orbit annihilator condition fails but no "
            f"obstruction is reported")
    for obs in obstructions.witnesses["obstructions"]:
        b, ann = obs["blocked"], obs["annihilator"]
        if b not in ann or any(ring.mul(b, x) == b for x in ann):
            raise CoherenceAlarm(
                f"{ring.name}: obstruction at element {obs['element']} names "
                f"{b}, which is not blocked in its orbit annihilator")
    return PropertyReport(
        ring.name, "app_equivalence", False,
        {"condition": False,
         "condition_counterexample": condition.witnesses.get("counterexample"),
         "obstructions": obstructions.witnesses["obstructions"],
         "seed": seed},
        time.perf_counter() - t0)


def witness_paths_agree(ring: FiniteRing, action: OmegaAction,
                        instances: int = 200, max_support: int = 4,
                        seed: int = 0) -> PropertyReport:
    """Both witness-construction paths verify on the same constructed pairs.

    The full-set path and the minimal-subset chain search may pick different
    witnesses; each must still satisfy both product identities (the
    construction itself verifies them and alarms otherwise).
    """
    t0 = time.perf_counter()
    if not elementwise_condition_holds(ring, action):
        return PropertyReport(
            ring.name, "witness_paths", True,
            {"applicable": False}, time.perf_counter() - t0)
    rng = random.Random(seed)
    differing = 0
    for _ in range(instances):
        g, f = random_annihilating_pair(action, rng, max_support=max_support)
        _require_middles(g, f)
        full = _build_witness(g, f, chain_search=False)
        chain = _build_witness(g, f, chain_search=True)
        if full.witness != chain.witness:
            differing += 1
    return PropertyReport(
        ring.name, "witness_paths", True,
        {"applicable": True, "instances": instances,
         "witness_disagreements": differing, "seed": seed},
        time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# presets instantiating the classical specializations

@dataclass(frozen=True)
class Preset:
    """A named (monoid, action shape) bundle for a classical series ring."""

    name: str
    monoid_kind: str
    generators: int  # how many automorphism images the action takes (0, 1, 2)
    description: str

    def build(self, ring: FiniteRing, alpha: RingAut | None = None,
              beta: RingAut | None = None) -> tuple[OrderedMonoid, OmegaAction]:
        monoid = make_monoid(self.monoid_kind)
        if self.generators == 0:
            if (alpha is not None and not alpha.is_identity()) or \
                    (beta is not None and not beta.is_identity()):
                raise ValueError(f"preset {self.name} only supports the trivial action")
            return monoid, trivial_action(monoid, ring)
        if self.generators == 1:
            a = alpha if alpha is not None else identity_automorphism(ring)
            return monoid, single_generator_action(monoid, ring, a)
        a = alpha if alpha is not None else identity_automorphism(ring)
        b = beta if beta is not None else identity_automorphism(ring)
        if a.compose(b) != b.compose(a):
            raise ValueError(f"preset {self.name} needs commuting automorphisms")
        return monoid, pair_action(monoid, ring, a, b)


PRESETS = (
    Preset("skew_power_series", "NatAdd", 1,
           "one-variable twisted power series"),
    Preset("skew_laurent_series", "IntAdd", 1,
           "one-variable twisted Laurent series"),
    Preset("two_variable_lex", "NatPairLex", 2,
           "two commuting variables, lexicographic exponents"),
    Preset("two_variable_revlex", "NatPairRevLex", 2,
           "two commuting variables, reverse lexicographic exponents"),
    Preset("two_variable_laurent_lex", "IntPairLex", 2,
           "two commuting Laurent variables, lexicographic exponents"),
    Preset("two_variable_laurent_revlex", "IntPairRevLex", 2,
           "two commuting Laurent variables, reverse lexicographic exponents"),
    Preset("arithmetic_functions", "NatMulDirichlet", 0,
           "ring-valued arithmetic functions under Dirichlet convolution"),
)


def specialization_presets() -> list[Preset]:
    return list(PRESETS)


def preset_by_name(name: str) -> Preset:
    for preset in PRESETS:
        if preset.name == name:
            return preset
    raise KeyError(f"unknown preset: {name}")


def run_preset(preset: Preset, ring: FiniteRing,
               alpha: RingAut | None = None,
               beta: RingAut | None = None) -> PropertyReport:
    """Check the subset orbit annihilator condition under a preset context."""
    _, action = preset.build(ring, alpha, beta)
    report = orbit_annihilators_s_unital(ring, action)
    report.name = f"preset_{preset.name}"
    report.witnesses = {"preset": preset.name, **report.witnesses}
    return report

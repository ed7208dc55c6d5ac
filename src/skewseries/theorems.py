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

Every quantifier over middles r x^s and over the r of the coefficientwise
conclusion is ``series._first_failure``: decided on the additive generators
of R, with all of R scanned only to name the first failure.  The pair checks
of the harnesses decide term classes: a term g(u) * w_u(r * w_s(f(v)))
depends on (u, v) only through (g(u), w_u, f(v)), and each such class is
decided once per action (``_term_failure``).  An
obstruction's claim, b in I and no x in I with b*x == b, is ``_is_blocked``,
which ``cli`` replays too.

Functions here raise CoherenceAlarm when a fact that must hold under verified
hypotheses fails to verify; that is an alarm condition, distinct from an
honest ``verdict=False`` about a ring that simply lacks a property.

A preset names an exponent monoid and nothing else: its action is
``OmegaAction(monoid, ring, alpha, beta)``, so it takes exactly the images
its monoid kind takes.  Reports carry no timing; ``cli.run_job`` times each
check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from .ideals import (
    FR,
    IdealSet,
    _elements,
    _first_orbit_failure,
    _ideal,
    _lowest_common,
    _members,
    _orbit_record,
    _right_annihilator_bits,
    _set_orbit_annihilator,
    tominaga_common_witness,
)
from .monoids import OrderedMonoid, make_monoid, sample_pool
from .properties import PropertyReport, orbit_annihilators_s_unital
from .rings import FiniteRing, RingAut
from .series import (
    OmegaAction,
    SkewSeries,
    _first_failure,
    _middle_test,
    annihilates_via_all_middles,
    zero_series,
)


class PreconditionError(ValueError):
    """A check was invoked on inputs that do not satisfy its hypothesis."""


class CoherenceAlarm(RuntimeError):
    """A conclusion that must hold under verified hypotheses failed.

    Reaching this means the machine found a counterexample to a proved
    statement, which indicates an implementation bug; batch runs surface it
    with a dedicated exit code instead of a normal false verdict.
    """


def element_orbit_annihilator(a: int, action: OmegaAction) -> IdealSet:
    """l(sum over attained automorphisms s of R * w_s(a)) as an IdealSet."""
    return set_orbit_annihilator((a,), action)


def set_orbit_annihilator(elements, action: OmegaAction) -> IdealSet:
    """l(sum over a in elements of the orbit ideal of a).

    Annihilating a sum of left ideals means annihilating each summand, so
    this is the intersection of the per-element orbit annihilators; an empty
    input gives the whole ring.  ValueError on an element that is not an
    index 0..n-1 of the ring.
    """
    mask = _set_orbit_annihilator(action, _elements(action.ring, elements))
    return IdealSet.classified(action.ring, _members(mask))


def elementwise_condition_holds(ring: FiniteRing, action: OmegaAction) -> bool:
    """The orbit annihilator condition, read off the action's orbit record
    as ``orbit_annihilators_s_unital(ring, action).verdict`` is."""
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
    distinct (g(u), w_u, f(v)) is decided only once per action, on the
    additive generators of R (``_term_failure``).
    """
    g._require_same_context(f)
    ring = g.action.ring
    failing = _first_orbit_failure(g.action)
    if failing is not None:
        return PropertyReport(
            ring.name, "coefficientwise_annihilation", False,
            {"failure": "hypothesis",
             "detail": f"orbit annihilator of element {failing} is not right s-unital"})
    if not annihilates_via_all_middles(g, f):
        return PropertyReport(ring.name, "coefficientwise_annihilation", False,
                              {"failure": "hypothesis", "detail": _NOT_THROUGH_MIDDLES})
    return _coefficientwise_conclusion(g, f)


def _coefficientwise_conclusion(g: SkewSeries, f: SkewSeries) -> PropertyReport:
    """The conclusion half of ``check_coefficientwise_annihilation``, for a
    pair whose hypotheses hold."""
    action = g.action
    ring = action.ring
    if not _terms_vanish(g, f):
        # The first violation in (u, v, s, r) order lies in the first failing
        # (u, v) pair, at the first failing (s, r) of that pair's term class.
        for u, gu in g.coeffs.items():
            twist_u = action.automorphism(u).perm
            for v, fv in f.coeffs.items():
                hit = _term_failure(action, gu, twist_u, fv)
                if hit is not None:
                    s, r = hit
                    return PropertyReport(
                        ring.name, "coefficientwise_annihilation", False,
                        {"failure": "conclusion",
                         "violation": {"u": repr(u), "v": repr(v), "s": repr(s), "r": r}})
    checked = len(g.coeffs) * len(f.coeffs) * len(action.representatives()) * ring.size
    return PropertyReport(ring.name, "coefficientwise_annihilation", True,
                          {"products_checked": checked})


def _term_failure(action: OmegaAction, gu: int, twist: tuple, fv: int):
    """The first (s, r) of ``_first_failure`` with gu * twist[r * w_s(fv)]
    != 0, or None.

    A term g(u) * w_u(r * w_s(f(v))) depends on (u, v) only through its
    class (g(u), w_u.perm, f(v)), so each class is decided once per action
    and kept in ``action._classes``.
    """
    classes = action._classes
    key = (gu, twist, fv)
    try:
        return classes[key]
    except KeyError:
        mul, zero, automorphism = action.ring.mul, action.ring.zero, action.automorphism
        hit = classes[key] = _first_failure(
            action, lambda s, r: mul(gu, twist[mul(r, automorphism(s).perm[fv])]) != zero)
        return hit


def _terms_vanish(g: SkewSeries, f: SkewSeries) -> bool:
    """Whether every term g(u) * w_u(r * w_s(f(v))) is zero.  Each
    coefficient of g * (r x^s) * f is a sum of such terms, so this is enough
    for g * T * f == 0, though not necessary."""
    action = g.action
    # each distinct class once: long series repeat few (g(u), w_u) and f(v)
    twisted = {(gu, action.automorphism(u).perm) for u, gu in g.coeffs.items()}
    values = set(f.coeffs.values())
    return all(_term_failure(action, gu, twist, fv) is None
               for gu, twist in twisted for fv in values)


def extract_cascade_witnesses(g: SkewSeries, f: SkewSeries, w) -> list[int]:
    """Witnesses for the leading-term elimination cascade at exponent w.

    Writing the decompositions of w inside the two supports as pairs
    (u_i, v_i) with v_1 < v_2 < ... < v_n, the i-th witness e_i lies in the
    orbit annihilator of f(v_i) and reproduces every later coefficient:
    g(u_j) == g(u_j) * w_{u_j}(e_i) for all j > i.  Eliminating terms with
    these witnesses one at a time is what reduces a sum of n products to its
    last summand.  Returns n-1 witnesses; a single decomposition needs none.
    """
    g._require_same_context(f)
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
            a_j = action.automorphism(u_j).perm.index(g.coeffs[u_j])
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
    if action.ring is not ring:
        raise ValueError("action was built over a different ring instance")
    masks, unwitnessed, _ = _orbit_record(action)
    obstructions = [{"element": a, "blocked": b, "annihilator": _members(masks[a])}
                    for a, b in enumerate(unwitnessed) if b is not None]
    return PropertyReport(ring.name, "annihilator_obstructions", not obstructions,
                          {"obstructions": obstructions})


def _is_blocked(ring: FiniteRing, b: int, ideal) -> bool:
    """Whether b lies in ``ideal`` (a collection of elements) and no x in it
    has b*x == b, decided with ``ring.mul``: the claim of an obstruction."""
    return b in ideal and not any(ring.mul(b, x) == b for x in ideal)


@dataclass
class WitnessOutcome:
    """Result of the annihilator-witness construction for one pair."""

    witness: int
    twisted_coefficients: list[int]
    selected_subset: list[int] = field(default_factory=list)
    annihilator: list[int] = field(default_factory=list)


def construct_annihilator_witness(g: SkewSeries, f: SkewSeries,
                                  chain_search: bool = False) -> WitnessOutcome:
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
    if not elementwise_condition_holds(action.ring, action):
        raise PreconditionError(
            "orbit annihilator condition fails; witness construction not licensed")
    if not annihilates_via_all_middles(g, f):
        raise PreconditionError("pair does not annihilate through all middles")
    return _build_witness(g, f, (chain_search,))[0]


def _build_witness(g: SkewSeries, f: SkewSeries, paths) -> list[WitnessOutcome]:
    """The witness construction for a pair whose preconditions hold, for
    each ``chain_search`` flag in ``paths`` from one orbit annihilator and
    one list of twisted coefficients; each distinct witness verified once."""
    action = g.action
    ring = action.ring
    ann = _set_orbit_annihilator(action, f.coeffs.values())
    targets = []
    for u, gu in g.coeffs.items():
        y = action.automorphism(u).perm.index(gu)
        if not ann >> y & 1:
            raise CoherenceAlarm(
                f"twisted coefficient {y} at exponent {u!r} is outside the "
                f"orbit annihilator {_ideal(ring, ann).describe()}")
        targets.append(y)

    outcomes = []
    for chain_search in paths:
        selected = targets
        if chain_search and targets:
            selected = _minimal_annihilator_subset(ring, targets)
        witness = _lowest_common(ring, ann, selected, FR) if selected else ring.zero
        if witness is None:
            raise CoherenceAlarm(
                f"no common witness in {_ideal(ring, ann).describe()} for {sorted(selected)}")
        if all(witness != seen.witness for seen in outcomes):  # not yet verified
            for y in targets:
                if ring.mul(y, witness) != y:
                    raise CoherenceAlarm(
                        f"witness {witness} fails to reproduce twisted coefficient {y}")
            c_e = SkewSeries._trusted(
                action, {} if witness == ring.zero else {action.monoid.zero: witness})
            # c_e has one term, so c_e * (r x^s) * f has one term at each
            # s + v, which are distinct: it is zero exactly when its terms vanish
            if not _terms_vanish(c_e, f):
                # name the first failing middle of the scan over every r
                s, r = _first_failure(action, _middle_test(c_e, f))
                raise CoherenceAlarm(
                    f"witness constant fails to annihilate f through middle "
                    f"(r={r}, s={s!r})")
            if not _reproduces(g, witness):
                raise CoherenceAlarm(f"g * c_e differs from g for witness {witness}")
        outcomes.append(WitnessOutcome(witness, sorted(set(targets)), sorted(set(selected)),
                                       _members(ann)))
    return outcomes


def _reproduces(g: SkewSeries, e: int) -> bool:
    """Whether g * c_e == g, for c_e the constant e: the product is
    g(u) * w_u(e) at each u of supp g, since u times the neutral exponent is
    u, and zero elsewhere."""
    action = g.action
    mul = action.ring.mul
    return all(mul(gu, action.automorphism(u).perm[e]) == gu for u, gu in g.coeffs.items())


def _minimal_annihilator_subset(ring: FiniteRing, targets: list[int]) -> list[int]:
    """Smallest subset of targets whose right annihilator is already minimal.

    Right annihilators shrink as the subset grows, so the full set attains
    the minimum; searching subsets in size order finds a smallest one with
    the same right annihilator, mirroring a minimal-element selection under
    the descending chain condition.
    """
    distinct = sorted(set(targets))
    bottom = _right_annihilator_bits(ring, distinct)
    return next(list(combo) for size in range(len(distinct) + 1)
                for combo in combinations(distinct, size)
                if _right_annihilator_bits(ring, combo) == bottom)


# ---------------------------------------------------------------------------
# constructive generation of annihilating pairs

# Random pairs take their exponents from ``sample_pool(monoid, _PAIR_SPAN)``,
# each series has 1 to _PAIR_TERMS terms, and f is redrawn up to _PAIR_DRAWS
# times while its orbit annihilator has fewer than two members.
_PAIR_SPAN = 6
_PAIR_TERMS = 4
_PAIR_DRAWS = 8


def random_annihilating_pair(action: OmegaAction,
                             rng: random.Random) -> tuple[SkewSeries, SkewSeries]:
    """A seeded random pair (g, f) with g * T * f == 0, built constructively.

    Rejection sampling almost never finds annihilating pairs, so f is drawn
    first and g's coefficients are taken as w_u(b) for elements b of the
    orbit annihilator of f's coefficients; every product term then vanishes
    individually.  When that annihilator is zero (as in any prime ring) the
    only possible g is the zero series.  f's annihilator lies inside its
    coefficients', so f is drawn once when every nonzero element's is zero.
    The zero ring has no nonzero element: its only pair is (0, 0), returned
    without a draw.  The exponent pool, the nonzero elements and the number
    of draws of f depend on the action alone, so they are kept in it.

    Every draw goes through one ``below(n)`` over ``rng.getrandbits``, which
    makes the calls ``randint``, ``sample`` and ``choice`` make on CPython
    3.10 to 3.13: a support is
    ``sample(pool, min(randint(1, _PAIR_TERMS), len(pool)))`` and each
    coefficient a ``choice``.  So the stream, and every pair, is
    that of those calls.
    """
    ring = action.ring
    if action._pair_draw is None:
        nonzero = [r for r in ring.elements() if r != ring.zero]
        masks = _orbit_record(action)[0]
        draws = _PAIR_DRAWS if any(masks[r] & (masks[r] - 1) for r in nonzero) else 1
        action._pair_draw = (sample_pool(action.monoid, _PAIR_SPAN), nonzero, draws)
    pool, nonzero, draws = action._pair_draw
    if not nonzero:
        return zero_series(action), zero_series(action)

    getrandbits, size = rng.getrandbits, len(pool)

    def below(n):
        # random.Random._randbelow: n.bit_length() bits, drawn again while >= n
        bits = n.bit_length()
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        return r

    def draw_support():
        # rng.sample(pool, min(rng.randint(1, _PAIR_TERMS), size)); sample
        # takes its pool branch up to 21 entries, as for any k <= 5
        k = min(1 + below(_PAIR_TERMS), size)
        if size <= 21:
            left, out = list(pool), []
            for i in range(k):
                j = below(size - i)
                out.append(left[j])
                left[j] = left[size - i - 1]
            return out
        picked = []
        for _ in range(k):
            j = below(size)
            while j in picked:
                j = below(size)
            picked.append(j)
        return [pool[j] for j in picked]

    f, ann = None, 0
    for _ in range(draws):  # rng.choice(nonzero) for each coefficient
        f = SkewSeries._trusted(
            action, {s: nonzero[below(len(nonzero))] for s in draw_support()})
        ann = _set_orbit_annihilator(action, f.coeffs.values())
        if ann & (ann - 1):  # more than one member
            break
    choices = [b for b in _members(ann) if b != ring.zero] or [ring.zero]
    g_coeffs = {}
    for u in draw_support():
        b = choices[below(len(choices))]  # rng.choice(choices)
        if b != ring.zero:
            g_coeffs[u] = action.automorphism(u).perm[b]
    return SkewSeries._trusted(action, g_coeffs), f


# ---------------------------------------------------------------------------
# batch harnesses over one (ring, action) context

def _vetted_pairs(action: OmegaAction, count: int, seed: int):
    """``count`` pairs from ``random_annihilating_pair`` on
    ``random.Random(seed)``, each checked to annihilate through all middles;
    a constructed pair that does not is an internal fault.  The check first
    asks whether every term vanishes, from the action's decided term
    classes, which a constructed pair always passes; only a pair that fails
    it has its middles tested."""
    rng = random.Random(seed)
    for i in range(count):
        g, f = random_annihilating_pair(action, rng)
        if not (_terms_vanish(g, f) or annihilates_via_all_middles(g, f)):
            raise CoherenceAlarm(f"constructed pair {i} fails to annihilate through middles")
        yield g, f


def coefficientwise_harness(ring: FiniteRing, action: OmegaAction,
                            pairs: int = 1000, seed: int = 0) -> PropertyReport:
    """Run the coefficientwise-annihilation check on constructed pairs.

    Contexts that do not satisfy the elementwise hypothesis are reported as
    not applicable (vacuously true) rather than failed.  A constructed pair
    that fails the middles or the conclusion raises CoherenceAlarm.
    """
    if not elementwise_condition_holds(ring, action):
        return PropertyReport(
            ring.name, "coefficientwise_harness", True,
            {"applicable": False,
             "detail": "elementwise orbit annihilator condition fails"})
    nonzero_pairs = 0
    for i, (g, f) in enumerate(_vetted_pairs(action, pairs, seed)):
        report = _coefficientwise_conclusion(g, f)
        if not report.verdict:
            raise CoherenceAlarm(
                f"coefficientwise annihilation failed on pair {i}: "
                f"{report.witnesses}")
        if not g.is_zero() and not f.is_zero():
            nonzero_pairs += 1
    return PropertyReport(
        ring.name, "coefficientwise_harness", True,
        {"applicable": True, "pairs": pairs, "nonzero_pairs": nonzero_pairs,
         "seed": seed})


def app_equivalence_check(ring: FiniteRing, action: OmegaAction,
                          pairs: int = 1000, seed: int = 0) -> PropertyReport:
    """Desk-scale rendering of the main equivalence for one context.

    When the orbit annihilator condition holds for all subsets, the witness
    construction must succeed and verify on every constructed annihilating
    pair.  When the condition fails, at least one obstruction (a, b) must be
    reported, and each must name a b in the orbit annihilator I of a with no
    x in I such that b*x == b; this is checked with the ring's own
    multiplication, not with the bitsets that found b.  Either guarantee
    failing raises CoherenceAlarm; otherwise the verdict mirrors the
    condition itself.  Only a failing condition builds the report of
    ``orbit_annihilators_s_unital``, for its counterexample.
    """
    if elementwise_condition_holds(ring, action):
        witnesses_seen = {_build_witness(g, f, (False,))[0].witness
                          for g, f in _vetted_pairs(action, pairs, seed)}
        return PropertyReport(
            ring.name, "app_equivalence", True,
            {"condition": True, "pairs": pairs,
             "distinct_witnesses": sorted(witnesses_seen), "seed": seed})
    obstructions = annihilator_obstructions(ring, action)
    if not obstructions.witnesses["obstructions"]:
        raise CoherenceAlarm(
            f"{ring.name}: the orbit annihilator condition fails but no "
            f"obstruction is reported")
    for obs in obstructions.witnesses["obstructions"]:
        if not _is_blocked(ring, obs["blocked"], obs["annihilator"]):
            raise CoherenceAlarm(
                f"{ring.name}: obstruction at element {obs['element']} names "
                f"{obs['blocked']}, which is not blocked in its orbit annihilator")
    return PropertyReport(
        ring.name, "app_equivalence", False,
        {"condition": False,
         "condition_counterexample":
             orbit_annihilators_s_unital(ring, action).witnesses.get("counterexample"),
         "obstructions": obstructions.witnesses["obstructions"],
         "seed": seed})


def witness_paths_agree(ring: FiniteRing, action: OmegaAction,
                        instances: int = 200, seed: int = 0) -> PropertyReport:
    """Both witness-construction paths verify on the same constructed pairs.

    The full-set path and the minimal-subset chain search may pick different
    witnesses; each must still satisfy both product identities (the
    construction itself verifies them and alarms otherwise).  A chain
    witness equal to the full-set one is not verified again.
    """
    if not elementwise_condition_holds(ring, action):
        return PropertyReport(ring.name, "witness_paths", True, {"applicable": False})
    differing = 0
    for g, f in _vetted_pairs(action, instances, seed):
        full, chain = _build_witness(g, f, (False, True))
        differing += full.witness != chain.witness
    return PropertyReport(
        ring.name, "witness_paths", True,
        {"applicable": True, "instances": instances,
         "witness_disagreements": differing, "seed": seed})


# ---------------------------------------------------------------------------
# presets instantiating the classical specializations

@dataclass(frozen=True)
class Preset:
    """A named exponent monoid for a classical series ring; the monoid kind
    decides which generator images its action takes."""

    name: str
    monoid_kind: str

    def build(self, ring: FiniteRing, alpha: RingAut | None = None,
              beta: RingAut | None = None) -> tuple[OrderedMonoid, OmegaAction]:
        monoid = make_monoid(self.monoid_kind)
        return monoid, OmegaAction(monoid, ring, alpha, beta)


PRESETS = (
    Preset("skew_power_series", "NatAdd"),
    Preset("skew_laurent_series", "IntAdd"),
    Preset("two_variable_lex", "NatPairLex"),
    Preset("two_variable_revlex", "NatPairRevLex"),
    Preset("two_variable_laurent_lex", "IntPairLex"),
    Preset("two_variable_laurent_revlex", "IntPairRevLex"),
    Preset("arithmetic_functions", "NatMulDirichlet"),
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

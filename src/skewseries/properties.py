"""Ring-level annihilator properties and their verdict reports.

The predicates here decide, with replayable evidence, whether a finite ring
is left APP, left p.q.-Baer, quasi-Baer, right PP, or reduced, and whether
the orbit annihilators of a twisted-series context are right s-unital for
every subset of coefficients.  A false verdict always carries a concrete
counterexample; a true verdict carries enough witness data to replay it.

Both subset quantifiers reduce to finite families through one identity: the
left annihilator of a sum of left ideals is the intersection of their left
annihilators.  The quasi-Baer check closes {l(R*a)} under intersection.  The
orbit condition needs only the singletons, because an intersection of
two-sided right s-unital ideals is again right s-unital.

Annihilators, s-unital witnesses and idempotent generators all come from the
bitset kernel of ``ideals`` (its facts (a)-(c)), and each check tests each
distinct annihilator once.  By fact (c) a left ideal is right s-unital
exactly when it is R*e for an idempotent e, so on a finite ring left APP and
left p.q.-Baer fail at the same first element.  The orbit condition is the
one per-action scan of ``ideals``, shared with
``theorems.elementwise_condition_holds``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .ideals import (
    _first_orbit_failure,
    _left_generator,
    _members,
    _orbit_annihilator,
    _principal_annihilator,
    _right_annihilator_bits,
    _right_generator,
    _s_unital,
    orbit_ideal,
)
from .rings import FiniteRing
from .series import OmegaAction


@dataclass
class PropertyReport:
    """Verdict of one property check on one ring, with evidence."""

    ring: str
    name: str
    verdict: bool
    witnesses: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def to_dict(self, include_elapsed: bool = False) -> dict:
        out = {
            "ring": self.ring,
            "name": self.name,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
        }
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out


def _witness_pairs(result) -> list:
    return [[a, x] for a, x in result.witnesses.items()]


def is_left_app(ring: FiniteRing) -> PropertyReport:
    """Left APP: the left annihilator of each principal left ideal R*a is
    right s-unital."""
    t0 = time.perf_counter()
    per_element = []
    tested: dict[int, tuple] = {}
    for a in ring.elements():
        ann = _principal_annihilator(ring, a)
        hit = tested.get(ann)
        if hit is None:
            res = _s_unital(ring, ann)
            hit = tested[ann] = (res, _witness_pairs(res))
        res, pairs = hit
        if not res.holds:
            return PropertyReport(
                ring.name, "is_left_app", False,
                {"counterexample": {
                    "element": a,
                    "annihilator": _members(ann),
                    "unwitnessed": res.failing,
                }},
                time.perf_counter() - t0)
        per_element.append([a, pairs])
    return PropertyReport(ring.name, "is_left_app", True,
                          {"per_element_witnesses": per_element},
                          time.perf_counter() - t0)


def is_left_pq_baer(ring: FiniteRing) -> PropertyReport:
    """Left p.q.-Baer: l(R*a) is generated, as a left ideal, by an idempotent."""
    t0 = time.perf_counter()
    gens = []
    found: dict[int, int | None] = {}
    for a in ring.elements():
        ann = _principal_annihilator(ring, a)
        if ann not in found:
            found[ann] = _left_generator(ring, ann)
        e = found[ann]
        if e is None:
            return PropertyReport(
                ring.name, "is_left_pq_baer", False,
                {"counterexample": {"element": a, "annihilator": _members(ann)}},
                time.perf_counter() - t0)
        gens.append([a, e])
    return PropertyReport(ring.name, "is_left_pq_baer", True,
                          {"idempotent_generators": gens}, time.perf_counter() - t0)


def is_quasi_baer(ring: FiniteRing) -> PropertyReport:
    """Quasi-Baer: the left annihilator of every left ideal has an idempotent
    generator.

    For a left ideal I, l(I) is the intersection of l(R*a) over a in I
    (a = 0 gives R), so the annihilators to check are the family {l(R*a)}
    closed under intersection, taken in (size, members) order.  A failing
    annihilator T is reported with the left ideal r(T), whose left
    annihilator is T again.
    """
    t0 = time.perf_counter()
    principal = {_principal_annihilator(ring, a) for a in ring.elements()}
    family = set(principal)
    frontier = principal
    while frontier:
        frontier = {t & p for t in frontier for p in principal} - family
        family |= frontier
    gens = []
    for ann, members in sorted(((m, _members(m)) for m in family),
                               key=lambda item: (len(item[1]), item[1])):
        ideal = _members(_right_annihilator_bits(ring, members))
        e = _left_generator(ring, ann)
        if e is None:
            return PropertyReport(
                ring.name, "is_quasi_baer", False,
                {"counterexample": {"ideal": ideal, "annihilator": members}},
                time.perf_counter() - t0)
        gens.append([ideal, e])
    return PropertyReport(ring.name, "is_quasi_baer", True,
                          {"idempotent_generators": gens}, time.perf_counter() - t0)


def is_right_pp(ring: FiniteRing) -> PropertyReport:
    """Right PP: the right annihilator of each element is generated, as a
    right ideal, by an idempotent."""
    t0 = time.perf_counter()
    gens = []
    found: dict[int, int | None] = {}
    for a in ring.elements():
        ann = _right_annihilator_bits(ring, (a,))
        if ann not in found:
            found[ann] = _right_generator(ring, ann)
        e = found[ann]
        if e is None:
            return PropertyReport(
                ring.name, "is_right_pp", False,
                {"counterexample": {"element": a, "annihilator": _members(ann)}},
                time.perf_counter() - t0)
        gens.append([a, e])
    return PropertyReport(ring.name, "is_right_pp", True,
                          {"idempotent_generators": gens}, time.perf_counter() - t0)


def is_reduced(ring: FiniteRing) -> PropertyReport:
    """Reduced: no nonzero element squares to zero."""
    t0 = time.perf_counter()
    for a in ring.elements():
        if a != ring.zero and ring.mul(a, a) == ring.zero:
            return PropertyReport(ring.name, "is_reduced", False,
                                  {"counterexample": {"element": a}},
                                  time.perf_counter() - t0)
    return PropertyReport(ring.name, "is_reduced", True, {},
                          time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# the subset-quantified orbit annihilator condition

def orbit_annihilators_s_unital(ring: FiniteRing, action: OmegaAction) -> PropertyReport:
    """Is l(sum over a in A of the orbit ideal of a) right s-unital for every
    nonempty subset A of the ring?

    Scanning the singletons decides this exactly.  The annihilator of the sum
    is the intersection of the annihilators l(O(a)), a in A, of the orbit
    ideals O(a).  Each O(a) is a left ideal, so each l(O(a)) is two-sided,
    and the intersection of two-sided right s-unital ideals I and J is right
    s-unital: if b = b*x with x in I and b = b*y with y in J, then y*x lies
    in both and b*(y*x) = b.  So every subset passes exactly when every
    singleton does, and the least failing element gives the first failing
    subset in bitmask order.
    """
    if action.ring is not ring:
        raise ValueError("action was built over a different ring instance")
    t0 = time.perf_counter()
    a = _first_orbit_failure(action)
    if a is not None:
        ann = _orbit_annihilator(action, a)
        return PropertyReport(
            ring.name, "orbit_annihilators_s_unital", False,
            {"counterexample": {
                "subset": [a],
                "annihilator": _members(ann),
                "unwitnessed": _s_unital(ring, ann).failing,
            }},
            time.perf_counter() - t0)
    distinct: dict[frozenset[int], int] = {}
    for a in ring.elements():
        distinct.setdefault(orbit_ideal({a}, action).members,
                            _orbit_annihilator(action, a))
    evidence = [{"orbit_ideal": sorted(members),
                 "annihilator": _members(ann),
                 "witnesses": _witness_pairs(_s_unital(ring, ann))}
                for members, ann in sorted(
                    distinct.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))]
    return PropertyReport(
        ring.name, "orbit_annihilators_s_unital", True,
        {"subsets_scanned": ring.size, "distinct_orbit_ideals": evidence},
        time.perf_counter() - t0)

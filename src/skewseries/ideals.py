"""Annihilators, left ideals, orbit ideals, and the right s-unital test.

Everything here works on explicit element sets of a finite ring, so each
quantifier in the definitions becomes a finite scan.  Witness searches run in
ascending element-index order and return the first hit, keeping results
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .rings import FiniteRing, additive_closure
from .series import OmegaAction

LEFT_IDEAL = "left-ideal"
RIGHT_IDEAL = "right-ideal"
TWO_SIDED = "two-sided"
PLAIN_SUBSET = "plain-subset"


@dataclass(frozen=True)
class IdealSet:
    """A subset of a finite ring; ``flavor`` says how much closure it enjoys."""

    ring: FiniteRing
    members: frozenset[int]

    @cached_property
    def flavor(self) -> str:
        """Two-sided, left, right or plain: computed on first read."""
        ring, members = self.ring, self.members
        left = all(ring.mul(r, a) in members for r in ring.elements() for a in members)
        right = all(ring.mul(a, r) in members for r in ring.elements() for a in members)
        if left and right:
            return TWO_SIDED
        if left:
            return LEFT_IDEAL
        if right:
            return RIGHT_IDEAL
        return PLAIN_SUBSET

    def __contains__(self, a: int) -> bool:
        return a in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def describe(self) -> str:
        inner = ",".join(self.ring.element_repr(a) for a in sorted(self.members))
        return "{" + inner + "}"

    @classmethod
    def classified(cls, ring: FiniteRing, members) -> "IdealSet":
        """Wrap any iterable of members; the flavor is detected on first read."""
        return cls(ring, frozenset(members))


@dataclass
class SUnitalResult:
    """Outcome of the right s-unital test with replayable evidence."""

    holds: bool
    witnesses: dict[int, int] = field(default_factory=dict)
    failing: int | None = None


def left_annihilator(xs, ring: FiniteRing) -> IdealSet:
    """{r : r*x == 0 for every x in xs}; the whole ring when xs is empty."""
    members = frozenset(
        r for r in ring.elements()
        if all(ring.mul(r, x) == ring.zero for x in xs))
    return IdealSet(ring, members)


def right_annihilator(xs, ring: FiniteRing) -> IdealSet:
    """{r : x*r == 0 for every x in xs}."""
    members = frozenset(
        r for r in ring.elements()
        if all(ring.mul(x, r) == ring.zero for x in xs))
    return IdealSet(ring, members)


def left_ideal_generated(gens, ring: FiniteRing) -> IdealSet:
    """The smallest left ideal containing ``gens``."""
    products = {ring.mul(r, a) for r in ring.elements() for a in gens}
    return IdealSet(ring, additive_closure(ring, products))


def orbit_ideal(gens, action: OmegaAction) -> IdealSet:
    """Left ideal generated by every automorphism-orbit image of ``gens``.

    The orbit runs over the full (finite) set of automorphism values the
    action attains, so the result equals the sum over all exponents of the
    principal left ideals of the twisted generators.
    """
    ring = action.ring
    orbit = {aut.perm[a] for _, aut in action.closure() for a in gens}
    return left_ideal_generated(orbit, ring)


def is_right_s_unital(ideal: IdealSet) -> SUnitalResult:
    """For each a in I, find x in I with a*x == a (first witness wins).

    This elementwise criterion is the operational form of I being pure as a
    left ideal (equivalently, of R/I being flat as a left module); no tensor
    computations are involved anywhere in this package.
    """
    ring = ideal.ring
    witnesses: dict[int, int] = {}
    for a in ideal.sorted_members():
        for x in ideal.sorted_members():
            if ring.mul(a, x) == a:
                witnesses[a] = x
                break
        else:
            return SUnitalResult(False, witnesses, failing=a)
    return SUnitalResult(True, witnesses)


class WitnessNotFoundError(RuntimeError):
    """A witness guaranteed by the finite-subset criterion was not found.

    For a right s-unital left ideal, pointwise witnesses combine into a
    common witness for any finite subset (x, y combine to x + y - x*y), so a
    failed search indicates corrupted inputs or an implementation bug.
    """


def tominaga_common_witness(ideal: IdealSet, finite_subset) -> int:
    """One x in I with a*x == a simultaneously for all listed a.

    Requires the ideal to be right s-unital; the empty subset gets witness 0.
    """
    ring = ideal.ring
    subset = list(finite_subset)
    if not subset:
        return ring.zero
    check = is_right_s_unital(ideal)
    if not check.holds:
        raise ValueError(
            f"ideal {ideal.describe()} is not right s-unital (fails at "
            f"{ring.element_repr(check.failing)})")
    for a in subset:
        if a not in ideal.members:
            raise ValueError(f"{ring.element_repr(a)} is not in the ideal")
    for x in ideal.sorted_members():
        if all(ring.mul(a, x) == a for a in subset):
            return x
    raise WitnessNotFoundError(
        f"no common witness in {ideal.describe()} for {sorted(subset)}")

"""Annihilators, left ideals, orbit ideals, and the right s-unital test.

Every quantifier here runs on one bitset kernel per ring.  For each element
x the ring keeps four ints, bit i standing for element i, filled on first
use from the rows and columns of the multiplication table (through
``ring.mul`` one row or column at a time when the ring has no tables):

    Zl[x] = {r : r*x == 0}      Zr[x] = {r : x*r == 0}
    Fr[x] = {y : x*y == x}      Fl[x] = {y : y*x == x}

Three exact facts reduce the definitions to ANDs of these, with G an
additive generating set of R (``rings._additive_generators``):

(a) R*a is the additive span of {g*a : g in G}, since r = sum of multiples
    of the g and r*a is additive in r.  So l(R*a) is the AND over g of
    Zl[g*a], and the left ideal generated by S is the additive closure of
    {g*s : g in G, s in S}.
(b) b has a right s-unital witness in I exactly when Fr[b] & I is nonzero,
    and its lowest bit is the x in I with b*x == b that an ascending scan of
    I finds first.
(c) For a left ideal I, the idempotents e with R*e == I are exactly
    I & (AND over b in I of Fr[b]): such an e lies in I, so e*e == e and
    I == I*e is inside R*e, which is inside I; conversely b = r*e gives
    b*e == b.  The first such e is the lowest bit.  The mirror image, with
    Fl, gives the idempotents e with e*R == J for a right ideal J.

Every witness is the lowest-indexed hit, so results are deterministic and
replayable.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

from .rings import FiniteRing, _additive_generators, additive_closure
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


# ---------------------------------------------------------------------------
# the bitset kernel

ZL, ZR, FR, FL = "Zl", "Zr", "Fr", "Fl"

# bytes.translate table: byte 0 -> "0", byte 1 -> "1"
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask(values, x: int) -> int:
    """The bitset {i : values[i] == x} of a row or column of products."""
    if len(values) <= 256:
        # every element fits in one byte, so one translate table does the
        # compare; faster than the general form (pairs in BENCH_7.json)
        return int(bytes(values[::-1]).translate(b"0" * x + b"1" + b"0" * (255 - x)), 2)
    return int(bytes(map(x.__eq__, values[::-1])).translate(_DIGITS), 2)


def _bits(ring: FiniteRing, kind: str) -> list[int]:
    """The bitsets ``kind`` (ZL, ZR, FR or FL) of every element, built on
    first use and kept in the ring."""
    kept = ring._ideal_bits
    if kept is None:
        kept = ring._ideal_bits = {}
    hit = kept.get(kind)
    if hit is None:
        n, mul, tables = ring.size, ring.mul, ring.tables
        if kind in (ZR, FR):  # row x: y -> x*y
            lines = tables[1] if tables is not None else \
                ([mul(x, y) for y in range(n)] for x in range(n))
        else:  # column x: y -> y*x
            lines = zip(*tables[1]) if tables is not None else \
                ([mul(y, x) for y in range(n)] for x in range(n))
        if kind in (ZL, ZR):
            hit = [_mask(line, ring.zero) for line in lines]
        else:
            hit = [_mask(line, x) for x, line in enumerate(lines)]
        kept[kind] = hit
    return hit


def _members(mask: int) -> list[int]:
    """The elements of a bitset, ascending."""
    digits = bin(mask)[:1:-1]  # lowest bit first
    return list(compress(range(len(digits)), map("1".__eq__, digits)))


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _mask_of(ring: FiniteRing, members) -> int:
    """The bitset of a set of elements."""
    n = ring.size
    digits = bytearray(b"0" * n)
    for a in members:
        digits[n - 1 - a] = 49  # "1"
    return int(digits, 2)


def _ideal(ring: FiniteRing, mask: int) -> IdealSet:
    return IdealSet(ring, frozenset(_members(mask)))


def _left_annihilator_bits(ring: FiniteRing, xs) -> int:
    """l(xs): the AND of Zl[x] over xs, the whole ring when xs is empty."""
    zl = _bits(ring, ZL)
    mask = (1 << ring.size) - 1
    for x in xs:
        mask &= zl[x]
    return mask


def _right_annihilator_bits(ring: FiniteRing, xs) -> int:
    """r(xs): the AND of Zr[x] over xs, the whole ring when xs is empty."""
    zr = _bits(ring, ZR)
    mask = (1 << ring.size) - 1
    for x in xs:
        mask &= zr[x]
    return mask


def _principal_annihilator(ring: FiniteRing, a: int) -> int:
    """l(R*a), the AND of Zl[g*a] over the additive generators g (fact a)."""
    return _left_annihilator_bits(ring, [ring.mul(g, a) for g in _additive_generators(ring)])


def _s_unital(ring: FiniteRing, mask: int) -> SUnitalResult:
    """The right s-unital test of a set of elements, witnesses by fact (b)."""
    fr = _bits(ring, FR)
    witnesses: dict[int, int] = {}
    for b in _members(mask):
        hit = fr[b] & mask
        if not hit:
            return SUnitalResult(False, witnesses, failing=b)
        witnesses[b] = _lowest(hit)
    return SUnitalResult(True, witnesses)


def _lowest_common(ring: FiniteRing, mask: int, xs, kind: str) -> int | None:
    """The lowest bit of mask & (AND over x in xs of kind[x]), or None."""
    fixers = _bits(ring, kind)
    common = mask
    for x in xs:
        common &= fixers[x]
        if not common:
            return None
    return _lowest(common)


def _left_generator(ring: FiniteRing, mask: int) -> int | None:
    """The first idempotent e with R*e equal to the left ideal ``mask``, or
    None (fact c)."""
    return _lowest_common(ring, mask, _members(mask), FR)


def _right_generator(ring: FiniteRing, mask: int) -> int | None:
    """The first idempotent e with e*R equal to the right ideal ``mask``, or
    None (fact c, mirrored)."""
    return _lowest_common(ring, mask, _members(mask), FL)


class _OrbitKernel:
    """What is kept per action: the orbit annihilator of each element as a
    bitset, and the first element whose orbit annihilator is not right
    s-unital (None when every one is), once that has been scanned for."""

    __slots__ = ("masks", "scanned", "first_failing")

    def __init__(self):
        self.masks: dict[int, int] = {}
        self.scanned = False
        self.first_failing: int | None = None


# Orbit annihilators are queried thousands of times per harness run; keep
# them per action (annihilators of sums are intersections of these).
_orbit_kernels: "weakref.WeakKeyDictionary[OmegaAction, _OrbitKernel]" = \
    weakref.WeakKeyDictionary()


def _orbit_kernel(action: OmegaAction) -> _OrbitKernel:
    kept = _orbit_kernels.get(action)
    if kept is None:
        kept = _orbit_kernels[action] = _OrbitKernel()
    return kept


def _orbit_annihilator(action: OmegaAction, a: int) -> int:
    """l(sum over attained w of R*w(a)), the AND of Zl[g*w(a)] (fact a);
    kept per action."""
    masks = _orbit_kernel(action).masks
    hit = masks.get(a)
    if hit is None:
        ring = action.ring
        images = {aut.perm[a] for _, aut in action.closure()}
        hit = masks[a] = _left_annihilator_bits(
            ring, {ring.mul(g, b) for b in images for g in _additive_generators(ring)})
    return hit


def _first_orbit_failure(action: OmegaAction) -> int | None:
    """The first element whose orbit annihilator is not right s-unital.

    The one scan behind both forms of the orbit condition
    (``properties.orbit_annihilators_s_unital`` and
    ``theorems.elementwise_condition_holds``), done once per action; each
    distinct annihilator is tested once.
    """
    kept = _orbit_kernel(action)
    if not kept.scanned:
        ring = action.ring
        fails: dict[int, bool] = {}
        for a in ring.elements():
            ann = _orbit_annihilator(action, a)
            if ann not in fails:
                fails[ann] = not _s_unital(ring, ann).holds
            if fails[ann]:
                kept.first_failing = a
                break
        kept.scanned = True
    return kept.first_failing


# ---------------------------------------------------------------------------
# the public functions, on the kernel

def left_annihilator(xs, ring: FiniteRing) -> IdealSet:
    """{r : r*x == 0 for every x in xs}; the whole ring when xs is empty."""
    return _ideal(ring, _left_annihilator_bits(ring, xs))


def right_annihilator(xs, ring: FiniteRing) -> IdealSet:
    """{r : x*r == 0 for every x in xs}."""
    return _ideal(ring, _right_annihilator_bits(ring, xs))


def left_ideal_generated(gens, ring: FiniteRing) -> IdealSet:
    """The smallest left ideal containing ``gens``: the additive closure of
    {g*s : g in G, s in gens} (fact a)."""
    products = {ring.mul(g, a) for a in gens for g in _additive_generators(ring)}
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
    return _s_unital(ideal.ring, _mask_of(ideal.ring, ideal.members))


def idempotent_generator(ideal: IdealSet, side: str) -> int | None:
    """The first idempotent e with R*e == I (side "left", for a left ideal
    I) or e*R == I (side "right", for a right ideal I); None when I has no
    idempotent generator on that side (fact c)."""
    mask = _mask_of(ideal.ring, ideal.members)
    if side == "left":
        return _left_generator(ideal.ring, mask)
    if side == "right":
        return _right_generator(ideal.ring, mask)
    raise ValueError(f"side must be 'left' or 'right', not {side!r}")


class WitnessNotFoundError(RuntimeError):
    """A witness guaranteed by the finite-subset criterion was not found.

    For a right s-unital left ideal, pointwise witnesses combine into a
    common witness for any finite subset (x, y combine to x + y - x*y), so a
    failed search indicates corrupted inputs or an implementation bug.
    """


def tominaga_common_witness(ideal: IdealSet, finite_subset) -> int:
    """One x in I with a*x == a simultaneously for all listed a: the lowest
    bit of I & (AND over a of Fr[a]).

    Requires the ideal to be right s-unital; the empty subset gets witness 0.
    """
    ring = ideal.ring
    subset = list(finite_subset)
    if not subset:
        return ring.zero
    mask = _mask_of(ring, ideal.members)
    failing = _s_unital(ring, mask).failing
    if failing is not None:
        raise ValueError(
            f"ideal {ideal.describe()} is not right s-unital (fails at "
            f"{ring.element_repr(failing)})")
    for a in subset:
        if a not in ideal.members:
            raise ValueError(f"{ring.element_repr(a)} is not in the ideal")
    common = _lowest_common(ring, mask, subset, FR)
    if common is not None:
        return common
    raise WitnessNotFoundError(
        f"no common witness in {ideal.describe()} for {sorted(subset)}")

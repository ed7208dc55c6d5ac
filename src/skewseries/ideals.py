"""Annihilators, left ideals, orbit ideals, and the right s-unital test.

Every quantifier here runs on one bitset kernel per ring.  For each element
x the ring keeps four ints, bit i standing for element i, built on first use
and kept in the ring:

    Zl[x] = {r : r*x == 0}      Zr[x] = {r : x*r == 0}
    Fr[x] = {y : x*y == x}      Fl[x] = {y : y*x == x}

Only Zr reads products: one pass over the rows x -> (y -> x*y) that
``ring.mul_row`` hands out, the ring's own ``bytes`` or ``array('H')`` rows
or, for a factory ring above 256 elements, lists computed through its
function.  The other three are transposes T (bit y of T(m)[x] is bit x of
m[y]) of row zero sets, with y - 1 = (-1) + y read off ``ring.add_row(-1)``:

    Zl = T(Zr)                 since y*x == 0 exactly when x is in Zr[y];
    Fl = T(y -> Zr[y - 1])     since y*x == x exactly when (y - 1)*x == 0;
    Fr = T(y -> Zl[y - 1])     since x*y == x exactly when x*(y - 1) == 0.

Three exact facts reduce the definitions to ANDs of these, each one
``_meet``, with G an additive generating set of R
(``rings._additive_generators``):

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
    ``_generator`` searches both sides, with kind FR or FL.

Every witness is the lowest-indexed hit, so results are deterministic and
replayable.  Every check quantified over single elements (left APP, left
p.q.-Baer, right PP, the orbit condition and its obstructions) is the one
ascending scan ``_scan``: the bitset annihilator of each element, tested
once per distinct annihilator.

The bitsets above depend on the ring alone and are kept in the ring.  What
depends on an action too is one record, built by one ``_scan`` on first use
and kept in the ``OmegaAction``: each element's orbit annihilator, its first
member without a right s-unital witness, and the least element that has one.
Every reader of the orbit condition reads that record.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import compress

from .rings import _LOW_BYTE, FiniteRing, _additive_generators, additive_closure
from .series import OmegaAction


@dataclass(frozen=True)
class IdealSet:
    """A subset of a finite ring."""

    ring: FiniteRing
    members: frozenset[int]

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
        """Wrap any iterable of members."""
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


def _hit(x: int) -> bytes:
    """A ``bytes.translate`` table that maps byte x to "1" and every other
    byte to "0"."""
    return b"0" * x + b"1" + b"0" * (255 - x)


def _mask(values, x: int) -> int:
    """The bitset {i : values[i] == x} of a product row, compared in C by
    ``bytes.translate`` (faster, BENCH_7.json): a ``bytes`` row in one pass;
    an ``array('H')`` row, or a list packed into one, by its high and low
    bytes, each matched against x's, the two bitsets ANDed."""
    if isinstance(values, bytes):
        return int(values[::-1].translate(_hit(x)), 2)
    if not isinstance(values, array):
        values = array("H", values)
    packed = values[::-1].tobytes()
    high, low = divmod(x, 256)
    return (int(packed[1 - _LOW_BYTE::2].translate(_hit(high)), 2)
            & int(packed[_LOW_BYTE::2].translate(_hit(low)), 2))


def _transpose(masks: list[int], n: int) -> list[int]:
    """The n bitsets out with bit y of out[x] equal to bit x of masks[y]:
    the masks as n-digit rows, last element first, read down each column."""
    grid = "".join([format(mask, "b").zfill(n) for mask in reversed(masks)])
    return [int(grid[i::n], 2) for i in range(n - 1, -1, -1)]


def _bits(ring: FiniteRing, kind: str) -> list[int]:
    """The bitsets ``kind`` (ZL, ZR, FR or FL) of every element, built on
    first use and kept in the ring; only Zr reads products."""
    kept = ring._ideal_bits
    if kept is None:
        kept = ring._ideal_bits = {}
    hit = kept.get(kind)
    if hit is None:
        n = ring.size
        if kind == ZR:  # row x: y -> x*y
            hit = [_mask(ring.mul_row(x), ring.zero) for x in range(n)]
        else:  # Zl from Zr at y, Fl from Zr and Fr from Zl at y - 1
            zeros = _bits(ring, ZL if kind == FR else ZR)
            shift = ring.zero if kind == ZL else ring.neg(ring.one)
            hit = _transpose(list(map(zeros.__getitem__, ring.add_row(shift))), n)
        kept[kind] = hit
    return hit


def _members(mask: int) -> list[int]:
    """The elements of a bitset, ascending."""
    digits = bin(mask)[:1:-1]  # lowest bit first
    return list(compress(range(len(digits)), map("1".__eq__, digits)))


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _elements(ring: FiniteRing, xs) -> list[int]:
    """``xs`` as a list, after checking that each is an element index, an
    int and not a bool (in C when all are; otherwise the first that is not
    raises ValueError)."""
    xs = list(xs)
    if xs and not (set(map(type, xs)) == {int}
                   and 0 <= min(xs) and max(xs) < ring.size):
        for x in xs:
            ring.check_element(x)
    return xs


def _mask_of(ring: FiniteRing, members) -> int:
    """The bitset of a set of elements; ValueError on a non-element."""
    n = ring.size
    digits = bytearray(b"0" * n)
    for a in _elements(ring, members):
        digits[n - 1 - a] = 49  # "1"
    return int(digits, 2)


def _ideal(ring: FiniteRing, mask: int) -> IdealSet:
    return IdealSet(ring, frozenset(_members(mask)))


def _meet(masks: list[int], xs, mask: int) -> int:
    """mask & (AND over x in xs of masks[x]), stopping at zero."""
    for x in xs:
        if not mask:
            break
        mask &= masks[x]
    return mask


def _left_annihilator_bits(ring: FiniteRing, xs) -> int:
    """l(xs): the AND of Zl[x] over xs, the whole ring when xs is empty."""
    return _meet(_bits(ring, ZL), xs, (1 << ring.size) - 1)


def _right_annihilator_bits(ring: FiniteRing, xs) -> int:
    """r(xs): the AND of Zr[x] over xs, the whole ring when xs is empty."""
    return _meet(_bits(ring, ZR), xs, (1 << ring.size) - 1)


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
    common = _meet(_bits(ring, kind), xs, mask)
    return _lowest(common) if common else None


def _generator(ring: FiniteRing, mask: int, kind: str) -> int | None:
    """The first idempotent e with R*e (kind FR) equal to the left ideal
    ``mask``, or with e*R (kind FL) equal to the right ideal ``mask``; None
    when there is none (fact c)."""
    return _lowest_common(ring, mask, _members(mask), kind)


def _scan(ring: FiniteRing, annihilator, test):
    """Yield (a, ann, verdict) for a = 0..n-1 in order, with the bitset
    ann = annihilator(a) and verdict = test(ann), run once per distinct ann."""
    verdicts = {}
    for a in ring.elements():
        ann = annihilator(a)
        if ann not in verdicts:
            verdicts[ann] = test(ann)
        yield a, ann, verdicts[ann]


def _orbit_annihilator(action: OmegaAction, a: int) -> int:
    """l(sum over attained w of R*w(a)), the AND of Zl[g*w(a)] (fact a)."""
    ring = action.ring
    images = {aut.perm[a] for _, aut in action.closure()}
    return _left_annihilator_bits(
        ring, {ring.mul(g, b) for b in images for g in _additive_generators(ring)})


def _orbit_record(action: OmegaAction) -> tuple:
    """(masks, unwitnessed, failure), built by one ``_scan`` on first use and
    kept in the action: masks[a] is the orbit annihilator of a, unwitnessed[a]
    its first member without a right s-unital witness (None when it is right
    s-unital), and failure the least a with one, None when there is none."""
    if action._orbit is None:
        ring = action.ring
        _, masks, unwitnessed = zip(*_scan(ring, partial(_orbit_annihilator, action),
                                           lambda ann: _s_unital(ring, ann).failing))
        failure = next((a for a, b in enumerate(unwitnessed) if b is not None), None)
        action._orbit = (masks, unwitnessed, failure)
    return action._orbit


def _set_orbit_annihilator(action: OmegaAction, elements) -> int:
    """The AND of the orbit annihilators of ``elements``, which the caller
    knows to be indices of the ring: l of the sum of their orbit ideals."""
    return _meet(_orbit_record(action)[0], elements, (1 << action.ring.size) - 1)


def _first_orbit_failure(action: OmegaAction) -> int | None:
    """The first element whose orbit annihilator is not right s-unital."""
    return _orbit_record(action)[2]


# ---------------------------------------------------------------------------
# the public functions, on the kernel; each raises ValueError on an element
# that is not an index 0..n-1 of the ring

def left_annihilator(xs, ring: FiniteRing) -> IdealSet:
    """{r : r*x == 0 for every x in xs}; the whole ring when xs is empty."""
    return _ideal(ring, _left_annihilator_bits(ring, _elements(ring, xs)))


def right_annihilator(xs, ring: FiniteRing) -> IdealSet:
    """{r : x*r == 0 for every x in xs}."""
    return _ideal(ring, _right_annihilator_bits(ring, _elements(ring, xs)))


def left_ideal_generated(gens, ring: FiniteRing) -> IdealSet:
    """The smallest left ideal containing ``gens``: the additive closure of
    {g*s : g in G, s in gens} (fact a)."""
    products = {ring.mul(g, a) for a in _elements(ring, gens)
                for g in _additive_generators(ring)}
    return IdealSet(ring, additive_closure(ring, products))


def orbit_ideal(gens, action: OmegaAction) -> IdealSet:
    """Left ideal generated by every automorphism-orbit image of ``gens``.

    The orbit runs over the full (finite) set of automorphism values the
    action attains, so the result equals the sum over all exponents of the
    principal left ideals of the twisted generators.
    """
    ring = action.ring
    orbit = {aut.perm[a] for _, aut in action.closure() for a in _elements(ring, gens)}
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
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    return _generator(ideal.ring, mask, FR if side == "left" else FL)


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
    subset = _elements(ring, finite_subset)
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

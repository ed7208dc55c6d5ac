"""Finitely supported twisted power series and their exact convolution.

A series is a finite map from monoid exponents to nonzero ring elements.
Multiplication twists the right factor through a monoid action on the ring:

    (f*g)(s) = sum over u+v == s of  f(u) * w_u(g(v))

where w_u is the automorphism the action assigns to the exponent u.  With
finite supports every product is exact; no truncation is involved anywhere.
``OmegaAction`` alone decides which generator images, alpha and beta, a
monoid kind takes; ``trivial_action``, ``single_generator_action`` and
``pair_action`` are plain calls to it.

Series are canonical (zero coefficients are never stored), so equality to
zero is a structural test.

Series are validated at the boundary.  The public ``SkewSeries(action,
coeffs)`` checks every exponent against the monoid and every coefficient
against the ring, and drops zero coefficients.  Paths inside the package
whose terms are valid by construction build with ``SkewSeries._trusted``,
which skips those checks and stores its dict as given: ``convolve``'s output
(op(u, v) of checked exponents is an exponent, and zero sums are dropped
first), the products g * (r x^s) of the middle test below, and series
sampled from ``sample_pool`` with nonzero coefficients.

Every quantifier over middles r x^s, here and in ``theorems``, is the one
scan ``_first_failure``: s over the attained automorphisms, r decided on an
additive generating set G of R (one element for Z_n, two for F2xF2, four
for M2(F2)), and all of R scanned only to name a failure.

``convolve`` takes one of three paths, all exact and giving the same map.
When g has at least as many terms as a tabled ring (at most 256 elements)
has elements, some coefficient value of g repeats, and a kernel may take the
product:

* over NatAdd, IntAdd and the four pair kinds, exponents add, so the product
  is a sum of integer polynomial products over the additive coordinates of
  R (a direct-sum basis on every factory ring).  Each polynomial is packed
  into one Python int (Kronecker substitution) and CPython multiplies them.
  The slots are 8, 16, 32 or 64 bits wide: the least width that holds
  either a whole sum before reduction or what one product adds to a slot
  reduced mod d_k, each bound counted from the terms of f and g with each
  coordinate nonzero.  In the second case an accumulator is reduced slot by
  slot whenever its next product could overflow it (see ``_kronecker``).
  The packed window spans the exponents, not the terms, so the kernel
  declines when it is too sparse for the integer products to pay, or when R
  has more than 256 coordinate vectors;
* over NatMulDirichlet, exponents multiply and the action is trivial, so row
  u of the product, f(u) * g(v) at u * v, is a strided slice of a dense
  byte window over the exponents up to max supp(f) * max supp(g).  Each row
  is one ``bytes.translate`` of g through the multiplication table, added
  into the window coordinate by coordinate (see ``_dirichlet``).  The
  kernel declines where the ring's coordinates do not fit a byte or the
  window is too sparse.  Only about a quarter of the window's slots are
  products u * v at all (Erdos's multiplication-table problem), and the
  window is read back at those alone: one sorted table of them is kept for
  the module, the products of the last window that no kept table covered.

Both kernels read their windows back in C through ``_gather``, which skips
the mixed-radix combine when R has one additive coordinate (every Z_n).

Every other product, over any monoid kind and ring, is formed once per term
of f and coefficient class of g, in one grouped loop.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from itertools import compress, product
from math import isqrt
from operator import itemgetter

from .monoids import OrderedMonoid, min_element
from .rings import (FiniteRing, RingAut, _additive_coordinates, _additive_generators,
                    identity_automorphism)


class OmegaAction:
    """A monoid homomorphism from exponents into the ring's automorphisms.

    The action is fixed by the images of the monoid generators, and the
    monoid kind decides which images it takes (None means the identity):

      NatAdd / IntAdd    ``alpha``, the image of 1; ``beta`` must be the identity
      pair kinds         ``alpha`` and ``beta``, the images of (1,0) and (0,1),
                         which must commute
      NatMulDirichlet    neither (the identity on every exponent)

    An image that does not fit the kind, or is not a ``RingAut`` of
    ``ring``, raises ValueError.  Images are not validated again: every
    ``RingAut`` was checked once, where it was made.

    Evaluations are memoized; since the automorphism group is finite the set
    of values {w_s} is finite and has concrete exponent representatives.

    An action also keeps, once computed, ``_orbit``, the orbit record of
    ``ideals``, ``_pair_draw``, what ``theorems.random_annihilating_pair``
    draws from, and ``_classes``, the term classes the pair checks of
    ``theorems`` have decided: (g(u), w_u.perm, f(v)) -> the first (s, r)
    with g(u) * w_u(r * w_s(f(v))) != 0, or None.  A fresh action starts
    with none decided.

    Cache inserts are idempotent, so concurrent readers are safe as long as
    writes come from one thread at a time.
    """

    def __init__(self, monoid: OrderedMonoid, ring: FiniteRing,
                 alpha: RingAut | None = None, beta: RingAut | None = None):
        self.monoid = monoid
        self.ring = ring
        ident = identity_automorphism(ring)
        alpha, beta = (ident if aut is None else aut for aut in (alpha, beta))
        for aut in (alpha, beta):
            if not isinstance(aut, RingAut) or aut.ring is not ring:
                raise ValueError("generator images must be automorphisms of the same ring")
        kind = monoid.kind
        if monoid._pair:
            if alpha.compose(beta) != beta.compose(alpha):
                raise ValueError("pair-monoid generator images must commute")
            self._alphas = (alpha, beta)
        elif kind == "NatMulDirichlet":
            if not (alpha.is_identity() and beta.is_identity()):
                raise ValueError(f"{kind} only supports the trivial action")
            self._alphas = ()
        else:
            if not beta.is_identity():
                raise ValueError(f"{kind} takes one generator image; beta must be the identity")
            self._alphas = (alpha,)
        self._powers = [_power_table(a) for a in self._alphas]
        self._cache: dict = {}
        self._closure: tuple | None = None
        self._orbit: tuple | None = None
        self._pair_draw: tuple | None = None
        self._classes: dict = {}

    def automorphism(self, s) -> RingAut:
        """The automorphism at exponent s."""
        hit = self._cache.get(s)
        if hit is not None:
            return hit
        self.monoid.check_element(s)
        if not self._alphas:
            aut = identity_automorphism(self.ring)
        elif len(self._alphas) == 1:
            aut = self._power(0, s)
        else:
            aut = self._power(0, s[0]).compose(self._power(1, s[1]))
        self._cache[s] = aut
        return aut

    def _power(self, which: int, k: int) -> RingAut:
        table = self._powers[which]
        return table[k % len(table)]

    def apply(self, s, r: int) -> int:
        """Apply the automorphism at exponent s to ring element r; ValueError
        when r is not an element."""
        self.ring.check_element(r)
        return self.automorphism(s).perm[r]

    def closure(self) -> list[tuple]:
        """Every automorphism value the action attains, with one exponent each.

        Returns (exponent, automorphism) pairs, deterministically ordered,
        covering the full set {w_s : s in S}.  Because every generator image
        has finite order, small nonnegative exponents already realize all
        values, including those of negative powers.  Computed once per
        action; each call returns a fresh list.
        """
        if self._closure is None:
            self._closure = tuple(self._compute_closure())
        return list(self._closure)

    def _compute_closure(self) -> list[tuple]:
        m = self.monoid
        if not self._alphas:
            return [(m.zero, identity_automorphism(self.ring))]
        if len(self._alphas) == 1:
            return [(k, aut) for k, aut in enumerate(self._powers[0])]
        reps: dict = {}
        for i, pa in enumerate(self._powers[0]):
            for j, pb in enumerate(self._powers[1]):
                aut = pa.compose(pb)
                if aut.perm not in reps:
                    reps[aut.perm] = ((i, j), aut)
        return [reps[p] for p in sorted(reps)]

    def representatives(self) -> list:
        """Exponents covering every attainable automorphism value."""
        return [s for s, _ in self.closure()]


def _power_table(aut: RingAut) -> list[RingAut]:
    powers = [identity_automorphism(aut.ring)]
    cur = aut
    while not cur.is_identity():
        powers.append(cur)
        cur = cur.compose(aut)
    return powers


def trivial_action(monoid: OrderedMonoid, ring: FiniteRing) -> OmegaAction:
    return OmegaAction(monoid, ring)


def single_generator_action(monoid: OrderedMonoid, ring: FiniteRing,
                            alpha: RingAut) -> OmegaAction:
    return OmegaAction(monoid, ring, alpha)


def pair_action(monoid: OrderedMonoid, ring: FiniteRing,
                alpha: RingAut, beta: RingAut) -> OmegaAction:
    return OmegaAction(monoid, ring, alpha, beta)


class SkewSeries:
    """A finitely supported series; immutable once constructed.

    The constructor raises ValueError for an exponent outside the monoid,
    whatever its coefficient, or a coefficient that is not an element index
    of the ring (an int in 0..size-1), and drops zero coefficients.
    """

    __slots__ = ("action", "coeffs")

    def __init__(self, action: OmegaAction, coeffs: dict):
        ring = action.ring
        zero = ring.zero
        clean = {}
        for s, r in coeffs.items():
            _check_coefficient(ring, s, r)
            action.monoid.check_element(s)
            if r != zero:
                clean[s] = r
        self.action = action
        self.coeffs = clean

    @classmethod
    def _trusted(cls, action: OmegaAction, coeffs: dict) -> "SkewSeries":
        """A series that owns ``coeffs`` as given, unchecked: every exponent
        must lie in the monoid and every coefficient be a nonzero element."""
        series = object.__new__(cls)
        series.action = action
        series.coeffs = coeffs
        return series

    @property
    def ring(self) -> FiniteRing:
        return self.action.ring

    @property
    def monoid(self) -> OrderedMonoid:
        return self.action.monoid

    def support(self) -> list:
        return sorted(self.coeffs, key=self.monoid.sort_key)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, s) -> int:
        return self.coeffs.get(s, self.ring.zero)

    def least_support(self):
        """The smallest exponent carrying a nonzero coefficient."""
        if not self.coeffs:
            raise ValueError("zero series has no support")
        return min_element(self.coeffs, self.monoid)

    def _require_same_context(self, other: "SkewSeries") -> None:
        if self.action is not other.action:
            raise ValueError("series built over different ring/action contexts")

    def __add__(self, other: "SkewSeries") -> "SkewSeries":
        self._require_same_context(other)
        ring = self.ring
        out = dict(self.coeffs)
        for s, r in other.coeffs.items():
            out[s] = ring.add(out.get(s, ring.zero), r)
        return SkewSeries(self.action, out)

    def __neg__(self) -> "SkewSeries":
        ring = self.ring
        return SkewSeries(self.action, {s: ring.neg(r) for s, r in self.coeffs.items()})

    def __sub__(self, other: "SkewSeries") -> "SkewSeries":
        return self + (-other)

    def __mul__(self, other: "SkewSeries") -> "SkewSeries":
        return convolve(self, other)

    def __eq__(self, other):
        return (isinstance(other, SkewSeries) and self.action is other.action
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        ring = self.ring
        if not self.coeffs:
            return "SkewSeries(0)"
        terms = ", ".join(f"{s!r}: {ring.element_repr(r)}"
                          for s, r in sorted(self.coeffs.items(),
                                             key=lambda kv: self.monoid.sort_key(kv[0])))
        return f"SkewSeries({{{terms}}})"


def _check_coefficient(ring: FiniteRing, s, r) -> None:
    if type(r) is not int or not 0 <= r < ring.size:  # a bool is an int too
        raise ValueError(f"coefficient {r!r} at exponent {s!r} is not an "
                         f"element of {ring.name} (0..{ring.size - 1})")


def convolve(f: SkewSeries, g: SkewSeries) -> SkewSeries:
    """The exact twisted product of two finitely supported series.

    Three paths give the same map.  When g has at least as many terms as a
    tabled ring has elements, some value of g repeats, and a kernel may take
    the product:

    * over NatAdd, IntAdd and the pair kinds, ``_kronecker`` forms the
      product as integer polynomial products over the ring's additive
      coordinates, each packed into one Python int with slots of 8, 16, 32
      or 64 bits: the least width that holds a whole sum before reduction,
      or else one product on top of a slot reduced mod d_k, and then each
      accumulator is reduced before it could overflow.  Both bounds are
      counted from the terms of f and of g with each coordinate nonzero.  It
      declines a window too sparse for that to pay, or a ring with more than
      256 coordinate vectors (see ``_kronecker``);
    * over NatMulDirichlet, ``_dirichlet`` adds row u of the product,
      f(u) * g(v) at u * v, into a strided slice of a dense byte window, one
      additive coordinate of R at a time.  It declines an additive order
      above 128, more than 256 coordinate vectors, or a window too sparse to
      pay.

    Otherwise, over every monoid kind and ring, g's exponents are grouped by
    coefficient value c, and each u in supp(f) makes one product
    t = f(u) * w_u(c) per group.  A zero t skips the whole group; a nonzero
    t is added at op(u, v) for every v in the group.  A zero factor gives
    the zero series at once.
    """
    f._require_same_context(g)
    action = f.action
    ring = action.ring
    zero = ring.zero
    if not (f.coeffs and g.coeffs):
        return SkewSeries._trusted(action, {})
    if len(g.coeffs) >= ring.size and ring.tables is not None:
        product = (_dirichlet if action.monoid._mul else _kronecker)(f, g)
        if product is not None:
            return product
    op, add, mul = action.monoid.op, ring.add, ring.mul
    groups: dict = {}
    for v, gv in g.coeffs.items():
        groups.setdefault(gv, []).append(v)
    out: dict = {}
    get = out.get
    for u, fu in f.coeffs.items():
        twist = action.automorphism(u).perm
        for c, vs in groups.items():
            t = mul(fu, twist[c])
            if t != zero:
                for v in vs:
                    s = op(u, v)
                    acc = get(s)
                    out[s] = t if acc is None else add(acc, t)
    return SkewSeries._trusted(action, {s: r for s, r in out.items() if r != zero})


_SLOT_CODES = {2: "H", 4: "I", 8: "Q"}
# _MOD[d] is the translate table taking each byte x to x mod d
_MOD = (b"",) + tuple((bytes(range(d)) * (256 // d + 1))[:256] for d in range(1, 257))


def _kronecker(f: SkewSeries, g: SkewSeries) -> SkewSeries | None:
    """f * g over an additive exponent monoid and a tabled ring, by
    Kronecker substitution; None when R has more than 256 coordinate vectors
    or the packed window is too sparse for that to pay.

    Write r = sum_k x_k(r) g_k over the coordinate generators g_k of R, of
    orders d_k (``rings._additive_coordinates``).  Multiplication is
    Z-bilinear, so f(u) * w_u(c) = sum_{i,j} x_i(f(u)) x_j(w_u(c)) g_i g_j,
    and coordinate k of (f*g)(s) is, modulo d_k,

        A_k(s) = sum_{i,j} c_k(i,j) * sum_{u+v=s} x_i(f(u)) x_j(w_u(g(v))),

    with c_k(i,j) = x_k(g_i g_j).  For each automorphism rho attained on
    supp(f), the inner sums over the u with w_u = rho are the coefficients
    of a product of two integer polynomials, F_{rho,i} * G_{rho,j}, formed
    where c(i,j) and both are nonzero (where none is, f * g = 0).  Each is
    packed into one int, coefficient e at bit w*e (``_pack``), so CPython
    multiplies it.  With n_{rho,i} terms of f under rho having x_i != 0 and
    m_{rho,j} terms v of g having x_j(rho(g(v))) != 0, at most
    min(n_{rho,i}, m_{rho,j}) pairs meet at s, and at most min(|f|, |g|) at
    all.  So the product of (rho, i, j) adds at most its share

        c_k(i,j) min(n_{rho,i}, m_{rho,j}) (d_i - 1)(d_j - 1)

    to a slot of A_k, and A_k(s) is at most both the sum of the shares and
    min(|f|, |g|) times the ring's ``term_bound``; call the smaller the
    whole-sum bound.  The slot width w is the least of 8, 16, 32 or 64 bits
    that holds the whole-sum bound, or else every share on top of d_k - 1.

    Each accumulator A_k keeps a running bound: 0 at first, plus the share
    of each product added.  Before a product is added, if the smaller of the
    whole-sum bound and the running bound plus its share would pass
    2^w - 1, the accumulator is first reduced slot by slot mod d_k
    (``_reduced``) and re-packed (``_pack``), and its running bound drops to
    d_k - 1.  No slot carries into the next.  A reduction keeps each slot's
    residue mod d_k and only lowers its value, so a slot never holds more
    than its unreduced sum, which is at most the whole-sum bound, nor more
    than the running bound.  The check keeps the smaller of the two within
    2^w - 1: when the whole-sum bound passes it, the width came from the
    shares, so d_k - 1 plus any share fits.  The final digits are reduced
    by the same ``_reduced``.  ``_packing`` lays out the slots, ``_gather``
    reads them.

    The window has a slot for every exponent between the least and the
    greatest, so its size follows the exponents, not the number of terms:
    x^0 + x^(10^10) spans 10^10 + 1 slots.  P products of B = w * (slots of
    f*g) bits are formed, and CPython's Karatsuba multiplication costs about
    B^1.5 per product, against about |f| * |g| steps in the grouped loop.
    Hence it returns None, before allocating anything, when
    P * B^1.5 > _KRONECKER_COST * |f| * |g|, with w the width chosen above.
    """
    action = f.action
    ring = action.ring
    zero = ring.zero
    orders, coords, elements, consts, term_bound = _additive_coordinates(ring)
    if len(elements) > 256:
        return None
    f_key, f_len, g_key, g_len, exponents, out_len = _packing(action.monoid, f, g)
    by_twist: dict = {}
    for u, fu in f.coeffs.items():
        by_twist.setdefault(action.automorphism(u).perm, []).append((f_key(u), fu))
    g_values = bytes(g.coeffs.values())
    # share: the most one product adds to a slot, plus d_k - 1
    bounds, share, plans = [0] * len(orders), 0, []
    for perm, terms in by_twist.items():
        twist = bytes(perm).ljust(256, b"\0")
        # n[i], m[j]: the terms of f under rho, of g twisted, with x_i, x_j != 0
        n, m = ([len(v) - v.translate(c).count(0) for c in coords]
                for v in (bytes(fu for _, fu in terms), g_values.translate(twist)))
        live = [(i, j, x, min(n[i], m[j]) * (orders[i] - 1) * (orders[j] - 1))
                for i, row in enumerate(consts) for j, x in enumerate(row)
                if n[i] and m[j] and any(x)]
        for i, j, x, most in live:
            bounds = [b + c * most for b, c in zip(bounds, x)]
            share = max(share, *(c * most + d - 1 for c, d in zip(x, orders) if c))
        if live:
            plans.append((twist, terms, n, m, live))
    if not plans:  # every term pair multiplies to zero
        return SkewSeries._trusted(action, {})
    bound = min(max(bounds), min(len(f.coeffs), len(g.coeffs)) * term_bound)
    width = 1
    while min(bound, share) >> (8 * width):
        width *= 2
    bits = 8 * width * out_len
    if (sum(len(live) for *_, live in plans) * bits * isqrt(bits)
            > _KRONECKER_COST * len(f.coeffs) * len(g.coeffs)):
        return None
    g_dense = bytearray([zero]) * g_len
    for v, gv in g.coeffs.items():
        g_dense[g_key(v)] = gv

    top = (1 << 8 * width) - 1
    acc, held = [0] * len(orders), [0] * len(orders)  # held[k]: the running bound
    for twist, terms, n, m, live in plans:
        f_dense = bytearray([zero]) * f_len
        for e, fu in terms:
            f_dense[e] = fu
        g_twisted = g_dense.translate(twist)
        fs = [n_i and _pack(f_dense.translate(c), width) for n_i, c in zip(n, coords)]
        gs = [m_j and _pack(g_twisted.translate(c), width) for m_j, c in zip(m, coords)]
        for i, j, x, most in live:
            p = fs[i] * gs[j]
            for k, c in enumerate(x):
                if c:
                    if min(bound, held[k] + c * most) > top:
                        acc[k] = _pack(_reduced(acc[k], orders[k], width, out_len), width)
                        held[k] = orders[k] - 1
                    acc[k] += c * p
                    held[k] += c * most
    digits = [_reduced(a, d, width, out_len) for a, d in zip(acc, orders)]
    return _gather(action, digits, exponents())


def _reduced(a: int, d: int, width: int, length: int) -> bytes:
    """The ``length`` slots of a, each ``width`` bytes wide, reduced mod d in
    C, one byte each: wider slots by a map over an array."""
    slots = a.to_bytes(length * width, "little")
    if width == 1:
        return slots.translate(_MOD[d])
    slots = array(_SLOT_CODES[width], slots)
    if sys.byteorder == "big":
        slots.byteswap()
    return bytes(map(d.__rmod__, slots))


def _gather(action: OmegaAction, digits: list, exponents, pick=None) -> SkewSeries:
    """The series with, at the e-th of ``exponents``, the element of reduced
    coordinates (digits[k][slot])_k, less its zero terms, all in C.

    The slot is e, or with ``pick`` (an ``operator.itemgetter``) the e-th
    of the slots it gets, and ``exponents`` then names those slots in
    order and may run on past them.  In mixed radix the coordinate vectors
    index ``elements``, at most 256, so no slot carries into the next; with
    one coordinate the digits are those indices already and are translated
    as they are.
    """
    ring = action.ring
    zero = ring.zero
    orders, _, elements, _, _ = _additive_coordinates(ring)
    if len(digits) == 1:
        index = digits[0]
    else:
        index, stride = 0, 1
        for a, d in zip(digits, orders):
            index += stride * int.from_bytes(a, "little")
            stride *= d
        index = index.to_bytes(len(digits[0]), "little")
    out = index.translate(elements.ljust(256, b"\0"))
    if pick is not None:
        out = bytes(pick(out))
    nonzero = bytearray(b"\1") * 256
    nonzero[zero] = 0
    kept = compress(exponents, out.translate(nonzero))  # the exponents of the nonzero bytes
    return SkewSeries._trusted(action, dict(zip(kept, out.translate(None, bytes([zero])))))


def _pack(slots: bytes, width: int) -> int:
    """The int with byte slots[e] at bit 8 * width * e."""
    if width > 1:
        spread = bytearray(len(slots) * width)
        spread[::width] = slots
        slots = spread
    return int.from_bytes(slots, "little")


# Where P * B^1.5 = _KRONECKER_COST * |f| * |g| (see ``_kronecker``), the
# kernel and the grouped loop took about the same time in CPython 3.11 on
# NatAdd products of 64 to 1000 terms over Z2, Z6, F2xF2 and M2(F2), each
# spread ever wider (3200 to 15000, median 7000 to 7200 over two runs; 260
# to 1600 at 16 terms).  10000 lies inside that spread.
_KRONECKER_COST = 10_000


def _dirichlet(f: SkewSeries, g: SkewSeries) -> SkewSeries | None:
    """f * g over NatMulDirichlet and a tabled ring, on dense byte windows;
    None when the ring's coordinates do not fit a byte slot or the window is
    too sparse for that to pay.

    The action is trivial, so with V = max supp(g), row u of the product,
    f(u) * g(v) at exponent u * v for v = 1..V, is the strided slice
    [u : u*V + 1 : u] of a window with a slot for every exponent up to
    max supp(f) * V.  The row is one ``bytes.translate`` of g's dense
    coefficients through f(u)'s row of the multiplication table, and is
    added into the window coordinate by coordinate
    (``rings._additive_coordinates``): coordinate k of every slot is kept in
    0..d_k - 1 in its own bytearray, and a row is added by adding the two
    slices as ints, which cannot carry while 2 * (d_k - 1) <= 255, then
    reducing each byte mod d_k through a translate table.  At the end the
    coordinates of a slot index into ``elements``, which needs at most 256
    coordinate vectors.

    A slot can be nonzero only at a product u * v with u <= U = max supp(f)
    and v <= V, and these are sparse in the window: about a quarter of it at
    U = V = 400.  So ``_gather`` reads the window back at the sorted table of
    those products alone (``_window_table``), whose own ints become the
    keys, and makes no int for an empty slot.  One table is kept for the
    module, so the memory held is at most one taken window's products.

    The kernel's work is K slices of V bytes for each term of f and a few
    C passes over the window; the grouped loop's is about one dict update
    per term pair.  So the kernel returns None, before allocating anything,
    when window + _DIRICHLET_ROW * K * |f| > _DIRICHLET_PAIR * |f| * |g|.
    """
    ring = f.action.ring
    zero = ring.zero
    orders, coords, elements, _, _ = _additive_coordinates(ring)
    top, f_top = max(g.coeffs), max(f.coeffs)
    window = f_top * top + 1
    if (max(orders) > 128 or len(elements) > 256
            or window + _DIRICHLET_ROW * len(orders) * len(f.coeffs)
            > _DIRICHLET_PAIR * len(f.coeffs) * len(g.coeffs)):
        return None
    g_dense = bytearray([zero]) * top
    for v, gv in g.coeffs.items():
        g_dense[v - 1] = gv
    times = ring.tables[1]
    acc = [bytearray(window) for _ in orders]
    rows: dict = {}
    for u, fu in f.coeffs.items():
        row = rows.get(fu)
        if row is None:
            products = g_dense.translate(times[fu].ljust(256, b"\0"))
            row = rows[fu] = [int.from_bytes(products.translate(c), "little") for c in coords]
        at = slice(u, u * top + 1, u)
        for a, x, d in zip(acc, row, orders):
            if x:
                total = int.from_bytes(a[at], "little") + x
                a[at] = total.to_bytes(top, "little").translate(_MOD[d])
    return _gather(f.action, acc, *_window_table(f_top, top))


# (U, V, T, n, pick): the one table of window products ``_window_table``
# keeps, T the sorted u * v for 1 <= u <= U and 1 <= v <= V, and pick the
# itemgetter of T's first n entries; None until the first Dirichlet product.
_window_products: tuple | None = None


def _window_table(u_top: int, v_top: int) -> tuple:
    """(T, pick) for ``_gather``: T a sorted tuple of exponents whose
    entries up to u_top * v_top include every u * v with 1 <= u <= u_top
    and 1 <= v <= v_top, and pick the ``operator.itemgetter`` of those
    entries.

    One table is kept for the module.  A window inside the kept one, with
    u_top <= U and v_top <= V, reuses it: its products lie in T, cut by
    ``bisect`` at the window's last slot u_top * v_top, and the other
    entries below that are empty slots.  Any other window replaces the kept
    table with its own exact products.  So the memory held is at most one
    taken window's products and one getter of them, never a growing set.
    The table is built in C: one strided slice assign per u marks the
    products, and one ``compress`` lists them.
    """
    global _window_products
    kept = _window_products
    last = u_top * v_top
    if kept is None or u_top > kept[0] or v_top > kept[1]:
        mark, ones = bytearray(last + 1), b"\1" * v_top
        for u in range(1, u_top + 1):
            mark[u:u * v_top + 1:u] = ones
        table = tuple(compress(range(last + 1), mark))
        kept = (u_top, v_top, table, 0, None)
    table = kept[2]
    n = bisect_right(table, last)
    if n != kept[3]:
        # one entry is slot 1 alone, where itemgetter(1) would give no tuple
        kept = kept[:3] + (n, itemgetter(*table[:n]) if n > 1 else itemgetter(slice(1, 2)))
        _window_products = kept
    return table, kept[4]


# The costs of ``_dirichlet``'s rule in window slots, which take 15 to 35 ns
# each in CPython 3.11 on a shared 2-core host: a term pair of the grouped
# loop costs 4 to 5 slots, the kernel's work per term of f and coordinate
# about 64.  Timed on two draws of 380 random products of 1 to 400 terms at
# 1 to 16 slots per term pair, over Z2, Z6, Z8, Z64, F2xF2 and M2(F2): with
# the window products table kept, the kernel took one product 1.04x slower
# than the loop and none slower beyond that, and the loop ran 116 to 139 of
# the products the rule declined slower than the kernel would have, up to
# 2.6 to 2.9x, three in four over one-coordinate rings, most at 4 to 8
# slots per term pair.  A pair cost of 5 or 6 takes some of those, but with the table
# rebuilt at every product, as at a window no kept table covers, the kernel
# then takes products up to 1.6 to 1.9x slower (at 4, up to 1.3x), so 4
# and 64 are kept.
_DIRICHLET_PAIR = 4
_DIRICHLET_ROW = 64


def _packing(monoid: OrderedMonoid, f: SkewSeries, g: SkewSeries) -> tuple:
    """The slot layout (f_key, f_len, g_key, g_len, exponents, length) of
    the product of nonzero f and g.

    f_key and g_key map the exponents of f and of g to slots 0, 1, ... with
    f_key(u) + g_key(v) a slot of the product, which has ``length`` slots.
    Every key of f is below f_len and every key of g below g_len, both read
    off the extents of the factors.  exponents() iterates the product's
    exponents: a range, or for pairs the
    ``product`` of two ranges, which materialises them, so call it only once
    the window is taken.  Integer exponents shift by the least exponent of
    their own factor.  A pair (i, j) of f takes slot
    (i - fi0) * W + (j - fj0), with fi0, fj0 the least components in f, and
    likewise for g; W is the sum of the j-spans of f and g plus one, so the
    j-parts of two keys add below W and never carry into the i-part.
    """
    if not monoid._pair:
        f0, g0 = min(f.coeffs), min(g.coeffs)
        f_len, g_len = max(f.coeffs) - f0 + 1, max(g.coeffs) - g0 + 1
        length = f_len + g_len - 1
        return ((lambda s: s - f0), f_len, (lambda s: s - g0), g_len,
                (lambda: range(f0 + g0, f0 + g0 + length)), length)
    (fi0, fi1), (fj0, fj1), (gi0, gi1), (gj0, gj1) = (
        (min(part), max(part)) for h in (f, g) for part in zip(*h.coeffs))
    w = fj1 - fj0 + gj1 - gj0 + 1
    return ((lambda s: (s[0] - fi0) * w + s[1] - fj0), (fi1 - fi0) * w + fj1 - fj0 + 1,
            (lambda s: (s[0] - gi0) * w + s[1] - gj0), (gi1 - gi0) * w + gj1 - gj0 + 1,
            (lambda: product(range(fi0 + gi0, fi1 + gi1 + 1), range(fj0 + gj0, fj1 + gj1 + 1))),
            (fi1 - fi0 + gi1 - gi0 + 1) * w)


def zero_series(action: OmegaAction) -> SkewSeries:
    return SkewSeries(action, {})


def single_term(action: OmegaAction, r: int, s) -> SkewSeries:
    """The series with value r at exponent s and zero elsewhere."""
    return SkewSeries(action, {s: r})


def constant(action: OmegaAction, r: int) -> SkewSeries:
    """Embed a ring element at the neutral exponent."""
    return single_term(action, r, action.monoid.zero)


def monomial(action: OmegaAction, s) -> SkewSeries:
    """Embed a monoid element with coefficient 1."""
    return single_term(action, action.ring.one, s)


def from_terms(action: OmegaAction, terms) -> SkewSeries:
    """Build a series from (exponent, coefficient) pairs; repeats are summed.
    Raises ValueError as ``SkewSeries`` does."""
    ring = action.ring
    out: dict = {}
    for s, r in terms:
        _check_coefficient(ring, s, r)
        out[s] = ring.add(out.get(s, ring.zero), r)
    return SkewSeries(action, out)


def annihilates_via_all_middles(g: SkewSeries, f: SkewSeries) -> bool:
    """Whether g * h * f == 0 for every series h over the same context.

    By distributivity it is enough to test single-term middles h = r x^s,
    and ``_first_failure`` decides those on exponent representatives and
    the additive generators of R.
    """
    g._require_same_context(f)
    return g.is_zero() or f.is_zero() or _first_failure(g.action, _middle_test(g, f)) is None


def _middle_test(g: SkewSeries, f: SkewSeries):
    """The test (s, r) -> g * (r x^s) * f != 0 for ``_first_failure``, with
    g * (r x^s) built as {op(u, s): g(u) * w_u(r)} less its zero terms: every
    monoid kind is cancellative, so op(u, s) differs for distinct u."""
    action = g.action
    op, mul, zero = action.monoid.op, action.ring.mul, action.ring.zero
    terms = [(u, gu, action.automorphism(u).perm) for u, gu in g.coeffs.items()]
    return lambda s, r: bool(convolve(SkewSeries._trusted(action, {
        op(u, s): t for u, gu, twist in terms if (t := mul(gu, twist[r])) != zero}), f).coeffs)


def _first_failure(action: OmegaAction, test):
    """The first (s, r) with test(s, r) true, s over
    ``action.representatives()`` and r != 0 over R in index order; None
    when there is none.

    For each s, test(s, r) must say whether some additive map of r is
    nonzero at r, as r -> g*(r x^s)*f and r -> g(u)*w_u(r*w_s(f(v))) are
    (w_u and both multiplications are additive).  The r where such a map
    vanishes form an additive subgroup, so it vanishes on R exactly when it
    vanishes on an additive generating set G.  Each s is therefore decided
    on G, in |reps| * |G| tests when none fails, and R is scanned only at
    the first s that fails on G, which is the s of the first failure of the
    full scan.
    """
    zero = action.ring.zero
    gens = _additive_generators(action.ring)
    for s, _ in action.closure():  # s over action.representatives()
        for r in gens:
            if r != zero and test(s, r):
                return s, next(r for r in action.ring.elements() if r != zero and test(s, r))
    return None

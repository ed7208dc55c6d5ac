"""Finitely supported twisted power series and their exact convolution.

A series is a finite map from monoid exponents to nonzero ring elements.
Multiplication twists the right factor through a monoid action on the ring:

    (f*g)(s) = sum over u+v == s of  f(u) * w_u(g(v))

where w_u is the automorphism the action assigns to the exponent u.  With
finite supports every product is exact; no truncation is involved anywhere.

Series are canonical (zero coefficients are never stored), so equality to
zero is a structural test.

Series are validated at the boundary.  The public ``SkewSeries(action,
coeffs)`` checks every exponent against the monoid and every coefficient
against the ring, and drops zero coefficients.  Paths inside the package
whose terms are valid by construction build with ``SkewSeries._trusted``,
which skips those checks and stores its dict as given: ``convolve``'s output
(op(u, v) of checked exponents is an exponent, and zero sums are dropped
first), the one-term middles below, and series sampled from ``sample_pool``
with nonzero coefficients.

The middle quantifier of ``annihilates_via_all_middles`` runs over an
additive basis.  h -> g*h*f is additive, so g*(sum r_i x^s)*f equals
sum g*(r_i x^s)*f, and g*(r x^s)*f vanishes for every r in R exactly when it
vanishes for every r in an additive generating set G of R (one element for
Z_n, two for F2xF2, four for M2(F2)).

``convolve`` multiplies term by term, except when the ring is tabled and the
right factor has more terms than the ring has nonzero elements.  Then some
coefficient value of g must repeat, and the product is formed once per
coefficient class of g instead of once per term (see ``convolve``).
"""

from __future__ import annotations

from .monoids import OrderedMonoid, min_element
from .rings import FiniteRing, RingAut, _additive_generators, identity_automorphism


class OmegaAction:
    """A monoid homomorphism from exponents into the ring's automorphisms.

    The action is specified by images of the monoid generators:

      NatAdd / IntAdd    one automorphism, the image of 1
      pair kinds         commuting images of (1,0) and (0,1)
      NatMulDirichlet    trivial only (the identity on every exponent)

    Evaluations are memoized; since the automorphism group is finite the set
    of values {w_s} is finite and has concrete exponent representatives.
    Cache inserts are idempotent, so concurrent readers are safe as long as
    writes come from one thread at a time.
    """

    def __init__(self, monoid: OrderedMonoid, ring: FiniteRing,
                 generator_images: dict | None = None):
        self.monoid = monoid
        self.ring = ring
        ident = identity_automorphism(ring)
        images = dict(generator_images or {})
        for aut in images.values():
            if not isinstance(aut, RingAut) or aut.ring is not ring:
                raise ValueError("generator images must be automorphisms of the same ring")
            # the identity map is an automorphism of every ring
            if aut.perm != ident.perm:
                aut.validate()
        kind = monoid.kind
        if kind in ("NatAdd", "IntAdd"):
            alpha = images.pop(1, ident)
            self._alphas = (alpha,)
        elif monoid._pair:
            alpha = images.pop((1, 0), ident)
            beta = images.pop((0, 1), ident)
            if alpha.compose(beta) != beta.compose(alpha):
                raise ValueError("pair-monoid generator images must commute")
            self._alphas = (alpha, beta)
        else:  # NatMulDirichlet admits only the trivial action
            for aut in images.values():
                if not aut.is_identity():
                    raise ValueError(f"{kind} only supports the trivial action")
            images.clear()
            self._alphas = ()
        if images:
            raise ValueError(f"unexpected generator keys for {kind}: {sorted(images)}")
        self._powers = [_power_table(a) for a in self._alphas]
        self._cache: dict = {}
        self._closure: tuple | None = None

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
        """Apply the automorphism at exponent s to ring element r."""
        return self.automorphism(s).perm[r]

    def is_trivial(self) -> bool:
        return all(a.is_identity() for a in self._alphas)

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
    if monoid.kind not in ("NatAdd", "IntAdd"):
        raise ValueError(f"{monoid.kind} does not take a single generator image")
    return OmegaAction(monoid, ring, {1: alpha})


def pair_action(monoid: OrderedMonoid, ring: FiniteRing,
                alpha: RingAut, beta: RingAut) -> OmegaAction:
    if not monoid._pair:
        raise ValueError(f"{monoid.kind} does not take a generator pair")
    return OmegaAction(monoid, ring, {(1, 0): alpha, (0, 1): beta})


class SkewSeries:
    """A finitely supported series; immutable once constructed.

    The constructor raises ValueError for an exponent outside the monoid or
    a coefficient that is not an element index of the ring (an int in
    0..size-1), and drops zero coefficients.
    """

    __slots__ = ("action", "coeffs")

    def __init__(self, action: OmegaAction, coeffs: dict):
        ring = action.ring
        zero = ring.zero
        clean = {}
        for s, r in coeffs.items():
            _check_coefficient(ring, s, r)
            if r != zero:
                action.monoid.check_element(s)
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
    if not isinstance(r, int) or not 0 <= r < ring.size:
        raise ValueError(f"coefficient {r!r} at exponent {s!r} is not an "
                         f"element of {ring.name} (0..{ring.size - 1})")


def convolve(f: SkewSeries, g: SkewSeries) -> SkewSeries:
    """The exact twisted product of two finitely supported series.

    f(u) * w_u(g(v)) depends on v only through the value g(v).  So when the
    ring is tabled and g has more terms than the ring has nonzero elements,
    g's exponents are grouped by coefficient value c, and each u in supp(f)
    makes one product t = f(u) * w_u(c) per group.  A zero t skips the whole
    group; a nonzero t is added into the exponent op(u, v) of every v in the
    group through row t of the addition table.  Below that size (where no
    value need repeat) and over untabled rings, each pair of terms is
    multiplied on its own.
    """
    f._require_same_context(g)
    action = f.action
    ring = action.ring
    zero = ring.zero
    out: dict = {}
    if len(g.coeffs) >= ring.size and ring.tables is not None:
        plus, times = ring.tables
        shifts = action.monoid.shifts
        groups: dict = {}
        for v, gv in g.coeffs.items():
            groups.setdefault(gv, []).append(v)
        get = out.get
        for u, fu in f.coeffs.items():
            row = times[fu]
            twist = action.automorphism(u).perm
            for c, vs in groups.items():
                t = row[twist[c]]
                if t != zero:
                    plus_t = plus[t]
                    for s in shifts(u, vs):
                        out[s] = plus_t[get(s, zero)]
    else:
        op = action.monoid.op
        add, mul = ring.add, ring.mul
        for u, fu in f.coeffs.items():
            twist = action.automorphism(u).perm
            for v, gv in g.coeffs.items():
                term = mul(fu, twist[gv])
                if term == zero:
                    continue
                s = op(u, v)
                acc = out.get(s)
                out[s] = term if acc is None else add(acc, term)
    return SkewSeries._trusted(action, {s: r for s, r in out.items() if r != zero})


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


def annihilates_via_all_middles(g: SkewSeries, f: SkewSeries,
                                s_representatives=None) -> bool:
    """Whether g * h * f == 0 for every series h over the same context.

    By distributivity it is enough to test single-term middles h = r x^s.
    The product depends on s only through the automorphism w_s, so exponent
    representatives covering every attainable automorphism value make the
    quantifier over the monoid finite.  And h -> g*h*f is additive:
    g*(sum r_i x^s)*f == sum g*(r_i x^s)*f, so r need only run over an
    additive generating set of R, not over every element.  The middles are
    built unchecked; given representatives are checked against the monoid.
    """
    g._require_same_context(f)
    if g.is_zero() or f.is_zero():
        return True
    action = g.action
    if s_representatives is None:
        s_representatives = action.representatives()
    else:
        for s in s_representatives:
            action.monoid.check_element(s)
    return _first_failing_middle(g, f, s_representatives,
                                 _additive_generators(action.ring)) is None


def _first_failing_middle(g: SkewSeries, f: SkewSeries, s_representatives,
                          coefficients):
    """The first (s, r), exponents outer, with g * (r x^s) * f != 0, or None.

    Exponents must lie in the monoid and coefficients be ring elements.
    """
    action = g.action
    zero = action.ring.zero
    for s in s_representatives:
        for r in coefficients:
            if r != zero and convolve(convolve(g, SkewSeries._trusted(action, {s: r})),
                                      f).coeffs:
                return s, r
    return None

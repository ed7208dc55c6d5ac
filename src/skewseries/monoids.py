"""Computable strictly ordered commutative monoids.

Supported kinds (exact strings used by the CLI config as well):

  NatAdd          naturals under addition, usual order
  IntAdd          integers under addition, usual order
  NatPairLex      pairs of naturals, componentwise addition, lexicographic
  NatPairRevLex   same monoid, reverse lexicographic (right component first)
  IntPairLex      pairs of integers, lexicographic
  IntPairRevLex   pairs of integers, reverse lexicographic
  NatMulDirichlet positive naturals under multiplication, usual order

Elements are plain ints, or 2-tuples of ints for the pair kinds.  The neutral
element is exposed as ``zero`` even for NatMulDirichlet, where it is 1.

The componentwise (product) order on pairs is deliberately not offered: it is
only a partial order, and every check in this package quantifies over monoids
whose order is strictly total.
"""

from __future__ import annotations

KINDS = (
    "NatAdd", "IntAdd",
    "NatPairLex", "NatPairRevLex",
    "IntPairLex", "IntPairRevLex",
    "NatMulDirichlet",
)

_PAIR_BASES = {"NatPair": True, "IntPair": True}
_ORDER_SUFFIX = {"lex": "Lex", "revlex": "RevLex"}


class UnsupportedOrderError(ValueError):
    """Requested monoid/order combination is not available."""


class WindowRequiredError(ValueError):
    """Decomposition enumeration over an integer-based kind needs a window."""


class OrderedMonoid:
    """A strictly ordered cancellative commutative monoid.

    ``op`` is the monoid operation, ``less`` the strict total order, and
    ``zero`` the neutral element.  ``sort_key`` provides the same order for
    Python's ``sorted``.
    """

    __slots__ = ("kind", "zero", "_pair", "_mul")

    def __init__(self, kind: str):
        if kind not in KINDS:
            raise UnsupportedOrderError(f"unsupported monoid kind: {kind}")
        self.kind = kind
        self._pair = kind.startswith(("NatPair", "IntPair"))
        self._mul = kind == "NatMulDirichlet"
        self.zero = (0, 0) if self._pair else (1 if self._mul else 0)

    # -- structure ---------------------------------------------------------

    def contains(self, s) -> bool:
        if self._pair:
            if not (isinstance(s, tuple) and len(s) == 2
                    and type(s[0]) is int and type(s[1]) is int):
                return False
            return self.kind.startswith("Int") or (s[0] >= 0 and s[1] >= 0)
        if type(s) is not int:  # a bool is an int, but no exponent
            return False
        if self._mul:
            return s >= 1
        return self.kind == "IntAdd" or s >= 0

    def check_element(self, s) -> None:
        if not self.contains(s):
            raise ValueError(f"{s!r} is not an element of {self.kind}")

    def op(self, s, t):
        if self._pair:
            return (s[0] + t[0], s[1] + t[1])
        if self._mul:
            return s * t
        return s + t

    def sort_key(self, s):
        if self.kind.endswith("RevLex"):
            return (s[1], s[0])
        return s

    def less(self, s, t) -> bool:
        return self.sort_key(s) < self.sort_key(t)

    def leq(self, s, t) -> bool:
        return self.sort_key(s) <= self.sort_key(t)

    def try_subtract(self, s, u):
        """The unique v with op(u, v) == s, or None when no such v exists."""
        if self._pair:
            v = (s[0] - u[0], s[1] - u[1])
        elif self._mul:
            if u < 1 or s % u != 0:
                return None
            v = s // u
        else:
            v = s - u
        return v if self.contains(v) else None

    @property
    def positively_ordered(self) -> bool:
        """True when zero <= s for every element (no window ever needed)."""
        return self.kind in ("NatAdd", "NatPairLex", "NatPairRevLex", "NatMulDirichlet")

    def __repr__(self):
        return f"OrderedMonoid({self.kind})"


def make_monoid(kind: str, order_variant: str | None = None) -> OrderedMonoid:
    """Build a monoid from a kind name, optionally split kind/order.

    Accepts either a full kind name ("NatPairLex") or a base plus order
    variant ("NatPair", "lex").  An order variant applies only to the bases
    NatPair and IntPair; with any other kind it is refused, not ignored.
    The componentwise product order is rejected: it is not total.
    """
    if order_variant is not None:
        if order_variant == "product":
            raise UnsupportedOrderError(
                "product order rejected: the order must be strictly total, "
                "and the componentwise order on pairs is only partial")
        if kind not in _PAIR_BASES:
            raise UnsupportedOrderError(
                f"order variant {order_variant} needs monoid kind NatPair or IntPair, "
                f"got {kind}")
        suffix = _ORDER_SUFFIX.get(order_variant)
        if suffix is None:
            raise UnsupportedOrderError(f"unsupported order variant: {order_variant}")
        kind = kind + suffix
    return OrderedMonoid(kind)


class MonoidInterval:
    """A finite, decidable window of monoid elements up to ``bound``.

    NatAdd/IntAdd: {0, ..., bound}.  NatMulDirichlet: {1, ..., bound}.
    Pair kinds: the componentwise box from (0,0) to bound, which is contained
    in the order interval for both lex variants.
    """

    __slots__ = ("monoid", "bound")

    def __init__(self, monoid: OrderedMonoid, bound):
        monoid.check_element(bound)
        if not monoid.leq(monoid.zero, bound):
            raise ValueError(f"window bound {bound!r} is below the neutral element")
        self.monoid = monoid
        self.bound = bound

    def __contains__(self, s) -> bool:
        m = self.monoid
        if not m.contains(s):
            return False
        if m._pair:
            return 0 <= s[0] <= self.bound[0] and 0 <= s[1] <= self.bound[1]
        if m._mul:
            return 1 <= s <= self.bound
        return 0 <= s <= self.bound

    def __iter__(self):
        m = self.monoid
        if m._pair:
            for i in range(self.bound[0] + 1):
                for j in range(self.bound[1] + 1):
                    yield (i, j)
        elif m._mul:
            yield from range(1, self.bound + 1)
        else:
            yield from range(0, self.bound + 1)

    def elements(self) -> list:
        return sorted(self, key=self.monoid.sort_key)


def decompositions(s, monoid: OrderedMonoid, window=None) -> list[tuple]:
    """All pairs (u, v) with op(u, v) == s, ordered by the monoid order on u.

    Positively ordered kinds enumerate their finitely many decompositions
    directly.  Integer-based kinds have infinitely many and require a window
    (a MonoidInterval or any iterable of elements); both components of every
    returned pair lie in the window.
    """
    monoid.check_element(s)
    if window is None:
        if not monoid.positively_ordered:
            raise WindowRequiredError(
                f"{monoid.kind} has infinitely many decompositions; supply a window")
        candidates = _natural_left_factors(s, monoid)
        pairs = []
        for u in candidates:
            v = monoid.try_subtract(s, u)
            if v is not None:
                pairs.append((u, v))
    else:
        members = window if isinstance(window, MonoidInterval) else set(window)
        pairs = []
        for u in members:
            v = monoid.try_subtract(s, u)
            if v is not None and v in members:
                pairs.append((u, v))
    pairs.sort(key=lambda p: monoid.sort_key(p[0]))
    return pairs


def _natural_left_factors(s, monoid: OrderedMonoid):
    if monoid._pair:
        return [(i, j) for i in range(s[0] + 1) for j in range(s[1] + 1)]
    if monoid._mul:
        return [d for d in range(1, s + 1) if s % d == 0]
    return range(0, s + 1)


def min_element(elements, monoid: OrderedMonoid):
    """The least element of a nonempty collection under the monoid order."""
    items = list(elements)
    if not items:
        raise ValueError("min_element of an empty collection")
    return min(items, key=monoid.sort_key)


def sample_pool(monoid: OrderedMonoid, span: int) -> list:
    """A deterministic pool of small elements, used for randomized harnesses."""
    if monoid._pair:
        lo = -span if monoid.kind.startswith("Int") else 0
        return [(i, j) for i in range(lo, span + 1) for j in range(lo, span + 1)]
    if monoid._mul:
        return list(range(1, span + 1))
    lo = -span if monoid.kind == "IntAdd" else 0
    return list(range(lo, span + 1))

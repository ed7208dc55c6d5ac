"""Finite unital rings on element indices, with automorphism machinery.

A ring is a set of element indices ``0..size-1`` together with addition and
multiplication maps.  Rings of up to ``TABLE_LIMIT`` elements keep their
operation tables as lists of rows, which every factory builds from tables it
already has: rotations of ``range(n)`` for Z_n, blocks of component rows for
products, and for matrix and triangular rings the digitwise sum table plus,
for each x, the additive map y -> x*y assembled from x times the high-digit
and the low-digit parts of y.  Larger rings evaluate arithmetic on demand
through closures; the matrix and triangular ones add through two half-digit
tables.  Every factory validates the ring axioms at construction:
exhaustively up to a size cap, by seeded random sampling above it.
"""

from __future__ import annotations

import random
from itertools import chain, compress, product, repeat

# Structured rings materialize full operation tables up to this size;
# beyond it arithmetic stays closure-backed.
TABLE_LIMIT = 256

# Factories refuse to build rings larger than this unless told otherwise.
DEFAULT_SIZE_CAP = 4096

# Axiom validation is exhaustive up to this size, sampled above.
EXHAUSTIVE_VALIDATION_CAP = 64


class RingAxiomError(ValueError):
    """A ring axiom failed; the message carries the first failing triple."""


class FiniteRing:
    """A finite unital ring over element indices 0..size-1.

    ``add``/``mul``/``neg`` operate on indices.  ``add`` and ``mul`` are
    functions of two indices; a factory may pass the rows of a table instead,
    for a ring of at most ``TABLE_LIMIT`` elements, and the ring then owns
    those lists.  Without ``neg`` each negative is looked up in the addition
    table.  Instances are immutable after construction and safe to share;
    the lazily filled slots, the additive generating set and the bitsets of
    the ``ideals`` kernel, hold the same values whoever fills them.
    """

    __slots__ = ("size", "zero", "one", "name", "_add", "_mul", "_neg",
                 "_add_rows", "_mul_rows", "_neg_row", "_repr_fn", "_additive_gens",
                 "_ideal_bits")

    def __init__(self, size: int, add, mul, zero: int, one: int,
                 name: str = "ring", neg=None, element_repr=None,
                 validate: bool = True, seed: int = 0):
        if size < 1:
            raise RingAxiomError("empty ring: size must be at least 1")
        self.size = size
        self.zero = zero
        self.one = one
        self.name = name
        self._repr_fn = element_repr
        if size <= TABLE_LIMIT:
            self._add_rows = add if isinstance(add, list) else \
                [[add(a, b) for b in range(size)] for a in range(size)]
            self._mul_rows = mul if isinstance(mul, list) else \
                [[mul(a, b) for b in range(size)] for a in range(size)]
            self._add = None
            self._mul = None
        else:
            self._add_rows = None
            self._mul_rows = None
            self._add = add
            self._mul = mul
        if neg is None:
            self._neg_row = _negatives(self._add_rows or (
                [add(a, b) for b in range(size)] for a in range(size)), zero)
        else:
            self._neg_row = [neg(a) for a in range(size)]
        self._neg = None
        self._additive_gens = None
        self._ideal_bits = None
        if validate:
            validate_ring(self, seed=seed)

    def add(self, a: int, b: int) -> int:
        if self._add_rows is not None:
            return self._add_rows[a][b]
        return self._add(a, b)

    def mul(self, a: int, b: int) -> int:
        if self._mul_rows is not None:
            return self._mul_rows[a][b]
        return self._mul(a, b)

    @property
    def tables(self) -> tuple[list[list[int]], list[list[int]]] | None:
        """The rows of the (addition, multiplication) tables, or None when
        the ring computes through closures.  Callers must not modify them."""
        if self._add_rows is None:
            return None
        return self._add_rows, self._mul_rows

    def neg(self, a: int) -> int:
        return self._neg_row[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def elements(self) -> range:
        return range(self.size)

    def element_repr(self, a: int) -> str:
        if self._repr_fn is not None:
            return self._repr_fn(a)
        return str(a)

    def __repr__(self) -> str:
        return f"FiniteRing({self.name}, size={self.size})"


def _negatives(rows, zero: int) -> list[int]:
    """The first index of ``zero`` in each row of an addition table."""
    out = []
    for a, row in enumerate(rows):
        if zero not in row:
            raise RingAxiomError(f"element {a} has no additive inverse")
        out.append(row.index(zero))
    return out


def validate_ring(ring: FiniteRing, exhaustive_cap: int = EXHAUSTIVE_VALIDATION_CAP,
                  samples: int = 2000, seed: int = 0) -> None:
    """Check the ring axioms, raising RingAxiomError on the first violation.

    Exhaustive for ``size <= exhaustive_cap`` (all triples), otherwise the
    triple-quantified axioms are checked on seeded random samples while the
    identity, inverse and commutativity laws stay exhaustive.

    Tabled rings are checked on their tables: the sampled triples in one
    pass, and exhaustively one block of triples (a, *, *) at a time, with
    each axiom compared a whole row or column at once.  A failing block or
    sample is rescanned triple by triple, so the message names the same
    first failing triple and axiom as a plain scan in lexicographic order.
    """
    n = ring.size
    add, mul, zero, one = ring.add, ring.mul, ring.zero, ring.one
    for a in range(n):
        if add(zero, a) != a or add(a, zero) != a:
            raise RingAxiomError(f"additive identity fails at {a}")
        if add(a, ring.neg(a)) != zero:
            raise RingAxiomError(f"additive inverse fails at {a}")
        if mul(one, a) != a or mul(a, one) != a:
            raise RingAxiomError(f"multiplicative identity fails at {a}")
    A, M = ring._add_rows, ring._mul_rows
    if A is None:
        # The first non-commuting pair in lexicographic order has a < b.
        raw = ring._add
        for a in range(n):
            for b in range(a + 1, n):
                if raw(a, b) != raw(b, a):
                    raise RingAxiomError(f"addition not commutative at ({a},{b})")
    else:
        for a, (row, col) in enumerate(zip(A, zip(*A))):
            if tuple(row) != col:
                b = next(b for b in range(n) if row[b] != col[b])
                raise RingAxiomError(f"addition not commutative at ({a},{b})")
    # Table entries outside 0..n-1 take the scalar scan, which indexes rows
    # with them exactly as the ring's own add and mul do.
    tabled = A is not None and all(0 <= min(row) and max(row) < n for row in A + M)
    if n > exhaustive_cap:
        rng = random.Random(seed)
        triples = [(rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(samples)]
        if not (tabled and all(
                A[A[a][b]][c] == A[a][A[b][c]] and M[M[a][b]][c] == M[a][M[b][c]]
                and M[a][A[b][c]] == A[M[a][b]][M[a][c]]
                and M[A[a][b]][c] == A[M[a][c]][M[b][c]] for a, b, c in triples)):
            _check_triples(ring, triples)
    elif not tabled:
        _check_triples(ring, product(range(n), repeat=3))
    else:
        # A tabled ring has at most TABLE_LIMIT = 256 elements, so rows and
        # columns fit in bytes, and x.translate(t) is c -> t[x[c]], built and
        # compared in C.  t is a row padded to the 256 entries translate
        # wants: add_by[x] maps y to x+y, mul_by[x] maps y to x*y and
        # by_mul[c] maps y to y*c.
        pad = bytes(256 - n)
        arow = [bytes(row) for row in A]
        mrow = [bytes(row) for row in M]
        mcol = [bytes(col) for col in zip(*M)]
        add_by = [row + pad for row in arow]
        mul_by = [row + pad for row in mrow]
        by_mul = [col + pad for col in mcol]
        for a in range(n):
            Aa, Ma = A[a], M[a]
            # over c for each b: (a+b)+c, (ab)c and a(b+c); over b for each
            # c: (a+b)c
            if not (all(arow[Aa[b]] == rb.translate(add_by[a])
                        and mrow[Ma[b]] == mb.translate(mul_by[a])
                        and rb.translate(mul_by[a]) == mrow[a].translate(add_by[Ma[b]])
                        for b, (rb, mb) in enumerate(zip(arow, mrow)))
                    and all(arow[a].translate(by_mul[c]) == mcol[c].translate(add_by[Ma[c]])
                            for c in range(n))):
                _check_triples(ring, product((a,), range(n), range(n)))


def _check_triples(ring: FiniteRing, triples) -> None:
    """The triple-quantified axioms, one triple and one axiom at a time."""
    add, mul = ring.add, ring.mul
    for a, b, c in triples:
        if add(add(a, b), c) != add(a, add(b, c)):
            raise RingAxiomError(f"addition not associative at ({a},{b},{c})")
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            raise RingAxiomError(f"multiplication not associative at ({a},{b},{c})")
        if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
            raise RingAxiomError(f"left distributivity fails at ({a},{b},{c})")
        if mul(add(a, b), c) != add(mul(a, c), mul(b, c)):
            raise RingAxiomError(f"right distributivity fails at ({a},{b},{c})")


# ---------------------------------------------------------------------------
# factories

def cyclic_ring(n: int) -> FiniteRing:
    """The ring of integers modulo n.  n=1 gives the zero ring."""
    if n < 1:
        raise RingAxiomError("empty ring: modulus must be at least 1")
    if n <= TABLE_LIMIT:
        r = list(range(n))
        add = [r[a:] + r[:a] for a in r]
        mul = [[x % n for x in range(0, a * n, a)] if a else [0] * n for a in r]
    else:
        def add(a, b):
            return (a + b) % n

        def mul(a, b):
            return (a * b) % n
    return FiniteRing(
        n,
        add=add,
        mul=mul,
        neg=lambda a: (-a) % n,
        zero=0,
        one=1 % n,
        name=f"Z{n}",
    )


def _product_rows(P, Q, qs: int) -> list[list[int]]:
    """The table of a product from the component tables ``P`` and ``Q``.

    Entry (i*qs + j, i2*qs + j2) is P[i][i2]*qs + Q[j][j2]: row i*qs + j is
    the blocks P[i][i2]*qs + Q[j], in the order of i2.
    """
    return [list(chain.from_iterable([map((p * qs).__add__, Qj) for p in Pi]))
            for Pi in P for Qj in Q]


def product_ring(a: FiniteRing, b: FiniteRing, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """Direct product with componentwise operations; index = i*b.size + j."""
    size = a.size * b.size
    if size > size_cap:
        raise RingAxiomError(f"size cap exceeded: {size} > {size_cap}")
    bs = b.size

    def enc(i, j):
        return i * bs + j

    if size <= TABLE_LIMIT:
        add = _product_rows(a._add_rows, b._add_rows, bs)
        mul = _product_rows(a._mul_rows, b._mul_rows, bs)
    else:
        def add(x, y):
            return enc(a.add(x // bs, y // bs), b.add(x % bs, y % bs))

        def mul(x, y):
            return enc(a.mul(x // bs, y // bs), b.mul(x % bs, y % bs))
    return FiniteRing(
        size,
        add=add,
        mul=mul,
        neg=lambda x: enc(a.neg(x // bs), b.neg(x % bs)),
        zero=enc(a.zero, b.zero),
        one=enc(a.one, b.one),
        name=f"{a.name}x{b.name}",
        element_repr=lambda x: f"({a.element_repr(x // bs)},{b.element_repr(x % bs)})",
    )


def _digits(x: int, base: int, count: int) -> list[int]:
    out = []
    for _ in range(count):
        out.append(x % base)
        x //= base
    return out


def _undigits(ds, base: int) -> int:
    x = 0
    for d in reversed(ds):
        x = x * base + d
    return x


def _cell_ring(base: FiniteRing, ncells: int, cell_product, one_cells,
               name: str, element_repr) -> FiniteRing:
    """Vectors of ``ncells`` cells over ``base``, packed as base-``base.size``
    digits with cell t the t-th least significant, under cellwise addition
    and ``cell_product`` (a map of two cell lists to their product's).

    The cells split into a low half of L values and a high half, so that
    y = hi + lo, where hi keeps the high cells of y and lo the low ones, each
    padded with the base's zero (which need not be index 0).  Addition adds
    the halves in their own tables.  Left multiplication by x is additive, so
    x*y = x*hi + x*lo, and the tabled row of x takes the L products x*lo and
    the size/L products x*hi instead of size products.
    """
    bs = base.size
    size = bs ** ncells
    if base._add_rows is not None:
        digit_sum = base._add_rows
    else:
        digit_sum = [[base.add(p, q) for q in range(bs)] for p in range(bs)]

    def sums(count):
        """The cellwise sum table of vectors of ``count`` cells."""
        table = [[0]]
        for _ in range(count):
            table = _product_rows(digit_sum, table, len(table))
        return table

    low = ncells // 2
    L = bs ** low
    hi_sum, lo_sum = sums(ncells - low), sums(low)

    def cell_mul(x, y):
        return _undigits(cell_product(_digits(x, bs, ncells), _digits(y, bs, ncells)), bs)

    zero_lo = _undigits([base.zero] * low, bs)
    zero_hi = _undigits([base.zero] * (ncells - low), bs) * L
    if size <= TABLE_LIMIT:
        add = _product_rows(hi_sum, lo_sum, L)
        highs, lows = range(zero_lo, size, L), range(zero_hi, zero_hi + L)
        mul = []
        for x in range(size):
            by_lo = [cell_mul(x, y) for y in lows]
            mul.append(list(chain.from_iterable(
                [map(add[cell_mul(x, y)].__getitem__, by_lo) for y in highs])))
    else:
        def add(x, y):
            return hi_sum[x // L][y // L] * L + lo_sum[x % L][y % L]
        mul = cell_mul

    def neg(x):
        return _undigits([base.neg(d) for d in _digits(x, bs, ncells)], bs)

    return FiniteRing(size, add=add, mul=mul, neg=neg, zero=zero_hi + zero_lo,
                      one=_undigits(one_cells, bs), name=name, element_repr=element_repr)


def matrix_ring(base: FiniteRing, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """Full k-by-k matrix ring over ``base``; entries packed row-major."""
    ncells = k * k
    size = base.size ** ncells
    if size > size_cap:
        raise RingAxiomError(f"size cap exceeded: {size} > {size_cap}")
    bs = base.size

    def product_cells(xs, ys):
        out = []
        for i in range(k):
            for j in range(k):
                acc = base.zero
                for t in range(k):
                    acc = base.add(acc, base.mul(xs[i * k + t], ys[t * k + j]))
                out.append(acc)
        return out

    one_cells = [base.one if i == j else base.zero for i in range(k) for j in range(k)]

    def mrepr(x):
        ds = _digits(x, bs, ncells)
        rows = ["[" + ",".join(base.element_repr(ds[i * k + j]) for j in range(k)) + "]"
                for i in range(k)]
        return "[" + ",".join(rows) + "]"

    return _cell_ring(base, ncells, product_cells, one_cells, f"M{k}({base.name})", mrepr)


def upper_triangular_ring(base: FiniteRing, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """Upper triangular k-by-k matrices over ``base``.

    Cells (i,j) with i <= j are packed in row-major order of the upper
    triangle, so size = base.size ** (k*(k+1)/2).
    """
    cells = [(i, j) for i in range(k) for j in range(i, k)]
    pos = {c: t for t, c in enumerate(cells)}
    ncells = len(cells)
    size = base.size ** ncells
    if size > size_cap:
        raise RingAxiomError(f"size cap exceeded: {size} > {size_cap}")
    bs = base.size

    def product_cells(xs, ys):
        out = []
        for (i, j) in cells:
            acc = base.zero
            for t in range(i, j + 1):
                acc = base.add(acc, base.mul(xs[pos[i, t]], ys[pos[t, j]]))
            out.append(acc)
        return out

    one_cells = [base.one if i == j else base.zero for (i, j) in cells]

    def trepr(x):
        ds = _digits(x, bs, ncells)
        rows = []
        for i in range(k):
            row = [base.element_repr(ds[pos[i, j]]) if j >= i else "0" for j in range(k)]
            rows.append("[" + ",".join(row) + "]")
        return "[" + ",".join(rows) + "]"

    return _cell_ring(base, ncells, product_cells, one_cells, f"T{k}({base.name})", trepr)


def _check_entries(table, n: int, label: str) -> None:
    """Raise RingAxiomError unless every entry of ``table`` is an element 0..n-1."""
    for a, row in enumerate(table):
        if not (all(map(isinstance, row, repeat(int))) and 0 <= min(row) and max(row) < n):
            b, x = next((b, x) for b, x in enumerate(row)
                        if not (isinstance(x, int) and 0 <= x < n))
            raise RingAxiomError(
                f"{label} entry {x!r} at ({a},{b}) is not an element 0..{n - 1}")


def table_ring(add_table, mul_table, zero: int | None = None,
               one: int | None = None, name: str = "table") -> FiniteRing:
    """Build a ring from explicit operation tables, validating every axiom.

    Every entry must be an element index 0..n-1.  ``zero`` and ``one`` are
    located by scanning when not given.
    """
    n = len(add_table)
    if n < 1 or any(len(row) != n for row in add_table) or \
            len(mul_table) != n or any(len(row) != n for row in mul_table):
        raise RingAxiomError("tables must be square and of matching size")
    _check_entries(add_table, n, "add table")
    _check_entries(mul_table, n, "mul table")
    if zero is None:
        zero = next((z for z in range(n)
                     if all(add_table[z][a] == a for a in range(n))), None)
        if zero is None:
            raise RingAxiomError("no additive identity found in table")
    if one is None:
        one = next((e for e in range(n)
                    if all(mul_table[e][a] == a == mul_table[a][e] for a in range(n))), None)
        if one is None:
            raise RingAxiomError("no multiplicative identity found in table")
    if n <= TABLE_LIMIT:
        return FiniteRing(n, add=[list(row) for row in add_table],
                          mul=[list(row) for row in mul_table],
                          zero=zero, one=one, name=name)
    return FiniteRing(
        n,
        add=lambda a, b: add_table[a][b],
        mul=lambda a, b: mul_table[a][b],
        neg=_negatives(add_table, zero).__getitem__,
        zero=zero,
        one=one,
        name=name,
    )


# ---------------------------------------------------------------------------
# elements of interest

def idempotents(ring: FiniteRing) -> list[int]:
    """All x with x*x == x, in ascending index order."""
    return [x for x in ring.elements() if ring.mul(x, x) == x]


def _inverse(ring: FiniteRing, u: int) -> int | None:
    """The v with u*v == 1 == v*u, or None.

    The candidates v are the positions of 1 in the row of u, in order.
    """
    one, n = ring.one, ring.size
    row = ring._mul_rows[u] if ring._mul_rows is not None else \
        [ring.mul(u, v) for v in range(n)]
    return next((v for v in compress(range(n), map(one.__eq__, row))
                 if ring.mul(v, u) == one), None)


def units(ring: FiniteRing) -> list[int]:
    """All two-sided invertible elements, ascending."""
    return [u for u in ring.elements() if _inverse(ring, u) is not None]


def unit_inverse(ring: FiniteRing, u: int) -> int:
    v = _inverse(ring, u)
    if v is None:
        raise ValueError(f"element {u} is not a unit of {ring.name}")
    return v


# ---------------------------------------------------------------------------
# automorphisms

class RingAut:
    """A ring automorphism stored as the image array of every element."""

    __slots__ = ("ring", "perm")

    def __init__(self, ring: FiniteRing, perm, validate: bool = False):
        self.ring = ring
        self.perm = tuple(perm)
        if validate:
            self.validate()

    def validate(self) -> None:
        """Raise RingAxiomError unless ``perm`` is a ring automorphism.

        A tabled ring is checked one row at a time: perm carries row a of
        each table onto the row of perm[a], permuted by perm.  The first
        failing row is rescanned pair by pair, so the message names the
        first failing pair (a, b) and law, as a plain scan does.
        """
        ring, perm = self.ring, self.perm
        n = ring.size
        if len(perm) != n or set(perm) != set(range(n)):
            raise RingAxiomError("automorphism image array is not a bijection")
        if perm[ring.one] != ring.one:
            raise RingAxiomError("automorphism does not fix 1")
        A, M = ring._add_rows, ring._mul_rows
        first = 0
        if A is not None:
            image = perm.__getitem__
            first = next((a for a, p in enumerate(perm)
                          if list(map(image, A[a])) != list(map(A[p].__getitem__, perm))
                          or list(map(image, M[a])) != list(map(M[p].__getitem__, perm))),
                         n)
        for a in range(first, n):
            for b in range(n):
                if perm[ring.add(a, b)] != ring.add(perm[a], perm[b]):
                    raise RingAxiomError(f"automorphism not additive at ({a},{b})")
                if perm[ring.mul(a, b)] != ring.mul(perm[a], perm[b]):
                    raise RingAxiomError(f"automorphism not multiplicative at ({a},{b})")

    def apply(self, a: int) -> int:
        return self.perm[a]

    def compose(self, other: "RingAut") -> "RingAut":
        # (self @ other)(x) = self(other(x))
        return RingAut(self.ring, tuple(self.perm[p] for p in other.perm))

    def inverse(self) -> "RingAut":
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p] = i
        return RingAut(self.ring, tuple(inv))

    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))

    def order(self) -> int:
        k, acc = 1, self
        ident = identity_automorphism(self.ring)
        while acc.perm != ident.perm:
            acc = acc.compose(self)
            k += 1
        return k

    def __eq__(self, other):
        return isinstance(other, RingAut) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"RingAut({self.ring.name}, {self.perm})"


def identity_automorphism(ring: FiniteRing) -> RingAut:
    return RingAut(ring, tuple(range(ring.size)))


def swap_automorphism(ring: FiniteRing) -> RingAut:
    """Coordinate swap on a product ring with equal square factors.

    Only valid when the ring was built as product_ring(a, a); validated.
    """
    n = ring.size
    bs = int(round(n ** 0.5))
    if bs * bs != n:
        raise RingAxiomError(f"{ring.name} is not a square product; swap undefined")
    perm = [(x % bs) * bs + (x // bs) for x in range(n)]
    return RingAut(ring, perm, validate=True)


def inner_automorphism(ring: FiniteRing, u: int) -> RingAut:
    """Conjugation x -> u*x*u^-1 by the unit ``u``."""
    ui = unit_inverse(ring, u)
    perm = [ring.mul(ring.mul(u, x), ui) for x in range(ring.size)]
    return RingAut(ring, perm)


def _additive_order(ring: FiniteRing, a: int) -> int:
    k, acc = 1, a
    while acc != ring.zero:
        acc = ring.add(acc, a)
        k += 1
    return k


def _additive_generators(ring: FiniteRing) -> tuple[int, ...]:
    """A small additive generating set, starting with 1; found once per ring."""
    if ring._additive_gens is None:
        gens = [ring.one]
        span = additive_closure(ring, gens)
        for a in ring.elements():
            if a not in span:
                gens.append(a)
                span = additive_closure(ring, gens)
                if len(span) == ring.size:
                    break
        ring._additive_gens = tuple(gens)
    return ring._additive_gens


def additive_closure(ring: FiniteRing, seed) -> frozenset[int]:
    """Smallest addition-closed subset containing ``seed`` and zero.

    In a finite ring this is the additive subgroup the seed generates
    (negatives are repeated sums).  The span grows one seed at a time: a seed
    g outside the span S extends it to S + <g>, the union of the cosets
    S, S + g, ..., S + (m-1)g where m*g is the first multiple back in S.
    """
    span = {ring.zero}
    for g in seed:
        if g in span:
            continue
        coset, grown, cur = list(span), set(span), g
        while cur not in span:
            coset = [ring.add(x, g) for x in coset]
            grown.update(coset)
            cur = ring.add(cur, g)
        span = grown
    return frozenset(span)


def automorphisms(ring: FiniteRing, cap: int = 64,
                  generators: list[RingAut] | None = None) -> list[RingAut]:
    """The full automorphism group, identity first.

    Exhaustive search up to ``cap`` elements: since any automorphism fixes 1
    and is additive, it is determined by its images on additive generators;
    candidates are extended additively with consistency pruning before the
    multiplicative law is checked on generator pairs.  Above the cap a set of
    generating automorphisms must be supplied and is closed under
    composition.
    """
    if generators is not None:
        return _close_automorphism_group(ring, generators)
    if ring.size > cap:
        raise ValueError(
            f"{ring.name} has {ring.size} elements; raise cap or supply generators")

    gens = _additive_generators(ring)
    found: list[tuple[int, ...]] = []

    # phi maps the current additive span, onto the images in used; extended
    # one generator at a time.
    def extend(idx: int, phi: dict[int, int], used: set[int]):
        if idx == len(gens):
            perm = tuple(phi[a] for a in ring.elements())
            for ga in gens:
                for gb in gens:
                    if phi[ring.mul(ga, gb)] != ring.mul(phi[ga], phi[gb]):
                        return
            found.append(perm)
            return
        g = gens[idx]
        m = 1
        acc = g
        while acc not in phi:
            acc = ring.add(acc, g)
            m += 1
        target = phi[acc]  # image of m*g is forced
        for y in ring.elements():
            # m*y must hit the forced image
            ym = ring.zero
            for _ in range(m):
                ym = ring.add(ym, y)
            if ym != target:
                continue
            ext, ext_used = dict(phi), set(used)
            ok = True
            for x, fx in phi.items():
                cur_src, cur_dst = x, fx
                for _ in range(1, m):
                    cur_src = ring.add(cur_src, g)
                    cur_dst = ring.add(cur_dst, y)
                    if cur_src in ext or cur_dst in ext_used:
                        ok = False
                        break
                    ext[cur_src] = cur_dst
                    ext_used.add(cur_dst)
                if not ok:
                    break
            if ok:
                extend(idx + 1, ext, ext_used)

    base = {ring.zero: ring.zero}
    cur = ring.one
    while cur != ring.zero:
        base[cur] = cur  # span of 1 is fixed pointwise: phi(k*1) = k*phi(1) = k*1
        cur = ring.add(cur, ring.one)
    if len(base) == ring.size:
        found.append(tuple(range(ring.size)))
    else:
        extend(1, base, set(base))

    perms = sorted(set(found))
    ident = tuple(range(ring.size))
    ordered = [ident] + [p for p in perms if p != ident]
    return [RingAut(ring, p) for p in ordered]


def _close_automorphism_group(ring: FiniteRing, generators: list[RingAut]) -> list[RingAut]:
    ident = identity_automorphism(ring)
    for g in generators:
        g.validate()
    seen = {ident.perm: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in generators:
                c = a.compose(g)
                if c.perm not in seen:
                    seen[c.perm] = c
                    nxt.append(c)
        frontier = nxt
    perms = sorted(seen)
    return [ident] + [seen[p] for p in perms if p != ident.perm]

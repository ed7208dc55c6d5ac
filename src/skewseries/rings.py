"""Finite unital rings on element indices, with automorphism machinery.

A ring is a set of element indices ``0..size-1`` together with addition and
multiplication maps.  There are two ways to make one, and every
``FiniteRing`` a caller can hold was checked once, where it was made:

- a table: the public constructor ``FiniteRing(size, add, mul, zero=None,
  one=None, name="ring")``, which ``table_ring`` calls, takes the two
  operation tables, or functions it tabulates on at most ``TABLE_LIMIT``
  elements, and decides the ring from its rows.  Its negatives are read
  off the addition table, so a + (-a) is zero by construction.
- a factory ring, built by ``cyclic_ring``, ``product_ring``,
  ``matrix_ring`` or ``upper_triangular_ring`` at any size through the
  private ``_factory_ring``, the only constructor that takes negatives and
  ``parts``, the rings a ring is built from: () for Z_n, (a, b) for a
  product, (base,) for a matrix or triangular ring.  It is a ring by
  construction: its parts were checked when they were made, and they
  determine its arithmetic, so nothing checks it again.

Either keeps its arithmetic as its own rows of both operation tables, entry
``row[b]``, up to ``TABLE_LIMIT`` = 256 elements, as ``bytes``, where every
element fits in a byte.  Above it a table keeps 16-bit ``array('H')`` rows
and a factory ring functions for + and *.

A table's rows reach ``FiniteRing`` by one path, once per table: the size
cap and the shape check; the rows packed and range-checked in C, each entry
an integer 0..n-1, stored as an int (a bool too), the first that is not
named, row-major, the addition table first; zero and one found when not
given; the negatives.  The factories build their tabled rows in C, and
``_factory_ring`` keeps them as built: slices of ``bytes(range(n))``
repeated for Z_n, blocks of translated component rows for products, and
for matrix and triangular rings the digitwise sum table plus four tables
of partial products between the high-digit and the low-digit parts of two
elements, from which every row follows by translating through the sum
table; a one-cell matrix or triangular ring is its base under another
name.  Larger matrix and triangular rings add through two half-digit
tables and multiply through the partial products, kept as lists.

``validate_ring`` decides a table from its own rows and never calls the
ring's ``add`` or ``mul``: exactly up to ``TABLE_LIMIT``, and above it its
identity and commutativity laws exactly, by whole-row compares in C, and
its triple axioms only on a seeded random sample of triples.
``FiniteRing`` refuses functions above ``TABLE_LIMIT``: a ring on
functions is a factory's.

Every whole-row reader takes its rows from ``FiniteRing.add_row``/``mul_row``:
the unit search (a unit is an element whose row of the product holds 1),
``RingAut.validate``, ``automorphisms`` and the ``ideals`` kernel.
A ring map is an automorphism when it respects + and * on the rows of an
additive generating set: the elements whose rows it respects are closed
under +.  ``RingAut.validate`` and ``automorphisms`` use that argument, so
a ring on functions costs |G|*n products, not n^2.  Every ``RingAut`` a
caller can hold is an automorphism, checked once: the public constructor
always validates, and only maps that are automorphisms by construction
(the identity, compositions and inverses, inner automorphisms and the maps
``automorphisms`` finds) skip the check, through ``RingAut._trusted``.
"""

from __future__ import annotations

import random
import struct
import sys
from array import array
from itertools import islice, product, repeat
from math import gcd, prod
from operator import itemgetter

# Table rows are bytes up to this size and array('H') above it, where the
# factories compute through functions instead.
TABLE_LIMIT = 256

# Every factory refuses to build a ring larger than this.
DEFAULT_SIZE_CAP = 4096

# A table above TABLE_LIMIT elements has its triple axioms checked on this
# many triples, drawn from random.Random(VALIDATION_SEED).
VALIDATION_SAMPLES = 2000
VALIDATION_SEED = 0

# automorphisms lists at most this many maps; |GL4(F2)| = 20160 is admitted.
_AUT_LIST_BOUND = 100_000

# The offset of the low byte of a 16-bit entry in the bytes of an array('H').
_LOW_BYTE = 0 if sys.byteorder == "little" else 1


class RingAxiomError(ValueError):
    """A ring axiom failed; the message carries the first failing triple."""


class AutomorphismBudgetError(ValueError):
    """Aut(R) has more elements than ``automorphisms`` lists; the message
    names the group's order."""


class FiniteRing:
    """A finite unital ring over element indices 0..size-1, validated as it
    is built.

    ``FiniteRing(size, add, mul, zero=None, one=None, name="ring")`` makes a
    table: ``add`` and ``mul`` are lists of rows, or functions of two indices
    tabulated on at most ``TABLE_LIMIT`` elements; functions on more raise
    RingAxiomError naming the factories.  ``_own_tables`` makes the rows the
    ring's own, read directly by ``add``, ``mul``, ``add_row`` and
    ``mul_row``, and finds ``zero`` and ``one`` when not given; each negative
    is read off the addition table.  ``validate_ring`` then decides the ring
    from its rows.

    The factories build their rings through ``_factory_ring`` instead, from
    their rows or functions, negatives, zero, one and ``parts``, the tuple of
    rings they are built from, kept at every size; such a ring is a ring
    because its parts are.  A ring without parts (``_parts`` None) is a
    table.  No public name takes parts, negatives or a skipped validation,
    so every ``FiniteRing`` a caller holds was checked once, where it was
    made: a table by ``validate_ring``, a factory ring through its parts.

    A ``zero`` or ``one`` that is not an element, an int 0..size-1 and not
    a bool, raises RingAxiomError.  Instances are immutable after
    construction and safe to share; the lazily filled slots, the additive
    generating set, its coordinates and the bitsets of the ``ideals``
    kernel, hold the same values whoever fills them.
    """

    __slots__ = ("size", "zero", "one", "name", "_add", "_mul",
                 "_add_rows", "_mul_rows", "_neg_row", "_repr_fn", "_additive_gens",
                 "_additive_coords", "_ideal_bits", "_parts")

    def __init__(self, size: int, add, mul, zero: int | None = None,
                 one: int | None = None, name: str = "ring"):
        self._fill_table(size, add, mul, zero, one, name)
        validate_ring(self)

    def _fill_table(self, size: int, add, mul, zero, one, name: str) -> "FiniteRing":
        """Fill this ring as the table on ``add`` and ``mul``, unvalidated."""
        if callable(add):
            if size > TABLE_LIMIT:
                raise RingAxiomError(
                    f"a ring of {size} > {TABLE_LIMIT} elements is built by cyclic_ring, "
                    "product_ring, matrix_ring, upper_triangular_ring or table_ring")
            add, mul = ([[op(a, b) for b in range(size)] for a in range(size)]
                        for op in (add, mul))
        add, mul, zero, one = _own_tables(size, add, mul, zero, one)
        return self._fill(size, add, mul, _negatives(add, zero), zero, one, name, None, None)

    def _fill(self, size: int, add, mul, negs: list[int], zero: int, one: int, name: str,
              parts, element_repr) -> "FiniteRing":
        """Set every slot: ``add`` and ``mul`` are the ring's rows, or
        functions above ``TABLE_LIMIT``, and ``negs`` the list of negatives."""
        self.size, self.zero, self.one, self.name = size, zero, one, name
        tabled = not callable(add)
        self._add_rows, self._mul_rows = (add, mul) if tabled else (None, None)
        self._add, self._mul = (None, None) if tabled else (add, mul)
        self._neg_row = negs
        self._repr_fn = element_repr
        self._additive_gens = self._additive_coords = self._ideal_bits = None
        self._parts = parts
        return self

    def add(self, a: int, b: int) -> int:
        if self._add_rows is not None:
            return self._add_rows[a][b]
        return self._add(a, b)

    def mul(self, a: int, b: int) -> int:
        if self._mul_rows is not None:
            return self._mul_rows[a][b]
        return self._mul(a, b)

    @property
    def tables(self) -> tuple[list[bytes], list[bytes]] | None:
        """The rows of the (addition, multiplication) tables as ``bytes``,
        entry ``row[b]``, or None above ``TABLE_LIMIT``.  The list is the
        ring's own; callers must not modify it."""
        if self.size > TABLE_LIMIT:
            return None
        return self._add_rows, self._mul_rows

    def add_row(self, a: int):
        """Row a of the addition table: the ring's own row when it is a
        table, ``bytes`` or ``array('H')``, not to be modified, else a list
        computed through ``_add``."""
        if self._add_rows is not None:
            return self._add_rows[a]
        return list(map(self._add, repeat(a, self.size), range(self.size)))

    def mul_row(self, a: int):
        """Row a of the multiplication table, as ``add_row``."""
        if self._mul_rows is not None:
            return self._mul_rows[a]
        return list(map(self._mul, repeat(a, self.size), range(self.size)))

    def neg(self, a: int) -> int:
        return self._neg_row[a]

    def elements(self) -> range:
        return range(self.size)

    def check_element(self, a) -> None:
        """Raise ValueError unless ``a`` is an element index, an int in
        0..size-1 (a negative one would alias another element, and so would
        a bool, which is an int)."""
        if not (type(a) is int and 0 <= a < self.size):
            raise ValueError(f"{a!r} is not an element of {self.name} (0..{self.size - 1})")

    def element_repr(self, a: int) -> str:
        if self._repr_fn is not None:
            return self._repr_fn(a)
        return str(a)

    def __repr__(self) -> str:
        return f"FiniteRing({self.name}, size={self.size})"


def _own_tables(n: int, add_table, mul_table, zero, one) -> tuple:
    """The rows of both tables, zero and one, taken once per table and in
    this order: more than ``DEFAULT_SIZE_CAP`` rows are refused before any
    entry is read, then tables that are not both n-by-n; each table is
    packed into the ring's own rows and range-checked, by ``_byte_rows`` up
    to ``TABLE_LIMIT`` and ``_wide_rows`` above it; ``zero`` and ``one``
    are found when None, as the first row equal to 0..n-1 and the first
    element whose row and column both are, compared whole in C; a given or
    found ``zero`` or ``one`` that is not an element is named."""
    if n > DEFAULT_SIZE_CAP:
        raise RingAxiomError(f"size cap exceeded: {n} > {DEFAULT_SIZE_CAP}")
    if n < 1 or len(add_table) != n or any(len(row) != n for row in add_table) or \
            len(mul_table) != n or any(len(row) != n for row in mul_table):
        raise RingAxiomError("tables must be square and of matching size")
    pack = _byte_rows if n <= TABLE_LIMIT else _wide_rows
    A, M = pack(add_table, n, "add table"), pack(mul_table, n, "mul table")
    ident = _identity_row(A)
    if zero is None:
        zero = next((z for z, row in enumerate(A) if row == ident), None)
        if zero is None:
            raise RingAxiomError("no additive identity found in table")
    if one is None:
        one = next((e for e in range(n) if _is_identity(M, e, ident)), None)
        if one is None:
            raise RingAxiomError("no multiplicative identity found in table")
    for label, e in (("zero", zero), ("one", one)):
        if not (type(e) is int and 0 <= e < n):
            raise RingAxiomError(f"{label} {e!r} is not an element 0..{n - 1}")
    return A, M, zero, one


def _negatives(rows, zero: int) -> list[int]:
    """The first index of ``zero`` in each row of an addition table, its
    rows ``bytes`` or ``array('H')``: the first offset of the zero's bytes
    in the row's bytes that is a multiple of the entry width, found by
    ``bytes.find`` in C."""
    view = memoryview(rows[0])
    mark, width = struct.pack(view.format, zero), view.itemsize
    out = []
    for a, row in enumerate(rows):
        packed = bytes(row)
        at = packed.find(mark)
        while at > 0 and at % width:
            at = packed.find(mark, at + 1)
        if at < 0:
            raise RingAxiomError(f"element {a} has no additive inverse")
        out.append(at // width)
    return out


def _byte_rows(table, n: int, label: str) -> list[bytes]:
    """The rows of a table of at most 256 elements as ``bytes``, after
    checking in C that every entry is an element 0..n-1; ``_check_entries``
    names the first that is not.  Rows that are ``bytes`` already are kept."""
    try:
        rows = list(map(bytes, table))
    except (TypeError, ValueError):  # an entry that is not a byte
        rows = None
    # deleting every byte 0..n-1 leaves the entries that are not elements
    if rows is None or b"".join(rows).translate(None, bytes(range(n))):
        _check_entries(table, n, label)
    return rows


def _wide_rows(table, n: int, label: str) -> list[array]:
    """The rows of a table of more than 256 elements as ``array('H')``, each
    packed from the caller's row in C by one ``struct`` call, after checking
    in C that every entry is an element 0..n-1; ``_check_entries`` names the
    first that is not.

    The pack refuses an entry that is not an integer 0..65535 and stores any
    integer, a bool too, as an int.  Entry hi*256 + lo exceeds
    n - 1 = top_hi*256 + top_lo exactly when hi > top_hi, or hi == top_hi
    and lo > top_lo.  ``bytes.translate`` maps the high bytes of a row to
    the flags 0, 1, 3 (below, at, above top_hi) and its low bytes to 2, 3
    (at most, above top_lo), so the two flag strings, read as integers,
    share a bit exactly where an entry is out of range.
    """
    pack = struct.Struct(f"={n}H").pack
    top_hi, top_lo = divmod(n - 1, 256)
    hi_flags = bytes(0 if h < top_hi else 1 if h == top_hi else 3 for h in range(256))
    lo_flags = bytes(2 if lo <= top_lo else 3 for lo in range(256))

    def out_of_range(row) -> int:
        packed = row.tobytes()
        return (int.from_bytes(packed[1 - _LOW_BYTE::2].translate(hi_flags), "little")
                & int.from_bytes(packed[_LOW_BYTE::2].translate(lo_flags), "little"))

    try:
        rows = [array("H", pack(*row)) for row in table]
    except struct.error:  # an entry that is not an integer 0..65535
        rows = None
    if rows is None or any(map(out_of_range, rows)):
        _check_entries(table, n, label)
    return rows


def _columns(rows) -> list:
    """The columns of a square table, strided slices of its joined rows,
    each compared with a row in C: ``bytes`` for ``bytes`` rows, views of
    16-bit entries for ``array('H')`` rows."""
    flat, n = b"".join(rows), len(rows)
    if isinstance(rows[0], bytes):
        return [flat[c::n] for c in range(n)]
    view = memoryview(flat).cast("H")
    return [view[c::n] for c in range(n)]


def validate_ring(ring: FiniteRing) -> None:
    """Check the ring axioms of a table, raising RingAxiomError on the first
    violation.

    ``FiniteRing`` runs this on every table it builds, so a caller never
    needs to.  A factory ring passes at once, tabled or not: it is a ring
    because its parts are, and each part was checked when it was made.
    Its parts are () for Z_n, whose + and * are mod n; (a, b) for a
    product, a ring exactly when both factors are; (base,) for a matrix or
    triangular ring, a ring exactly when its base is (see ``_cell_ring``).

    A table is checked from its own rows, whose entries, zero and one
    ``FiniteRing`` has already checked to be elements, and whose negatives
    it read off the addition table, so that a + (-a) is zero by
    construction.  The identity and commutativity laws are whole-row and
    whole-column compares in C; only when an identity law fails does the
    element-by-element scan run, to name the first failure.  Up to
    ``TABLE_LIMIT`` the triple-quantified axioms (associativity of both
    operations and both distributive laws) are checked exactly, from a
    generating set of the additive group (``_triple_axioms_hold``), and a
    table that fails them is reported at its first failing triple in
    lexicographic order, with its first failing axiom (``_check_blocks``).
    Above it they are checked on ``VALIDATION_SAMPLES`` triples drawn from
    seed ``VALIDATION_SEED``, a sample, not a proof.  No rule calls the
    ring's ``add`` or ``mul``.
    """
    if ring._parts is not None:
        return
    n, A, M, zero, one = ring.size, ring._add_rows, ring._mul_rows, ring.zero, ring.one
    acol, ident = _columns(A), _identity_row(A)
    if not (A[zero] == acol[zero] == ident and _is_identity(M, one, ident)):
        for a in range(n):
            if A[zero][a] != a or A[a][zero] != a:
                raise RingAxiomError(f"additive identity fails at {a}")
            if M[one][a] != a or M[a][one] != a:
                raise RingAxiomError(f"multiplicative identity fails at {a}")
    if acol != A:
        _check_commutative(A, "addition")
    if n > TABLE_LIMIT:
        _check_triples(A, M, _sample_triples(n, VALIDATION_SAMPLES, VALIDATION_SEED))
        return
    tables = _byte_tables(A, M)
    if not _triple_axioms_hold(tables, _additive_generators(ring)):
        _check_blocks(tables)


def _identity_row(rows):
    """The row 0..n-1, of the type of ``rows``' rows: ``bytes`` or
    ``array('H')``."""
    n = len(rows)
    return bytes(range(n)) if isinstance(rows[0], bytes) else array("H", range(n))


def _is_identity(M, e: int, ident) -> bool:
    """Whether row e and column e of the table ``M`` both equal ``ident``,
    its row 0..n-1; the row is compared whole, the column read by
    ``itemgetter``, both in C."""
    return M[e] == ident and list(map(itemgetter(e), M)) == list(ident)


def _check_commutative(S, label: str) -> None:
    """Raise RingAxiomError at the first (x, y) in row-major order with
    S[x][y] != S[y][x]; it has x < y, since (y, x) fails too.  Each row is
    compared with its column in C."""
    for x, (row, col) in enumerate(zip(S, zip(*S))):
        if tuple(row) != col:
            y = next(y for y, (p, q) in enumerate(zip(row, col)) if p != q)
            raise RingAxiomError(f"{label} not commutative at ({x},{y})")


def _byte_tables(A, M) -> tuple:
    """The tables of a ring of at most 256 elements, given as lists of
    ``bytes`` rows, in the form the C-level checks read.

    Returns the rows of A, the rows and the columns of M, and each of those
    three lists padded to the 256 entries ``bytes.translate`` wants: with
    ``add_by[x]`` mapping y to x+y, ``mul_by[x]`` y to x*y and ``by_mul[c]``
    y to y*c, ``r.translate(t)`` is the row or column c -> t[r[c]], built
    and compared in C.
    """
    n = len(A)
    mflat = b"".join(M)
    mcol = [mflat[c::n] for c in range(n)]
    pad = bytes(256 - n)
    return (A, M, mcol, [row + pad for row in A], [row + pad for row in M],
            [col + pad for col in mcol])


def _triple_axioms_hold(tables, gens) -> bool:
    """Whether the triple axioms hold on a table, given the identity, inverse
    and commutativity laws of + and a set ``gens`` whose sums reach every
    element; exact, in O(|G|*n) row operations.

    G generates (R,+), so every element is a sum of generators.
    - + is associative when (x+g)+y == x+(g+y) for all x, y and g in G
      (Light's test): the a with x+(a+y) == (x+a)+y for all x, y are closed
      under +, and contain G.
    - Then y -> a*y and y -> y*c are additive when a*(g+y) == a*g + a*y and
      (g+y)*c == g*c + y*c for all a, c, y and g in G: the u with
      a*(u+y) == a*u + a*y for all y are closed under +, and so on the right.
    - Then (ab)c - a(bc) is additive in each of a, b and c, so it vanishes
      when it vanishes on G^3.
    """
    arow, mrow, mcol, add_by, mul_by, by_mul = tables
    return (all(arow[ax[g]] == arow[g].translate(t)
                for g in gens for ax, t in zip(arow, add_by))
            and all(arow[g].translate(t) == ma.translate(add_by[ma[g]])
                    for g in gens for ma, t in zip(mrow, mul_by))
            and all(arow[g].translate(t) == mc.translate(add_by[mc[g]])
                    for g in gens for mc, t in zip(mcol, by_mul))
            and all(mrow[mrow[a][b]][c] == mrow[a][mrow[b][c]]
                    for a in gens for b in gens for c in gens))


def _check_blocks(tables) -> None:
    """The triple axioms on every triple, in lexicographic order, one block
    (a, *, *) at a time with each axiom compared a whole row or column at
    once; the first failing block is rescanned triple by triple."""
    arow, mrow, mcol, add_by, mul_by, by_mul = tables
    n = len(arow)
    for a in range(n):
        Aa, Ma = arow[a], mrow[a]
        # over c for each b: (a+b)+c, (ab)c and a(b+c); over b for each c:
        # (a+b)c
        if not (all(arow[Aa[b]] == rb.translate(add_by[a])
                    and mrow[Ma[b]] == mb.translate(mul_by[a])
                    and rb.translate(mul_by[a]) == Ma.translate(add_by[Ma[b]])
                    for b, (rb, mb) in enumerate(zip(arow, mrow)))
                and all(Aa.translate(by_mul[c]) == mcol[c].translate(add_by[Ma[c]])
                        for c in range(n))):
            _check_triples(arow, mrow, product((a,), range(n), range(n)))


def _sample_triples(n: int, samples: int, seed: int):
    """``samples`` seeded random triples of elements 0..n-1, drawn in C.

    The draws are those of ``random.Random(seed).randrange(n)``, which takes
    the first ``getrandbits(n.bit_length())`` value below n.
    """
    rng = random.Random(seed)
    draws = islice(filter(n.__gt__, map(rng.getrandbits, repeat(n.bit_length()))),
                   3 * samples)
    return zip(draws, draws, draws)


def _check_triples(A, M, triples) -> None:
    """The triple-quantified axioms on the rows ``A`` and ``M`` of the
    addition and multiplication tables, one triple and one axiom at a time."""
    for a, b, c in triples:
        if A[A[a][b]][c] != A[a][A[b][c]]:
            raise RingAxiomError(f"addition not associative at ({a},{b},{c})")
        if M[M[a][b]][c] != M[a][M[b][c]]:
            raise RingAxiomError(f"multiplication not associative at ({a},{b},{c})")
        if M[a][A[b][c]] != A[M[a][b]][M[a][c]]:
            raise RingAxiomError(f"left distributivity fails at ({a},{b},{c})")
        if M[A[a][b]][c] != A[M[a][c]][M[b][c]]:
            raise RingAxiomError(f"right distributivity fails at ({a},{b},{c})")


# ---------------------------------------------------------------------------
# factories

def _factory_ring(size: int, add, mul, negs: list[int], zero: int, one: int, name: str,
                  parts: tuple, element_repr=None) -> FiniteRing:
    """The one constructor of the factories' rings: ``add`` and ``mul`` are
    their rows, kept as built, or functions above ``TABLE_LIMIT``; ``negs``
    lists the negatives and ``parts`` the rings the ring is built from.  It
    checks nothing: the parts were checked when they were made, and they
    determine the ring's arithmetic, negatives, zero and one, so the ring is
    valid by construction; ``element_repr`` prints an element."""
    return FiniteRing.__new__(FiniteRing)._fill(size, add, mul, negs, zero, one, name, parts,
                                                element_repr)


def cyclic_ring(n: int) -> FiniteRing:
    """The ring of integers modulo n.  n=1 gives the zero ring.

    Up to ``TABLE_LIMIT`` the rows are slices in C: row a of the sum table
    is [a : a+n] of ``bytes(range(n)) * 2``, and row a of the product table
    is [0 : a*n : a] of ``bytes(range(n)) * n``, whose entry k is k mod n,
    so its entry b is a*b mod n.
    """
    if type(n) is not int:
        raise RingAxiomError(f"a modulus must be an int, got {n!r}")
    if n < 1:
        raise RingAxiomError("empty ring: modulus must be at least 1")
    if n > DEFAULT_SIZE_CAP:
        raise RingAxiomError(f"size cap exceeded: {n} > {DEFAULT_SIZE_CAP}")
    if n <= TABLE_LIMIT:
        twice, residues = bytes(range(n)) * 2, bytes(range(n)) * n
        add = [twice[a:a + n] for a in range(n)]
        mul = [residues[0:a * n:a] if a else bytes(n) for a in range(n)]
    else:
        def add(a, b):
            return (a + b) % n

        def mul(a, b):
            return (a * b) % n

    return _factory_ring(n, add, mul, [0, *range(n - 1, 0, -1)], 0, 1 % n, f"Z{n}", ())


def _product_rows(P, Q) -> list[bytes]:
    """The table of a product of at most 256 elements from the component
    tables ``P`` and ``Q``, all as ``bytes`` rows.

    Entry (i*qs + j, i2*qs + j2) is P[i][i2]*qs + Q[j][j2], with qs = |Q|:
    row i*qs + j is the blocks p*qs + Q[j] for p = P[i][i2], in the order
    of i2.  Each block is Q[j] translated by p*qs, and each row is one join.
    """
    qs = len(Q)
    shifts = [bytes(range(p * qs, p * qs + qs)).ljust(256, b"\0") for p in range(len(P))]
    blocks = [[Qj.translate(shift) for shift in shifts] for Qj in Q]
    return [b"".join(map(by_p.__getitem__, Pi)) for Pi in P for by_p in blocks]


def product_ring(a: FiniteRing, b: FiniteRing) -> FiniteRing:
    """Direct product with componentwise operations; index = i*b.size + j."""
    size = a.size * b.size
    if size > DEFAULT_SIZE_CAP:
        raise RingAxiomError(f"size cap exceeded: {size} > {DEFAULT_SIZE_CAP}")
    bs = b.size

    def enc(i, j):
        return i * bs + j

    if size <= TABLE_LIMIT:
        add = _product_rows(a._add_rows, b._add_rows)
        mul = _product_rows(a._mul_rows, b._mul_rows)
    else:
        def add(x, y):
            return enc(a.add(x // bs, y // bs), b.add(x % bs, y % bs))

        def mul(x, y):
            return enc(a.mul(x // bs, y // bs), b.mul(x % bs, y % bs))
    negs = [i * bs + j for i in a._neg_row for j in b._neg_row]
    return _factory_ring(
        size, add, mul, negs, enc(a.zero, b.zero), enc(a.one, b.one), f"{a.name}x{b.name}",
        (a, b), lambda x: f"({a.element_repr(x // bs)},{b.element_repr(x % bs)})")


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


def _cell_ring(base: FiniteRing, k: int, triangular: bool) -> FiniteRing:
    """The k-by-k matrices over ``base``, all of them or the upper triangular
    ones, under the matrix operations.  Their ``cells``, the positions
    (i, j) that may be nonzero, are closed under the matrix product and hold
    the diagonal.

    The size is base.size ** ncells, refused above ``DEFAULT_SIZE_CAP``
    before the cells are listed or the power is formed: more cells than the
    cap are refused from their count, and over a base of two or more
    elements so are 13 or more, since 2 ** 13 > 4096.

    An element packs its entries as base-``base.size`` digits, the entry at
    ``cells[t]`` the t-th least significant.  Entry (i, j) of a product is
    the sum of x[i,t]*y[t,j] over the t, ascending, with both cells present;
    an entry off ``cells`` prints as 0.

    The cells split into a low half of L values and a high half, so that
    x = hi + lo, where hi keeps the high cells of x and lo the low ones, each
    padded with the base's zero (which need not be index 0).  Addition adds
    the halves in their own tables.  The product is additive in each factor,
    so x*y = hi*hi' + hi*lo' + lo*hi' + lo*lo' for y = hi' + lo', and the
    four tables of partial products, (L + size/L)**2 cell products in all,
    give every product.  A tabled row of x is assembled from x*hi' and x*lo'
    in C: for each x*hi', the bytes of every x*lo' translated through its
    padded row of the addition table.  Above ``TABLE_LIMIT`` a product is
    four lookups and three additions, in tables kept as lists.  The
    negatives are the base's, cell by cell.

    At every size the ring is built with ``parts=(base,)``: the matrices
    over a ring B on a set of cells that holds the diagonal and is closed
    under the product form a subring of M_k(B), whose corner E11*R*E11 is
    B, so it is a ring exactly when B is, and the rows or functions compute
    that product, x*y being bilinear when B is a ring.

    One cell is the base itself: the ring keeps the base's rows, or its
    functions, and its negatives, with the base's indices, zero and one,
    names ``parts=(base,)`` like every other cell ring, and prints an
    element x as [[x]].  With two or more cells the ring has at most 4096
    elements, so the base has at most 64 and is tabled.
    """
    if type(k) is not int:
        raise RingAxiomError(f"a matrix ring needs an int k, got {k!r}")
    if k < 1:
        raise RingAxiomError(f"a matrix ring needs k >= 1, got {k}")
    bs, ncells = base.size, k * (k + 1) // 2 if triangular else k * k
    if ncells > DEFAULT_SIZE_CAP:
        raise RingAxiomError(f"size cap exceeded: {ncells} cells > {DEFAULT_SIZE_CAP}")
    if bs > 1 and ncells >= DEFAULT_SIZE_CAP.bit_length():
        raise RingAxiomError(f"size cap exceeded: {bs}^{ncells} > {DEFAULT_SIZE_CAP}")
    size = bs ** ncells
    if size > DEFAULT_SIZE_CAP:
        raise RingAxiomError(f"size cap exceeded: {size} > {DEFAULT_SIZE_CAP}")
    cells = [(i, j) for i in range(k) for j in range(i if triangular else 0, k)]
    name = f"{'T' if triangular else 'M'}{k}({base.name})"
    if ncells == 1:
        return _factory_ring(bs, base._add_rows or base._add, base._mul_rows or base._mul,
                             base._neg_row, base.zero, base.one, name, (base,),
                             lambda x: f"[[{base.element_repr(x)}]]")
    pos = {c: t for t, c in enumerate(cells)}
    terms = [[(pos[i, t], pos[t, j]) for t in range(k) if (i, t) in pos and (t, j) in pos]
             for i, j in cells]
    digit_sum, digit_product = base.tables

    def sums(count):
        """The cellwise sum table of vectors of ``count`` cells, as ``bytes``
        rows."""
        table = [b"\0"]
        for _ in range(count):
            table = _product_rows(digit_sum, table)
        return table

    low = ncells // 2
    L = bs ** low
    hi_sum, lo_sum = sums(ncells - low), sums(low)

    def cell_product(xd, yd):
        out = []
        for ts in terms:
            acc = base.zero
            for p, q in ts:
                acc = digit_sum[acc][digit_product[xd[p]][yd[q]]]
            out.append(acc)
        return _undigits(out, bs)

    def products(xs, ys):
        """The table of x*y for x in xs and y in ys, one cell product each."""
        xds, yds = ([_digits(x, bs, ncells) for x in zs] for zs in (xs, ys))
        return [[cell_product(xd, yd) for yd in yds] for xd in xds]

    zero_lo = _undigits([base.zero] * low, bs)
    zero_hi = _undigits([base.zero] * (ncells - low), bs) * L
    # element i*L + l is highs[i] + lows[l]
    highs, lows = range(zero_lo, size, L), range(zero_hi, zero_hi + L)
    hh, hl = products(highs, highs), products(highs, lows)
    lh, ll = products(lows, highs), products(lows, lows)
    negs = [0]
    for _ in range(ncells):  # the negatives of one more cell, the most significant
        negs = [d * len(negs) + r for d in base._neg_row for r in negs]
    if size <= TABLE_LIMIT:
        add = _product_rows(hi_sum, lo_sum)
        padded = [row.ljust(256, b"\0") for row in add]
        mul = []
        for x in range(size):
            i, l = divmod(x, L)
            # x times each high part and each low part; x*y is their sum
            by_hi = [add[p][q] for p, q in zip(hh[i], lh[l])]
            by_lo = bytes([add[p][q] for p, q in zip(hl[i], ll[l])])
            mul.append(b"".join([by_lo.translate(padded[p]) for p in by_hi]))
    else:
        hi_sum, lo_sum = ([list(row) for row in S] for S in (hi_sum, lo_sum))

        def add(x, y):
            return hi_sum[x // L][y // L] * L + lo_sum[x % L][y % L]

        def mul(x, y):
            i, l = divmod(x, L)
            j, m = divmod(y, L)
            return add(add(hh[i][j], hl[i][m]), add(lh[l][j], ll[l][m]))

    def element_repr(x):
        ds = _digits(x, bs, ncells)
        return "[" + ",".join(
            "[" + ",".join(base.element_repr(ds[pos[i, j]]) if (i, j) in pos else "0"
                           for j in range(k)) + "]"
            for i in range(k)) + "]"

    one = _undigits([base.one if i == j else base.zero for i, j in cells], bs)
    return _factory_ring(size, add, mul, negs, zero_hi + zero_lo, one, name, (base,),
                         element_repr)


def matrix_ring(base: FiniteRing, k: int) -> FiniteRing:
    """Full k-by-k matrix ring over ``base``; entries packed row-major."""
    return _cell_ring(base, k, False)


def upper_triangular_ring(base: FiniteRing, k: int) -> FiniteRing:
    """Upper triangular k-by-k matrices over ``base``.

    Cells (i,j) with i <= j are packed in row-major order of the upper
    triangle, so size = base.size ** (k*(k+1)/2).
    """
    return _cell_ring(base, k, True)


def _check_entries(table, n: int, label: str) -> None:
    """Raise RingAxiomError unless every entry of ``table`` is an element 0..n-1."""
    elements = frozenset(range(n))
    for a, row in enumerate(table):
        # an int is an element when it is one of 0..n-1, tested by hashing
        if not (all(map(isinstance, row, repeat(int))) and elements.issuperset(row)):
            b, x = next((b, x) for b, x in enumerate(row)
                        if not (isinstance(x, int) and 0 <= x < n))
            raise RingAxiomError(
                f"{label} entry {x!r} at ({a},{b}) is not an element 0..{n - 1}")


def table_ring(add_table, mul_table, zero: int | None = None,
               one: int | None = None, name: str = "table") -> FiniteRing:
    """Build a ring from explicit operation tables, validated as it is
    built: the public ``FiniteRing`` constructor on n = ``len(add_table)``
    elements, which every ring that is not a factory's goes through.

    More than ``DEFAULT_SIZE_CAP`` rows, or tables that are not both
    n-by-n, are refused before any entry is read.  Every entry must be an
    element index 0..n-1, an integer, stored as an int; the first that is
    not, row-major and the addition table first, raises RingAxiomError.
    The ring keeps its own copy of the tables: ``bytes`` rows up to
    ``TABLE_LIMIT``, above it ``array('H')`` rows, each packed from the
    caller's row in C and range-checked on its bytes.  ``zero`` and ``one``
    are found when not given, and a given one that is not an element raises
    RingAxiomError.  Each negative is the first index of zero in its row of
    the sum table; a row without one raises RingAxiomError.  Up to
    ``TABLE_LIMIT`` every axiom is checked exactly.  Above it every law but
    the triple axioms is, and those only on ``VALIDATION_SAMPLES`` seeded
    triples, so a table that breaks associativity or distributivity on a
    few triples may pass.
    """
    return FiniteRing(len(add_table), add=add_table, mul=mul_table, zero=zero, one=one,
                      name=name)


def _unvalidated_table(size: int, add, mul, zero: int | None = None,
                       one: int | None = None) -> FiniteRing:
    """The table ``FiniteRing(size, add, mul, zero, one)`` builds, with its
    negatives read off its rows, before ``validate_ring`` runs: the tests
    hand the checks tables that break an axiom through it."""
    return FiniteRing.__new__(FiniteRing)._fill_table(size, add, mul, zero, one, "ring")


# ---------------------------------------------------------------------------
# elements of interest

def idempotents(ring: FiniteRing) -> list[int]:
    """All x with x*x == x, in ascending index order."""
    return [x for x in ring.elements() if ring.mul(x, x) == x]


def units(ring: FiniteRing) -> list[int]:
    """All invertible elements, ascending: the u whose row of the product
    holds 1.

    A one-sided inverse is two-sided in a finite ring.  If u*v == 1, then
    x -> v*x is injective (v*x == v*y gives x == u*v*x == u*v*y == y), hence
    onto, so v*w == 1 for some w, and w == u*v*w == u; so v*u == 1.  The
    units of a factory product, at every size, are the pairs of the
    factors' units, index u_a*|b| + u_b, listed in ascending order without
    a product of the ring; those of a one-cell matrix or triangular ring
    are its base's.
    """
    parts = ring._parts or ()
    if len(parts) == 1 and parts[0].size == ring.size:
        return units(parts[0])
    if len(parts) == 2:
        a, b = parts
        of_b = units(b)
        return [u * b.size + v for u in units(a) for v in of_b]
    return [u for u in ring.elements() if ring.one in ring.mul_row(u)]


def unit_inverse(ring: FiniteRing, u: int) -> int:
    """The inverse of the unit u, the position of 1 in its row of the
    product (two-sided, see ``units``); ValueError when u is not an element
    or not a unit."""
    ring.check_element(u)
    row = ring.mul_row(u)
    if ring.one not in row:
        raise ValueError(f"element {u} is not a unit of {ring.name}")
    return row.index(ring.one)


# ---------------------------------------------------------------------------
# automorphisms

class RingAut:
    """A ring automorphism stored as the image array of every element.

    ``RingAut(ring, perm)`` always validates ``perm`` and raises
    RingAxiomError unless it is an automorphism of ``ring``.  The private
    ``RingAut._trusted`` skips the check, for maps that are automorphisms by
    construction: ``identity_automorphism``, ``compose`` and ``inverse``,
    ``inner_automorphism`` and the maps ``automorphisms`` finds.  So every
    ``RingAut`` a caller holds was checked once, where it was made.

    Two maps are equal when they are maps of one ring instance with the same
    image array; maps of two rings are never equal.
    """

    __slots__ = ("ring", "perm")

    def __init__(self, ring: FiniteRing, perm):
        self.ring = ring
        self.perm = tuple(perm)
        self.validate()

    @classmethod
    def _trusted(cls, ring: FiniteRing, perm) -> "RingAut":
        """The map ``perm`` of ``ring``, unchecked: it must be an
        automorphism by construction."""
        aut = object.__new__(cls)
        aut.ring, aut.perm = ring, tuple(perm)
        return aut

    def validate(self) -> None:
        """Raise RingAxiomError unless ``perm`` is a ring automorphism.

        ``perm`` is a bijection when it lists every element index once, each
        an int (not a bool, nor a float equal to one).  Row a holds when
        perm carries row a of each table onto the row of perm[a], permuted
        by perm: phi(a+b) == phi(a)+phi(b) and phi(ab) == phi(a)phi(b) for
        every b.  Only the rows a in G = ``_additive_generators(ring)`` are
        tested, which is exact: the a whose additive row holds are closed
        under + and contain G, so they are all of R; given additivity, so
        are the a whose multiplicative row holds.  The rows come from
        ``add_row``/``mul_row``, compared in C on a tabled ring: |G|*n pairs
        instead of n^2.  Only when a generator row fails are the rows
        scanned in order, and the first failing row pair by pair, so the
        message names the first failing pair (a, b) and law, as a plain scan
        does; that failure path costs the n^2 it always has.
        """
        ring, perm = self.ring, self.perm
        n = ring.size
        if len(perm) != n or set(map(type, perm)) != {int} or set(perm) != set(range(n)):
            raise RingAxiomError("automorphism image array is not a bijection")
        if perm[ring.one] != ring.one:
            raise RingAxiomError("automorphism does not fix 1")
        image = perm.__getitem__

        def row_holds(a):
            return all(list(map(image, row(a))) == list(map(row(perm[a]).__getitem__, perm))
                       for row in (ring.add_row, ring.mul_row))

        if all(map(row_holds, _additive_generators(ring))):
            return
        a = next(a for a in range(n) if not row_holds(a))
        for b in range(n):
            if perm[ring.add(a, b)] != ring.add(perm[a], perm[b]):
                raise RingAxiomError(f"automorphism not additive at ({a},{b})")
            if perm[ring.mul(a, b)] != ring.mul(perm[a], perm[b]):
                raise RingAxiomError(f"automorphism not multiplicative at ({a},{b})")

    def apply(self, a: int) -> int:
        """The image of ``a``; ValueError when it is not an element."""
        self.ring.check_element(a)
        return self.perm[a]

    def compose(self, other: "RingAut") -> "RingAut":
        """x -> self(other(x)); ValueError when ``other`` is not an
        automorphism of the same ring."""
        if other.ring is not self.ring:
            raise ValueError("cannot compose automorphisms of different rings")
        return RingAut._trusted(self.ring, map(self.perm.__getitem__, other.perm))

    def inverse(self) -> "RingAut":
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p] = i
        return RingAut._trusted(self.ring, inv)

    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))

    def __eq__(self, other):
        return isinstance(other, RingAut) and self.ring is other.ring and self.perm == other.perm

    def __hash__(self):
        return hash((id(self.ring), self.perm))

    def __repr__(self):
        return f"RingAut({self.ring.name}, {self.perm})"


def identity_automorphism(ring: FiniteRing) -> RingAut:
    return RingAut._trusted(ring, range(ring.size))


def swap_automorphism(ring: FiniteRing) -> RingAut:
    """Coordinate swap on a product ring with equal square factors.

    Only valid when the ring was built as product_ring(a, a); validated.
    """
    n = ring.size
    bs = int(round(n ** 0.5))
    if bs * bs != n:
        raise RingAxiomError(f"{ring.name} is not a square product; swap undefined")
    perm = [(x % bs) * bs + (x // bs) for x in range(n)]
    return RingAut(ring, perm)


def inner_automorphism(ring: FiniteRing, u: int) -> RingAut:
    """Conjugation x -> u*x*u^-1 by the unit ``u``, an automorphism since
    ``unit_inverse`` checks that u is a unit."""
    ui = unit_inverse(ring, u)
    perm = [ring.mul(ring.mul(u, x), ui) for x in range(ring.size)]
    return RingAut._trusted(ring, perm)


def _additive_generators(ring: FiniteRing) -> tuple[int, ...]:
    """A small additive generating set: ``_span_search`` from 1, once per ring."""
    if ring._additive_gens is None:
        ring._additive_gens = _span_search(ring, ring.one)
    return ring._additive_gens


def _span_search(ring: FiniteRing, first: int) -> tuple[int, ...]:
    """``first`` (-1: the lowest element other than zero), then each element,
    in index order, that sums of the generators so far do not reach.  The
    sums are found breadth-first from zero through x -> x + g, each element
    meeting each generator once.  A generator a left unreached has
    zero + a != a, and raises RingAxiomError instead of being chosen again."""
    add = ring.add
    inside = bytearray(ring.size)
    inside[ring.zero] = 1
    reached, gens = [ring.zero], []
    a = inside.find(0) if first < 0 else first
    while a >= 0:
        gens.append(a)
        # what is reached already meets a; a new sum meets every generator
        todo = [(x, (a,)) for x in reached]
        while todo:
            x, step = todo.pop()
            for g in step:
                y = add(x, g)
                if not inside[y]:
                    inside[y] = 1
                    reached.append(y)
                    todo.append((y, gens))
        if not inside[a]:
            raise RingAxiomError(f"additive identity fails at {a}")
        a = inside.find(0)
    return tuple(gens)


def _additive_coordinates(ring: FiniteRing) -> tuple:
    """(orders, coordinates, elements, products, term_bound) of a ring of
    at most ``TABLE_LIMIT`` elements, read off ``ring.tables``, over the
    generators g_0..g_{K-1} that ``_span_search`` finds from the lowest
    element other than zero, or from 1 where that gives fewer coordinate
    vectors, found once per ring.

    g_k has additive order orders[k] = d_k.  coordinates[k][r] is x_k(r),
    where x(r) is the first vector, in mixed-radix order, with
    0 <= x_k(r) < d_k and sum_k x_k(r) * g_k = r; each coordinate table is
    padded to the 256 bytes ``bytes.translate`` wants.  elements[sum_k a_k * P_k],
    P_k = d_0 * ... * d_{k-1}, is sum_k a_k * g_k for every such vector a.
    On a factory ring the generators are a direct-sum basis (the idempotents
    of F2xF2, the matrix units of M2(F2)); on a relabelled table they need
    not be, and d_0 * ... * d_{K-1} may exceed the ring's size.
    products[i][j] is the coordinate vector x(g_i * g_j), and term_bound is
    max_k sum_{i,j} x_k(g_i * g_j) * (d_i - 1) * (d_j - 1), a bound on
    sum_{i,j} x_i(a) x_j(b) x_k(g_i * g_j) over all elements a, b and all k.
    """
    if ring._additive_coords is None:
        plus = ring.tables[0]
        zero = ring.zero
        def multiples(g):
            ms = [zero]
            while (m := plus[ms[-1]][g]) != zero:
                ms.append(m)
            return ms
        # the search from 1 where it gives fewer vectors, the lowest on a tie
        run = min(([multiples(g) for g in gens] for gens in
                   (_span_search(ring, -1), _additive_generators(ring))),
                  key=lambda run: prod(map(len, run)))
        gens, orders, elements = [ms[1] for ms in run], [len(ms) for ms in run], bytes([zero])
        for ms in run:  # block a holds the sums so far plus a * g
            elements = b"".join(elements.translate(plus[m].ljust(256, b"\0")) for m in ms)
        first = [elements.find(r) for r in range(ring.size)]
        coordinates, stride = [], 1
        for d in orders:
            coordinates.append(bytes(first[r] // stride % d
                                     for r in range(ring.size)).ljust(256, b"\0"))
            stride *= d
        times = ring.tables[1]
        products = tuple(tuple(tuple(c[times[a][b]] for c in coordinates) for b in gens)
                         for a in gens)
        term_bound = max((sum(x[k] * (orders[i] - 1) * (orders[j] - 1)
                              for i, row in enumerate(products) for j, x in enumerate(row))
                          for k in range(len(orders))), default=0)
        ring._additive_coords = (tuple(orders), tuple(coordinates), elements, products,
                                 term_bound)
    return ring._additive_coords


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


def _element_invariants(ring: FiniteRing, M) -> list[tuple]:
    """Per element x: (additive order, x*x == x, x*x == 0,
    |{y : x*y = 0}|, |{y : y*x = 0}|), which every automorphism preserves.
    All but the order are read off ``M``, the rows of the multiplication
    table.  The orders take one sum per multiple of each element not reached
    before, since kx has order d / gcd(k, d) when x has order d."""
    n, zero, add = ring.size, ring.zero, ring.add
    order = [0] * n
    order[zero] = 1
    for x in range(n):
        if not order[x]:
            multiples = [x]
            while (m := add(multiples[-1], x)) != zero:
                multiples.append(m)
            d = len(multiples) + 1
            for k, m in enumerate(multiples, 1):
                if not order[m]:
                    order[m] = d // gcd(k, d)
    row_zeros = [row.count(zero) for row in M]
    column_zeros = [column.count(zero) for column in zip(*M)]
    return [(order[x], M[x][x] == x, M[x][x] == zero, row_zeros[x], column_zeros[x])
            for x in range(n)]


def automorphisms(ring: FiniteRing, cap: int = 64) -> list[RingAut]:
    """The full automorphism group, identity first, then the rest sorted.

    A ring of more than ``cap`` elements raises ValueError, and a group of
    more than ``_AUT_LIST_BOUND`` = 100000 maps (|GL4(F2)| = 20160 is
    admitted) raises AutomorphismBudgetError, naming the group's order,
    before any map is listed.

    *Invariants.*  ``_element_invariants`` gives each element its additive
    order, whether x*x is x, whether x*x is 0, and the zeros in its row and
    in its column of the product table.  Every automorphism preserves them,
    so a generator's image is drawn only from the elements that share its
    invariants.

    *Extension.*  A partial map phi grows from phi(1) = 1.  Setting
    phi(x) = y forces phi(x + g) = y + phi(g) and phi(x * g) = y * phi(g)
    for every mapped g of the additive generating set G, and fails at the
    first forced image that differs from one already set, is already taken
    or differs from its preimage in invariants.  A map consistent on every
    such edge is additive, since the y with phi(x + y) = phi(x) + phi(y) for
    all x contain G and are closed under +, and then multiplicative by the
    same argument for products; so the maps found are not checked again.

    *Chain.*  The generators g_1..g_k of G that phi(1) = 1 leaves unmapped,
    in ``_additive_generators`` order, are the base of a stabilizer chain
    (Sims).  At level i, with g_1..g_{i-1} fixed, each candidate y is tried
    as phi(g_i), and the first full extension found, if any, is kept as the
    transversal element t_{i,y}; the identity serves y = g_i.  The y that
    extend are the orbit of g_i under the stabilizer of g_1..g_{i-1}, so
    |Aut(R)| is the product of the orbit lengths, known before any map is
    listed.  Every automorphism is then exactly one product
    t_1 o t_2 o ... o t_k of one transversal element per level.
    """
    if ring.size > cap:
        raise ValueError(f"{ring.name} has {ring.size} elements; raise cap")

    n = ring.size
    M = [ring.mul_row(a) for a in range(n)]
    gens = _additive_generators(ring)
    invariant = _element_invariants(ring, M)
    candidates = {g: [y for y in range(n) if invariant[y] == invariant[g]] for g in gens}
    # assign reads only the sums z + g and w + phi(g), so only the sum rows of
    # the generators and of their candidate images are listed; above
    # TABLE_LIMIT each row costs n sums through the factory's functions
    A = [None] * n
    for y in {y for ys in candidates.values() for y in ys}:
        A[y] = ring.add_row(y)

    def assign(phi: list, taken: list, x: int, y: int) -> bool:
        """Set phi(x) = y and every image it forces; False on a clash."""
        todo = [(x, y)]
        while todo:
            x, y = todo.pop()
            if phi[x] == y:
                continue
            if phi[x] is not None or taken[y] or invariant[x] != invariant[y]:
                return False
            phi[x], taken[y] = y, True
            edges = [(g, phi[g], x, y) for g in gens if phi[g] is not None]
            if x in gens:
                edges += [(x, y, z, w) for z, w in enumerate(phi) if w is not None]
            for g, h, z, w in edges:
                todo += ((A[g][z], A[h][w]), (M[z][g], M[w][h]))
        return True

    def extension(phi: list, taken: list, x: int, y: int) -> tuple | None:
        """The first full map that extends phi with phi(x) = y, or None."""
        phi, taken = phi.copy(), taken.copy()
        if not assign(phi, taken, x, y):
            return None
        g = next((g for g in gens if phi[g] is None), None)
        if g is None:
            return tuple(phi)
        for z in candidates[g]:
            if not taken[z] and (found := extension(phi, taken, g, z)) is not None:
                return found
        return None

    ident = tuple(range(n))
    phi, taken = [None] * n, [False] * n
    transversals, fixed = [], ring.one
    for g in gens:
        assign(phi, taken, fixed, fixed)
        if phi[g] is None:
            transversals.append([ident] + [
                t for y in candidates[g] if y != g and not taken[y]
                if (t := extension(phi, taken, g, y)) is not None])
            fixed = g
    order = prod(map(len, transversals))
    if order > _AUT_LIST_BOUND:
        raise AutomorphismBudgetError(
            f"{ring.name} has {order} automorphisms; automorphisms lists at most "
            f"{_AUT_LIST_BOUND}")
    perms = [ident]
    for level in reversed(transversals):
        perms = [tuple(map(t.__getitem__, h)) for t in level for h in perms]
    return [RingAut._trusted(ring, p) for p in [ident] + sorted(p for p in perms if p != ident)]

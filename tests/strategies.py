"""Hypothesis strategies that draw random finite rings for differential tests.

``matrix_subrings`` draws the subring of M_k(Z_m) (k <= 2, m <= 6) that the
identity and a few random matrices generate, at most 64 elements, stored
under a random labelling, so its zero and one need not be indices 0 and 1,
and built with ``table_ring``.  ``cell_rings`` draws a full or upper
triangular matrix ring over such a ring, at most 256 elements.  Every ring
here is tabled, so ``validate_ring`` checks it exactly when it is built.
"""

from hypothesis import strategies as st

from skewseries.rings import matrix_ring, table_ring, upper_triangular_ring


def _matrix_ops(k: int, m: int):
    """Sum and product of k-by-k matrices over Z_m, as row-major tuples."""
    def add(x, y):
        return tuple((a + b) % m for a, b in zip(x, y))

    def mul(x, y):
        return tuple(sum(x[i * k + t] * y[t * k + j] for t in range(k)) % m
                     for i in range(k) for j in range(k))
    return add, mul


def _span(add, zero, seeds, cap: int):
    """The additive subgroup ``seeds`` generate, or None above ``cap``
    elements (in a finite group, closure under + gives the negatives)."""
    reached, todo = {zero}, [zero]
    while todo:
        x = todo.pop()
        for g in seeds:
            y = add(x, g)
            if y not in reached:
                if len(reached) == cap:
                    return None
                reached.add(y)
                todo.append(y)
    return reached


def _subring(k: int, m: int, gens, cap: int) -> list:
    """The elements of the subring of M_k(Z_m) generated by the identity and
    each of ``gens`` in turn that keeps it at most ``cap`` elements.

    The span S of the seeds, closed under left multiplication by the seeds,
    is the span of every product of seeds; it holds the identity, so it is
    the subring they generate.
    """
    add, mul = _matrix_ops(k, m)
    zero = (0,) * (k * k)
    seeds = [tuple(int(i == j) % m for i in range(k) for j in range(k))]
    ring = _span(add, zero, seeds, cap)
    for g in gens:
        trial = seeds + [g]
        while (span := _span(add, zero, trial, cap)) is not None:
            extra = {mul(s, x) for s in trial for x in span} - span
            if not extra:
                break
            trial.append(min(extra))
        if span is not None:
            seeds, ring = trial, span
    return sorted(ring)


@st.composite
def matrix_subrings(draw, max_size: int = 64):
    """A relabelled subring of M_k(Z_m), k <= 2, m <= 6, of at most
    ``max_size`` (at most 64) elements."""
    k = draw(st.integers(1, 2), label="k")
    m = draw(st.integers(1, min(6, max_size)), label="m")
    matrices = st.tuples(*[st.integers(0, m - 1)] * (k * k))
    gens = draw(st.lists(matrices, max_size=3), label="generators")
    elements = _subring(k, m, gens, min(max_size, 64))
    n = len(elements)
    perm = draw(st.permutations(range(n)), label="labelling")
    index = dict(zip(elements, perm))
    add, mul = _matrix_ops(k, m)
    add_t, mul_t = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for x in elements:
        for y in elements:
            add_t[index[x]][index[y]] = index[add(x, y)]
            mul_t[index[x]][index[y]] = index[mul(x, y)]
    return table_ring(add_t, mul_t, name=f"S{n}(M{k}(Z{m}))")


# (triangular, k) of the cell rings drawn, with their number of cells
_CELL_SHAPES = [(False, 1, 1), (False, 2, 4), (True, 2, 3), (True, 3, 6)]


@st.composite
def cell_rings(draw, max_size: int = 256):
    """(ring, base, k, triangular): ``matrix_ring(base, k)`` or
    ``upper_triangular_ring(base, k)`` of at most ``max_size`` elements, over
    a ring from ``matrix_subrings``."""
    triangular, k, ncells = draw(st.sampled_from(
        [s for s in _CELL_SHAPES if 2 ** s[2] <= max_size]), label="shape")
    base_cap = max(b for b in range(1, 65) if b ** ncells <= max_size)
    base = draw(matrix_subrings(base_cap), label="base")
    ring = (upper_triangular_ring if triangular else matrix_ring)(base, k)
    return ring, base, k, triangular


def rings(max_size: int = 256):
    """A ring from ``matrix_subrings`` or ``cell_rings``."""
    return st.one_of(matrix_subrings(min(max_size, 64)),
                     cell_rings(max_size).map(lambda drawn: drawn[0]))

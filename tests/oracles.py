"""Independent brute-force oracles the tests check library results against.

Everything here is written as plain loops over ring/monoid elements, on
purpose: these functions must not share code paths with the library
operations they are used to verify.
"""

import random
from itertools import permutations, product


def dirichlet_value(ring, f_coeffs: dict, g_coeffs: dict, n: int) -> int:
    """Sum over divisors d of n of f(d) * g(n/d), straight from the formula."""
    acc = ring.zero
    for d in range(1, n + 1):
        if n % d == 0:
            acc = ring.add(acc, ring.mul(f_coeffs.get(d, ring.zero),
                                         g_coeffs.get(n // d, ring.zero)))
    return acc


def decomposition_pairs_by_double_loop(monoid, s, window_elements):
    """All (u, v) with op(u, v) == s, by scanning the full window square."""
    out = []
    for u in window_elements:
        for v in window_elements:
            if monoid.op(u, v) == s:
                out.append((u, v))
    return out


def brute_force_automorphism_perms(ring) -> set:
    """Every 1-fixing bijection preserving + and *; feasible for size <= 8."""
    n = ring.size
    assert n <= 8, "factorial search is only run on tiny rings"
    found = set()
    for perm in permutations(range(n)):
        if perm[ring.one] != ring.one or perm[ring.zero] != ring.zero:
            continue
        if any(perm[ring.add(a, b)] != ring.add(perm[a], perm[b])
               for a in range(n) for b in range(n)):
            continue
        if any(perm[ring.mul(a, b)] != ring.mul(perm[a], perm[b])
               for a in range(n) for b in range(n)):
            continue
        found.add(perm)
    return found


def automorphism_perms_by_additive_extension(ring) -> list:
    """Every automorphism's image tuple, identity first, then sorted.

    The search ``rings.automorphisms`` used before its closure extension:
    the span of 1 is fixed pointwise, each further additive generator g gets
    every image y with m*y equal to the forced image of m*g (m the first
    multiple of g already mapped), the map is extended additively over the
    cosets of g, and the product law is checked on generator pairs only
    once every generator is mapped.
    """
    from skewseries.rings import _additive_generators

    gens = _additive_generators(ring)
    found = []

    def extend(idx, phi, used):
        if idx == len(gens):
            for ga in gens:
                for gb in gens:
                    if phi[ring.mul(ga, gb)] != ring.mul(phi[ga], phi[gb]):
                        return
            found.append(tuple(phi[a] for a in ring.elements()))
            return
        g = gens[idx]
        m, acc = 1, g
        while acc not in phi:
            acc = ring.add(acc, g)
            m += 1
        target = phi[acc]
        for y in ring.elements():
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
        base[cur] = cur
        cur = ring.add(cur, ring.one)
    if len(base) == ring.size:
        found.append(tuple(range(ring.size)))
    else:
        extend(1, base, set(base))
    ident = tuple(range(ring.size))
    return [ident] + [p for p in sorted(set(found)) if p != ident]


def smallest_left_ideal_containing(ring, gens) -> frozenset:
    """Grow {0} + gens under addition and left multiplication to a fixpoint."""
    current = {ring.zero} | set(gens)
    while True:
        grown = set(current)
        for a in current:
            for b in current:
                grown.add(ring.add(a, b))
            for r in range(ring.size):
                grown.add(ring.mul(r, a))
        if grown == current:
            return frozenset(current)
        current = grown


def annihilates_through_random_middles(g, f, rng, samples: int = 50,
                                       max_support: int = 3, span: int = 5) -> bool:
    """Sample random finitely supported middles h and test g*h*f == 0.

    A randomized stand-in for the universally quantified product condition,
    used to cross-check the representative-based test.
    """
    from skewseries.monoids import sample_pool
    from skewseries.series import SkewSeries, convolve

    action = g.action
    ring = action.ring
    pool = sample_pool(action.monoid, span)
    for _ in range(samples):
        support = rng.sample(pool, rng.randint(1, max_support))
        h = SkewSeries(action, {s: rng.randrange(ring.size) for s in support})
        if not convolve(convolve(g, h), f).is_zero():
            return False
    return True


def validate_ring_oracle(ring, exhaustive_cap: int = 64, samples: int = 2000,
                         seed: int = 0) -> None:
    """The ring axioms one element, pair and triple at a time.

    Raises ``RingAxiomError`` with the message ``validate_ring`` must give:
    the first failing element, pair or triple in scan order and its first
    failing axiom.  Triples are exhaustive up to ``exhaustive_cap`` elements
    and seeded random samples above it.
    """
    from skewseries.rings import RingAxiomError

    n = ring.size
    add, mul, zero, one = ring.add, ring.mul, ring.zero, ring.one
    for a in range(n):
        if add(zero, a) != a or add(a, zero) != a:
            raise RingAxiomError(f"additive identity fails at {a}")
        if add(a, ring.neg(a)) != zero:
            raise RingAxiomError(f"additive inverse fails at {a}")
        if mul(one, a) != a or mul(a, one) != a:
            raise RingAxiomError(f"multiplicative identity fails at {a}")
    for a in range(n):
        for b in range(n):
            if add(a, b) != add(b, a):
                raise RingAxiomError(f"addition not commutative at ({a},{b})")
    if n <= exhaustive_cap:
        triples = product(range(n), repeat=3)
    else:
        rng = random.Random(seed)
        triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(samples))
    for a, b, c in triples:
        if add(add(a, b), c) != add(a, add(b, c)):
            raise RingAxiomError(f"addition not associative at ({a},{b},{c})")
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            raise RingAxiomError(f"multiplication not associative at ({a},{b},{c})")
        if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
            raise RingAxiomError(f"left distributivity fails at ({a},{b},{c})")
        if mul(add(a, b), c) != add(mul(a, c), mul(b, c)):
            raise RingAxiomError(f"right distributivity fails at ({a},{b},{c})")


def additive_closure_by_fixpoint(ring, seed) -> frozenset:
    """Add every pair of {0} + seed until no new sum appears."""
    current = {ring.zero} | set(seed)
    while True:
        grown = current | {ring.add(a, b) for a in current for b in current}
        if grown == current:
            return frozenset(current)
        current = grown


def closure_tables(size: int, *ops, rows=None) -> tuple:
    """The table of each binary operation in ``ops``, one call per entry;
    only the rows of the elements in ``rows``, in that order, when given."""
    elements = range(size)
    return tuple([[op(a, b) for b in elements] for a in (elements if rows is None else rows)]
                 for op in ops)


def table_lists(tables) -> tuple:
    """Tables of ``bytes`` rows, or of any rows, as tuples of lists of int
    lists, the form ``closure_tables`` returns."""
    return tuple([list(row) for row in table] for table in tables)


def cyclic_ops(n: int):
    """add, mul, neg, zero and one of Z_n, from the modular formulas."""
    return (lambda a, b: (a + b) % n, lambda a, b: a * b % n,
            lambda a: -a % n, 0, 1 % n)


def product_ops(a, b):
    """add, mul, neg, zero and one of a x b on indices i*b.size + j,
    componentwise through the factors' own methods."""
    bs = b.size
    return (lambda x, y: a.add(x // bs, y // bs) * bs + b.add(x % bs, y % bs),
            lambda x, y: a.mul(x // bs, y // bs) * bs + b.mul(x % bs, y % bs),
            lambda x: a.neg(x // bs) * bs + b.neg(x % bs),
            a.zero * bs + b.zero, a.one * bs + b.one)


def matrix_ops(b: int, k: int, triangular: bool = False):
    """add, mul, neg, zero and one of the k-by-k (upper triangular) matrices
    over Z_b, on cells packed as base-b digits, least significant first:
    the tables of ``cell_ring_tables_by_digits`` over ``cyclic_ring(b)``,
    each negative found in its row of the sum table."""
    from skewseries.rings import cyclic_ring

    sums, products = cell_ring_tables_by_digits(cyclic_ring(b), k, triangular)
    cells = [(i, j) for i in range(k) for j in range(i if triangular else 0, k)]
    negatives = [row.index(0) for row in sums]
    return (lambda x, y: sums[x][y], lambda x, y: products[x][y], negatives.__getitem__,
            0, sum(1 % b * b ** t for t, (i, j) in enumerate(cells) if i == j))


def cell_ring_tables_by_digits(base, k: int, triangular: bool = False, rows=None) -> tuple:
    """The (addition, multiplication) tables of the k-by-k (upper triangular)
    matrices over any ring ``base``, on cells packed as base-``base.size``
    digits in row-major order, least significant first; only the rows of
    the elements in ``rows``, in that order, when given.

    Each element is a full k-by-k matrix whose entries off the cells are
    ``base.zero``; a product is the matrix product through the base's own
    ``add`` and ``mul``, and every entry it has off the cells must be
    ``base.zero``.  Each table row is computed entry by entry across every
    y at once.
    """
    b, zero = base.size, base.zero
    plus = [[base.add(p, q) for q in range(b)] for p in range(b)]
    times = [[base.mul(p, q) for q in range(b)] for p in range(b)]
    cells = [(i, j) for i in range(k) for j in range(i if triangular else 0, k)]
    powers = {c: b ** t for t, c in enumerate(cells)}
    n = b ** len(cells)
    # entry[i, j][y] is entry (i, j) of y as a full matrix
    entry = {(i, j): [y // powers[i, j] % b if (i, j) in powers else zero for y in range(n)]
             for i in range(k) for j in range(k)}
    # column[xi, j][y] is entry (i, j) of x*y, which depends only on row i
    # of x, xi
    column = {}
    sums, products = [], []
    for x in range(n) if rows is None else rows:
        row = [0] * n
        for c, p in powers.items():
            by = plus[entry[c][x]]
            row = [r + by[v] * p for r, v in zip(row, entry[c])]
        sums.append(row)
        row = [0] * n
        for i in range(k):
            xi = tuple(entry[i, t][x] for t in range(k))
            for j in range(k):
                if (xi, j) not in column:
                    acc = [zero] * n
                    for t, d in enumerate(xi):
                        by = times[d]
                        acc = [plus[a][by[v]] for a, v in zip(acc, entry[t, j])]
                    column[xi, j] = acc
                acc = column[xi, j]
                if (i, j) in powers:
                    row = [r + a * powers[i, j] for r, a in zip(row, acc)]
                else:
                    assert acc == [zero] * n, (x, i, j)
        products.append(row)
    return sums, products


def ring_aut_validate_oracle(aut) -> None:
    """``RingAut.validate`` as a scan of every pair (a, b) in order.

    Raises ``RingAxiomError`` with the message the library must give.
    """
    from skewseries.rings import RingAxiomError

    ring, perm = aut.ring, aut.perm
    n = ring.size
    if len(perm) != n or set(perm) != set(range(n)):
        raise RingAxiomError("automorphism image array is not a bijection")
    if perm[ring.one] != ring.one:
        raise RingAxiomError("automorphism does not fix 1")
    for a in range(n):
        for b in range(n):
            if perm[ring.add(a, b)] != ring.add(perm[a], perm[b]):
                raise RingAxiomError(f"automorphism not additive at ({a},{b})")
            if perm[ring.mul(a, b)] != ring.mul(perm[a], perm[b]):
                raise RingAxiomError(f"automorphism not multiplicative at ({a},{b})")


def units_by_scan(ring) -> dict:
    """Each unit u mapped to the first v with u*v == 1 == v*u, by a full scan."""
    out = {}
    for u in range(ring.size):
        for v in range(ring.size):
            if ring.mul(u, v) == ring.one and ring.mul(v, u) == ring.one:
                out[u] = v
                break
    return out


def orbit_condition_by_subsets(ring, action) -> tuple:
    """The orbit condition over all 2^n - 1 nonempty subsets, n <= 16.

    Dynamic programming on bitmasks: the orbit-ideal sum of a subset is the
    join of the per-element orbit ideals, and distinct joins are few.
    Returns (verdict, witnesses) in the report shape of
    ``orbit_annihilators_s_unital``: the first failing subset in bitmask
    order, or every distinct joined orbit ideal with its annihilator.
    """
    from skewseries.ideals import is_right_s_unital, left_annihilator, orbit_ideal

    n = ring.size
    assert n <= 16, "the subset scan is only run on rings of at most 16 elements"
    per_element = [orbit_ideal({a}, action).members for a in ring.elements()]
    check_cache = {}

    def check_ideal(members):
        hit = check_cache.get(members)
        if hit is None:
            ann = left_annihilator(members, ring)
            hit = (ann, is_right_s_unital(ann))
            check_cache[members] = hit
        return hit

    interned = {}
    pool = []

    def intern(members):
        idx = interned.get(members)
        if idx is None:
            idx = len(pool)
            interned[members] = idx
            pool.append(members)
        return idx

    zero_ideal = intern(frozenset({ring.zero}))
    elem_ids = [intern(m) for m in per_element]
    join_cache = {}

    def join_ids(i, j):
        if i > j:
            i, j = j, i
        hit = join_cache.get((i, j))
        if hit is None:
            a, b = pool[i], pool[j]
            hit = intern(frozenset(ring.add(x, y) for x in a for y in b))
            join_cache[(i, j)] = hit
        return hit

    ideal_of_mask = [zero_ideal] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        ideal_of_mask[mask] = join_ids(ideal_of_mask[mask ^ (1 << low)], elem_ids[low])
        ann, res = check_ideal(pool[ideal_of_mask[mask]])
        if not res.holds:
            subset = [i for i in range(n) if mask & (1 << i)]
            return False, {"counterexample": {
                "subset": subset,
                "annihilator": ann.sorted_members(),
                "unwitnessed": res.failing,
            }}
    evidence = []
    for members in sorted(interned, key=lambda s: (len(s), sorted(s))):
        ann, res = check_ideal(members)
        evidence.append({
            "orbit_ideal": sorted(members),
            "annihilator": ann.sorted_members(),
            "witnesses": sorted([a, x] for a, x in res.witnesses.items()),
        })
    return True, {"subsets_scanned": (1 << n) - 1, "distinct_orbit_ideals": evidence}


def all_left_ideals(ring, size_cap: int = 16) -> list:
    """Every left ideal, as ``IdealSet``s in (size, members) order.

    Each left ideal is the sum of the principal ideals of its elements, so
    closing the principal ideals under pairwise join enumerates them all.
    """
    from skewseries.ideals import IdealSet

    if ring.size > size_cap:
        raise ValueError(
            f"{ring.name} has {ring.size} elements; left-ideal enumeration "
            f"capped at {size_cap}")
    found = {smallest_left_ideal_containing(ring, {a}) for a in range(ring.size)}
    frontier = list(found)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(found):
                j = frozenset(ring.add(x, y) for x in a for y in b)
                if j not in found:
                    found.add(j)
                    nxt.append(j)
        frontier = nxt
    ordered = sorted(found, key=lambda s: (len(s), sorted(s)))
    return [IdealSet(ring, m) for m in ordered]


def quasi_baer_by_left_ideals(ring, size_cap: int = 16) -> tuple:
    """(verdict, annihilators): every l(I) over the left ideals I, and whether
    each is R*e for an idempotent e, by plain scans."""
    n = ring.size
    principal = {e: frozenset(ring.mul(r, e) for r in range(n))
                 for e in range(n) if ring.mul(e, e) == e}
    annihilators = {
        frozenset(r for r in range(n)
                  if all(ring.mul(r, x) == ring.zero for x in ideal.members))
        for ideal in all_left_ideals(ring, size_cap)}
    generated = set(principal.values())
    return all(ann in generated for ann in annihilators), annihilators


def convolve_by_terms(f, g):
    """The twisted product, one term f(u) * w_u(g(v)) at a time."""
    from skewseries.series import SkewSeries

    action = f.action
    ring = action.ring
    op = action.monoid.op
    out = {}
    for u, fu in f.coeffs.items():
        twist = action.automorphism(u).perm
        for v, gv in g.coeffs.items():
            term = ring.mul(fu, twist[gv])
            if term == ring.zero:
                continue
            s = op(u, v)
            acc = out.get(s)
            out[s] = term if acc is None else ring.add(acc, term)
    return SkewSeries(action, out)


def coefficientwise_by_scan(g, f) -> dict:
    """The witnesses of the coefficientwise conclusion, by scanning every
    (u, v, s, r) in order: the first violation, or the products checked."""
    action = g.action
    ring = action.ring
    reps = action.representatives()
    checked = 0
    for u, gu in g.coeffs.items():
        twist_u = action.automorphism(u).perm
        for v, fv in f.coeffs.items():
            for s in reps:
                fv_s = action.apply(s, fv)
                for r in ring.elements():
                    checked += 1
                    if ring.mul(gu, twist_u[ring.mul(r, fv_s)]) != ring.zero:
                        return {"failure": "conclusion",
                                "violation": {"u": repr(u), "v": repr(v),
                                              "s": repr(s), "r": r}}
    return {"products_checked": checked}


def first_failing_middle_by_scan(g, f):
    """The first (s, r), exponent representatives outer and every ring
    element r inner, with g * (r x^s) * f != 0; None when there is none."""
    from skewseries.series import SkewSeries

    action = g.action
    for s in action.representatives():
        for r in action.ring.elements():
            middle = SkewSeries(action, {s: r})
            if not convolve_by_terms(convolve_by_terms(g, middle), f).is_zero():
                return s, r
    return None


def annihilates_via_all_middles_by_scan(g, f) -> bool:
    """Whether g * (r x^s) * f == 0 for every representative s and every r."""
    return first_failing_middle_by_scan(g, f) is None


# ---------------------------------------------------------------------------
# the element scans the bitset kernel of ``skewseries.ideals`` replaced

def left_annihilator_by_scan(ring, xs) -> list:
    """{r : r*x == 0 for every x in xs}, ascending."""
    return [r for r in range(ring.size) if all(ring.mul(r, x) == ring.zero for x in xs)]


def right_annihilator_by_scan(ring, xs) -> list:
    """{r : x*r == 0 for every x in xs}, ascending."""
    return [r for r in range(ring.size) if all(ring.mul(x, r) == ring.zero for x in xs)]


def left_ideal_by_products(ring, gens) -> frozenset:
    """The additive closure of the n*|gens| products r*s, one seed at a time:
    each seed outside the span adds its multiples to every element."""
    span = {ring.zero}
    for g in {ring.mul(r, s) for r in range(ring.size) for s in gens}:
        if g in span:
            continue
        grown, shift = set(span), g
        while shift not in span:
            grown.update(ring.add(x, shift) for x in span)
            shift = ring.add(shift, g)
        span = grown
    return frozenset(span)


def orbit_ideal_by_products(action, gens) -> frozenset:
    images = {aut.perm[a] for _, aut in action.closure() for a in gens}
    return left_ideal_by_products(action.ring, images)


def s_unital_by_scan(ring, members) -> tuple:
    """(holds, witnesses, failing): for each a in ascending order the first x
    in the set with a*x == a, stopping at the first a without one."""
    ordered = sorted(members)
    witnesses = {}
    for a in ordered:
        for x in ordered:
            if ring.mul(a, x) == a:
                witnesses[a] = x
                break
        else:
            return False, witnesses, a
    return True, witnesses, None


def common_witness_by_scan(ring, members, subset):
    """The first x in the set with a*x == a for every a in subset, or None."""
    return next((x for x in sorted(members)
                 if all(ring.mul(a, x) == a for a in subset)), None)


def idempotent_generator_left_by_scan(ring, target):
    """The first idempotent e with R*e == target, or None."""
    for e in range(ring.size):
        if ring.mul(e, e) == e and \
                frozenset(ring.mul(r, e) for r in range(ring.size)) == frozenset(target):
            return e
    return None


def idempotent_generator_right_by_scan(ring, target):
    """The first idempotent e with e*R == target, or None."""
    for e in range(ring.size):
        if ring.mul(e, e) == e and \
                frozenset(ring.mul(e, r) for r in range(ring.size)) == frozenset(target):
            return e
    return None


def _principal_annihilator_by_scan(ring, a) -> list:
    # R*a = {r*a} is already closed under addition (r*a + s*a = (r+s)*a)
    return left_annihilator_by_scan(ring, {ring.mul(r, a) for r in range(ring.size)})


def left_app_by_scan(ring) -> tuple:
    """(verdict, witnesses) in the report shape of ``is_left_app``."""
    per_element = []
    for a in range(ring.size):
        ann = _principal_annihilator_by_scan(ring, a)
        holds, witnesses, failing = s_unital_by_scan(ring, ann)
        if not holds:
            return False, {"counterexample": {"element": a, "annihilator": ann,
                                              "unwitnessed": failing}}
        per_element.append([a, sorted([x, w] for x, w in witnesses.items())])
    return True, {"per_element_witnesses": per_element}


def left_pq_baer_by_scan(ring) -> tuple:
    """(verdict, witnesses) in the report shape of ``is_left_pq_baer``."""
    gens = []
    for a in range(ring.size):
        ann = _principal_annihilator_by_scan(ring, a)
        e = idempotent_generator_left_by_scan(ring, ann)
        if e is None:
            return False, {"counterexample": {"element": a, "annihilator": ann}}
        gens.append([a, e])
    return True, {"idempotent_generators": gens}


def quasi_baer_by_scan(ring) -> tuple:
    """(verdict, witnesses) in the report shape of ``is_quasi_baer``: the
    family {l(R*a)} closed under intersection, in (size, members) order."""
    principal = {frozenset(_principal_annihilator_by_scan(ring, a))
                 for a in range(ring.size)}
    family = set(principal)
    frontier = principal
    while frontier:
        frontier = {t & p for t in frontier for p in principal} - family
        family |= frontier
    gens = []
    for ann in sorted(family, key=lambda s: (len(s), sorted(s))):
        ideal = right_annihilator_by_scan(ring, ann)
        e = idempotent_generator_left_by_scan(ring, ann)
        if e is None:
            return False, {"counterexample": {"ideal": ideal, "annihilator": sorted(ann)}}
        gens.append([ideal, e])
    return True, {"idempotent_generators": gens}


def right_pp_by_scan(ring) -> tuple:
    """(verdict, witnesses) in the report shape of ``is_right_pp``."""
    gens = []
    for a in range(ring.size):
        ann = right_annihilator_by_scan(ring, {a})
        e = idempotent_generator_right_by_scan(ring, ann)
        if e is None:
            return False, {"counterexample": {"element": a, "annihilator": ann}}
        gens.append([a, e])
    return True, {"idempotent_generators": gens}


def orbit_condition_by_scan(ring, action) -> tuple:
    """(verdict, witnesses) in the report shape of
    ``orbit_annihilators_s_unital``, by scanning the singletons."""
    checked = {}
    for a in range(ring.size):
        members = orbit_ideal_by_products(action, {a})
        if members not in checked:
            ann = left_annihilator_by_scan(ring, members)
            checked[members] = (ann, s_unital_by_scan(ring, ann))
        ann, (holds, witnesses, failing) = checked[members]
        if not holds:
            return False, {"counterexample": {"subset": [a], "annihilator": ann,
                                              "unwitnessed": failing}}
    evidence = [{"orbit_ideal": sorted(members), "annihilator": ann,
                 "witnesses": sorted([b, x] for b, x in res[1].items())}
                for members, (ann, res) in sorted(
                    checked.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))]
    return True, {"subsets_scanned": ring.size, "distinct_orbit_ideals": evidence}


def annihilator_obstructions_by_scan(ring, action) -> tuple:
    """(verdict, witnesses) in the report shape of
    ``annihilator_obstructions``: each element whose orbit annihilator is not
    right s-unital, with the first member that has no witness."""
    obstructions = []
    for a in range(ring.size):
        ann = left_annihilator_by_scan(ring, orbit_ideal_by_products(action, {a}))
        holds, _, failing = s_unital_by_scan(ring, ann)
        if not holds:
            obstructions.append({"element": a, "blocked": failing, "annihilator": ann})
    return not obstructions, {"obstructions": obstructions}


def additive_generators_by_span(ring) -> tuple:
    """1, then each element, in index order, outside the additive span of
    the generators so far (``rings.additive_closure``), recomputed after
    each one is added."""
    from skewseries.rings import additive_closure

    gens = [ring.one]
    span = additive_closure(ring, gens)
    for a in ring.elements():
        if a not in span:
            gens.append(a)
            span = additive_closure(ring, gens)
            if len(span) == ring.size:
                break
    return tuple(gens)


def sum_generators_of_table(arow, zero: int) -> list:
    """A generating set of (R,+) read off the rows of an addition table:
    each element, in index order, that the closure of {zero} under x -> x+g
    for the generators g so far has not reached.  Terminates on any table."""
    inside = bytearray(len(arow))
    inside[zero] = 1
    reached, gens = [zero], []
    for a in range(len(arow)):
        if inside[a]:
            continue
        gens.append(a)
        todo = list(reached)
        while todo:
            row = arow[todo.pop()]
            for g in gens:
                y = row[g]
                if not inside[y]:
                    inside[y] = 1
                    reached.append(y)
                    todo.append(y)
    return gens


# ---------------------------------------------------------------------------
# the constructive pair draw, as written before its set-up was kept in the
# action

def orbit_annihilator_by_scan(action, elements) -> list:
    """l(sum over a in elements of the orbit ideal of a), ascending: every x
    with x * r * w_s(a) == 0 for each r, attained w_s and a in elements."""
    ring = action.ring
    products = {ring.mul(r, aut.perm[a]) for _, aut in action.closure()
                for a in elements for r in range(ring.size)}
    return left_annihilator_by_scan(ring, products)


def random_annihilating_pair_reference(action, rng, span: int = 6, terms: int = 4,
                                       draws: int = 8):
    """``theorems.random_annihilating_pair`` recomputing everything on each
    call: the exponent pool, the nonzero elements and whether f may be
    redrawn (some nonzero element has an orbit annihilator with two or more
    members), with g built through the checked constructor.  It makes the
    same calls on ``rng``, in the same order: randint and sample for f's
    support, choice for each of its coefficients, up to ``draws`` times
    while f's orbit annihilator has one member, then randint and sample for
    g's support and choice for each of its coefficients."""
    from skewseries.monoids import sample_pool
    from skewseries.series import SkewSeries

    ring = action.ring
    pool = sample_pool(action.monoid, span)
    nonzero = [r for r in ring.elements() if r != ring.zero]
    if not nonzero:
        return SkewSeries(action, {}), SkewSeries(action, {})

    def draw_support():
        k = rng.randint(1, terms)
        return rng.sample(pool, min(k, len(pool)))

    if not any(len(orbit_annihilator_by_scan(action, [r])) > 1 for r in nonzero):
        draws = 1
    for _ in range(draws):
        f = SkewSeries(action, {s: rng.choice(nonzero) for s in draw_support()})
        ann = orbit_annihilator_by_scan(action, f.coeffs.values())
        if len(ann) > 1:
            break
    choices = [b for b in ann if b != ring.zero] or [ring.zero]
    g = {u: action.automorphism(u).perm[rng.choice(choices)] for u in draw_support()}
    return SkewSeries(action, g), f

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


def closure_flavor(ring, members) -> str:
    """Two-sided, left, right or plain, by scanning r*a and a*r for all r."""
    left = all(ring.mul(r, a) in members for r in range(ring.size) for a in members)
    right = all(ring.mul(a, r) in members for r in range(ring.size) for a in members)
    if left and right:
        return "two-sided"
    if left:
        return "left-ideal"
    if right:
        return "right-ideal"
    return "plain-subset"


def closure_tables(size: int, *ops) -> tuple:
    """The table of each binary operation in ``ops``, one call per entry."""
    elements = range(size)
    return tuple([[op(a, b) for b in elements] for a in elements] for op in ops)


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
    over Z_b, on cells packed as base-b digits, least significant first."""
    cells = [(i, j) for i in range(k) for j in range(i if triangular else 0, k)]
    pos = {c: t for t, c in enumerate(cells)}
    powers = [b ** t for t in range(len(cells))]

    every_digits = [[x // p % b for p in powers] for x in range(b * powers[-1])]
    digits = every_digits.__getitem__

    def pack(ds):
        return sum(d * p for d, p in zip(ds, powers))

    def add(x, y):
        return pack([(p + q) % b for p, q in zip(digits(x), digits(y))])

    def mul(x, y):
        xs, ys = digits(x), digits(y)
        return pack([sum(xs[pos[i, t]] * ys[pos[t, j]] for t in range(k)
                         if (i, t) in pos and (t, j) in pos) % b for i, j in cells])

    def neg(x):
        return pack([-d % b for d in digits(x)])

    return add, mul, neg, 0, pack([1 % b if i == j else 0 for i, j in cells])


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

"""The four benchmark workloads and the checks on their outputs.

A workload is a list of ops, built from the seed before timing starts.  An op
is one call into skewseries: either ``cli.run_job`` on job-spec text or one
library function.  ``Op.call`` is the timed part; ``Op.verify`` runs after it,
untimed, and returns an ``Outcome``: whether the output is correct, the
deterministic work counts read from it, and a digest that must repeat exactly
whenever the same op runs again.

The rings and contexts are fixed lists.  The seed drives the random series,
the ``seed =`` key of each job, the units picked for inner automorphisms, the
relabelling of the table rings and the products sampled by the checks.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from array import array
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from skewseries import (
    OmegaAction,
    SkewSeries,
    automorphisms,
    cli,
    convolve,
    cyclic_ring,
    gallery_ring,
    inner_automorphism,
    make_monoid,
    matrix_ring,
    named_automorphism,
    pair_action,
    product_ring,
    single_generator_action,
    table_ring,
    units,
    upper_triangular_ring,
)

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

# Counts that must repeat exactly whenever an op is rerun.
COUNT_KEYS = ("subsets_scanned", "distinct_orbit_ideals", "pairs", "nonzero_pairs",
              "products_checked", "terms_multiplied")


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    counts: dict = field(default_factory=dict)
    digest: str = ""


class Op:
    """One library call: ``call()`` is timed, ``verify(result)`` is not."""

    def __init__(self, key, call, verify):
        self.key = key
        self.call = call
        self.verify = verify


class CliOp:
    """One ``cli.run_job`` call on job-spec text, checked against expected.json."""

    def __init__(self, key, text, report_path: Path):
        self.key = key
        self.text = text
        self.report_path = report_path
        self.expected = EXPECTED["jobs"].get(key)

    def call(self):
        job = cli.JobSpec.from_text(self.text)
        return cli.run_job(job, out_path=str(self.report_path), stream=io.StringIO())

    def verify(self, code) -> Outcome:
        payload = self.report_path.read_bytes()
        tree = json.loads(payload)
        verdicts = [v["verdict"] for v in tree["verdicts"]]
        counts = {"report_bytes": len(payload)}
        for witness in tree["witnesses"]:
            _witness_counts(witness, counts)
        digest = hashlib.sha256(payload).hexdigest()
        want = self.expected
        if want is None:
            return Outcome(False, f"no expected verdicts stored for {self.key}", counts, digest)
        if code != want["exit"] or verdicts != want["verdicts"]:
            return Outcome(False, f"exit {code} verdicts {verdicts}, expected "
                                  f"exit {want['exit']} verdicts {want['verdicts']}",
                           counts, digest)
        if not all(verdicts):
            replayed = cli.replay(str(self.report_path), stream=io.StringIO())
            if replayed != 0:
                return Outcome(False, f"replay of false verdicts exited {replayed}",
                               counts, digest)
        return Outcome(True, "", counts, digest)


def _witness_counts(witness, counts: dict) -> None:
    """Add the deterministic work counts a report witness carries."""
    if not isinstance(witness, dict):
        return
    for key in ("subsets_scanned", "pairs", "nonzero_pairs", "products_checked"):
        value = witness.get(key)
        if isinstance(value, int):
            counts[key] = counts.get(key, 0) + value
    ideals = witness.get("distinct_orbit_ideals")
    if isinstance(ideals, list):
        counts["distinct_orbit_ideals"] = counts.get("distinct_orbit_ideals", 0) + len(ideals)


def job_text(pairs) -> str:
    return "\n".join(f"{k} = {v}" for k, v in pairs) + "\n"


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """The op list of one pass over workload ``name``."""
    rng = random.Random(f"{name}:{seed}")
    report = workdir / "report.json"
    return {"ring_zoo": _ring_zoo,
            "property_checks": _property_checks,
            "series_harness": _series_harness,
            "long_series": _long_series}[name](rng, report)


# ---------------------------------------------------------------------------
# ring_zoo: factories, automorphism search, inner automorphisms and actions

def _reference(recipe):
    """(size, add, mul, zero, one) computed without skewseries."""
    kind = recipe[0]
    if kind == "Z":
        n = recipe[1]
        return n, lambda x, y: (x + y) % n, lambda x, y: (x * y) % n, 0, 1 % n
    if kind == "P":
        na, add_a, mul_a, zero_a, one_a = _reference(recipe[1])
        nb, add_b, mul_b, zero_b, one_b = _reference(recipe[2])

        def lift(f_a, f_b):
            return lambda x, y: f_a(x // nb, y // nb) * nb + f_b(x % nb, y % nb)
        return (na * nb, lift(add_a, add_b), lift(mul_a, mul_b),
                zero_a * nb + zero_b, one_a * nb + one_b)
    # "M" full or "T" upper triangular k-by-k matrices over Z_b, packed as
    # base-b digits in row-major order of their cells, least significant first
    b, k = recipe[1], recipe[2]
    cells = [(i, j) for i in range(k) for j in range(k) if kind == "M" or i <= j]

    def unpack(x):
        m = {}
        for c in cells:
            m[c] = x % b
            x //= b
        return m

    def pack(m):
        x = 0
        for c in reversed(cells):
            x = x * b + m.get(c, 0) % b
        return x

    def add(x, y):
        mx, my = unpack(x), unpack(y)
        return pack({c: mx[c] + my[c] for c in cells})

    def mul(x, y):
        mx, my = unpack(x), unpack(y)
        return pack({(i, j): sum(mx.get((i, t), 0) * my.get((t, j), 0) for t in range(k))
                     for (i, j) in cells})

    return b ** len(cells), add, mul, 0, pack({(i, i): 1 for i in range(k)})


def _factory_check(recipe, rng, relabel=None):
    """Check size, zero, one and sampled sums and products against _reference."""
    size, add, mul, zero, one = _reference(recipe)
    perm = relabel or list(range(size))
    pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(24)]

    def check(ring) -> Outcome:
        got = [ring.size, ring.zero, ring.one]
        want = [size, perm[zero], perm[one]]
        for x, y in pairs:
            got += [ring.add(perm[x], perm[y]), ring.mul(perm[x], perm[y])]
            want += [perm[add(x, y)], perm[mul(x, y)]]
        digest = hashlib.sha256(repr(got).encode()).hexdigest()
        if got != want:
            return Outcome(False, f"{ring.name}: arithmetic differs from the reference",
                           digest=digest)
        return Outcome(True, digest=digest)
    return check


def _ring_zoo(rng, report):
    base = {n: cyclic_ring(n) for n in (2, 3, 4, 5, 7, 8, 10, 16, 25, 32)}
    f2xf2 = product_ring(base[2], base[2])
    f3xf3 = product_ring(base[3], base[3])
    built: dict = {}
    ops: list[Op] = []

    def factory(label, recipe, fn, relabel=None):
        check = _factory_check(recipe, rng, relabel)

        def keep(ring):
            built[label] = ring
            return check(ring)
        ops.append(Op(f"factory:{label}", fn, keep))

    for n in (16, 20, 24, 30, 36, 40, 50, 81, 90, 100, 128, 150, 200, 210, 256, 257,
              300, 400, 512, 700, 1024):
        factory(f"Z{n}", ("Z", n), lambda n=n: cyclic_ring(n))
    for a, b in ((4, 4), (5, 7), (8, 8), (3, 25), (10, 25), (16, 16), (16, 32)):
        factory(f"Z{a}xZ{b}", ("P", ("Z", a), ("Z", b)),
                lambda a=a, b=b: product_ring(base[a], base[b]))
    factory("F2^4", ("P", ("P", ("Z", 2), ("Z", 2)), ("P", ("Z", 2), ("Z", 2))),
            lambda: product_ring(f2xf2, f2xf2))
    factory("F2xF2xF3xF3", ("P", ("P", ("Z", 2), ("Z", 2)), ("P", ("Z", 3), ("Z", 3))),
            lambda: product_ring(f2xf2, f3xf3))
    for b, k in ((2, 2), (3, 2), (4, 2), (5, 2)):
        factory(f"M{k}(Z{b})", ("M", b, k), lambda b=b, k=k: matrix_ring(base[b], k))
    for b, k in ((3, 2), (4, 2), (2, 3), (5, 2)):
        factory(f"T{k}(Z{b})", ("T", b, k),
                lambda b=b, k=k: upper_triangular_ring(base[b], k))
    for a, b in ((4, 4), (10, 10), (16, 16), (16, 32)):
        recipe = ("P", ("Z", a), ("Z", b))
        size, add, mul, _, _ = _reference(recipe)
        perm = list(range(size))
        rng.shuffle(perm)
        add_t = [[0] * size for _ in range(size)]
        mul_t = [[0] * size for _ in range(size)]
        for x in range(size):
            row_a, row_m = add_t[perm[x]], mul_t[perm[x]]
            for y in range(size):
                row_a[perm[y]] = perm[add(x, y)]
                row_m[perm[y]] = perm[mul(x, y)]
        factory(f"table{size}", recipe,
                lambda add_t=add_t, mul_t=mul_t, size=size:
                    table_ring(add_t, mul_t, name=f"table{size}"),
                relabel=perm)

    for label in ("F2^4", "M2(Z2)", "T2(Z3)", "T2(Z4)", "Z8xZ8", "F2xF2xF3xF3"):
        ops.append(Op(f"automorphisms:{label}",
                      lambda label=label: automorphisms(built[label]),
                      _automorphism_check(label, built, rng)))

    nat = make_monoid("NatAdd")
    for label in ("M2(Z3)", "M2(Z4)", "T3(Z2)"):
        for _ in range(6):
            pick = rng.randrange(1 << 30)
            chain: dict = {}
            ops.append(Op(f"units:{label}", lambda label=label: units(built[label]),
                          _units_check(label, chain)))
            ops.append(Op(f"inner_automorphism:{label}",
                          lambda label=label, chain=chain, pick=pick: inner_automorphism(
                              built[label], chain["units"][pick % len(chain["units"])]),
                          _inner_check(chain, rng)))
            ops.append(Op(f"single_generator_action:{label}",
                          lambda label=label, chain=chain: single_generator_action(
                              nat, built[label], chain["alpha"]),
                          _action_check(chain)))
    return ops


def _automorphism_check(label, built, rng):
    want = EXPECTED["automorphism_counts"][label]

    def check(auts) -> Outcome:
        ring = built[label]
        digest = hashlib.sha256(repr(sorted(a.perm for a in auts)).encode()).hexdigest()
        if len(auts) != want or not auts[0].is_identity():
            return Outcome(False, f"|Aut({label})| = {len(auts)}, expected {want}",
                           digest=digest)
        n = ring.size
        for aut in auts:
            p = aut.perm
            for _ in range(8):
                x, y = rng.randrange(n), rng.randrange(n)
                if p[ring.mul(x, y)] != ring.mul(p[x], p[y]) or \
                        p[ring.add(x, y)] != ring.add(p[x], p[y]):
                    return Outcome(False, f"{label}: {p} is not a ring map", digest=digest)
        return Outcome(True, digest=digest)
    return check


def _units_check(label, chain):
    want = EXPECTED["unit_counts"][label]

    def check(us) -> Outcome:
        chain["units"] = us
        digest = hashlib.sha256(repr(us).encode()).hexdigest()
        if len(us) != want:
            return Outcome(False, f"{label} has {len(us)} units, expected {want}",
                           digest=digest)
        return Outcome(True, digest=digest)
    return check


def _inner_check(chain, rng):
    def check(alpha) -> Outcome:
        chain["alpha"] = alpha
        ring, p = alpha.ring, alpha.perm
        n = ring.size
        digest = hashlib.sha256(repr(p).encode()).hexdigest()
        if sorted(p) != list(range(n)) or p[ring.one] != ring.one:
            return Outcome(False, f"{ring.name}: conjugation is not a bijection fixing 1",
                           digest=digest)
        for _ in range(16):
            x, y = rng.randrange(n), rng.randrange(n)
            if p[ring.mul(x, y)] != ring.mul(p[x], p[y]):
                return Outcome(False, f"{ring.name}: conjugation is not multiplicative",
                               digest=digest)
        return Outcome(True, digest=digest)
    return check


def _action_check(chain):
    def check(action) -> Outcome:
        alpha = chain["alpha"].perm
        ident = tuple(range(len(alpha)))
        order, power = 1, alpha
        while power != ident:
            power = tuple(alpha[q] for q in power)
            order += 1
        closure = action.closure()
        digest = hashlib.sha256(repr([a.perm for _, a in closure]).encode()).hexdigest()
        if len(closure) != order or closure[1 % order][1].perm != alpha:
            return Outcome(False, f"action closure has {len(closure)} values, "
                                  f"expected the order {order} of its generator",
                           digest=digest)
        return Outcome(True, digest=digest)
    return check


# ---------------------------------------------------------------------------
# property_checks: ring-only checks on 30-128 element rings, and sampled orbits

def _ring(label, kind, **params):
    return label, [("ring.kind", kind)] + [(f"ring.{k}", v) for k, v in params.items()]


MID_RINGS = ([_ring(f"Z{n}", "cyclic", n=n)
              for n in (30, 33, 35, 66, 70, 77, 96, 100, 105, 128)]
             + [_ring(f"Z{a}xZ{b}", "product", a=a, b=b)
                for a, b in ((5, 7), (3, 11), (6, 5), (2, 21), (6, 7), (2, 35), (11, 12))]
             + [_ring("M2(Z3)", "matrix", base=3, k=2),
                _ring("T3(Z2)", "triangular", base=2, k=3)])
GALLERY_RINGS = [_ring(name, "gallery", name=name)
                 for name in ("M2F2", "T2F2", "F2xF2", "F2xF3", "Z12", "Z16")]
RINGS_BY_NAME = dict(MID_RINGS + GALLERY_RINGS + [_ring("Z110", "cyclic", n=110)])
# The gallery jobs take a few ms, under the median op: their number sets
# where the median falls, in a dense band of jobs of like cost.  The one
# Z110 job puts the 90th percentile between two jobs of like cost.
PROPERTY_PLAN = (
    [(ring, check) for ring, _ in MID_RINGS
     for check in ("left_app", "pq_baer", "right_pp", "reduced")]
    + [(ring, check) for ring, _ in GALLERY_RINGS
       for check in ("left_app", "pq_baer", "right_pp", "quasi_baer")]
    + [(ring, "orbit_condition") for ring in ("T3(Z2)", "Z30", "Z5xZ7")]
    + [("Z110", "pq_baer")])


def _property_checks(rng, report):
    ops: list[Op] = []
    for name, check in PROPERTY_PLAN:
        pairs = RINGS_BY_NAME[name] + [("monoid.kind", "NatAdd"), ("checks", check),
                                       ("seed", rng.randrange(1 << 30))]
        if check == "orbit_condition":
            # Few random subsets, so the seed barely moves the work: the
            # singletons and pairs that sampled mode always scans dominate.
            pairs += [("mode", "sampled"), ("trials", 20)]
        ops.append(CliOp(f"{name}/{check}", job_text(pairs), report))
    return ops


# ---------------------------------------------------------------------------
# series_harness: theorem harnesses and presets on the standard contexts

HARNESS_CONTEXTS = (("M2F2", "inner:6"), ("T2F2", "inner:7"), ("F2xF2", "swap"),
                    ("F2xF3", "identity"), ("Z5", "identity"), ("Z7", "identity"),
                    ("Z12", "identity"))
HARNESS_MONOIDS = (("NatAdd", None, "skew_power_series"),
                   ("IntAdd", None, "skew_laurent_series"),
                   ("NatPair", "lex", "two_variable_lex"),
                   ("IntPair", "revlex", "two_variable_laurent_revlex"))
# Three of every four jobs run a harness that generates pairs, so the median
# op is one of those and not the edge between cheap and expensive jobs.
HARNESS_GROUPS = (("coefficientwise",), ("witness_paths",), ("app_equivalence",))

# Acceptance criterion 9 of the test suite, verbatim.
CRITERION_9_JOB = """
ring.kind = gallery
ring.name = M2F2
monoid.kind = NatAdd
action.alpha = inner:6
checks = left_app, orbit_condition, app_equivalence
mode = sampled
trials = 120
seed = 77
"""


def _series_harness(rng, report):
    ops: list[Op] = []
    for ring, aut in HARNESS_CONTEXTS:
        for kind, order, preset in HARNESS_MONOIDS:
            for checks in HARNESS_GROUPS + (("obstructions", "orbit_condition", preset),):
                pairs = [("ring.kind", "gallery"), ("ring.name", ring),
                         ("monoid.kind", kind)]
                if order:
                    pairs.append(("monoid.order", order))
                pairs.append(("action.alpha", aut))
                if order:
                    pairs.append(("action.beta", aut))
                pairs += [("checks", ", ".join(checks)), ("trials", 60),
                          ("seed", rng.randrange(1 << 30))]
                ops.append(CliOp(f"{ring}/{aut}/{kind}{order or ''}/{'+'.join(checks)}",
                                 job_text(pairs), report))
        pairs = [("ring.kind", "gallery"), ("ring.name", ring),
                 ("monoid.kind", "NatMulDirichlet"), ("checks", "arithmetic_functions"),
                 ("seed", rng.randrange(1 << 30))]
        ops.append(CliOp(f"{ring}/NatMulDirichlet/arithmetic_functions",
                         job_text(pairs), report))
    ops.append(CliOp("criterion_9", CRITERION_9_JOB, report))
    return ops


# ---------------------------------------------------------------------------
# long_series: few products of long series, and long literal pairs

def _series_digest(series: SkewSeries) -> str:
    """sha256 of the sorted exponents, then of their coefficients in that order."""
    exps = sorted(series.coeffs)
    flat = chain.from_iterable(exps) if exps and isinstance(exps[0], tuple) else exps
    digest = hashlib.sha256(array("q", flat).tobytes())
    digest.update(array("q", [series.coeffs[s] for s in exps]).tobytes())
    return digest.hexdigest()


def _product_check(f: SkewSeries, g: SkewSeries, rng):
    """Recompute sampled coefficients of f*g straight from the definition."""
    action = f.action
    monoid, ring = action.monoid, action.ring
    fu, gv = list(f.coeffs), list(g.coeffs)
    probes = [monoid.op(rng.choice(fu), rng.choice(gv)) for _ in range(16)]
    terms = len(f.coeffs) * len(g.coeffs)

    def check(product) -> Outcome:
        digest = _series_digest(product)
        counts = {"terms_multiplied": terms}
        for s in probes:
            want = ring.zero
            for u, a in f.coeffs.items():
                v = monoid.try_subtract(s, u)
                if v is not None and v in g.coeffs:
                    want = ring.add(want, ring.mul(a, action.apply(u, g.coeffs[v])))
            if product.coefficient(s) != want:
                return Outcome(False, f"coefficient at {s!r} is {product.coefficient(s)}, "
                                      f"expected {want}", counts, digest)
        return Outcome(True, "", counts, digest)
    return check


def _random_series(action, pool, terms, rng):
    ring = action.ring
    return SkewSeries(action, {s: rng.randrange(1, ring.size)
                               for s in rng.sample(pool, terms)})


def _literal(exps, coeffs) -> str:
    return "; ".join((f"{s[0]},{s[1]}" if isinstance(s, tuple) else str(s)) + f":{c}"
                     for s, c in zip(exps, coeffs))


def _long_series(rng, report):
    contexts = []
    # Dirichlet exponents up to 400: a product then has at most 41872 terms,
    # the distinct entries of a 400 by 400 multiplication table, so its dict
    # stays in one size class and peak memory does not jump between seeds.
    dirichlet = make_monoid("NatMulDirichlet")
    for n in (6, 7, 8, 64):
        contexts.append((f"Dirichlet/Z{n}", OmegaAction(dirichlet, gallery_ring(f"Z{n}")),
                         list(range(1, 401))))
    f2xf2 = gallery_ring("F2xF2")
    swap = named_automorphism(f2xf2, "swap")
    for kind in ("NatPairLex", "NatPairRevLex", "IntPairLex", "IntPairRevLex"):
        lo = -15 if kind.startswith("Int") else 0
        contexts.append((f"{kind}/F2xF2/swap",
                         pair_action(make_monoid(kind), f2xf2, swap, swap),
                         [(i, j) for i in range(lo, 30) for j in range(lo, 30)]))
    m2f2 = gallery_ring("M2F2")
    inner = named_automorphism(m2f2, "inner:6")
    for kind, lo in (("NatAdd", 0), ("IntAdd", -800)):
        contexts.append((f"{kind}/M2F2/inner:6",
                         single_generator_action(make_monoid(kind), m2f2, inner),
                         list(range(lo, 800))))

    # Fixed term counts from 300 to 400, so the seed moves the exponents and
    # coefficients but not the work per op.
    sizes = [300 + 100 * i // 7 for i in range(8)]
    ops: list[Op] = []
    for label, action, pool in contexts:
        for i in range(8):
            f = _random_series(action, pool, sizes[i], rng)
            g = _random_series(action, pool, sizes[3 * i % 8], rng)
            ops.append(Op(f"convolve:{label}", lambda f=f, g=g: convolve(f, g),
                          _product_check(f, g, rng)))

    # Pairs over Z6 = Z2 x Z3: coefficients of g in {2, 4} and of f in {3}
    # annihilate through every middle.  A "broken" pair puts 1 on the least
    # exponent of both, so its leading product term is nonzero.
    pair_monoids = (("NatAdd", None, list(range(0, 1000))),
                    ("IntAdd", None, list(range(-500, 500))),
                    ("NatPair", "lex", [(i, j) for i in range(40) for j in range(40)]),
                    ("NatMulDirichlet", None, list(range(1, 2001))))
    for kind, order, pool in pair_monoids:
        sort_key = make_monoid(kind, order).sort_key
        for variant in ("annihilating",) * 4 + ("broken",):
            g_exps = sorted(rng.sample(pool, 200), key=sort_key)
            f_exps = sorted(rng.sample(pool, 200), key=sort_key)
            g_coeffs = [rng.choice((2, 4)) for _ in g_exps]
            f_coeffs = [3] * len(f_exps)
            if variant == "broken":
                g_coeffs[0] = f_coeffs[0] = 1
            pairs = [("ring.kind", "cyclic"), ("ring.n", 6), ("monoid.kind", kind)]
            if order:
                pairs.append(("monoid.order", order))
            pairs += [("checks", "pair_annihilation"), ("seed", rng.randrange(1 << 30)),
                      ("series.g", _literal(g_exps, g_coeffs)),
                      ("series.f", _literal(f_exps, f_coeffs))]
            ops.append(CliOp(f"Z6/{kind}{order or ''}/pair_annihilation/{variant}",
                             job_text(pairs), report))
    return ops

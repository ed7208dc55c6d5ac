"""Batch front-end: parse job specs, run checks, emit deterministic reports.

Job specs are flat ``key.path = value`` text files; see README for the full
key reference.  Reports are JSON trees with stable key ordering, so a job
rerun with the same seed produces a byte-identical file.  Exit codes:

    0  every requested check passed / verdict true
    1  some property verdict is false (counterexample embedded in report)
    2  coherence alarm: a guaranteed conclusion failed to verify
    3  spec error (unparseable or invalid)

The ``mode`` key and ``--mode`` are accepted, and validated, for older job
files; every subset quantifier is decided exactly, so they change nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .gallery import gallery_ring, list_gallery, named_automorphism
from .ideals import (
    idempotent_generator,
    is_right_s_unital,
    left_annihilator,
    left_ideal_generated,
    right_annihilator,
)
from .monoids import OrderedMonoid, UnsupportedOrderError, make_monoid
from .properties import (
    PropertyReport,
    is_left_app,
    is_left_pq_baer,
    is_quasi_baer,
    is_reduced,
    is_right_pp,
    orbit_annihilators_s_unital,
)
from .rings import (
    FiniteRing,
    RingAut,
    RingAxiomError,
    cyclic_ring,
    matrix_ring,
    product_ring,
    table_ring,
    upper_triangular_ring,
)
from .series import OmegaAction, SkewSeries, annihilates_via_all_middles, from_terms
from .theorems import (
    CoherenceAlarm,
    PRESETS,
    annihilator_obstructions,
    app_equivalence_check,
    check_coefficientwise_annihilation,
    coefficientwise_harness,
    element_orbit_annihilator,
    preset_by_name,
    run_preset,
    set_orbit_annihilator,
    witness_paths_agree,
)


class JobSpecError(ValueError):
    """The job spec failed to parse or validate."""


RING_ONLY_CHECKS = ("left_app", "pq_baer", "quasi_baer", "right_pp", "reduced")
CONTEXT_CHECKS = ("orbit_condition", "obstructions", "coefficientwise",
                  "app_equivalence", "witness_paths", "pair_annihilation")
PRESET_CHECKS = tuple(p.name for p in PRESETS)
ALL_CHECKS = RING_ONLY_CHECKS + CONTEXT_CHECKS + PRESET_CHECKS


@dataclass
class JobSpec:
    """A parsed job: raw key/value pairs plus typed accessors."""

    pairs: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str) -> "JobSpec":
        pairs: dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise JobSpecError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise JobSpecError(f"line {lineno}: empty key")
            if key in pairs:
                raise JobSpecError(f"line {lineno}: duplicate key {key!r}")
            pairs[key] = value.strip()
        return cls(pairs)

    @classmethod
    def from_file(cls, path: str) -> "JobSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.pairs.get(key, default)

    def get_int(self, key: str, default: int | None = None) -> int | None:
        raw = self.pairs.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise JobSpecError(f"{key}: expected an integer, got {raw!r}")

    def checks(self) -> list[str]:
        raw = self.pairs.get("checks", "")
        return [c.strip() for c in raw.split(",") if c.strip()]

    def normalized(self) -> dict[str, str]:
        return dict(sorted(self.pairs.items()))


# ---------------------------------------------------------------------------
# validation

def validate(job: JobSpec) -> list[str]:
    """Per-field diagnostics; an empty list means the spec is runnable."""
    diags: list[str] = []
    ring_kind = job.get("ring.kind")
    if ring_kind is None:
        diags.append("ring.kind required")
    elif ring_kind not in ("cyclic", "matrix", "triangular", "product", "table", "gallery"):
        diags.append(f"ring.kind: unknown kind {ring_kind!r}")
    else:
        needed = {
            "cyclic": ["ring.n"],
            "matrix": ["ring.base", "ring.k"],
            "triangular": ["ring.base", "ring.k"],
            "product": ["ring.a", "ring.b"],
            "table": ["ring.add_table", "ring.mul_table"],
            "gallery": ["ring.name"],
        }[ring_kind]
        for key in needed:
            if job.get(key) is None:
                diags.append(f"{key} required for ring.kind = {ring_kind}")

    monoid_kind = job.get("monoid.kind")
    if monoid_kind is None:
        diags.append("monoid.kind required")
    else:
        order = job.get("monoid.order")
        try:
            make_monoid(monoid_kind, order)
        except UnsupportedOrderError as exc:
            diags.append(f"monoid.kind/monoid.order: {exc}")

    checks = job.checks()
    if not checks:
        diags.append("checks required (comma-separated list)")
    for check in checks:
        if check not in ALL_CHECKS:
            diags.append(f"checks: unknown check {check!r}")
    if "pair_annihilation" in checks:
        for key in ("series.g", "series.f"):
            if job.get(key) is None:
                diags.append(f"{key} required for the pair_annihilation check")

    mode = job.get("mode", "exhaustive")
    if mode not in ("exhaustive", "sampled"):
        diags.append(f"mode: expected exhaustive or sampled, got {mode!r}")
    if job.get("monoid.window") is not None:
        diags.append("monoid.window: not supported")
    for key in ("trials", "seed"):
        raw = job.get(key)
        if raw is not None:
            try:
                int(raw)
            except ValueError:
                diags.append(f"{key}: expected an integer, got {raw!r}")
    return diags


# ---------------------------------------------------------------------------
# construction from a validated spec

def build_ring(job: JobSpec) -> FiniteRing:
    kind = job.get("ring.kind")
    try:
        if kind == "cyclic":
            return cyclic_ring(job.get_int("ring.n"))
        if kind == "matrix":
            return matrix_ring(cyclic_ring(job.get_int("ring.base")), job.get_int("ring.k"))
        if kind == "triangular":
            return upper_triangular_ring(cyclic_ring(job.get_int("ring.base")),
                                         job.get_int("ring.k"))
        if kind == "product":
            return product_ring(cyclic_ring(job.get_int("ring.a")),
                                cyclic_ring(job.get_int("ring.b")))
        if kind == "table":
            return table_ring(_parse_table(job.get("ring.add_table")),
                              _parse_table(job.get("ring.mul_table")))
        if kind == "gallery":
            return gallery_ring(job.get("ring.name"))
    except (RingAxiomError, KeyError, TypeError) as exc:
        raise JobSpecError(f"ring: {exc}")
    raise JobSpecError(f"ring.kind: unknown kind {kind!r}")


def _parse_table(raw: str) -> list[list[int]]:
    rows = [r.strip() for r in raw.split(";") if r.strip()]
    return [[int(c) for c in row.split(",")] for row in rows]


def build_monoid(job: JobSpec) -> OrderedMonoid:
    try:
        return make_monoid(job.get("monoid.kind"), job.get("monoid.order"))
    except UnsupportedOrderError as exc:
        raise JobSpecError(str(exc))


def _resolve_automorphism(ring: FiniteRing, spec: str) -> RingAut:
    if spec.startswith("images:"):
        try:
            perm = [int(x) for x in spec[len("images:"):].split(",")]
            return RingAut(ring, perm, validate=True)
        except (ValueError, RingAxiomError) as exc:
            raise JobSpecError(f"action: bad image list: {exc}")
    try:
        return named_automorphism(ring, spec)
    except (KeyError, RingAxiomError, ValueError) as exc:
        raise JobSpecError(f"action: {exc}")


def build_action(job: JobSpec, monoid: OrderedMonoid, ring: FiniteRing) -> OmegaAction:
    alpha = _resolve_automorphism(ring, job.get("action.alpha", "identity"))
    beta = _resolve_automorphism(ring, job.get("action.beta", "identity"))
    try:
        if monoid.kind in ("NatAdd", "IntAdd"):
            return OmegaAction(monoid, ring, {1: alpha})
        if monoid.kind == "NatMulDirichlet":
            if not alpha.is_identity() or not beta.is_identity():
                raise JobSpecError("action: NatMulDirichlet only supports the trivial action")
            return OmegaAction(monoid, ring)
        return OmegaAction(monoid, ring, {(1, 0): alpha, (0, 1): beta})
    except ValueError as exc:
        raise JobSpecError(f"action: {exc}")


def parse_series(raw: str, action: OmegaAction) -> SkewSeries:
    """Series literal: 'exp:coeff; exp:coeff', pair exponents as m,n.

    Each coeff is a ring element, an int in 0..n-1 for a ring of n elements.
    """
    n = action.ring.size
    terms = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise JobSpecError(f"series term {chunk!r} must look like exp:coeff")
        exp_raw, coeff_raw = chunk.rsplit(":", 1)
        try:
            coeff = int(coeff_raw)
            if "," in exp_raw:
                a, b = exp_raw.split(",")
                exp = (int(a), int(b))
            else:
                exp = int(exp_raw)
        except ValueError:
            raise JobSpecError(f"series term {chunk!r}: bad integers")
        if not 0 <= coeff < n:
            raise JobSpecError(f"series term {chunk!r}: coefficient {coeff} is not "
                               f"an element of {action.ring.name} (0..{n - 1})")
        terms.append((exp, coeff))
    try:
        return from_terms(action, terms)
    except ValueError as exc:
        raise JobSpecError(f"series: {exc}")


# ---------------------------------------------------------------------------
# check execution

def _run_check(check: str, ring: FiniteRing, action: OmegaAction,
               job: JobSpec, trials: int, seed: int) -> PropertyReport:
    if check == "left_app":
        return is_left_app(ring)
    if check == "pq_baer":
        return is_left_pq_baer(ring)
    if check == "quasi_baer":
        return is_quasi_baer(ring)
    if check == "right_pp":
        return is_right_pp(ring)
    if check == "reduced":
        return is_reduced(ring)
    if check == "orbit_condition":
        return orbit_annihilators_s_unital(ring, action)
    if check == "obstructions":
        return annihilator_obstructions(ring, action)
    if check == "coefficientwise":
        return coefficientwise_harness(ring, action, pairs=trials, seed=seed)
    if check == "app_equivalence":
        return app_equivalence_check(ring, action, pairs=trials, seed=seed)
    if check == "witness_paths":
        return witness_paths_agree(ring, action, instances=trials, seed=seed)
    if check == "pair_annihilation":
        g = parse_series(job.get("series.g"), action)
        f = parse_series(job.get("series.f"), action)
        if not annihilates_via_all_middles(g, f):
            return PropertyReport(
                ring.name, "pair_annihilation", False,
                {"detail": "g does not annihilate f through all middles",
                 "g": _series_terms(g), "f": _series_terms(f)})
        report = check_coefficientwise_annihilation(g, f)
        report.witnesses = {"g": _series_terms(g), "f": _series_terms(f),
                            **report.witnesses}
        return report
    if check in PRESET_CHECKS:
        alpha = _resolve_automorphism(ring, job.get("action.alpha", "identity"))
        beta = _resolve_automorphism(ring, job.get("action.beta", "identity"))
        try:
            return run_preset(preset_by_name(check), ring, alpha, beta)
        except ValueError as exc:
            raise JobSpecError(f"preset {check}: {exc}")
    raise JobSpecError(f"unknown check: {check}")


def _series_terms(series: SkewSeries) -> list:
    return [[repr(s), r] for s, r in sorted(series.coeffs.items(),
                                            key=lambda kv: series.monoid.sort_key(kv[0]))]


def run_job(job: JobSpec, out_path: str | None = None,
            trials_override: int | None = None, seed_override: int | None = None,
            record_timings: bool = False, stream=None) -> int:
    """Execute a job, write its report, and return the exit code."""
    stream = stream if stream is not None else sys.stdout
    diags = validate(job)
    if diags:
        for d in diags:
            print(f"spec error: {d}", file=stream)
        return 3

    trials = trials_override if trials_override is not None else job.get_int("trials", 1000)
    seed = seed_override if seed_override is not None else job.get_int("seed", 0)
    out_path = out_path or job.get("out", "report.json")

    try:
        ring = build_ring(job)
        monoid = build_monoid(job)
        action = build_action(job, monoid, ring)
    except JobSpecError as exc:
        print(f"spec error: {exc}", file=stream)
        return 3

    verdicts = []
    witnesses = []
    timings = {}
    alarm: str | None = None
    exit_code = 0
    for check in job.checks():
        t0 = time.perf_counter()
        try:
            report = _run_check(check, ring, action, job, trials, seed)
        except CoherenceAlarm as exc:
            alarm = f"{check}: {exc}"
            exit_code = 2
            print(f"ALARM {check}: {exc}", file=stream)
            break
        except JobSpecError as exc:
            print(f"spec error: {exc}", file=stream)
            return 3
        except ValueError as exc:
            print(f"spec error: {check}: {exc}", file=stream)
            return 3
        elapsed = time.perf_counter() - t0
        timings[check] = round(elapsed, 6)
        verdicts.append({"check": check, "name": report.name,
                         "ring": report.ring, "verdict": report.verdict,
                         "witness_ref": len(witnesses)})
        witnesses.append(report.witnesses)
        status = "pass" if report.verdict else "FAIL"
        print(f"{status} {check} on {report.ring} ({elapsed:.3f}s)", file=stream)
        if not report.verdict:
            exit_code = max(exit_code, 1)

    report_tree = {
        "job": job.normalized(),
        "seed": seed,
        "verdicts": verdicts,
        "witnesses": witnesses,
        "timings": timings if record_timings else {},
        "version": __version__,
    }
    if alarm is not None:
        report_tree["alarm"] = alarm
    payload = json.dumps(report_tree, sort_keys=True, indent=2) + "\n"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(payload)
    print(f"report written to {out_path}", file=stream)
    return exit_code


# ---------------------------------------------------------------------------
# replay of embedded counterexamples

def replay(report_path: str, stream=None) -> int:
    """Re-verify every false verdict's counterexample in isolation."""
    stream = stream if stream is not None else sys.stdout
    try:
        with open(report_path, "r", encoding="utf-8") as fh:
            tree = json.load(fh)
        job = JobSpec(dict(tree["job"]))
        ring = build_ring(job)
        monoid = build_monoid(job)
        action = build_action(job, monoid, ring)
    except (OSError, KeyError, TypeError, ValueError, JobSpecError) as exc:
        print(f"replay error: {exc}", file=stream)
        return 3
    try:
        false_verdicts = [(v["check"], v) for v in tree.get("verdicts", [])
                          if not v["verdict"]]
    except (KeyError, TypeError) as exc:
        print(f"replay error: malformed verdict entry ({type(exc).__name__}: {exc})",
              file=stream)
        return 3

    if not false_verdicts:
        print("nothing to replay: no false verdicts in report", file=stream)
        return 0
    for check, verdict in false_verdicts:
        try:
            witness = tree["witnesses"][verdict["witness_ref"]]
            ok = _replay_one(check, witness, ring, action, job)
        except JobSpecError as exc:
            print(f"replay error: {exc}", file=stream)
            return 3
        except (KeyError, TypeError, IndexError) as exc:
            # a missing witness, one that lacks a key the replay reads, or
            # one holding a value of the wrong shape
            print(f"replay error: malformed {check} witness "
                  f"({type(exc).__name__}: {exc})", file=stream)
            return 3
        status = "confirmed" if ok else "NOT REPRODUCED"
        print(f"replay {check}: counterexample {status}", file=stream)
        if not ok:
            return 2
    return 0


def _replay_one(check: str, witness: dict, ring: FiniteRing,
                action: OmegaAction, job: JobSpec) -> bool:
    counter = witness.get("counterexample") or {}
    if check == "left_app":
        a = counter["element"]
        ann = left_annihilator(left_ideal_generated({a}, ring).members, ring)
        return (ann.sorted_members() == counter["annihilator"]
                and not is_right_s_unital(ann).holds)
    if check in ("pq_baer", "quasi_baer"):
        if "element" in counter:
            target = left_annihilator(
                left_ideal_generated({counter["element"]}, ring).members, ring)
        else:
            target = left_annihilator(frozenset(counter["ideal"]), ring)
        if target.sorted_members() != counter["annihilator"]:
            return False
        return idempotent_generator(target, "left") is None
    if check == "right_pp":
        ann = right_annihilator({counter["element"]}, ring)
        if ann.sorted_members() != counter["annihilator"]:
            return False
        return idempotent_generator(ann, "right") is None
    if check == "reduced":
        a = counter["element"]
        return a != ring.zero and ring.mul(a, a) == ring.zero
    if check in ("orbit_condition",) + PRESET_CHECKS:
        if check in PRESET_CHECKS:
            _, action = preset_by_name(check).build(
                ring,
                _resolve_automorphism(ring, job.get("action.alpha", "identity")),
                _resolve_automorphism(ring, job.get("action.beta", "identity")))
        subset = counter["subset"]
        ann = set_orbit_annihilator(subset, action)
        return (ann.sorted_members() == counter["annihilator"]
                and not is_right_s_unital(ann).holds)
    if check in ("obstructions", "app_equivalence"):
        pairs = witness.get("obstructions", [])
        for obs in pairs:
            ann = element_orbit_annihilator(obs["element"], action)
            if ann.sorted_members() != obs["annihilator"]:
                return False
            b = obs["blocked"]
            if any(ring.mul(b, x) == b for x in ann.members):
                return False
        return bool(pairs)
    if check == "pair_annihilation":
        g = parse_series(job.get("series.g"), action)
        f = parse_series(job.get("series.f"), action)
        if "detail" in witness:  # recorded as not annihilating in the first place
            return not annihilates_via_all_middles(g, f)
        return not check_coefficientwise_annihilation(g, f).verdict
    return False


# ---------------------------------------------------------------------------
# entry point

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="skewseries",
        description="annihilator-property checks for twisted power series contexts")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the checks in a job spec")
    run_p.add_argument("spec", nargs="?", help="path to the job spec file")
    run_p.add_argument("--mode", choices=["exhaustive", "sampled"],
                       help="accepted for compatibility; changes nothing")
    run_p.add_argument("--trials", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--out", help="report output path")
    run_p.add_argument("--replay", metavar="REPORT",
                       help="re-verify the counterexamples embedded in a report")
    run_p.add_argument("--record-timings", action="store_true",
                       help="write wall-clock timings into the report "
                            "(breaks byte-for-byte reproducibility)")

    val_p = sub.add_parser("validate", help="validate a job spec without running it")
    val_p.add_argument("spec", help="path to the job spec file")

    sub.add_parser("list-gallery", help="list built-in rings and automorphisms")

    args = parser.parse_args(argv)

    if args.command == "list-gallery":
        for entry in list_gallery():
            auts = ",".join(entry["automorphisms"])
            print(f"{entry['name']}\tsize={entry['size']}\tautomorphisms={auts}")
        return 0

    if args.command == "validate":
        try:
            job = JobSpec.from_file(args.spec)
        except (OSError, JobSpecError) as exc:
            print(f"spec error: {exc}")
            return 3
        diags = validate(job)
        if diags:
            for d in diags:
                print(f"spec error: {d}")
            return 3
        print("ok")
        return 0

    if args.replay:
        return replay(args.replay)
    if not args.spec:
        print("spec error: a job spec file (or --replay) is required")
        return 3
    try:
        job = JobSpec.from_file(args.spec)
    except (OSError, JobSpecError) as exc:
        print(f"spec error: {exc}")
        return 3
    return run_job(job, out_path=args.out,
                   trials_override=args.trials, seed_override=args.seed,
                   record_timings=args.record_timings)


if __name__ == "__main__":
    sys.exit(main())

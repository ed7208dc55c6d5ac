"""Batch front-end: parse job specs, run checks, emit deterministic reports.

Job specs are flat ``key.path = value`` text files; see README for the full
key reference.  Reports are JSON trees with stable key ordering, so a job
rerun with the same seed produces a byte-identical file: exactly
``json.dumps(tree, sort_keys=True, indent=2) + "\n"``, ASCII only, written
in place and truncated to its length.  Exit codes:

    0  every requested check passed / verdict true
    1  some property verdict is false (counterexample embedded in report)
    2  coherence alarm: a guaranteed conclusion failed to verify
    3  spec error (unparseable or invalid), usage error, or a report path
       that cannot be written

The ``mode`` key and ``--mode`` are accepted, and validated, for older job
files; every subset quantifier is decided exactly, so they change nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .gallery import gallery_ring, list_gallery, named_automorphism
from .ideals import (
    IdealSet,
    _elements,
    idempotent_generator,
    is_right_s_unital,
    left_annihilator,
    left_ideal_generated,
    orbit_ideal,
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
    _NOT_THROUGH_MIDDLES,
    _is_blocked,
    annihilator_obstructions,
    app_equivalence_check,
    check_coefficientwise_annihilation,
    coefficientwise_harness,
    preset_by_name,
    run_preset,
    witness_paths_agree,
)


class JobSpecError(ValueError):
    """The job spec failed to parse or validate."""


# The keys of the README's key reference; ``monoid.window`` is known so that
# ``validate`` can say why it is refused.
_JOB_KEYS = frozenset((
    "ring.kind", "ring.n", "ring.base", "ring.k", "ring.a", "ring.b", "ring.name",
    "ring.add_table", "ring.mul_table", "monoid.kind", "monoid.order", "monoid.window",
    "action.alpha", "action.beta", "series.g", "series.f", "checks", "mode", "trials",
    "seed", "out"))
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
    """Per-field diagnostics, without building anything; an empty list means
    the spec is complete (``_checked`` then builds it)."""
    diags = [f"{key}: unknown key" for key in job.pairs if key not in _JOB_KEYS]
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
                value = int(raw)
            except ValueError:
                diags.append(f"{key}: expected an integer, got {raw!r}")
                continue
            if key == "trials" and value < 0:
                diags.append(f"trials: expected at least 0, got {value}")
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
    try:
        return [[int(c) for c in row.split(",")] for row in rows]
    except ValueError as exc:
        raise JobSpecError(f"ring: table entry is not an integer ({exc})")


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


def _images(job: JobSpec, ring: FiniteRing) -> tuple[RingAut, RingAut]:
    """The job's ``action.alpha`` and ``action.beta``, the identity when unset."""
    return tuple(_resolve_automorphism(ring, job.get(key, "identity"))
                 for key in ("action.alpha", "action.beta"))


def _build(job: JobSpec) -> tuple:
    """(ring, images, action, series): what a job's checks read.  images are
    ``action.alpha`` and ``action.beta`` resolved in the ring, and series
    maps each of ``series.g`` and ``series.f`` the job sets to its literal
    parsed over the action.  JobSpecError names the first part that fails."""
    ring = build_ring(job)
    monoid = build_monoid(job)
    images = _images(job, ring)
    try:
        action = OmegaAction(monoid, ring, *images)
    except ValueError as exc:
        raise JobSpecError(f"action: {exc}")
    series = {key: parse_series(job.get(key), action)
              for key in ("series.g", "series.f") if job.get(key) is not None}
    return ring, images, action, series


def _checked(job: JobSpec) -> tuple:
    """(built, diagnostics): the job built by ``_build`` and [], or None and
    the spec errors that refuse it.  The ``validate`` command and
    ``run_job`` both check and build through here, so they refuse a job
    with the same lines."""
    diags = validate(job)
    if diags:
        return None, diags
    try:
        return _build(job), []
    except JobSpecError as exc:
        return None, [str(exc)]


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

def _run_check(check: str, built: tuple, trials: int, seed: int) -> PropertyReport:
    ring, images, action, series = built
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
        g, f = series["series.g"], series["series.f"]
        report = check_coefficientwise_annihilation(g, f)
        # the middles are reported before the orbit hypothesis, which the
        # library reports without testing them
        if report.witnesses.get("failure") == "hypothesis" and (
                report.witnesses["detail"] == _NOT_THROUGH_MIDDLES
                or not annihilates_via_all_middles(g, f)):
            return PropertyReport(
                ring.name, "pair_annihilation", False,
                {"detail": "g does not annihilate f through all middles",
                 "g": _series_terms(g), "f": _series_terms(f)})
        report.witnesses = {"g": _series_terms(g), "f": _series_terms(f),
                            **report.witnesses}
        return report
    if check in PRESET_CHECKS:
        try:
            return run_preset(preset_by_name(check), ring, *images)
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
    built, diags = _checked(job)
    if diags:
        for d in diags:
            print(f"spec error: {d}", file=stream)
        return 3

    trials = trials_override if trials_override is not None else job.get_int("trials", 1000)
    if trials < 0:  # the job's own trials were validated above
        print(f"spec error: trials: expected at least 0, got {trials}", file=stream)
        return 3
    seed = seed_override if seed_override is not None else job.get_int("seed", 0)
    out_path = out_path or job.get("out", "report.json")

    verdicts = []
    witnesses = []
    timings = {}
    alarm: str | None = None
    exit_code = 0
    for check in job.checks():
        t0 = time.perf_counter()
        try:
            report = _run_check(check, built, trials, seed)
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
    payload = (_text(report_tree, "\n") + "\n").encode("ascii")
    try:
        # written in place, then cut to length: a file truncated to zero on
        # open and rewritten is flushed at close on ext4 (auto_da_alloc),
        # which took over ten times the write of a 4.5 KB report
        fd = os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as fh:
            fh.write(payload)
            if stat.S_ISREG(os.fstat(fd).st_mode):  # not /dev/null or a FIFO
                fh.truncate()
    except OSError as exc:
        print(f"report error: {exc}", file=stream)
        return 3
    print(f"report written to {out_path}", file=stream)
    return exit_code


# what json.dumps prints for the values it writes as literals
_LITERALS = {True: "true", False: "false", None: "null"}


def _text(x, nl: str) -> str:
    """``x`` exactly as ``json.dumps(x, sort_keys=True, indent=2)`` prints
    it at the indentation that ``nl``, a newline plus spaces, carries.

    Exact ``str``, ``int``, ``bool``, ``None``, ``list`` and ``str``-keyed
    ``dict`` are written here: a list of ints by one ``join``, and a list of
    equal-length lists whose columns are each all ``int`` or all ``str``
    (the witnesses' ``[b, x]`` pairs, a series' ``[repr(s), r]`` terms) by
    one ``%s`` template, its strings quoted first.  Any other value (a
    float, tuple, ``str`` subclass, or dict with a key that is not a
    ``str``) goes to ``json.dumps`` re-indented by replacing each newline
    with ``nl``; that is exact because ``json.dumps`` escapes every newline
    inside a string, so each one it prints is structural."""
    kind = type(x)
    if kind is str:
        return _quote(x)
    if kind is int:
        return str(x)
    inner = nl + "  "
    if kind is list:
        if not x:
            return "[]"
        sep = "," + inner
        kinds = set(map(type, x))
        if kinds == {int}:
            return f"[{inner}{sep.join(map(str, x))}{nl}]"
        if kinds == {list} and len(set(map(len, x))) == 1 and x[0]:
            flat = list(chain.from_iterable(x))
            width = len(x[0])
            types = set(map(type, flat))
            if types == {int} or types <= {int, str} and all(
                    len(set(map(type, flat[j::width]))) == 1 for j in range(width)):
                for j in range(width):
                    if type(flat[j]) is str:
                        flat[j::width] = map(_quote, flat[j::width])
                deeper = f",{inner}  "
                row = f"[{deeper[1:]}{deeper.join(['%s'] * width)}{inner}]"
                return f"[{inner}{sep.join([row] * len(x))}{nl}]" % tuple(flat)
        return f"[{inner}{sep.join([_text(v, inner) for v in x])}{nl}]"
    if kind is dict:
        if not x:
            return "{}"
        if set(map(type, x)) == {str}:
            items = [f"{_quote(k)}: {_text(x[k], inner)}" for k in sorted(x)]
            return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    if kind is bool or x is None:
        return _LITERALS[x]
    return json.dumps(x, sort_keys=True, indent=2).replace("\n", nl)


# ---------------------------------------------------------------------------
# replay of embedded counterexamples

def replay(report_path: str, stream=None) -> int:
    """Re-verify every false verdict's counterexample in isolation."""
    stream = stream if stream is not None else sys.stdout
    try:
        with open(report_path, "r", encoding="utf-8") as fh:
            tree = json.load(fh)
        job = tree["job"]
        if type(job) is not dict or set(map(type, chain(job, job.values()))) - {str}:
            raise JobSpecError("job: every key and value must be a string")
        built = _build(JobSpec(dict(job)))
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
            ref = verdict["witness_ref"]
            if type(ref) is not int or ref < 0:  # True or -1 would alias a witness
                raise IndexError(f"witness_ref {ref!r} is not a witness index")
            witness = tree["witnesses"][ref]
            if type(witness) is not dict:
                raise TypeError(f"witness {ref} is not an object")
            ok = _replay_one(check, witness, built)
        except JobSpecError as exc:
            print(f"replay error: {exc}", file=stream)
            return 3
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            # a missing witness, one that lacks a key the replay reads, or
            # one holding a value of the wrong shape or a non-element
            print(f"replay error: malformed {check} witness "
                  f"({type(exc).__name__}: {exc})", file=stream)
            return 3
        status = "confirmed" if ok else "NOT REPRODUCED"
        print(f"replay {check}: counterexample {status}", file=stream)
        if not ok:
            return 2
    return 0


def _recorded(ideal: IdealSet, listed) -> bool:
    """Whether ``ideal`` is the recorded list ``listed``, after checking
    that each entry is an element index (ValueError otherwise)."""
    return ideal.sorted_members() == _elements(ideal.ring, listed)


def _replay_one(check: str, witness: dict, built: tuple) -> bool:
    ring, images, action, series = built
    counter = witness.get("counterexample") or {}
    if check == "left_app":
        a = counter["element"]
        ann = left_annihilator(left_ideal_generated({a}, ring).members, ring)
        return (_recorded(ann, counter["annihilator"])
                and not is_right_s_unital(ann).holds)
    if check in ("pq_baer", "quasi_baer"):
        if "element" in counter:
            target = left_annihilator(
                left_ideal_generated({counter["element"]}, ring).members, ring)
        else:
            target = left_annihilator(frozenset(counter["ideal"]), ring)
        if not _recorded(target, counter["annihilator"]):
            return False
        return idempotent_generator(target, "left") is None
    if check == "right_pp":
        ann = right_annihilator({counter["element"]}, ring)
        if not _recorded(ann, counter["annihilator"]):
            return False
        return idempotent_generator(ann, "right") is None
    if check == "reduced":
        a = counter["element"]
        ring.check_element(a)
        return a != ring.zero and ring.mul(a, a) == ring.zero
    if check in ("orbit_condition",) + PRESET_CHECKS:
        if check in PRESET_CHECKS:
            _, action = preset_by_name(check).build(ring, *images)
        # recomputed from the ring, as l(Ra) is above, not read off the
        # action's orbit record that the verdict came from
        ann = left_annihilator(orbit_ideal(counter["subset"], action).members, ring)
        return (_recorded(ann, counter["annihilator"])
                and not is_right_s_unital(ann).holds)
    if check in ("obstructions", "app_equivalence"):
        pairs = witness.get("obstructions", [])
        for obs in pairs:
            ann = left_annihilator(orbit_ideal((obs["element"],), action).members, ring)
            if not _recorded(ann, obs["annihilator"]):
                return False
            b = obs["blocked"]
            ring.check_element(b)
            if not _is_blocked(ring, b, ann.members):
                return False
        return bool(pairs)
    if check == "pair_annihilation":
        g, f = series["series.g"], series["series.f"]
        if "failure" not in witness:  # recorded as not annihilating in the first place
            return not annihilates_via_all_middles(g, f)
        return not check_coefficientwise_annihilation(g, f).verdict
    return False


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 3, the spec-error code:
    argparse's own 2 is the coherence alarm here.  Subparsers inherit it."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
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
        _, diags = _checked(job)
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

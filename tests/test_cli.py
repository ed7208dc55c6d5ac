import io
import json
import re

import pytest

from skewseries.cli import (
    JobSpec,
    JobSpecError,
    _build,
    build_ring,
    main,
    parse_series,
    replay,
    run_job,
    validate,
)
import skewseries.cli as cli
import skewseries.theorems as theorems
from skewseries.gallery import gallery_ring, named_automorphism
from skewseries.monoids import make_monoid
from skewseries.rings import cyclic_ring, identity_automorphism, product_ring
from skewseries.series import OmegaAction, constant
from skewseries.theorems import PRESETS

Z4_JOB = """
# reproduce the annihilator counterexample
ring.kind = cyclic
ring.n = 4
monoid.kind = NatAdd
action.alpha = identity
checks = left_app
mode = exhaustive
seed = 7
"""

FIELD_JOB = """
ring.kind = cyclic
ring.n = 5
monoid.kind = NatAdd
checks = left_app, orbit_condition
seed = 1
"""

DIRICHLET_JOB = """
ring.kind = cyclic
ring.n = 6
monoid.kind = NatMulDirichlet
checks = arithmetic_functions
seed = 1
"""


def run_to_file(text, tmp_path, name="report.json", **kwargs):
    job = JobSpec.from_text(text)
    out = tmp_path / name
    buf = io.StringIO()
    code = run_job(job, out_path=str(out), stream=buf, **kwargs)
    return code, out, buf.getvalue()


def test_job_parsing_rejects_garbage():
    with pytest.raises(JobSpecError, match="key = value"):
        JobSpec.from_text("this is not a key value line")
    with pytest.raises(JobSpecError, match="duplicate"):
        JobSpec.from_text("a = 1\na = 2")


def test_validate_reports_missing_monoid_kind():
    job = JobSpec.from_text("ring.kind = cyclic\nring.n = 4\nchecks = left_app")
    assert "monoid.kind required" in validate(job)


def test_validate_rejects_product_order():
    job = JobSpec.from_text(
        "ring.kind = cyclic\nring.n = 4\nmonoid.kind = NatPair\n"
        "monoid.order = product\nchecks = left_app")
    assert any("product order rejected" in d for d in validate(job))


@pytest.mark.parametrize("kind, order", [("NatPairLex", "revlex"), ("NatAdd", "bogus")])
def test_an_order_variant_without_a_pair_base_is_a_spec_error(tmp_path, capsys, kind, order):
    text = f"ring.kind = cyclic\nring.n = 4\nmonoid.kind = {kind}\nmonoid.order = {order}\n" \
        "checks = left_app"
    line = (f"spec error: monoid.kind/monoid.order: order variant {order} needs monoid kind "
            f"NatPair or IntPair, got {kind}\n")
    code, out, log = run_to_file(text, tmp_path)
    assert code == 3 and not out.exists()
    assert log == line
    spec = tmp_path / "job.txt"
    spec.write_text(text)
    assert main(["validate", str(spec)]) == 3
    assert capsys.readouterr().out == line


def test_validate_rejects_unknown_check():
    job = JobSpec.from_text(
        "ring.kind = cyclic\nring.n = 4\nmonoid.kind = NatAdd\nchecks = frobnicate")
    assert any("unknown check 'frobnicate'" in d for d in validate(job))


def test_validate_accepts_well_formed_job():
    assert validate(JobSpec.from_text(Z4_JOB)) == []


def test_monoid_window_is_rejected(tmp_path):
    # no check reads a window, so a job that sets one is refused, not ignored
    job = JobSpec.from_text(Z4_JOB + "monoid.window = 5\n")
    assert validate(job) == ["monoid.window: not supported"]
    buf = io.StringIO()
    assert run_job(job, out_path=str(tmp_path / "r.json"), stream=buf) == 3
    assert "monoid.window: not supported" in buf.getvalue()


def test_ring_builders_from_spec():
    assert build_ring(JobSpec.from_text("ring.kind = cyclic\nring.n = 6")).size == 6
    assert build_ring(JobSpec.from_text(
        "ring.kind = matrix\nring.base = 2\nring.k = 2")).size == 16
    assert build_ring(JobSpec.from_text(
        "ring.kind = triangular\nring.base = 2\nring.k = 2")).size == 8
    assert build_ring(JobSpec.from_text(
        "ring.kind = product\nring.a = 2\nring.b = 3")).size == 6
    assert build_ring(JobSpec.from_text(
        "ring.kind = gallery\nring.name = T2F2")).name == "T2(Z2)"
    add = "0,1;1,0"
    mul = "0,0;0,1"
    ring = build_ring(JobSpec.from_text(
        f"ring.kind = table\nring.add_table = {add}\nring.mul_table = {mul}"))
    assert ring.size == 2


def test_table_entry_outside_the_ring_is_a_spec_error(tmp_path):
    text = """
ring.kind = table
ring.add_table = 0,1,2;1,2,0;2,0,1
ring.mul_table = 0,0,0;0,1,2;0,2,3
monoid.kind = NatAdd
checks = left_app
seed = 0
"""
    code, _, log = run_to_file(text, tmp_path)
    assert code == 3
    assert "mul table entry 3 at (2,2) is not an element 0..2" in log


def test_series_literals_roundtrip():
    job = JobSpec.from_text("ring.kind = cyclic\nring.n = 6\nmonoid.kind = NatAdd")
    action = _build(job)[2]
    series = parse_series("0:3; 2:5", action)
    assert series.coeffs == {0: 3, 2: 5}

    pair_job = JobSpec.from_text(
        "ring.kind = cyclic\nring.n = 6\nmonoid.kind = NatPairLex")
    pact = _build(pair_job)[2]
    series = parse_series("0,0:3; 1,2:5", pact)
    assert series.coeffs == {(0, 0): 3, (1, 2): 5}


def test_run_z4_left_app_exits_one_with_counterexample(tmp_path):
    code, out, _ = run_to_file(Z4_JOB, tmp_path)
    assert code == 1
    tree = json.loads(out.read_text())
    verdict = tree["verdicts"][0]
    assert verdict["check"] == "left_app" and verdict["verdict"] is False
    counter = tree["witnesses"][verdict["witness_ref"]]["counterexample"]
    assert counter["element"] == 2
    assert counter["annihilator"] == [0, 2]


def test_run_field_job_exits_zero(tmp_path):
    code, out, _ = run_to_file(FIELD_JOB, tmp_path)
    assert code == 0
    tree = json.loads(out.read_text())
    assert all(v["verdict"] for v in tree["verdicts"])


def test_run_dirichlet_preset_job(tmp_path):
    code, out, _ = run_to_file(DIRICHLET_JOB, tmp_path)
    assert code == 0


def test_non_integer_table_entry_is_a_spec_error(tmp_path):
    text = """
ring.kind = table
ring.add_table = 0,1;1,x
ring.mul_table = 0,0;0,1
monoid.kind = NatAdd
checks = left_app
"""
    code, out, log = run_to_file(text, tmp_path)
    assert code == 3 and not out.exists()
    assert log.startswith("spec error: ring: table entry is not an integer")
    assert "'x'" in log


def test_cyclic_ring_above_the_size_cap_is_a_spec_error(tmp_path):
    text = "ring.kind = cyclic\nring.n = 8192\nmonoid.kind = NatAdd\nchecks = reduced\n"
    code, out, log = run_to_file(text, tmp_path)
    assert code == 3 and not out.exists()
    assert log == "spec error: ring: size cap exceeded: 8192 > 4096\n"


@pytest.mark.parametrize("check", ["coefficientwise", "app_equivalence", "witness_paths"])
def test_a_constructed_pair_outside_the_middles_exits_two(check, tmp_path, monkeypatch):
    monkeypatch.setattr(theorems, "random_annihilating_pair",
                        lambda action, rng: (constant(action, 2), constant(action, 1)))
    text = f"ring.kind = cyclic\nring.n = 6\nmonoid.kind = NatAdd\nchecks = {check}\n"
    code, _, log = run_to_file(text, tmp_path)
    assert code == 2
    assert log.startswith(
        f"ALARM {check}: constructed pair 0 fails to annihilate through middles\n")


def test_run_invalid_spec_exits_three(tmp_path):
    job = JobSpec.from_text("ring.kind = cyclic\nring.n = 4\nchecks = left_app")
    buf = io.StringIO()
    assert run_job(job, out_path=str(tmp_path / "r.json"), stream=buf) == 3
    assert "monoid.kind required" in buf.getvalue()


def test_exhaustive_orbit_job_on_z32_replays(tmp_path):
    text = """
ring.kind = gallery
ring.name = Z32
monoid.kind = NatAdd
checks = orbit_condition
mode = exhaustive
"""
    code, out, _ = run_to_file(text, tmp_path)
    assert code == 1
    tree = json.loads(out.read_text())
    assert tree["witnesses"][0]["counterexample"]["subset"] == [2]
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 0
    assert "counterexample confirmed" in buf.getvalue()


def test_quasi_baer_counterexample_on_z32_replays(tmp_path):
    text = """
ring.kind = gallery
ring.name = Z32
monoid.kind = NatAdd
checks = quasi_baer
"""
    code, out, _ = run_to_file(text, tmp_path)
    assert code == 1
    tree = json.loads(out.read_text())
    assert tree["witnesses"][0]["counterexample"]["annihilator"] == [0, 16]
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 0
    assert "counterexample confirmed" in buf.getvalue()


MODE_JOB = """
ring.kind = gallery
ring.name = M2F2
monoid.kind = NatAdd
action.alpha = inner:6
checks = left_app, orbit_condition, app_equivalence, skew_power_series
trials = 40
seed = 77
"""


def test_mode_is_accepted_and_changes_nothing(tmp_path):
    code, _, log = run_to_file(MODE_JOB + "mode = thorough\n", tmp_path, name="bad.json")
    assert code == 3
    assert "mode: expected exhaustive or sampled" in log

    code, plain, _ = run_to_file(MODE_JOB, tmp_path, name="plain.json")
    assert code == 0
    for mode in ("exhaustive", "sampled"):
        code, keyed, _ = run_to_file(MODE_JOB + f"mode = {mode}\n", tmp_path,
                                     name=f"{mode}.json")
        assert code == 0
        tree = json.loads(keyed.read_text())
        assert tree["job"].pop("mode") == mode
        assert json.dumps(tree, sort_keys=True, indent=2) + "\n" == plain.read_text()

    spec = tmp_path / "job.txt"
    spec.write_text(MODE_JOB)
    flagged = tmp_path / "flagged.json"
    assert main(["run", str(spec), "--mode", "sampled", "--out", str(flagged)]) == 0
    assert flagged.read_bytes() == plain.read_bytes()


def test_sampled_mode_handles_larger_rings(tmp_path):
    text = """
ring.kind = gallery
ring.name = Z32
monoid.kind = NatAdd
checks = orbit_condition
mode = sampled
trials = 20
seed = 5
"""
    code, out, _ = run_to_file(text, tmp_path)
    assert code == 1  # Z32 is not left APP; sampled singletons catch it
    tree = json.loads(out.read_text())
    counter = tree["witnesses"][0]["counterexample"]
    assert counter["subset"] == [2]


def test_reports_are_byte_identical_across_runs(tmp_path):
    _, out1, _ = run_to_file(FIELD_JOB, tmp_path, name="a.json")
    _, out2, _ = run_to_file(FIELD_JOB, tmp_path, name="b.json")
    assert out1.read_bytes() == out2.read_bytes()


def test_record_timings_flag_breaks_nothing_else(tmp_path):
    code, out, _ = run_to_file(Z4_JOB, tmp_path, record_timings=True)
    assert code == 1
    tree = json.loads(out.read_text())
    assert set(tree["timings"]) == {"left_app"}


def test_replay_confirms_counterexamples(tmp_path):
    _, out, _ = run_to_file(Z4_JOB, tmp_path)
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 0
    assert "confirmed" in buf.getvalue()


def test_replay_detects_tampered_counterexample(tmp_path):
    _, out, _ = run_to_file(Z4_JOB, tmp_path)
    tree = json.loads(out.read_text())
    tree["witnesses"][0]["counterexample"]["annihilator"] = [0, 1, 2]
    out.write_text(json.dumps(tree))
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 2
    assert "NOT REPRODUCED" in buf.getvalue()


MALFORMED_Z4_COUNTEREXAMPLES = {
    "empty": {},
    "no_annihilator": {"element": 2},
    "element_not_an_int": {"element": "2", "annihilator": [0, 2]},
    "element_outside_the_ring": {"element": 9, "annihilator": [0, 2]},
    # -2 would alias element 2 and confirm the counterexample
    "element_negative": {"element": -2, "annihilator": [0, 2]},
    # JSON booleans load as bools, which are ints: true would alias 1 and
    # false 0, and [0, 2] == [false, 2] in Python
    "element_bool": {"element": True, "annihilator": [0, 2]},
    "annihilator_with_bool": {"element": 2, "annihilator": [False, 2]},
}


@pytest.mark.parametrize("counterexample", list(MALFORMED_Z4_COUNTEREXAMPLES.values()),
                         ids=list(MALFORMED_Z4_COUNTEREXAMPLES))
def test_replay_of_a_malformed_witness_is_an_error(tmp_path, counterexample):
    _, out, _ = run_to_file(Z4_JOB, tmp_path)
    tree = json.loads(out.read_text())
    tree["witnesses"][0]["counterexample"] = counterexample
    out.write_text(json.dumps(tree))
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 3
    assert buf.getvalue().startswith("replay error: malformed left_app witness")


@pytest.mark.parametrize("check", ["left_app", "pq_baer", "right_pp", "reduced"])
def test_replay_of_a_negative_element_is_an_error(tmp_path, check):
    _, out, _ = run_to_file(Z4_JOB.replace("checks = left_app", f"checks = {check}"),
                            tmp_path)
    tree = json.loads(out.read_text())
    assert tree["witnesses"][0]["counterexample"]["element"] == 2
    tree["witnesses"][0]["counterexample"]["element"] = -2
    out.write_text(json.dumps(tree))
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 3
    assert buf.getvalue().startswith(
        f"replay error: malformed {check} witness (ValueError: -2 is not an element of Z4")


def test_replay_of_a_missing_witness_is_an_error(tmp_path):
    _, out, _ = run_to_file(Z4_JOB, tmp_path)
    tree = json.loads(out.read_text())
    tree["witnesses"] = []
    out.write_text(json.dumps(tree))
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 3
    assert buf.getvalue().startswith("replay error: malformed left_app witness (IndexError")


@pytest.mark.parametrize("which, ref", [(0, -2), (1, -1), (1, True), (0, False), (0, 2)])
def test_replay_of_a_witness_ref_that_is_not_an_index_is_an_error(tmp_path, which, ref):
    # a negative index or a bool would read another witness (-2 and False
    # witness 0, -1 and True witness 1) and confirm its counterexample
    code, out, _ = run_to_file(Z4_JOB.replace("checks = left_app", "checks = left_app, reduced"),
                               tmp_path)
    assert code == 1
    tree = json.loads(out.read_text())
    check = tree["verdicts"][which]["check"]
    tree["verdicts"][which]["witness_ref"] = ref
    out.write_text(json.dumps(tree))
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 3
    assert buf.getvalue().splitlines()[-1].startswith(
        f"replay error: malformed {check} witness (IndexError: ")


@pytest.mark.parametrize("witness", [[], "counterexample", 5, None])
def test_replay_of_a_witness_that_is_not_an_object_is_an_error(tmp_path, witness):
    _, out, _ = run_to_file(Z4_JOB, tmp_path)
    tree = json.loads(out.read_text())
    tree["witnesses"][0] = witness
    out.write_text(json.dumps(tree))
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 3
    assert buf.getvalue() == ("replay error: malformed left_app witness "
                              "(TypeError: witness 0 is not an object)\n")


@pytest.mark.parametrize("key, value", [("series.g", 5), ("action.alpha", 7),
                                        ("ring.n", 4), ("monoid.kind", None)])
def test_replay_of_a_job_value_that_is_not_text_is_an_error(tmp_path, key, value):
    code, out, _ = run_to_file(PAIR_JOB.replace("1:4", "1:1"), tmp_path)
    assert code == 1
    tree = json.loads(out.read_text())
    tree["job"][key] = value
    out.write_text(json.dumps(tree))
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 3
    assert buf.getvalue() == "replay error: job: every key and value must be a string\n"


@pytest.mark.parametrize("key", ["check", "verdict"])
def test_replay_of_a_verdict_entry_without_its_check_is_an_error(tmp_path, key):
    _, out, _ = run_to_file(Z4_JOB, tmp_path)
    tree = json.loads(out.read_text())
    del tree["verdicts"][0][key]
    out.write_text(json.dumps(tree))
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 3
    assert buf.getvalue().startswith(
        f"replay error: malformed verdict entry (KeyError: '{key}')")


def test_replay_with_nothing_to_do(tmp_path):
    _, out, _ = run_to_file(FIELD_JOB, tmp_path)
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 0
    assert "nothing to replay" in buf.getvalue()


def test_replay_of_orbit_condition_and_presets(tmp_path):
    text = """
ring.kind = cyclic
ring.n = 4
monoid.kind = NatAdd
checks = orbit_condition, skew_power_series
seed = 3
"""
    code, out, _ = run_to_file(text, tmp_path)
    assert code == 1
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 0


def test_pair_annihilation_check(tmp_path):
    text = """
ring.kind = cyclic
ring.n = 6
monoid.kind = NatAdd
checks = pair_annihilation
series.g = 0:3; 1:3
series.f = 0:2; 1:2
seed = 0
"""
    code, out, _ = run_to_file(text, tmp_path)
    assert code == 0
    tree = json.loads(out.read_text())
    assert tree["verdicts"][0]["verdict"] is True

    failing = text.replace("series.g = 0:3; 1:3", "series.g = 0:3; 1:1")
    code, out, _ = run_to_file(failing, tmp_path, name="fail.json")
    assert code == 1
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 0
    assert "confirmed" in buf.getvalue()


@pytest.mark.parametrize("kind, far", [("NatAdd", "10000000000"),
                                       ("IntPairLex", "10000000000,-10000000000")])
def test_pair_annihilation_with_exponents_far_apart(tmp_path, kind, far):
    # (1 + x^far)^2 = 1 + x^(2 far) over F2: the products have two terms
    # 10^10 apart and are multiplied in the grouped loop, not on a packed
    # window
    text = f"""
ring.kind = cyclic
ring.n = 2
monoid.kind = {kind}
checks = pair_annihilation
series.g = {"0" if kind == "NatAdd" else "0,0"}:1; {far}:1
series.f = {"0" if kind == "NatAdd" else "0,0"}:1; {far}:1
seed = 0
"""
    code, out, _ = run_to_file(text, tmp_path)
    assert code == 1
    tree = json.loads(out.read_text())
    assert tree["verdicts"][0]["verdict"] is False
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 0


PAIR_JOB = """
ring.kind = cyclic
ring.n = 6
monoid.kind = NatAdd
checks = pair_annihilation
series.g = 0:2; 1:4
series.f = 0:3
seed = 0
"""


def _pair_job(n, g, f):
    return PAIR_JOB.replace("ring.n = 6", f"ring.n = {n}").replace(
        "series.g = 0:2; 1:4", f"series.g = {g}").replace("series.f = 0:3", f"series.f = {f}")


@pytest.mark.parametrize("n, g, f, code", [(6, "0:2; 1:4", "0:3", 0), (6, "0:2; 1:1", "0:3", 1),
                                           (4, "0:2", "0:2", 1), (4, "0:1", "0:1", 1)])
def test_a_pair_job_tests_its_middles_once(tmp_path, monkeypatch, n, g, f, code):
    # and goes through the public check, whose binding in cli is what a
    # tracer wraps to count the products checked
    calls, checks, real = [], [], theorems.annihilates_via_all_middles
    for module in (cli, theorems):
        monkeypatch.setattr(module, "annihilates_via_all_middles",
                            lambda g, f: calls.append(1) or real(g, f))
    check = cli.check_coefficientwise_annihilation
    monkeypatch.setattr(cli, "check_coefficientwise_annihilation",
                        lambda g, f: checks.append(1) or check(g, f))
    assert run_to_file(_pair_job(n, g, f), tmp_path)[0] == code
    assert len(calls) == 1
    assert len(checks) == 1


def test_a_pair_outside_the_middles_gets_the_middles_report_first(tmp_path):
    # over Z4, 1 * 1 * 1 != 0 and the orbit annihilator of 2 is not right
    # s-unital: the job reports the middles, the library the orbit hypothesis
    code, out, _ = run_to_file(_pair_job(4, "0:1", "0:1"), tmp_path)
    assert code == 1
    tree = json.loads(out.read_text())
    assert tree["witnesses"] == [{"detail": "g does not annihilate f through all middles",
                                  "f": [["0", 1]], "g": [["0", 1]]}]
    g, f = _build(JobSpec.from_text(_pair_job(4, "0:1", "0:1")))[3].values()
    assert theorems.check_coefficientwise_annihilation(g, f).witnesses == {
        "failure": "hypothesis", "detail": "orbit annihilator of element 2 is not right s-unital"}
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 0
    assert buf.getvalue() == "replay pair_annihilation: counterexample confirmed\n"


def test_replay_confirms_a_pair_that_fails_the_orbit_hypothesis(tmp_path):
    # 2 * r * 2 == 0 over Z4, so the pair annihilates through every middle,
    # and its report names the orbit hypothesis
    code, out, _ = run_to_file(_pair_job(4, "0:2", "0:2"), tmp_path)
    assert code == 1
    tree = json.loads(out.read_text())
    assert tree["witnesses"][0]["failure"] == "hypothesis"
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 0
    assert buf.getvalue() == "replay pair_annihilation: counterexample confirmed\n"


@pytest.mark.parametrize("bad", ["7", "6", "-1"])
def test_series_coefficient_outside_the_ring_is_a_spec_error(tmp_path, bad):
    code, _, log = run_to_file(PAIR_JOB.replace("1:4", f"1:{bad}"), tmp_path)
    assert code == 3
    assert f"coefficient {bad} is not an element of Z6 (0..5)" in log


def test_series_exponent_outside_the_monoid_is_a_spec_error(tmp_path):
    # refused even with a zero coefficient, which the series drops
    code, _, log = run_to_file(PAIR_JOB.replace("0:3", "0:3; -5:0"), tmp_path)
    assert code == 3
    assert "-5 is not an element of NatAdd" in log


def test_replay_of_a_series_coefficient_outside_the_ring_is_an_error(tmp_path):
    # a report whose job carries a coefficient that no run accepts
    code, out, _ = run_to_file(PAIR_JOB.replace("1:4", "1:1"), tmp_path)
    assert code == 1
    tree = json.loads(out.read_text())
    tree["job"]["series.g"] = "0:2; 1:-1"
    out.write_text(json.dumps(tree))
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 3
    assert "replay error: series term '1:-1': coefficient -1" in buf.getvalue()

def test_main_entrypoint_subcommands(tmp_path, capsys):
    spec = tmp_path / "job.txt"
    spec.write_text(Z4_JOB)
    report = tmp_path / "r.json"
    assert main(["run", str(spec), "--out", str(report)]) == 1
    capsys.readouterr()

    assert main(["validate", str(spec)]) == 0
    assert "ok" in capsys.readouterr().out

    bad = tmp_path / "bad.txt"
    bad.write_text("ring.kind = cyclic\nchecks = left_app")
    assert main(["validate", str(bad)]) == 3
    capsys.readouterr()

    assert main(["list-gallery"]) == 0
    listing = capsys.readouterr().out
    assert "Z4" in listing and "T2F2" in listing

    assert main(["run", "--replay", str(report)]) == 0
    capsys.readouterr()

    assert main(["run"]) == 3  # neither spec nor --replay


@pytest.mark.parametrize("argv, message", [
    (["run", "job.txt", "--bogus"], "skewseries: error: unrecognized arguments: --bogus"),
    (["run", "--trials", "abc", "job.txt"],
     "skewseries run: error: argument --trials: invalid int value: 'abc'"),
    (["frobnicate"], "skewseries: error: argument command: invalid choice: 'frobnicate'"),
])
def test_usage_errors_exit_three_not_the_alarm_code(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: skewseries") and message in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["-h"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: skewseries")


def test_action_by_explicit_image_list(tmp_path):
    # the swap automorphism of F2xF2 written out as an image array
    text = """
ring.kind = product
ring.a = 2
ring.b = 2
monoid.kind = NatAdd
action.alpha = images:0,2,1,3
checks = orbit_condition
seed = 0
"""
    code, out, _ = run_to_file(text, tmp_path)
    assert code == 0

    bad = text.replace("images:0,2,1,3", "images:0,1,2,2")
    code, _, log = run_to_file(bad, tmp_path, name="bad.json")
    assert code == 3
    assert "bad image list" in log

    not_multiplicative = text.replace("images:0,2,1,3", "images:0,1,3,2")
    code, _, log = run_to_file(not_multiplicative, tmp_path, name="nm.json")
    assert code == 3

    outside = text.replace("images:0,2,1,3", "images:0,1,2,4")
    code, _, log = run_to_file(outside, tmp_path, name="outside.json")
    assert code == 3
    assert "not a bijection" in log


def test_cli_seed_override_reaches_report(tmp_path):
    job = JobSpec.from_text(FIELD_JOB)
    out = tmp_path / "seeded.json"
    run_job(job, out_path=str(out), seed_override=123, stream=io.StringIO())
    assert json.loads(out.read_text())["seed"] == 123


# ---------------------------------------------------------------------------
# the images an action takes are decided by OmegaAction alone

# One context per monoid kind, with the number of automorphisms its action
# attains.  In M2(F2) the units 7 and 14 are inverse and of order 3, so their
# inner automorphisms commute; 6 and 11 have order 2 and commute with neither.
ACTION_CONTEXTS = {
    "NatAdd": ("F2xF2", "swap", "identity", 2),
    "IntAdd": ("M2F2", "inner:7", "identity", 3),
    "NatPairLex": ("M2F2", "inner:7", "inner:14", 3),
    "NatPairRevLex": ("F2xF2", "swap", "identity", 2),
    "IntPairLex": ("M2F2", "identity", "inner:14", 3),
    "IntPairRevLex": ("M2F2", "inner:7", "inner:7", 3),
    "NatMulDirichlet": ("M2F2", "identity", "identity", 1),
}


def _action_job(kind, ring, alpha, beta, checks="left_app"):
    return (f"ring.kind = gallery\nring.name = {ring}\nmonoid.kind = {kind}\n"
            f"action.alpha = {alpha}\naction.beta = {beta}\nchecks = {checks}\n")


def _closure_perms(action):
    return [(s, aut.perm) for s, aut in action.closure()]


def test_each_preset_has_its_own_monoid_kind():
    assert sorted(p.monoid_kind for p in PRESETS) == sorted(ACTION_CONTEXTS)


@pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.monoid_kind)
def test_cli_presets_and_the_constructor_build_the_same_action(preset):
    ring_name, alpha_name, beta_name, attained = ACTION_CONTEXTS[preset.monoid_kind]
    job = JobSpec.from_text(_action_job(preset.monoid_kind, ring_name, alpha_name, beta_name))
    ring = build_ring(job)
    alpha = named_automorphism(ring, alpha_name)
    beta = named_automorphism(ring, beta_name)
    monoid = make_monoid(preset.monoid_kind)
    expected = _closure_perms(OmegaAction(monoid, ring, alpha, beta))
    assert len(expected) == attained
    assert _closure_perms(_build(job)[2]) == expected
    assert _closure_perms(preset.build(ring, alpha, beta)[1]) == expected
    # None stands for the identity
    none = [None if aut.is_identity() else aut for aut in (alpha, beta)]
    assert _closure_perms(OmegaAction(monoid, ring, *none)) == expected
    assert _closure_perms(preset.build(ring, *none)[1]) == expected


REJECTED_ACTIONS = [
    ("NatMulDirichlet", "F2xF2", "swap", "identity",
     "NatMulDirichlet only supports the trivial action"),
    ("NatMulDirichlet", "M2F2", "identity", "inner:7",
     "NatMulDirichlet only supports the trivial action"),
    ("NatPairLex", "M2F2", "inner:6", "inner:7", "pair-monoid generator images must commute"),
    ("IntPairRevLex", "M2F2", "inner:14", "inner:11",
     "pair-monoid generator images must commute"),
    ("NatAdd", "F2xF2", "identity", "swap",
     "NatAdd takes one generator image; beta must be the identity"),
    ("IntAdd", "M2F2", "inner:6", "inner:6",
     "IntAdd takes one generator image; beta must be the identity"),
]


@pytest.mark.parametrize("kind, ring_name, alpha, beta, message", REJECTED_ACTIONS)
def test_images_that_do_not_fit_the_monoid_kind_are_rejected(tmp_path, kind, ring_name,
                                                             alpha, beta, message):
    ring = gallery_ring(ring_name)
    images = named_automorphism(ring, alpha), named_automorphism(ring, beta)
    preset = next(p for p in PRESETS if p.monoid_kind == kind)
    exact = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=exact):
        OmegaAction(make_monoid(kind), ring, *images)
    with pytest.raises(ValueError, match=exact):
        preset.build(ring, *images)
    code, out, log = run_to_file(_action_job(kind, ring_name, alpha, beta), tmp_path)
    assert code == 3 and not out.exists()
    assert log == f"spec error: action: {message}\n"


def test_an_automorphism_of_another_ring_is_rejected(tmp_path):
    ring = gallery_ring("F2xF2")
    swap = named_automorphism(ring, "swap")
    ident = identity_automorphism(ring)
    # an equal ring built again is another instance
    for target in (product_ring(cyclic_ring(2), cyclic_ring(2)), cyclic_ring(4)):
        for kind, images in (("NatAdd", (swap,)), ("IntAdd", (None, ident)),
                             ("NatPairLex", (None, swap)), ("NatMulDirichlet", (ident,))):
            with pytest.raises(ValueError, match="automorphisms of the same ring"):
                OmegaAction(make_monoid(kind), target, *images)
    # a job reads its images against its own ring: F2xF2's swap, written out
    # as an image list, is no automorphism of Z4
    text = ("ring.kind = cyclic\nring.n = 4\nmonoid.kind = NatAdd\n"
            "action.alpha = images:0,2,1,3\nchecks = left_app\n")
    code, out, log = run_to_file(text, tmp_path)
    assert code == 3 and not out.exists()
    assert log.startswith("spec error: action: bad image list")


def test_a_single_generator_preset_in_a_pair_action_job_exits_three(tmp_path):
    text = _action_job("NatPairLex", "F2xF2", "swap", "swap",
                       checks="two_variable_lex, skew_power_series")
    code, out, log = run_to_file(text, tmp_path)
    assert code == 3 and not out.exists()
    assert log.startswith("pass two_variable_lex on Z2xZ2")
    assert log.endswith("spec error: preset skew_power_series: NatAdd takes one "
                        "generator image; beta must be the identity\n")


@pytest.mark.parametrize("check", ["obstructions", "app_equivalence"])
def test_replay_refuses_an_obstruction_outside_its_annihilator(tmp_path, check):
    text = f"ring.kind = cyclic\nring.n = 4\nmonoid.kind = NatAdd\nchecks = {check}\n"
    code, out, _ = run_to_file(text, tmp_path)
    assert code == 1
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 0
    assert buf.getvalue() == f"replay {check}: counterexample confirmed\n"
    tree = json.loads(out.read_text())
    obstruction = tree["witnesses"][0]["obstructions"][0]
    assert (obstruction["annihilator"], obstruction["blocked"]) == ([0, 2], 2)
    # no x in {0, 2} has 1*x == 1, but 1 is not in {0, 2} either
    obstruction["blocked"] = 1
    out.write_text(json.dumps(tree))
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 2
    assert buf.getvalue() == f"replay {check}: counterexample NOT REPRODUCED\n"


@pytest.mark.parametrize("check", ["orbit_condition", "skew_power_series", "obstructions",
                                   "app_equivalence"])
def test_replay_recomputes_a_wrong_orbit_annihilator(tmp_path, monkeypatch, check):
    # an orbit kernel that drops 4 from every annihilator on Z8 makes the
    # verdict name l(O(4)) = {0, 2, 6}; the replay recomputes the true
    # {0, 2, 4, 6} from the ring, not from the same kernel, and refuses it
    import skewseries.ideals as ideals
    kernel = ideals._orbit_annihilator
    monkeypatch.setattr(ideals, "_orbit_annihilator",
                        lambda action, a: kernel(action, a) & ~(1 << 4))
    code, out, _ = run_to_file(
        f"ring.kind = cyclic\nring.n = 8\nmonoid.kind = NatAdd\nchecks = {check}\n", tmp_path)
    assert code == 1
    assert '"annihilator": [0, 2, 6]' in json.dumps(json.loads(out.read_text()))
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 2
    assert buf.getvalue() == f"replay {check}: counterexample NOT REPRODUCED\n"


@pytest.mark.parametrize("ring_lines, message", [
    ("ring.kind = gallery\nring.name = M2F2\naction.alpha = inner:16",
     "action: 16 is not an element of M2(Z2) (0..15)"),
    ("ring.kind = cyclic\nring.n = 4\ntrials = -1", "trials: expected at least 0, got -1"),
    ("ring.kind = matrix\nring.base = 2\nring.k = 0", "ring: a matrix ring needs k >= 1, got 0"),
    ("ring.kind = triangular\nring.base = 5\nring.k = -1",
     "ring: a matrix ring needs k >= 1, got -1"),
], ids=["inner_16", "trials", "matrix_k", "triangular_k"])
def test_out_of_range_sizes_and_units_are_spec_errors(tmp_path, ring_lines, message):
    text = f"{ring_lines}\nmonoid.kind = NatAdd\nchecks = left_app, coefficientwise\n"
    code, out, log = run_to_file(text, tmp_path)
    assert code == 3 and not out.exists()
    assert log == f"spec error: {message}\n"


def test_negative_trials_are_refused_by_validate_and_by_the_override(tmp_path, capsys):
    assert validate(JobSpec.from_text(FIELD_JOB + "trials = -5\n")) == [
        "trials: expected at least 0, got -5"]
    code, out, log = run_to_file(FIELD_JOB, tmp_path, trials_override=-5)
    assert code == 3 and not out.exists()
    assert log == "spec error: trials: expected at least 0, got -5\n"
    spec = tmp_path / "job.txt"
    spec.write_text(FIELD_JOB)
    assert main(["run", str(spec), "--trials", "-5", "--out", str(out)]) == 3
    assert capsys.readouterr().out == "spec error: trials: expected at least 0, got -5\n"
    assert not out.exists()
    # zero trials still run
    assert run_to_file(FIELD_JOB, tmp_path, trials_override=0)[0] == 0


# Jobs that ``run`` refuses only once it builds them, each with its spec
# error line; ``validate`` must print the same line.
REFUSED_WHEN_BUILT = [
    ("ring.kind = matrix\nring.base = 2\nring.k = 0\nmonoid.kind = NatAdd\nchecks = left_app",
     "ring: a matrix ring needs k >= 1, got 0"),
    ("ring.kind = gallery\nring.name = M2F2\naction.alpha = inner:16\nmonoid.kind = NatAdd\n"
     "checks = left_app", "action: 16 is not an element of M2(Z2) (0..15)"),
    ("ring.kind = cyclic\nring.n = 5000\nmonoid.kind = NatAdd\nchecks = left_app",
     "ring: size cap exceeded: 5000 > 4096"),
    # refused from the cell count before any cell list is built
    ("ring.kind = matrix\nring.base = 1\nring.k = 1000\nmonoid.kind = NatAdd\nchecks = left_app",
     "ring: size cap exceeded: 1000000 cells > 4096"),
    ("ring.kind = matrix\nring.base = 2\nring.k = 100000\nmonoid.kind = NatAdd\n"
     "checks = left_app", "ring: size cap exceeded: 10000000000 cells > 4096"),
    ("ring.kind = cyclic\nring.n = 6\nmonoid.kind = NatAdd\nchecks = pair_annihilation\n"
     "series.g = 0:3\nseries.f = 0:6",
     "series term '0:6': coefficient 6 is not an element of Z6 (0..5)"),
    ("ring.kind = cyclic\nring.n = 4\nmonoid.kind = NatAdd\nchecks = coefficientwise\n"
     "trails = 5", "trails: unknown key"),
]


@pytest.mark.parametrize("text, message", REFUSED_WHEN_BUILT,
                         ids=["matrix_k", "inner_16", "n_5000", "m1000_z1", "m100000_z2",
                              "series_coeff", "unknown_key"])
def test_validate_refuses_what_run_refuses(tmp_path, capsys, text, message):
    code, out, log = run_to_file(text, tmp_path)
    assert code == 3 and not out.exists()
    assert log == f"spec error: {message}\n"
    spec = tmp_path / "job.txt"
    spec.write_text(text)
    assert main(["validate", str(spec)]) == 3
    assert capsys.readouterr().out == f"spec error: {message}\n"


def test_every_documented_key_is_known_and_others_are_not():
    documented = ("ring.kind ring.n ring.base ring.k ring.a ring.b ring.name ring.add_table "
                  "ring.mul_table monoid.kind monoid.order action.alpha action.beta series.g "
                  "series.f checks mode trials seed out").split()
    job = JobSpec({key: "0" for key in documented})
    assert not any("unknown key" in d for d in validate(job))
    job = JobSpec.from_text(Z4_JOB + "trails = 5\nring.size = 4\n")
    assert validate(job) == ["trails: unknown key", "ring.size: unknown key"]


@pytest.mark.parametrize("check", ["coefficientwise", "app_equivalence", "witness_paths"])
def test_pair_harnesses_run_on_the_zero_ring(tmp_path, check):
    text = f"ring.kind = cyclic\nring.n = 1\nmonoid.kind = NatAdd\nchecks = {check}\ntrials = 5\n"
    code, out, _ = run_to_file(text, tmp_path)
    assert code == 0
    (witness,) = json.loads(out.read_text())["witnesses"]
    assert witness.get("nonzero_pairs", 0) == 0

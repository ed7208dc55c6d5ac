import io
import json

import pytest

from skewseries.cli import (
    JobSpec,
    JobSpecError,
    build_action,
    build_monoid,
    build_ring,
    main,
    parse_series,
    replay,
    run_job,
    validate,
)

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
    ring = build_ring(job)
    monoid = build_monoid(job)
    action = build_action(job, monoid, ring)
    series = parse_series("0:3; 2:5", action)
    assert series.coeffs == {0: 3, 2: 5}

    pair_job = JobSpec.from_text(
        "ring.kind = cyclic\nring.n = 6\nmonoid.kind = NatPairLex")
    pact = build_action(pair_job, build_monoid(pair_job), ring)
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


def test_replay_of_a_missing_witness_is_an_error(tmp_path):
    _, out, _ = run_to_file(Z4_JOB, tmp_path)
    tree = json.loads(out.read_text())
    tree["witnesses"] = []
    out.write_text(json.dumps(tree))
    buf = io.StringIO()
    assert replay(str(out), stream=buf) == 3
    assert buf.getvalue().startswith("replay error: malformed left_app witness (IndexError")


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



PAIR_JOB = """
ring.kind = cyclic
ring.n = 6
monoid.kind = NatAdd
checks = pair_annihilation
series.g = 0:2; 1:4
series.f = 0:3
seed = 0
"""


@pytest.mark.parametrize("bad", ["7", "6", "-1"])
def test_series_coefficient_outside_the_ring_is_a_spec_error(tmp_path, bad):
    code, _, log = run_to_file(PAIR_JOB.replace("1:4", f"1:{bad}"), tmp_path)
    assert code == 3
    assert f"coefficient {bad} is not an element of Z6 (0..5)" in log


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

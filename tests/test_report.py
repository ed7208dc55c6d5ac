"""The report writer: every report is ``json.dumps(tree, sort_keys=True,
indent=2) + "\\n"`` byte for byte, written in place and cut to length; a
report path that cannot be written is exit code 3."""

import errno
import io
import json
import os
import stat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skewseries.cli as cli
import skewseries.theorems as theorems
from skewseries.cli import ALL_CHECKS, JobSpec, _text, main, run_job
from skewseries.gallery import list_gallery
from skewseries.series import constant


def _dumps(tree) -> str:
    return json.dumps(tree, sort_keys=True, indent=2)


def _run_capturing(monkeypatch, text, out, **kwargs):
    """Run a job into ``out``; the exit code and the report tree written."""
    trees = []
    writer = cli._text

    def capture(x, nl):
        if nl == "\n":
            trees.append(x)
        return writer(x, nl)

    monkeypatch.setattr(cli, "_text", capture)
    code = run_job(JobSpec.from_text(text), out_path=str(out), stream=io.StringIO(), **kwargs)
    monkeypatch.setattr(cli, "_text", writer)
    assert len(trees) == 1
    return code, trees[0]


def _every_check_job(entry, aut):
    """A job running every check the CLI has on a gallery ring under one of
    its automorphisms; the Dirichlet preset only takes the identity."""
    top = entry["size"] - 1
    checks = [c for c in ALL_CHECKS if aut == "identity" or c != "arithmetic_functions"]
    return (f"ring.kind = gallery\nring.name = {entry['name']}\nmonoid.kind = NatAdd\n"
            f"action.alpha = {aut}\nseries.g = 0:{top}\nseries.f = 1:{top}\n"
            f"checks = {', '.join(checks)}\ntrials = 5\nseed = 3\n")


GALLERY = {entry["name"]: entry for entry in list_gallery()}


@pytest.mark.parametrize("name", GALLERY)
def test_every_check_on_every_gallery_ring_writes_json_dumps(name, tmp_path, monkeypatch):
    entry = GALLERY[name]
    out = tmp_path / "report.json"
    for aut in entry["automorphisms"]:
        for record_timings in (False, True):  # True puts floats in the tree
            code, tree = _run_capturing(monkeypatch, _every_check_job(entry, aut), out,
                                        record_timings=record_timings)
            assert code in (0, 1)
            assert len(tree["verdicts"]) == len(tree["witnesses"]) > 0
            assert bool(tree["timings"]) == record_timings
            assert _text(tree, "\n") == _dumps(tree)
            assert out.read_bytes() == (_dumps(tree) + "\n").encode("ascii")


def test_an_alarm_report_writes_json_dumps(tmp_path, monkeypatch):
    monkeypatch.setattr(theorems, "random_annihilating_pair",
                        lambda action, rng: (constant(action, 2), constant(action, 1)))
    out = tmp_path / "alarm.json"
    code, tree = _run_capturing(
        monkeypatch, "ring.kind = cyclic\nring.n = 6\nmonoid.kind = NatAdd\n"
                     "checks = left_app, coefficientwise\n", out)
    assert code == 2 and "alarm" in tree
    assert out.read_bytes() == (_dumps(tree) + "\n").encode("ascii")


class _Str(str):
    pass


_STRINGS = st.one_of(st.text(max_size=6),
                     st.sampled_from(['",[]{}:', "a\nb", "\t\x00\x1f\x7f", "é€",
                                      "\U0001f600", "\\", ""]))
_INTS = st.one_of(st.integers(-300, 300), st.integers(2 ** 64, 2 ** 70),
                  st.integers(-2 ** 70, -2 ** 64))
_SCALARS = st.one_of(
    _INTS, _STRINGS, st.booleans(), st.none(), st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    _STRINGS.map(_Str))
_INT_LISTS = st.lists(st.one_of(_INTS, st.booleans()), max_size=6)
_UNIFORM = st.integers(0, 3).flatmap(
    lambda k: st.lists(st.lists(_INTS, min_size=k, max_size=k), max_size=5))
_RAGGED = st.lists(st.lists(st.one_of(_INTS, st.booleans()), max_size=3), max_size=5)
# equal-length rows whose columns hold ints, strings or a mix of the two
# (with bools and str subclasses, which are neither), as a series' terms do
_COLUMNS = {"int": _INTS, "str": _STRINGS,
            "mixed": st.one_of(_INTS, _STRINGS, st.booleans(), _STRINGS.map(_Str))}
_TERMS = st.lists(st.sampled_from(sorted(_COLUMNS)), min_size=1, max_size=3).flatmap(
    lambda kinds: st.lists(st.tuples(*(_COLUMNS[k] for k in kinds)).map(list), max_size=5))
TREES = st.recursive(
    st.one_of(_SCALARS, _INT_LISTS, _UNIFORM, _RAGGED, _TERMS),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(_STRINGS, kids, max_size=4),
        st.dictionaries(_STRINGS.map(_Str), kids, max_size=3),
        st.dictionaries(st.integers(-5, 5), kids, max_size=3),
        st.tuples(kids, kids)),
    max_leaves=24)


# a list of equal-length lists with all-int or all-str columns is one
# template; bools are never ints and a str subclass is not a str
@example([[1, 2], [3, 4]])
@example([[1, True], [3, 4]])
@example([[1], [2, 3]])
@example([[], []])
@example([[1, 2], []])
@example([True, 1, False])
@example([[[1]], [[2]]])
@example({"a": [], "b": {}})
@example([["(0, 1)", 3], ["(2, -1)", 1]])
@example([["a", 1], [2, "b"]])
@example([["a", 1], ["b", True]])
@example([[_Str("a"), 1], ["b", 2]])
@example([["\"%s\n", 7, "%d"]])
@settings(derandomize=True, max_examples=400, deadline=None)
@given(TREES)
def test_the_writer_prints_what_json_dumps_prints(tree):
    assert _text(tree, "\n") == _dumps(tree)
    assert _text([tree], "\n") == _dumps([tree])


Z4_JOB = ("ring.kind = cyclic\nring.n = 4\nmonoid.kind = NatAdd\n"
          "checks = left_app, pq_baer, right_pp\nseed = 7\n")
Z5_JOB = "ring.kind = cyclic\nring.n = 5\nmonoid.kind = NatAdd\nchecks = left_app\n"


def test_a_report_over_a_longer_file_leaves_only_its_own_bytes(tmp_path):
    fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
    assert run_job(JobSpec.from_text(Z5_JOB), out_path=str(fresh), stream=io.StringIO()) == 0
    reused.write_bytes(b"x" * (3 * fresh.stat().st_size))
    assert run_job(JobSpec.from_text(Z5_JOB), out_path=str(reused), stream=io.StringIO()) == 0
    assert reused.read_bytes() == fresh.read_bytes()
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("text, code", [(Z4_JOB, 1), (Z5_JOB, 0)])
def test_a_report_to_dev_null_exits_with_the_verdict_code(text, code, tmp_path, capsys):
    spec = tmp_path / "job.txt"
    spec.write_text(text)
    assert main(["run", str(spec), "--out", os.devnull]) == code
    assert capsys.readouterr().out.endswith(f"report written to {os.devnull}\n")


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


def test_rerunning_a_sampled_job_into_the_same_file_is_byte_identical(tmp_path):
    out, other = tmp_path / "report.json", tmp_path / "other.json"
    job = JobSpec.from_text(CRITERION_9_JOB)
    outputs = []
    for path in (out, out, other):
        assert run_job(job, out_path=str(path), stream=io.StringIO()) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def _run_main(tmp_path, out, capsys):
    spec = tmp_path / "job.txt"
    spec.write_text(Z5_JOB)
    code = main(["run", str(spec), "--out", str(out)])
    return code, capsys.readouterr().out


def test_a_report_into_a_missing_directory_exits_three(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "r.json"
    code, log = _run_main(tmp_path, out, capsys)
    assert code == 3
    assert log.endswith(f"report error: [Errno 2] No such file or directory: '{out}'\n")


def test_a_report_onto_a_directory_exits_three(tmp_path, capsys):
    code, log = _run_main(tmp_path, tmp_path, capsys)
    assert code == 3
    assert log.endswith(f"report error: [Errno 21] Is a directory: '{tmp_path}'\n")


def test_a_report_path_without_permission_exits_three(tmp_path, monkeypatch, capsys):
    locked = tmp_path / "locked"
    locked.mkdir(mode=0o500)
    out = locked / "r.json"
    if os.access(locked, os.W_OK):  # the superuser: refuse as for anyone else
        def refuse(path, *args):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        monkeypatch.setattr(cli.os, "open", refuse)
    code, log = _run_main(tmp_path, out, capsys)
    monkeypatch.undo()
    locked.chmod(0o700)
    assert code == 3
    assert log.endswith(f"report error: [Errno 13] Permission denied: '{out}'\n")
    assert not out.exists()

import argparse
import io
import json
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reassign import cli, repro, verifier
from reassign.cli import _dumps, build_parser, main, parse_problem, serialize_problem
from reassign.mechanisms import MECHANISM_TAGS, MECHANISMS, effective_partition
from reassign.model import Infeasible, MalformedProblem, problem_from_dict
from reassign.verifier import ORACLES
from test_model import any_problem_json

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# -- problem files ----------------------------------------------------------------


def test_shipped_problems_round_trip_byte_identical():
    files = sorted(PROBLEMS.glob("*.json"))
    assert len(files) >= 6
    for path in files:
        text = path.read_text()
        assert serialize_problem(parse_problem(text)) == text, path.name


def test_parse_rejects_garbage():
    with pytest.raises(json.JSONDecodeError):
        parse_problem("{not json")


# -- run ---------------------------------------------------------------------------


def test_run_chain_dictatorship_on_walkthrough(capsys):
    code, payload, _ = run_json(
        capsys, "run", str(PROBLEMS / "intro.json"), "--mechanism", "csd"
    )
    assert code == 0
    assert payload["assignment"] == [4, 5, 6, 2, 1, 3]
    assert payload["mechanism"] == "csd"
    assert [s["kind"] for s in payload["trace"]] == [
        "start", "owner-call", "owner-call", "owner-call", "fallback", "owner-call",
    ]
    assert [s["worker"] for s in payload["trace"]] == [4, 2, 5, 1, 6, 3]


def test_run_text_output_names_workers(capsys):
    code, out, _ = run_cli(
        capsys, "run", str(PROBLEMS / "intro.json"), "--mechanism", "tsd"
    )
    assert code == 0
    assert "A1->B2" in out
    assert "t=1 nominate: A1 takes B1" in out


def test_run_seeded_swap_is_reproducible(capsys):
    args = ("run", str(PROBLEMS / "n3_base.json"), "--mechanism", "cettc", "--mu0", "seed:42")
    code1, out1 = run_json(capsys, *args)[:2]
    code2, out2 = run_json(capsys, *args)[:2]
    assert code1 == code2 == 0
    assert out1 == out2


def test_run_two_divisions_swap(capsys):
    path = str(PROBLEMS / "minimal_n2.json")
    for mech in ("csd", "tsd", "cettc", "sd"):
        code, payload, _ = run_json(capsys, "run", path, "--mechanism", mech)
        assert code == 0, mech
        assert payload["assignment"] == [2, 1], mech
    code, _, err = run_cli(capsys, "run", path, "--mechanism", "npb")
    assert code == 3
    assert "three" in err


def test_run_with_certifications(capsys):
    code, payload, _ = run_json(
        capsys,
        "run", str(PROBLEMS / "intro.json"), "--mechanism", "csd",
        "--certify", "eap", "--certify", "ce",
    )
    assert code == 0
    assert payload["certify"] == {"eap": True, "ce": True}
    # backward trading may keep own workers, which fails the ce certificate
    code, payload, _ = run_json(
        capsys,
        "run", str(PROBLEMS / "bttc_base.json"), "--mechanism", "bttc",
        "--certify", "ce",
    )
    assert code == 1
    assert payload["certify"] == {"ce": False}


def test_run_certification_past_former_caps(capsys, tmp_path):
    # no certificate has a size cap: past every enumeration bound (n=10),
    # each returns the library oracle's verdict and the exit code follows
    rows = [[w for w in range(1, 11) if w != i] for i in range(1, 11)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 10, "preferences": rows}))
    problem = parse_problem(path.read_text())
    names = ("cee", "pareto", "eap")
    for mech in ("cettc", "ttc", "csd"):
        flags = [a for name in names for a in ("--certify", name)]
        code, payload, _ = run_json(capsys, "run", str(path), "--mechanism", mech, *flags)
        m = tuple(payload["assignment"])
        expected = {
            name: ORACLES[name](problem.profile, m, effective_partition(problem))
            for name in names
        }
        assert payload["certify"] == expected, mech
        assert code == (0 if all(expected.values()) else 1), mech


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(any_problem_json, st.sampled_from(MECHANISM_TAGS))
def test_run_fuzzed_problem_file_exits_with_a_code(tmp_path, data, tag):
    # a problem file holding any JSON value exits 2 (malformed) or 3
    # (infeasible) as the parser decides, and a problem it accepts exits
    # 0, 1 or 3 (a mechanism's size floor); nothing raises
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data))
    try:
        problem_from_dict(data)
        allowed = (0, 1, 3)
    except MalformedProblem:
        allowed = (2,)
    except Infeasible:
        allowed = (3,)
    certify = [a for name in ORACLES for a in ("--certify", name)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["run", str(path), "--mechanism", tag, *certify])
    assert code in allowed


def test_run_explicit_mu0_and_order(capsys):
    code, payload, _ = run_json(
        capsys,
        "run", str(PROBLEMS / "n3_base.json"), "--mechanism", "cettc", "--mu0", "3,1,2",
    )
    assert code == 0
    code2, payload2, _ = run_json(
        capsys,
        "run", str(PROBLEMS / "n3_base.json"), "--mechanism", "sd", "--order", "3,2,1",
    )
    assert code2 == 0
    assert payload2["mechanism"] == "sd[order=3,2,1]"


def test_run_names_only_the_options_the_mechanism_reads(capsys):
    code, out, _ = run_cli(
        capsys, "run", str(PROBLEMS / "n3_base.json"), "--mechanism", "csd", "--order", "3,2,1"
    )
    assert code == 0
    assert out.splitlines()[0] == "mechanism csd"


def test_verify_names_only_the_options_the_mechanism_reads(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--mechanism", "csd", "--mu0", "seed:3", "--property", "sp", "--n", "3"
    )
    assert code == 0
    assert out.splitlines()[0] == "property sp for csd: holds"
    code, payload, _ = run_json(
        capsys, "verify", "--mechanism", "npb", "--mu0", "seed:3", "--property", "ri", "--n", "3"
    )
    assert code == 1
    assert payload["mechanism"] == "npb"
    assert payload["witness"]["mechanism"] == {"tag": "npb"}


def test_mechanism_choices_are_the_registry():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("run", "verify"):
        action = next(a for a in sub.choices[command]._actions if a.dest == "mechanism")
        assert tuple(action.choices) == MECHANISM_TAGS == tuple(MECHANISMS)


def test_run_rejects_bad_json_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(capsys, "run", str(bad), "--mechanism", "csd")
    assert code == 2 and err
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "run", str(missing), "--mechanism", "csd")
    assert code == 2


def test_run_rejects_malformed_problem(capsys, tmp_path):
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps({"n": 3, "preferences": [[1, 1, 3], [1, 2, 3], [1, 2, 3]]}))
    code, _, err = run_cli(capsys, "run", str(bad), "--mechanism", "csd")
    assert code == 2


@pytest.mark.parametrize(
    "content,message",
    [
        (b"\xff\xfe{", "can't decode byte 0xff"),
        (b"[" * 100_000, "maximum recursion depth exceeded"),
        (b'{"n":' * 100_000, "maximum recursion depth exceeded"),
        (b'{"n": ' + b"1" * 5000 + b"}", "Exceeds the limit"),
    ],
    ids=["not-utf8", "deep-arrays", "deep-objects", "long-integer"],
)
def test_run_unreadable_file_is_a_parse_error(capsys, tmp_path, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run_cli(capsys, "run", str(bad), "--mechanism", "ttc")
    assert (code, out) == (2, "")
    assert err.startswith("parse error:") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("run", str(PROBLEMS / "intro.json"), "--mechanism", "sd", "--order", "9,9,9"),
        ("run", str(PROBLEMS / "intro.json"), "--mechanism", "sd", "--order", "1,1,2,3"),
        ("verify", "--mechanism", "sd", "--order", "1,2", "--property", "sp", "--n", "3"),
    ],
    ids=("unknown-divisions", "repeated-division", "too-short"),
)
def test_sd_order_that_is_no_permutation_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert "sd order must be a permutation of 1.." in err


def test_verify_rejects_a_negative_sample_count(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--mechanism", "csd", "--property", "sp", "--n", "5",
        "--scope", "sampled", "--count", "-1",
    )
    assert code == 2 and not out
    assert "need a count >= 1" in err


def test_verify_rejects_an_empty_sample(capsys):
    # a verdict from no samples would read "holds" having checked nothing
    code, out, err = run_cli(
        capsys, "verify", "--mechanism", "csd", "--property", "sp", "--n", "5",
        "--scope", "sampled", "--count", "0",
    )
    assert code == 2 and not out
    assert "need a count >= 1" in err


# n=1: one profile, in which division 1 keeps worker 1
ONE_DIVISION = {"sp": "holds", "ri": "holds", "ce": "fails", "cee": "fails", "pareto": "holds"}


@pytest.mark.parametrize("prop", sorted(ONE_DIVISION))
@pytest.mark.parametrize("tag", ("ttc", "bttc"))
def test_verify_one_division_gives_a_verdict(capsys, tag, prop):
    code, payload, _ = run_json(capsys, "verify", "--mechanism", tag, "--property", prop, "--n", "1")
    assert payload["verdict"] == ONE_DIVISION[prop] and payload["checked"] == 1
    assert code == {"holds": 0, "fails": 1}[payload["verdict"]]


@pytest.mark.parametrize("prop", sorted(ONE_DIVISION))
@pytest.mark.parametrize("tag", ("ttc", "bttc"))
def test_verify_no_divisions_exits_two(capsys, tag, prop):
    code, out, err = run_cli(capsys, "verify", "--mechanism", tag, "--property", prop, "--n", "0")
    assert code == 2 and not out
    assert "need n >= 1" in err


def test_verify_own_position_one_division_holds(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--mechanism", "ttc", "--property", "own-position", "--n", "1"
    )
    assert code == 0 and payload["verdict"] == "holds" and payload["checked"] == 1


def test_verify_sampled_no_divisions_exits_two(capsys):
    # a sample of the empty profile would read "holds" about nothing
    code, out, err = run_cli(
        capsys, "verify", "--mechanism", "ttc", "--property", "pareto", "--n", "0",
        "--scope", "sampled", "--count", "2",
    )
    assert code == 2 and not out
    assert "need n >= 1" in err


N4_ROWS = [[2, 3, 4], [1, 3, 4], [1, 2, 4], [1, 2, 3]]


def n4_partition(first, second=(3, 4)):
    return [
        {"divisions": first, "workers": [3, 4]},
        {"divisions": list(second), "workers": [1, 2]},
    ]


@pytest.mark.parametrize(
    "problem",
    [
        {"n": True, "preferences": [[1]]},
        {"n": 2, "preferences": [[2, 1], [1, 2]], "priority": [2.0, 1]},
        {"n": 2, "preferences": [[2, 1], [1, 2]], "priority": [True, 2]},
        {"n": 2, "preferences": [[2, 1], [1, 2]], "priority": False},
        {"n": 2, "preferences": [[2, 1], [1, 2]], "names": [1, 2]},
        {"n": 4, "preferences": N4_ROWS, "partition": n4_partition([1, "a"])},
        {"n": 4, "preferences": N4_ROWS, "partition": n4_partition(1)},
        {"n": 4, "preferences": N4_ROWS, "partition": n4_partition(["1", "2"], ["3", "4"])},
    ],
    ids=[
        "bool-n",
        "float-priority",
        "bool-priority",
        "false-priority",
        "number-names",
        "mixed-divisions",
        "scalar-divisions",
        "string-divisions",
    ],
)
def test_run_rejects_mistyped_fields(capsys, tmp_path, problem):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(problem))
    code, out, err = run_cli(capsys, "run", str(path), "--mechanism", "csd")
    assert code == 2
    assert "must be" in err and not out


# -- verify ---------------------------------------------------------------------------


def test_verify_failing_property_reports_witness(capsys, tmp_path):
    code, payload, _ = run_json(
        capsys, "verify", "--mechanism", "bttc", "--property", "ri", "--n", "3"
    )
    assert code == 1
    assert payload["verdict"] == "fails"
    wit = payload["witness"]

    # the embedded problems replay to the claimed outcomes through `run`
    base = tmp_path / "wit_base.json"
    base.write_text(json.dumps(wit["problem"]))
    improved = tmp_path / "wit_improved.json"
    improved.write_text(json.dumps(wit["improved_problem"]))
    _, base_run, _ = run_json(capsys, "run", str(base), "--mechanism", "bttc")
    _, imp_run, _ = run_json(capsys, "run", str(improved), "--mechanism", "bttc")
    assert base_run["assignment"] == wit["outcome"]
    assert imp_run["assignment"] == wit["improved_outcome"]

    i = wit["division"]
    base_order = wit["problem"]["preferences"][i - 1]
    got = base_run["assignment"][i - 1]
    got_improved = imp_run["assignment"][i - 1]
    assert base_order.index(got) < base_order.index(got_improved)


def test_verify_holding_property_exits_zero(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--mechanism", "sd", "--property", "sp", "--n", "3"
    )
    assert code == 0
    assert payload["verdict"] == "holds"
    assert payload["scope"] == {"kind": "exhaustive", "n": 3}


def test_verify_sampled_scope(capsys):
    code, payload, _ = run_json(
        capsys,
        "verify", "--mechanism", "csd", "--property", "sp", "--n", "6",
        "--scope", "sampled", "--count", "120", "--sample-seed", "7",
    )
    assert code == 0
    assert payload["scope"] == {"kind": "sampled", "n": 6, "count": 120, "seed": 7}


def test_verify_own_position(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--mechanism", "npb", "--property", "own-position", "--n", "3"
    )
    assert code == 0


def printed_problems(text):
    """key -> the problem file a text witness prints under that key."""
    docs, key = {}, None
    for line in text.splitlines():
        if line.endswith(" (replayable problem file):"):
            key = line.split()[0]
            docs[key] = []
        elif key is not None and line.startswith("    "):
            docs[key].append(line)
        else:
            key = None
    return {key: json.loads("\n".join(lines)) for key, lines in docs.items()}


def test_verify_text_witness_problems_replay(capsys, tmp_path):
    argv = ("verify", "--mechanism", "ttc", "--property", "own-position", "--n", "3")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    docs = printed_problems(out)
    assert set(docs) == {"problem", "moved_problem"}
    _, payload, _ = run_json(capsys, *argv)
    wit = payload["witness"]
    for key, outcome in (("problem", "outcome"), ("moved_problem", "moved_outcome")):
        assert docs[key] == wit[key]
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(docs[key]))
        _, replay, _ = run_json(capsys, "run", str(path), "--mechanism", "ttc")
        assert replay["assignment"] == wit[outcome]


def test_verify_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--mechanism", "cettc", "--property", "ri", "--n", "3"
    )
    assert code == 1
    assert "property ri for cettc[mu0=cyclic]: fails" in out
    assert "division: 1" in out
    assert "replayable problem file" in out


def test_verify_over_bound(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--mechanism", "csd", "--property", "sp", "--n", "5"
    )
    assert code == 4 and "capped" in err


def test_verify_over_bound_exits_before_binding_the_runner(capsys, monkeypatch):
    # the cap is tested first: no canonical partition of two million divisions
    def refuse(n):
        raise AssertionError(f"canonical_partition({n}) built past the cap")

    monkeypatch.setattr(verifier, "canonical_partition", refuse)
    code, out, err = run_cli(
        capsys, "verify", "--mechanism", "csd", "--property", "sp", "--n", "2000000"
    )
    assert code == 4 and not out
    assert "capped at n=4" in err


def test_verify_oversized_n_is_a_parse_error(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--mechanism", "csd", "--property", "sp",
        "--n", "99999999999999999999",
    )
    assert code == 2 and not out
    assert err.startswith("parse error:") and "Traceback" not in err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_verify_jobs_below_one_is_a_parse_error(capsys, jobs):
    code, out, err = run_cli(
        capsys, "verify", "--mechanism", "csd", "--property", "sp", "--n", "3", "--jobs", jobs
    )
    assert code == 2 and not out
    assert err.startswith("parse error:") and "jobs must be >= 1" in err


# -- partition -------------------------------------------------------------------------


def test_partition_from_sizes(capsys):
    code, payload, _ = run_json(capsys, "partition", "--sizes", "2,2")
    assert code == 0
    assert payload["groups"] == [
        {"divisions": [1, 2], "workers": [3, 4]},
        {"divisions": [3, 4], "workers": [1, 2]},
    ]


def test_partition_from_groups(capsys):
    code, payload, _ = run_json(capsys, "partition", "--groups", "1,4;2,3")
    assert code == 0
    assert {tuple(g["divisions"]) for g in payload["groups"]} == {(1, 4), (2, 3)}


def test_partition_infeasible_sizes(capsys):
    code, _, err = run_cli(capsys, "partition", "--sizes", "3,1")
    assert code == 3 and err


@pytest.mark.parametrize("argv, message", [
    (("--sizes", "0"), "sizes must be positive integers"),
    # past sys.maxsize: refused before any range is built, not an OverflowError
    (("--sizes", "99999999999999999999,1"), "sizes must sum to at most"),
    (("--groups", ";"), "no division groups were given"),
])
def test_partition_bad_sizes(capsys, argv, message):
    code, out, err = run_cli(capsys, "partition", *argv)
    assert code == 2 and not out
    assert err.startswith("parse error:") and message in err


# -- repro -------------------------------------------------------------------------------


def test_repro_tables_passes(capsys):
    code, out, _ = run_cli(capsys, "repro", "tables")
    assert code == 0
    assert "FAIL" not in out


def test_repro_all_flags_only_documented_deviation(capsys):
    code, out, _ = run_cli(capsys, "repro", "all")
    assert code == 1
    failing = [l for l in out.splitlines() if l.strip().startswith("FAIL")]
    assert len(failing) == 2
    assert all("tsd" in l for l in failing)


@pytest.mark.parametrize("n", ["1001", "100000"])
def test_repro_npb_over_bound_exits_four_before_building_a_profile(capsys, monkeypatch, n):
    def refuse(prefixes, n):
        raise AssertionError(f"a draft profile of {n} clubs built past the cap")

    monkeypatch.setattr(repro, "_prefix_profile", refuse)
    code, out, err = run_cli(capsys, "repro", "npb", "--n", n)
    assert code == 4 and not out
    assert "capped at n=1000" in err


def test_repro_json_format(capsys):
    code, payload, _ = run_json(capsys, "repro", "npb", "--n", "5")
    assert code == 0
    (report,) = payload["reports"]
    assert report["repro"] == "npb(n=5)"
    assert all(line["ok"] for line in report["lines"])


# -- plumbing ---------------------------------------------------------------------------


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(["[", "{", "]", "}", "a[1]", "{x}", "\n", "é", "\u2028", "\ud83d\ude00"])
)
JSON_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: (
        st.lists(kids, max_size=6)
        | st.lists(kids, max_size=6).map(tuple)
        | st.dictionaries(st.text(), kids, max_size=5)
        | st.dictionaries(JSON_KEYS, kids, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=2000, deadline=None)
@given(JSON_VALUES)
def test_dumps_matches_the_stdlib_indented_encoder(obj):
    # json.dumps(indent=2) is the oracle; the draws include NaN and +-inf,
    # strings holding brackets or non-ASCII text, and dicts with non-str keys
    expected = json.dumps(obj, indent=2)
    assert _dumps(obj) == expected
    nested = json.dumps({"key": [obj]}, indent=2)
    assert nested == '{\n  "key": [\n    ' + _dumps(obj, "    ") + "\n  ]\n}"


def test_dumps_matches_the_stdlib_on_long_lists():
    payload = {"groups": [{"divisions": list(range(1, 5001)), "names": ["a[", "b"] * 50}]}
    assert _dumps(payload) == json.dumps(payload, indent=2)


def stripped(result):
    """A call's result without its timings, which differ from run to run."""
    code, out, err = result
    lines = out.splitlines()
    return code, [l for l in lines if not l.startswith("elapsed:") and '"elapsed_s":' not in l], err


STATEFUL_SEQUENCES = (
    # the append action: a later call without --certify certifies nothing
    (("run", str(PROBLEMS / "intro.json"), "--mechanism", "ttc", "--certify", "ce",
      "--certify", "pareto"),
     ("run", str(PROBLEMS / "intro.json"), "--mechanism", "ttc")),
    # a format given once does not stick
    (("partition", "--sizes", "3,3,2", "--format", "json"),
     ("partition", "--sizes", "3,3,2"),
     ("verify", "--mechanism", "csd", "--property", "sp", "--n", "3", "--format", "json"),
     ("verify", "--mechanism", "cettc", "--property", "ri", "--n", "3")),
    # a usage error leaves the parser as it was
    (("run",), ("verify", "--mechanism", "csd", "--property", "nope", "--n", "3"),
     ("run", str(PROBLEMS / "intro.json"), "--mechanism", "csd", "--mu0", "seed:3")),
)


@pytest.mark.parametrize("calls", STATEFUL_SEQUENCES)
def test_main_keeps_no_state_between_calls(capsys, monkeypatch, calls):
    shared = [stripped(run_cli(capsys, *argv)) for argv in calls]
    assert cli._parser() is cli._parser()  # built once per process
    monkeypatch.setattr(cli, "_parser", build_parser)  # a fresh parser per call
    fresh = [stripped(run_cli(capsys, *argv)) for argv in calls]
    assert shared == fresh


def test_usage_errors_exit_two(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["run"]) == 2
    assert main(["verify", "--mechanism", "csd", "--property", "nope", "--n", "3"]) == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "reassign", "partition", "--sizes", "1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "divisions" in proc.stdout or "1" in proc.stdout

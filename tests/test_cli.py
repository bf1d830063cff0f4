"""Command-line interface: exit-code contract, output formats, pipelines from
constructions into solvers, and byte-identical verify reruns."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import packlab
from packlab import Graph, encode_graph6, format_edge_list, turan_graph
from packlab.cli import main
from packlab.verify import (
    conjecture1_search,
    question1_search,
    verify_mainthm1_threshold,
    verify_matching_threshold,
    verify_t1_threshold,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_threshold_examples(capsys):
    code, out, _ = run(capsys, "threshold", "f", "--n", "12", "--r", "3", "--D", "4")
    assert code == 0 and out == "value=10 branch=first\n"
    code, out, _ = run(capsys, "threshold", "g", "--n", "24", "--r", "3", "--D", "2")
    assert code == 0 and out == "value=254 branch=second\n"
    code, _, err = run(capsys, "threshold", "f", "--n", "12", "--r", "3", "--D", "10")
    assert code == 2 and "error" in err
    code, out, _ = run(capsys, "threshold", "f2", "--n", "6", "--d", "1")
    assert code == 0 and out == "value=9 branch=second\n"
    code, out, _ = run(capsys, "threshold", "turan", "--m", "7", "--s", "3")
    assert code == 0 and out == "value=16\n"


def test_threshold_json_format(capsys):
    code, out, _ = run(
        capsys, "threshold", "f", "--n", "12", "--r", "3", "--D", "4",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"value": 10, "branch": "first"}


def test_threshold_appendix(capsys):
    code, out, _ = run(capsys, "threshold", "appendix", "--n", "12", "--r", "3")
    assert code == 0 and out == "decreasing=True\n"
    code, out, _ = run(
        capsys, "threshold", "appendix", "--n", "12", "--r", "3", "--x", "0",
    )
    assert code == 0
    assert out.startswith("value=")
    assert float(out.split("=")[1]) == pytest.approx(121 / 2 - 11 / 2)


def test_threshold_missing_parameter(capsys):
    code, _, err = run(capsys, "threshold", "f", "--n", "12", "--r", "3")
    assert code == 2 and "--D" in err


def test_construct_emits_graph6(capsys):
    code, out, _ = run(capsys, "construct", "G1", "--n", "6", "--r", "3")
    assert code == 0
    from packlab import build_clique_plus_isolates

    assert out.strip() == encode_graph6(build_clique_plus_isolates(6, 3))


def test_construct_edge_list_output(capsys):
    code, out, _ = run(capsys, "construct", "H", "--n", "4", "--d", "1", "--out", "edges")
    assert code == 0
    assert out.splitlines()[0] == "n=4"


def test_construct_audit_pass_and_reject(capsys):
    code, out, _ = run(capsys, "construct", "H", "--n", "6", "--d", "2", "--audit")
    assert code == 0
    assert "edges: 9" in out and "audit: ok" in out
    code, _, err = run(
        capsys, "construct", "square_cx", "--n", "24", "--C", "1", "--K", "4",
    )
    assert code == 2 and "error" in err
    code, out, _ = run(
        capsys, "construct", "square_cx", "--n", "69", "--C", "1", "--K", "5",
        "--audit",
    )
    assert code == 0 and "audit: ok" in out


def test_construct_takes_every_family_parameter(capsys):
    from packlab import build_matching_blocker

    names = ["--n", "--d", "--r", "--D", "--j", "--k", "--C", "--K"]
    with pytest.raises(SystemExit) as done:
        main(["construct", "--help"])
    assert done.value.code == 0
    options = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)
    assert options[:8] == names
    values = ["6", "2", "3", "4", "1", "1", "1", "5"]
    code, out, _ = run(capsys, "construct", "H", *(x for pair in zip(names, values) for x in pair))
    assert code == 0 and out.strip() == encode_graph6(build_matching_blocker(6, 2))


def test_construct_missing_param(capsys):
    code, _, err = run(capsys, "construct", "G2", "--n", "12", "--r", "3")
    assert code == 2 and "--D" in err


def test_solve_pipeline_files(tmp_path, capsys):
    t63 = tmp_path / "t63.g6"
    t63.write_text(encode_graph6(turan_graph(6, 3)) + "\n")
    code, out, _ = run(capsys, "solve", "pack", str(t63), "--r", "3")
    assert code == 0
    blocks = [tuple(map(int, line.split())) for line in out.splitlines()]
    assert sorted(v for b in blocks for v in b) == list(range(6))

    code, out, _ = run(capsys, "solve", "turan-partition", str(t63), "--r", "3")
    assert code == 0 and len(out.splitlines()) == 3

    code, out, _ = run(capsys, "solve", "colour", str(t63), "--k", "3")
    assert code == 0 and len(out.splitlines()) == 3


def test_solve_no_cases(tmp_path, capsys):
    from packlab import t_star, build_clique_plus_isolates

    ts = tmp_path / "ts.g6"
    ts.write_text(encode_graph6(t_star(6, 3)) + "\n")
    code, out, _ = run(capsys, "solve", "pack", str(ts), "--r", "3")
    assert code == 1 and out == ""

    g1 = tmp_path / "g1.g6"
    g1.write_text(encode_graph6(build_clique_plus_isolates(6, 3)) + "\n")
    code, out, _ = run(capsys, "solve", "colour", str(g1), "--k", "2")
    assert code == 1


def test_solve_edge_list_input(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("n=4\n0 1\n2 3\n")
    code, out, _ = run(capsys, "solve", "matching", str(path))
    assert code == 0
    assert sorted(out.split()) == ["0", "1", "2", "3"]


def test_solve_hypothesis_violation_exit(tmp_path, capsys):
    k4 = tmp_path / "k4.g6"
    k4.write_text(encode_graph6(Graph.complete(4)) + "\n")
    code, _, err = run(capsys, "solve", "krfree", str(k4), "--r", "3")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "solve", "turan-partition", str(k4), "--r", "2")
    assert code == 2 and "error" in err


def test_solve_cap_abort_exit(tmp_path, capsys):
    k12 = tmp_path / "k12.g6"
    k12.write_text(encode_graph6(Graph.complete(12)) + "\n")
    code, _, err = run(capsys, "solve", "pack", str(k12), "--r", "3", "--node-cap", "2")
    assert code == 3 and "error" in err


def test_solve_above_kernel_limit_exit(tmp_path, capsys):
    t63 = tmp_path / "t63.g6"
    t63.write_text(encode_graph6(turan_graph(63, 3)) + "\n")
    code, _, err = run(capsys, "solve", "pack", str(t63), "--r", "3")
    assert code == 3 and "at most 62 vertices" in err


def test_solve_chvatal_and_square(tmp_path, capsys):
    k5 = tmp_path / "k5.g6"
    k5.write_text(encode_graph6(Graph.complete(5)) + "\n")
    code, out, _ = run(capsys, "solve", "chvatal", str(k5))
    assert code == 0 and out == "condition=true\n"
    code, out, _ = run(capsys, "solve", "square-check", str(k5))
    assert code == 0 and out == "obstructions: none\n"

    c6 = tmp_path / "c6.g6"
    c6.write_text(encode_graph6(Graph(6, [(i, (i + 1) % 6) for i in range(6)])) + "\n")
    code, out, _ = run(capsys, "solve", "chvatal", str(c6))
    assert code == 1 and out == "condition=false\n"
    code, out, _ = run(capsys, "solve", "square-check", str(c6))
    assert code == 1 and out == "obstructions: 0 1 2 3 4 5\n"


def test_solve_bad_graph_input(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("!!!not graph6!!!\n")
    code, _, err = run(capsys, "solve", "matching", str(bad))
    assert code == 2 and "error" in err


def test_verify_cli_reports(capsys):
    code, out, _ = run(capsys, "verify", "matching", "--n", "6")
    assert code == 0
    blob = json.loads(out)
    assert blob["status"] == "pass"
    assert blob["extremal"]["edges"] == 9

    code, out, _ = run(capsys, "verify", "t1", "--n", "6", "--r", "3")
    assert code == 0
    assert json.loads(out)["extremal"]["edges"] == 3


def test_verify_byte_identical_runs(capsys):
    argv = ("verify", "conj1", "--n", "12", "--r", "3", "--mode", "sampled",
            "--samples", "20000", "--seed", "7")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_sampled_duality_cap_abort(capsys):
    code, out, err = run(capsys, "verify", "mainthm1", "--n", "12", "--r", "3", "--D", "4",
                         "--mode", "sampled", "--seed", "1", "--samples", "200",
                         "--node-cap", "30")
    assert code == 3 and err == ""
    blob = json.loads(out)
    assert blob["status"] == "aborted" and blob["violations"] == []
    # the packing search capped on sample 133 (0-based), the last one counted
    assert blob["examined"] == 134


def test_verify_exhaustive_cap_abort(capsys):
    # the packing search first reaches the cap on mask 1183, the last one counted
    code, out, err = run(capsys, "verify", "matching", "--n", "6", "--node-cap", "8")
    assert code == 3 and err == ""
    blob = json.loads(out)
    assert (blob["status"], blob["examined"]) == ("aborted", 1184)


def test_verify_audit_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "audit", "--max-n", "16")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_bad_params(capsys):
    code, _, err = run(capsys, "verify", "t1", "--n", "7", "--r", "3")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "verify", "conj1", "--n", "12", "--r", "3",
                       "--mode", "sampled", "--samples", "10")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("predicate, param", [("matching", "--d"), ("conj1", "--r")])
def test_verify_negative_samples_rejected(capsys, predicate, param):
    code, out, err = run(capsys, "verify", predicate, "--n", "12", param, "3",
                         "--mode", "sampled", "--seed", "1", "--samples", "-5")
    assert code == 2 and "error" in err
    assert out == ""


@pytest.mark.parametrize("args", [
    ("conj1", "--n", "66", "--r", "3", "--samples", "10"),
    ("t1", "--n", "66", "--r", "3", "--D", "30", "--samples", "3"),
])
def test_verify_sampled_n_beyond_kernels_rejected(capsys, args):
    # 66 vertices overflow the int64 neighbour masks of the search kernels
    code, out, err = run(capsys, "verify", *args, "--mode", "sampled", "--seed", "1")
    assert code == 2 and "n <= 62" in err
    assert out == ""


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "bogus-kind", "--n", "6"])
    assert exc.value.code == 2


@pytest.mark.parametrize("task, option", [
    ("pack", "--r"), ("colour", "--k"), ("krfree", "--r"), ("turan-partition", "--r"),
])
def test_solve_missing_option(tmp_path, capsys, task, option):
    t63 = tmp_path / "t63.g6"
    t63.write_text(encode_graph6(turan_graph(6, 3)) + "\n")
    code, out, err = run(capsys, "solve", task, str(t63))
    assert (code, out, err) == (2, "", f"error: missing required option {option}\n")


@pytest.mark.parametrize("predicate, option", [
    ("matching", "--n"),
    ("t1", "--n"), ("t1", "--r"),
    ("mainthm1", "--n"), ("mainthm1", "--r"),
    ("conj1", "--n"), ("conj1", "--r"),
    ("ques1", "--n"), ("ques1", "--r"),
])
def test_verify_missing_option(capsys, predicate, option):
    given = [x for name, value in (("--n", "6"), ("--r", "3")) if name != option
             for x in (name, value)]
    code, out, err = run(capsys, "verify", predicate, *given)
    assert (code, out, err) == (2, "", f"error: missing required option {option}\n")


@pytest.mark.parametrize("argv, call", [
    (("matching", "--n", "6", "--d", "1"), lambda: verify_matching_threshold(6, d=1)),
    (("t1", "--n", "6", "--r", "3", "--D", "3"), lambda: verify_t1_threshold(6, 3, big_d=3)),
    (("mainthm1", "--n", "6", "--r", "3", "--D", "2"),
     lambda: verify_mainthm1_threshold(6, 3, big_d=2)),
    (("conj1", "--n", "6", "--r", "3"), lambda: conjecture1_search(6, 3)),
    (("ques1", "--n", "6", "--r", "3"), lambda: question1_search(6, 3)),
])
def test_verify_prints_the_library_report(capsys, argv, call):
    code, out, err = run(capsys, "verify", *argv)
    report = call()
    assert (code, out, err) == (0, report.to_json() + "\n", "")


def test_vertex_cap_applies_to_both_input_formats(tmp_path, capsys, monkeypatch):
    import packlab.graph
    from packlab.constructions import FAMILIES

    h60 = FAMILIES["H"].build(n=60, d=2)
    (tmp_path / "h60.g6").write_text(encode_graph6(h60) + "\n")
    (tmp_path / "h60.edges").write_text(format_edge_list(h60))
    monkeypatch.setattr(packlab.graph, "MAX_VERTICES", 50)
    for name in ("h60.g6", "h60.edges"):
        code, out, err = run(capsys, "solve", "chvatal", str(tmp_path / name))
        assert (code, out) == (2, "")
        assert err == "error: n=60 exceeds the configured vertex cap 50\n"


def test_exit_codes_through_the_module_entry_point():
    """``python -m packlab.cli`` makes ``main``'s return value the exit status."""
    src = str(Path(packlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    c6 = encode_graph6(Graph(6, [(i, (i + 1) % 6) for i in range(6)])) + "\n"
    k12 = encode_graph6(Graph.complete(12)) + "\n"
    cases = [
        (["threshold", "f2", "--n", "6", "--d", "1"], "", 0, "value=9 branch=second\n"),
        (["solve", "chvatal"], c6, 1, "condition=false\n"),
        (["threshold", "f", "--n", "12", "--r", "3"], "", 2, ""),
        (["solve", "pack", "--r", "3", "--node-cap", "2"], k12, 3, ""),
    ]
    for argv, stdin, code, out in cases:
        done = subprocess.run(
            [sys.executable, "-m", "packlab.cli", *argv], input=stdin, env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (code, out), argv
        assert done.stderr.startswith("error: ") == (code >= 2), argv

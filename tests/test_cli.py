"""The command surface: artifacts, exit codes, API/CLI byte equality."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from oracle import k_of_n_tree
from svaudit import cli
from svaudit.cli import UsageError, main, parse_instance
from svaudit.errors import InputError
from svaudit.explain import relevancy_report
from svaudit.families import FAMILY_IDS
from svaudit.model_io import model_from_dict, model_to_dict, model_to_json, save_model
from svaudit.models import ExplanationProblem, FeatureSpace


@pytest.fixture
def k1_path(tmp_path, k1_table):
    path = tmp_path / "k1.json"
    save_model(k1_table, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_explain_command(capsys, k1_path):
    code, out, _ = run(capsys, "explain", "--model", k1_path, "--instance", "1,0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"axps": [[1]], "cxps": [[1]], "relevant": [1],
                   "necessary": [1], "irrelevant": [2, 3]}


def test_explain_brute_matches_duality(capsys, k1_path):
    _, out_a, _ = run(capsys, "explain", "--model", k1_path, "--instance", "1,0,0",
                      "--method", "brute")
    _, out_b, _ = run(capsys, "explain", "--model", k1_path, "--instance", "1,0,0",
                      "--method", "duality")
    assert out_a == out_b


def test_shapley_command(capsys, k1_path):
    code, out, _ = run(capsys, "shapley", "--model", k1_path, "--instance", "1,0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["sv"][0] == {"feature": 1, "num": -1, "den": 24, "decimal": "-0.0417"}
    assert doc["sv"][2]["decimal"] == "-0.2917"
    assert doc["residual"] == "0"


def test_shapley_methods_agree(capsys, tmp_path, k1_dt):
    path = tmp_path / "k1dt.json"
    save_model(k1_dt, path)
    _, brute, _ = run(capsys, "shapley", "--model", str(path), "--instance", "1,0,0",
                      "--method", "brute")
    _, paths, _ = run(capsys, "shapley", "--model", str(path), "--instance", "1,0,0",
                      "--method", "paths")
    assert brute == paths


def test_adversarial_command(capsys, k1_path):
    code, out, _ = run(capsys, "adversarial", "--model", k1_path, "--instance", "1,0,0")
    assert code == 0
    assert json.loads(out) == {
        "min_l0": 1,
        "minimal_sets": [{"changed": [1], "witness": [0, 0, 0], "class": 0}],
    }


def test_validate_command(capsys, k1_path):
    code, out, _ = run(capsys, "validate", "--model", k1_path, "--instance", "1,0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["residual"] == "0"
    assert doc["sv_sum"] == {"num": -1, "den": 2, "decimal": "-0.5000"}


def test_synth_then_shapley(capsys, tmp_path):
    model_path = str(tmp_path / "c5.json")
    cert_path = str(tmp_path / "cert.json")
    code, _, _ = run(capsys, "synth", "--family", "c5", "--paper",
                     "--out", model_path, "--cert", cert_path)
    assert code == 0
    code, out, _ = run(capsys, "shapley", "--model", model_path, "--instance", "1,1,2")
    assert code == 0
    doc = json.loads(out)
    assert [e["decimal"] for e in doc["sv"]] == ["0.0000", "0.1667", "-0.5000"]
    assert [(e["num"], e["den"]) for e in doc["sv"]] == [(0, 1), (1, 6), (-1, 2)]
    cert = json.loads(open(cert_path, encoding="utf-8").read())
    assert cert["family"] == "c5" and cert["constraints_checked"] is True


def test_synth_solve_deterministic(capsys, tmp_path):
    out1 = str(tmp_path / "m1.json")
    out2 = str(tmp_path / "m2.json")
    assert run(capsys, "synth", "--family", "b", "--solve", "--out", out1)[0] == 0
    assert run(capsys, "synth", "--family", "b", "--solve", "--out", out2)[0] == 0
    assert open(out1).read() == open(out2).read()


def test_scan_command(capsys, tmp_path, k1_path):
    csv_path = str(tmp_path / "scan.csv")
    code, out, _ = run(capsys, "scan", "--model", k1_path, "--all", "--out", csv_path)
    assert code == 0
    summary = json.loads(out)
    assert summary["total"] == 8
    text = open(csv_path, encoding="utf-8").read()
    assert text.startswith("instance_index,x1,x2,x3,class,")
    assert len(text.strip().split("\n")) == 9


def test_scan_sample_reproducible(capsys, k1_path):
    _, out_a, err_a = run(capsys, "scan", "--model", k1_path, "--sample", "3", "--seed", "5")
    _, out_b, err_b = run(capsys, "scan", "--model", k1_path, "--sample", "3", "--seed", "5")
    assert out_a == out_b and err_a == err_b


def test_convert_round_trip(capsys, tmp_path, k1_path, k1_table):
    omdd_path = str(tmp_path / "k1-omdd.json")
    back_path = str(tmp_path / "k1-back.json")
    assert run(capsys, "convert", "--model", k1_path, "--to", "omdd",
               "--order", "3,1,2", "--out", omdd_path)[0] == 0
    assert run(capsys, "convert", "--model", omdd_path, "--to", "table",
               "--out", back_path)[0] == 0
    original = model_to_dict(k1_table)
    restored = json.loads(open(back_path, encoding="utf-8").read())
    assert restored["rows"] == original["rows"]


def test_build_omdd_command(capsys, tmp_path, k1_table):
    lines = ["x1,x2,x3,label"]
    for p in k1_table.space.points():
        lines.append(",".join(map(str, (*p, k1_table.evaluate(p)))))
    data_path = tmp_path / "k1.csv"
    data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out_path = str(tmp_path / "k1-omdd.json")
    code, _, _ = run(capsys, "build-omdd", "--data", str(data_path), "--out", out_path)
    assert code == 0
    doc = json.loads(open(out_path, encoding="utf-8").read())
    assert doc["type"] == "omdd" and doc["order"] == [1, 2, 3]


def test_cli_and_api_reports_are_byte_identical(capsys, tmp_path, k1_path, k1_table):
    out_path = tmp_path / "report.json"
    run(capsys, "explain", "--model", k1_path, "--instance", "1,0,0",
        "--out", str(out_path))
    problem = ExplanationProblem.of(k1_table, (1, 0, 0))
    api_text = json.dumps(relevancy_report(problem).to_json_dict(), indent=2) + "\n"
    assert out_path.read_bytes() == api_text.encode("utf-8")


def test_model_json_round_trip_bytes(tmp_path, k1_table):
    path = tmp_path / "m.json"
    save_model(k1_table, path)
    assert path.read_text(encoding="utf-8") == model_to_json(k1_table)


def test_parse_instance():
    space = FeatureSpace((2, 3, 3))
    assert parse_instance("1,2,2", space) == (1, 2, 2)
    assert parse_instance(" 1 , 0 , 0 ", space) == (1, 0, 0)
    with pytest.raises(UsageError):
        parse_instance("1,3,0", space)
    with pytest.raises(UsageError):
        parse_instance("1,0", space)
    with pytest.raises(UsageError):
        parse_instance("1,x,0", space)


def test_exit_codes(capsys, k1_path, tmp_path):
    # range violation in the instance: usage error
    code, _, err = run(capsys, "shapley", "--model", k1_path, "--instance", "1,3,0")
    assert code == 2 and "svaudit:" in err
    # wrong arity: usage error
    assert run(capsys, "explain", "--model", k1_path, "--instance", "1,0")[0] == 2
    # malformed token: usage error
    assert run(capsys, "explain", "--model", k1_path, "--instance", "1,a,0")[0] == 2
    # missing model file: domain error
    code, _, err = run(capsys, "explain", "--model", str(tmp_path / "nope.json"),
                       "--instance", "1,0,0")
    assert code == 1 and "svaudit:" in err
    # invalid JSON model: domain error
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert run(capsys, "explain", "--model", str(bad), "--instance", "1,0,0")[0] == 1
    # argparse-level misuse
    assert run(capsys, "synth", "--family", "zzz")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    # a negative budget is a usage error, as a nonpositive --sample or --jobs is;
    # a zero budget tries no candidate, a domain error
    code, out, err = run(capsys, "synth", "--family", "a", "--solve", "--budget", "-1")
    assert (code, out, err) == (2, "", "svaudit: --budget needs a non-negative count\n")
    code, out, err = run(capsys, "synth", "--family", "a", "--solve", "--budget", "0")
    assert code == 1 and out == "" and "within 0 candidates" in err and "Traceback" not in err


PARSED_ARGVS = [  # (argument list, exit code); "MISSING" names a file that does not exist
    ([], 2), (["-h"], 0), (["bogus"], 2), (["explain"], 2), (["explain", "-h"], 0),
    (["explain", "--model", "x", "--instance", "1", "--bogus"], 2),
    (["scan", "--model", "x", "--all", "--sample", "3"], 2), (["synth", "--family", "z"], 2),
    (["convert", "--model", "x", "--to", "x"], 2),
    (["explain", "--model", "MISSING", "--instance", "1"], 1),
]


@pytest.mark.parametrize("argv,status", PARSED_ARGVS,
                         ids=[" ".join(argv) or "no arguments" for argv, _ in PARSED_ARGVS])
def test_one_command_parser_answers_as_the_full_parser(capsys, monkeypatch, tmp_path, argv,
                                                       status):
    # a named command builds only its subparser; usage, help and errors stay those
    # of the parser that holds every command
    argv = [str(tmp_path / "missing.json") if arg == "MISSING" else arg for arg in argv]
    answer = run(capsys, *argv)
    assert answer[0] == status
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert run(capsys, *argv) == answer


def test_a_named_command_builds_only_its_subparser(capsys, monkeypatch, k1_path):
    built = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: built.append(name) or add_parser(self, name, **kw))
    assert run(capsys, "explain", "--model", k1_path, "--instance", "1,0,0")[0] == 0
    assert built == ["explain"]
    built.clear()
    assert run(capsys, "bogus")[0] == 2
    assert built == list(cli.COMMANDS)  # the full parser, every command in listed order


def test_nul_in_an_argument_is_a_usage_error(capsys, tmp_path, k1_path):
    # no command line carries one, but ``open`` raised ValueError on such a path
    data = tmp_path / "data.csv"
    data.write_text("x1,y\n0,0\n1,1\n", encoding="utf-8")
    for argv in (("synth", "--family", "a", "--out", "a\0b"),
                 ("synth", "--family", "a", "--cert", "\0"),
                 ("build-omdd", "--data", "\0"),
                 ("build-omdd", "--data", str(data), "--out", "\0"),
                 ("explain", "--model", k1_path, "--instance", "1,0,0\0")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "svaudit: arguments cannot contain a NUL character\n")


def test_scan_jobs_flag_matches_serial(capsys, k1_path):
    _, serial, _ = run(capsys, "scan", "--model", k1_path, "--all")
    _, parallel, _ = run(capsys, "scan", "--model", k1_path, "--all", "--jobs", "2")
    assert serial == parallel


def test_convert_rejects_bad_order(capsys, k1_path):
    assert run(capsys, "convert", "--model", k1_path, "--to", "omdd",
               "--order", "1,2")[0] == 2
    assert run(capsys, "convert", "--model", k1_path, "--to", "omdd",
               "--order", "0,1,2")[0] == 2
    assert run(capsys, "convert", "--model", k1_path, "--to", "omdd",
               "--order", "a,b,c")[0] == 2


def test_convert_to_table_rejects_an_order(capsys, tmp_path):
    # a table has no variable order: --order is a usage error there, not
    # silently dropped, whether or not it would be a valid permutation
    tree_path = tmp_path / "tree.json"
    save_model(k_of_n_tree(8, 4), tree_path)
    out_path = tmp_path / "table.json"
    for order in ("1,2", "8,7,6,5,4,3,2,1"):
        code, out, err = run(capsys, "convert", "--model", str(tree_path), "--to", "table",
                             "--order", order, "--out", str(out_path))
        assert code == 2 and out == ""
        assert "--order applies to --to omdd" in err
        assert not out_path.exists()
    assert run(capsys, "convert", "--model", str(tree_path), "--to", "table",
               "--out", str(out_path))[0] == 0


def _chain_doc(kind):
    n = 5000  # deeper than the interpreter's recursion limit
    nodes = [{"id": k, "feature": 1, "edges": [{"values": [0], "to": k + 1},
                                               {"values": [1], "to": n + 1}]}
             for k in range(n)]
    nodes += [{"id": n, "class": 0}, {"id": n + 1, "class": 1}]
    doc = {"type": kind, "features": [{"name": "x1", "domain": 2}],
           "classes": [0, 1], "nodes": nodes}
    if kind == "omdd":
        doc["order"] = [1]
    return doc


def _cycle_doc(kind, shape):
    """Three binary features and a cycle: a node that is its own child, two
    nodes that are each other's child, or a cycle entered through a node
    that both edges of the root share."""
    leaves = [{"id": "c0", "class": 0}, {"id": "c1", "class": 1}]
    if shape == "self-loop":
        nodes = [{"id": 0, "feature": 1, "edges": [{"values": [0], "to": 0},
                                                   {"values": [1], "to": "c1"}]}]
    elif shape == "two-node":
        nodes = [{"id": 0, "feature": 1, "edges": [{"values": [0], "to": 1},
                                                   {"values": [1], "to": "c0"}]},
                 {"id": 1, "feature": 2, "edges": [{"values": [0], "to": 0},
                                                   {"values": [1], "to": "c1"}]}]
    else:
        nodes = [{"id": 0, "feature": 1, "edges": [{"values": [0], "to": 1},
                                                   {"values": [1], "to": 1}]},
                 {"id": 1, "feature": 2, "edges": [{"values": [0], "to": 2},
                                                   {"values": [1], "to": "c0"}]},
                 {"id": 2, "feature": 3, "edges": [{"values": [0], "to": 1},
                                                   {"values": [1], "to": "c1"}]}]
    doc = {"type": kind, "features": [{"name": f"x{i}", "domain": 2} for i in (1, 2, 3)],
           "classes": [0, 1], "nodes": nodes + leaves}
    if kind == "omdd":
        doc["order"] = [1, 2, 3]
    return doc


CYCLES = [(kind, shape) for kind in ("dt", "omdd")
          for shape in ("self-loop", "two-node", "shared entry")]


@pytest.mark.parametrize("kind,shape", CYCLES)
def test_cyclic_graph_is_rejected_by_the_construction_walk(kind, shape):
    # the loader links the entries as listed; the model rejects the cycle
    with pytest.raises(InputError, match="tested twice"):
        model_from_dict(_cycle_doc(kind, shape))


MALFORMED_MODELS = {
    **{f"{kind} {shape}": _cycle_doc(kind, shape) for kind, shape in CYCLES},
    "dt chain": _chain_doc("dt"),
    "omdd chain": _chain_doc("omdd"),
    "list id": {"type": "dt", "features": [{"name": "x1", "domain": 2}], "classes": [0, 1],
                "nodes": [{"id": [0], "class": 0}]},
    "boolean row": {"type": "table", "features": [{"name": "x1", "domain": 2}],
                    "classes": [0, 1], "rows": [[0, 0], [True, 1]]},
}


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _child(*argv, **kwargs):
    """A fresh interpreter with the package on its path."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=60, **kwargs)


def _assert_clean_domain_error(proc):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("svaudit: ")


@pytest.mark.parametrize("name", sorted(MALFORMED_MODELS))
def test_malformed_model_exits_1_without_traceback(tmp_path, name):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MALFORMED_MODELS[name]), encoding="utf-8")
    _assert_clean_domain_error(
        _child("-m", "svaudit.cli", "explain", "--model", str(path), "--instance", "0"))


MALFORMED_FILES = {  # name -> (command, file flag, file bytes)
    "model not UTF-8": (
        "explain", "--model",
        b'{"type": "table", "features": [{"name": "caf\xe9", "domain": 2}]}'),
    "model nested 100k deep": ("explain", "--model", b"[" * 100_000 + b"]" * 100_000),
    "model integer past the digit limit": (
        "explain", "--model",
        b'{"type": "table", "features": [{"name": "x1", "domain": ' + b"7" * 5000 + b"}]}"),
    "dataset not UTF-8": ("build-omdd", "--data", b"x1,y\n\xe9,1\n0,0\n"),
    "dataset field past the csv limit": (
        "build-omdd", "--data", b"x1,y\n" + b"a" * 200_000 + b",1\n0,0\n"),
    "dataset feature integer past the digit limit": (
        "build-omdd", "--data", b"x1,y\n9,1\n10,0\n" + b"1" * 5000 + b",1\n"),
    "dataset class integer past the digit limit": (
        "build-omdd", "--data", b"x1,y\n0,1\n1," + b"7" * 5000 + b"\n"),
    "dataset row repeating the header": ("build-omdd", "--data", b"x1,y\n9,0\n10,1\nx1,y\n"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_unreadable_file_exits_1_without_traceback(tmp_path, name):
    command, flag, content = MALFORMED_FILES[name]
    path = tmp_path / "input"
    path.write_bytes(content)
    argv = [command, flag, str(path)] + (["--instance", "0"] if command == "explain" else [])
    _assert_clean_domain_error(_child("-m", "svaudit.cli", *argv))


def test_cli_import_leaves_the_process_pool_unloaded(tmp_path, k1_table):
    # ``scan --jobs N`` imports the pool only when N > 1
    script = ("import sys, svaudit.cli; "
              "print(sorted(k for k in ('concurrent.futures', 'multiprocessing') "
              "if k in sys.modules))")
    proc = _child("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

    # the CLI module loads only what parsing an instance and loading a model
    # need, and neither ``dataclasses`` nor the ``inspect`` it imports
    script = ("import sys, svaudit.cli; print(sorted(k for k in sys.modules if 'svaudit' in k\n"
              "                                     or k in ('dataclasses', 'inspect')))")
    proc = _child("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == repr(["svaudit", "svaudit.cli", "svaudit.errors",
                                "svaudit.model_io", "svaudit.models"]) + "\n"

    # explain and adversarial load no scan, Shapley, family or rational code
    save_model(k1_table, tmp_path / "k1.json")
    script = ("import sys; from svaudit.cli import main\n"
              "for command in ('explain', 'adversarial'):\n"
              "    assert main([command, '--model', 'k1.json', '--instance', '1,0,0',\n"
              "                 '--out', command + '.json']) == 0\n"
              "print(sorted(k for k in ('svaudit.scan', 'svaudit.shapley', 'svaudit.families',\n"
              "                         'fractions') if k in sys.modules))")
    proc = _child("-c", script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert json.loads((tmp_path / "explain.json").read_text())["relevant"] == [1]

    # build-omdd loads no engine: no scan, explain, Shapley, family or rational code
    (tmp_path / "data.csv").write_text("x1,x2,y\n0,0,0\n1,1,1\n", encoding="utf-8")
    script = ("import sys; from svaudit.cli import main\n"
              "assert main(['build-omdd', '--data', 'data.csv', '--out', 'data.json']) == 0\n"
              "print(sorted(k for k in ('svaudit.scan', 'svaudit.explain', 'svaudit.shapley',\n"
              "                         'svaudit.families', 'svaudit.rat', 'fractions',\n"
              "                         'decimal') if k in sys.modules))")
    proc = _child("-c", script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert json.loads((tmp_path / "data.json").read_text())["type"] == "omdd"

    # no command loads dataclasses or inspect, and scan loads no ingestion code
    instance = ["--model", "k1.json", "--instance", "1,0,0", "--out", "out.json"]
    commands = [
        ["explain", *instance], ["adversarial", *instance], ["shapley", *instance],
        ["validate", *instance], ["scan", "--model", "k1.json", "--out", "out.csv"],
        ["convert", "--model", "k1.json", "--to", "omdd", "--out", "out.json"],
        ["build-omdd", "--data", "data.csv", "--out", "out.json"],
        ["synth", "--family", "a", "--out", "out.json"],
    ]
    for argv in commands:
        script = ("import sys; from svaudit.cli import main\n"
                  f"assert main({argv!r}) == 0\n"
                  "print(sorted(k for k in ('dataclasses', 'inspect', 'svaudit.dataset')\n"
                  "             if k in sys.modules))")
        proc = _child("-c", script, cwd=tmp_path)
        assert proc.returncode == 0, (argv, proc.stderr)
        expected = ["svaudit.dataset"] if argv[0] == "build-omdd" else []
        assert proc.stdout.splitlines()[-1] == repr(expected), argv  # scan prints its summary first


def test_synth_family_choices_are_the_family_ids():
    assert cli.FAMILY_IDS == FAMILY_IDS

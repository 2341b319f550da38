"""Issue detection, corpus scans, dataset ingestion, diagram building."""

import csv
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from svaudit.cli import main
from svaudit.errors import InputError
from svaudit.families import FamilySpec, instantiate, solve_family
from svaudit.models import ExplanationProblem, FeatureSpace, TabularClassifier, to_omdd
from svaudit.scan import (
    analyze_instance,
    build_omdd_from_dataset,
    load_consistent_dataset,
    records_to_csv,
    scan_model,
    summarize,
)
from svaudit.shapley import phi

F = Fraction


def test_analyze_instance_checks_points_at_the_boundary_only(monkeypatch):
    # the loops over cube points call the unchecked lookup; only the instance
    # and the points handed to exported functions are checked
    from oracle import random_table
    table = random_table(random.Random(21), FeatureSpace((2, 2, 2, 2, 2, 2, 3, 3)))
    problem = ExplanationProblem.of(table, (1, 0, 1, 0, 1, 0, 2, 1))
    calls = []
    check = FeatureSpace.validate_point
    monkeypatch.setattr(FeatureSpace, "validate_point",
                        lambda self, point: calls.append(1) or check(self, point))
    record = analyze_instance(problem)
    assert record.point == problem.point
    assert 0 < len(calls) < 50


def test_analyze_k1(k1_problem):
    record = analyze_instance(k1_problem)
    assert record.issue is True
    assert record.v_irrelevant_max == F(7, 24)
    assert record.v_relevant_min == F(1, 24)
    assert record.relevant == frozenset({0})
    assert record.index == 4  # (1,0,0) in mixed radix


def test_analyze_kc1_instance():
    problem = instantiate(FamilySpec("c", 1, (0, 2, 0, 0, 5, 0, 0, 8, 0)))
    record = analyze_instance(problem)
    assert record.issue is True
    assert record.sv[0] == 0
    assert record.v_relevant_min == 0
    assert record.v_irrelevant_max == F(1, 2)


def test_single_feature_has_no_issue():
    table = TabularClassifier(FeatureSpace((3,)), (0, 1, 1))
    record = analyze_instance(ExplanationProblem.of(table, (1,)))
    assert record.issue is False
    assert record.v_irrelevant_max is None
    assert record.v_relevant_min is not None


def test_record_internal_consistency():
    rng = random.Random(131)
    for _ in range(10):
        from oracle import random_problem
        record = analyze_instance(random_problem(rng, max_features=4))
        both = record.v_irrelevant_max is not None and record.v_relevant_min is not None
        assert record.issue == (both and record.v_irrelevant_max > record.v_relevant_min)


def test_scan_k1_all(k1_table):
    records, summary = scan_model(k1_table)
    assert len(records) == 8
    assert [r.index for r in records] == list(range(8))
    assert summary.total == 8
    recount = summarize(records)
    assert (summary.total, summary.issues, summary.zero_sv_relevant) == \
        (recount.total, recount.issues, recount.zero_sv_relevant)


def test_scan_k2_all(k2_table):
    records, summary = scan_model(k2_table)
    assert len(records) == 18 and summary.total == 18


def test_scan_family_c_flags_target_instance():
    problem = instantiate(solve_family("c"))
    records, summary = scan_model(problem.model)
    assert len(records) == 18
    target = next(r for r in records if r.point == (1, 2, 2))
    assert target.issue is True
    assert target.sv[0] == 0
    assert target.relevant == frozenset({0})
    assert summary.issues >= 1


def test_scan_sample_deterministic(k2_table):
    a = scan_model(k2_table, sample=5, seed=7)
    b = scan_model(k2_table, sample=5, seed=7)
    assert a == b
    assert len(a[0]) == 5
    assert [r.index for r in a[0]] == sorted(r.index for r in a[0])
    c = scan_model(k2_table, sample=5, seed=8)
    assert [r.index for r in c[0]] != [r.index for r in a[0]] or c == a


def test_scan_sample_covers_all_when_large(k1_table):
    records, _ = scan_model(k1_table, sample=100, seed=0)
    assert len(records) == 8


@pytest.mark.parametrize("kind", ["table", "omdd"])
def test_scan_computes_phi_empty_once(monkeypatch, kind):
    # phi(empty) is one number per model: the scan asks phi for it once and
    # its records equal those of each instance analyzed on its own
    import svaudit.scan as scan
    from oracle import random_table
    model = random_table(random.Random(5), FeatureSpace((2, 3, 2, 2)))
    if kind == "omdd":
        model = to_omdd(model)
    calls = []
    monkeypatch.setattr(scan, "phi", lambda *a, **k: calls.append(a[1]) or phi(*a, **k))
    records, _ = scan_model(model)
    assert calls == [frozenset()]
    assert records == tuple(analyze_instance(ExplanationProblem.of(model, p))
                            for p in model.space.points())


def test_nonzero_residual_ends_the_scan(monkeypatch, tmp_path, capsys):
    # a wrong phi(empty) of 99 leaves the residual 7/8 + 7/8 + 99 - 3 = 391/4
    import svaudit.scan as scan
    from svaudit.errors import SvauditError
    from svaudit.model_io import save_model
    table = TabularClassifier(FeatureSpace((2, 2)), (0, 1, 1, 3))
    problem = ExplanationProblem.of(table, (1, 1))
    assert analyze_instance(problem).sv == (F(7, 8), F(7, 8))
    with pytest.raises(SvauditError, match="residual 391/4 at instance 1,1"):
        analyze_instance(problem, phi_empty=F(99))
    path = tmp_path / "model.json"
    save_model(table, path)
    monkeypatch.setattr(scan, "phi", lambda *a, **k: F(99))
    assert main(["scan", "--model", str(path), "--all"]) == 1
    assert "residual" in capsys.readouterr().err


def test_scan_with_worker_pool(k1_table):
    serial = scan_model(k1_table)
    parallel = scan_model(k1_table, jobs=2)
    assert serial == parallel


@pytest.fixture
def pool_log(monkeypatch):
    """A stand-in pool that logs its size and maps serially, so a test of the
    pool starts no process (a real one forks all its workers at the first
    submit); returns the log. ``os.cpu_count()`` reads 64, so the sizes do
    not depend on the machine."""
    import concurrent.futures

    from svaudit import scan

    log = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            log.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(scan, "_worker_scanner", None)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    return log


def test_scan_pool_starts_no_more_workers_than_instances(pool_log, k1_table):
    for jobs, sample, workers in ((8, 2, 2), (2, 5, 2), (8, None, 8), (16, None, 8)):
        assert scan_model(k1_table, sample=sample, seed=3, jobs=jobs) == \
            scan_model(k1_table, sample=sample, seed=3)
        assert pool_log.pop() == workers


def test_scan_pool_starts_no_more_workers_than_cpus(monkeypatch, pool_log, k1_table):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert scan_model(k1_table, jobs=16) == scan_model(k1_table)
    assert pool_log == [2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker
    assert scan_model(k1_table, jobs=16) == scan_model(k1_table)
    assert pool_log == [2, 1]


def test_scan_computes_phi_empty_once_before_any_instance_or_worker(monkeypatch, pool_log,
                                                                    k1_table):
    from svaudit import scan, shapley

    expected = scan_model(k1_table, sample=5, seed=3)

    def logged(name, fn):
        return lambda *args, **kwargs: pool_log.append(name) or fn(*args, **kwargs)

    # the scan's own name and the one ``shapley_values`` falls back on
    monkeypatch.setattr(scan, "phi", logged("phi", phi))
    monkeypatch.setattr(shapley, "phi", logged("phi", phi))
    monkeypatch.setattr(scan, "analyze_instance", logged("instance", analyze_instance))
    for jobs, pool in ((1, []), (2, [2]), (8, [5])):
        assert scan_model(k1_table, sample=5, seed=3, jobs=jobs) == expected
        assert pool_log == ["phi", *pool, *["instance"] * 5]
        pool_log.clear()


def test_records_csv(k1_table):
    records, _ = scan_model(k1_table)
    text = records_to_csv(records, k1_table.space)
    lines = text.strip().split("\n")
    assert lines[0] == ("instance_index,x1,x2,x3,class,sv_1,sv_2,sv_3,"
                        "relevant,issue,v_i,v_j")
    assert len(lines) == 9
    row = lines[1 + 4].split(",")  # the (1,0,0) instance
    assert row[:5] == ["4", "1", "0", "0", "1"]
    assert row[5:8] == ["-0.0417", "-0.1667", "-0.2917"]
    assert row[8] == "1" and row[9] == "1"
    assert row[10] == "0.2917" and row[11] == "0.0417"


def test_summary_json(k1_table):
    _, summary = scan_model(k1_table)
    doc = summary.to_json_dict()
    assert set(doc) == {"total", "issues", "fraction", "zero_sv_relevant"}
    assert doc["total"] == 8
    assert doc["fraction"] == round(doc["issues"] / 8, 6)


def test_load_consistent_dataset_first_wins(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("a,b,label\n0,0,1\n0,0,2\n1,0,1\n", encoding="utf-8")
    data = load_consistent_dataset(path)
    assert data.rows == (((0, 0), 1), ((1, 0), 1))
    assert data.dropped == 1
    assert data.feature_names == ("a", "b")


def test_load_consistent_dataset_identity_when_clean(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("a,b,label\n0,0,1\n0,1,0\n1,0,1\n1,1,0\n", encoding="utf-8")
    data = load_consistent_dataset(path)
    assert data.rows == (((0, 0), 1), ((0, 1), 0), ((1, 0), 1), ((1, 1), 0))
    assert data.dropped == 0


def test_dataset_value_mapping(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("color,size,label\nred,1,yes\nblue,3,no\nred,3,no\n",
                    encoding="utf-8")
    data = load_consistent_dataset(path)
    # lexicographic codes for symbols, numeric order for integer columns
    assert data.value_maps[0] == {"blue": 0, "red": 1}
    assert data.value_maps[1] == {"1": 0, "3": 1}
    assert data.class_map == {"no": 0, "yes": 1}
    assert data.rows == (((1, 0), 1), ((0, 1), 0), ((1, 1), 0))


def test_dataset_integer_classes_kept_verbatim(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("a,label\n0,5\n1,0\n", encoding="utf-8")
    data = load_consistent_dataset(path)
    assert data.class_map is None
    assert data.rows == (((0,), 5), ((1,), 0))


def test_dataset_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("a,b,label\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_consistent_dataset(empty)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b,label\n0,0,1\n0,1\n", encoding="utf-8")
    with pytest.raises(InputError, match="^row 3 has 2 cells, expected 3$"):
        load_consistent_dataset(ragged)
    # a bad byte past the first 64 KiB is named by its offset in the file,
    # whether the file is read line by line or, holding a quote, record by record
    for head in (b"x1,y\n", b'"x1",y\n'):
        text = head + b"0,1\n" * 20_000
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(text + b"\xff,0\n")
        with pytest.raises(InputError, match=f"byte 0xff in position {len(text)}: "):
            load_consistent_dataset(latin1)


@pytest.mark.parametrize("text,message", [
    # the row number counts the header and every filled row, repeats included
    ("\na,b,label\n,,\n0,0,1\n \n0,1\n", "row 3 has 2 cells, expected 3"),
    ("a,b,label\n0,0,1\n0,0,1\n0,1,1,1\n0,0,1\n5\n", "row 4 has 4 cells, expected 3"),
])
def test_dataset_ragged_row_number(tmp_path, text, message):
    path = tmp_path / "ragged.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=f"^{message}$"):
        load_consistent_dataset(path)


@pytest.mark.parametrize("text,message", [
    # a row equal to the header once stripped (two files joined, say) would
    # code the column names as values; numbered as a ragged row is
    ("x1,y\n9,0\n10,1\nx1,y\n", "row 4 repeats the header"),
    ("x1, y\n\n9,0\n x1 ,y\n9,0,0\n", "row 3 repeats the header"),
    # the first offending row wins
    ("x1,y\n9,0,0\nx1,y\n", "row 2 has 3 cells, expected 2"),
])
def test_dataset_row_repeating_the_header(tmp_path, text, message):
    path = tmp_path / "joined.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=f"^{message}$"):
        load_consistent_dataset(path)


def test_dataset_integer_past_the_digit_limit(tmp_path):
    # one such cell would otherwise turn its column symbolic without notice
    huge = "1" * 5000
    path = tmp_path / "rows.csv"
    path.write_text(f"x1,y\n9,1\n10,0\n{huge},1\n", encoding="utf-8")
    with pytest.raises(InputError, match="column 'x1' holds an integer past"):
        load_consistent_dataset(path)
    path.write_text(f"x1,y\n0,1\n1,{huge}\n", encoding="utf-8")
    with pytest.raises(InputError, match="column 'y' holds an integer past"):
        load_consistent_dataset(path)
    # in a column that is not all-integer the long literal is one more symbol
    path.write_text(f"x1,y\nb,1\n{huge},0\n", encoding="utf-8")
    assert load_consistent_dataset(path).value_maps == ({huge: 0, "b": 1},)


_SYMBOLS = ("a", "b", " a", "b ", "a,b", "new\nline", 'say "hi"', "x1", "label")
_INTEGERS = ("0", " 1", "1", "2 ", "07", "7", "+7", "-3", "1_0", "10")


def _random_csv(rng, path):
    """A seeded CSV with repeats, blank rows, whitespace variants of one value,
    quoted commas and newlines, conflicting labels, a data row equal to the
    header, and now and then a ragged row."""
    m = rng.randint(1, 4)
    header = [f" x{j + 1}" if rng.random() < 0.2 else f"x{j + 1}" for j in range(m)] + ["label"]
    pools = [rng.sample(rng.choice((_SYMBOLS, _INTEGERS)), rng.randint(1, 4))
             for _ in range(m + 1)]
    rows = []
    for _ in range(rng.randint(0, 30)):
        roll = rng.random()
        if rows and roll < 0.3:
            rows.append(rng.choice(rows))
        elif roll < 0.38:
            rows.append(rng.choice([[], [""] * (m + 1), [" ", ""], ["  "]]))
        elif roll < 0.41:
            rows.append(list(header))
        elif roll < 0.42:
            rows.append(["0"] * rng.choice((m, m + 2)))
        else:
            rows.append([rng.choice(pool) for pool in pools])
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator=rng.choice(("\n", "\r\n")))
        writer.writerows([header] + rows)


def _outcome(load, path):
    try:
        return load(path)
    except InputError as exc:
        return f"InputError: {exc}"


def _kind(outcome):
    if not isinstance(outcome, str):
        return "dropped" if outcome.dropped else "clean"
    for kind, words in (("empty", "at least one data row"), ("ragged", " cells, expected "),
                        ("repeat", " repeats the header")):
        if words in outcome:
            return kind
    return outcome


def test_dataset_matches_the_row_by_row_reference(tmp_path):
    from oracle import o_dataset
    path = tmp_path / "rows.csv"
    kinds = Counter()
    quoted = Counter()
    for seed in range(300):
        _random_csv(random.Random(seed), path)
        expected = _outcome(o_dataset, path)
        assert _outcome(load_consistent_dataset, path) == expected, seed
        kinds[_kind(expected)] += 1
        quoted['"' in path.read_text(encoding="utf-8")] += 1
    # the seeds reach clean and contradicting files, files with no data row,
    # with a ragged row and with a row that repeats the header
    assert set(kinds) == {"clean", "dropped", "empty", "ragged", "repeat"}, kinds
    assert min(kinds.values()) > 5, kinds
    # and files read line by line (no quote) as well as record by record
    assert quoted[True] > 50 and quoted[False] > 50, quoted


@pytest.mark.parametrize("data", [
    # LF, CRLF and lone CR line ends in one file; one row under LF and CRLF,
    # and a contradicting copy of it under lone CR and CRLF
    b"x1,x2,y\n0,0,0\r\n0,1,1\r1,0,1\n0,0,0\n1,1,0\r\n0,0,1\r0,0,1\r\n",
    # a last line with no terminator, after blank lines of each kind
    b"x1,x2,y\n0,0,0\n\r\n\r \n,,\n0,1,1\n1,1,0",
    # the header again under another terminator
    b"x1,y\n0,0\n1,1\r\nx1,y\r\n",
    b"x1,y\r\n0,0\r\n1,1\nx1,y",
    # a quote only in the header sends the file down the record path
    b'"x1",y\n0,0\n1,1\r\n0,1\n',
    b'x1,"y"\r\n1,0\r\n1,0\r\n0,1',
])
def test_dataset_line_ends_and_quotes_match_the_reference(tmp_path, data):
    from oracle import o_dataset
    path = tmp_path / "rows.csv"
    path.write_bytes(data)
    assert _outcome(load_consistent_dataset, path) == _outcome(o_dataset, path)


def test_dataset_nul_byte_reads_alike_on_both_paths(tmp_path):
    # the csv module rejects a NUL on some Python versions; either way the
    # line path and the record path agree with each other and the reference
    from oracle import o_dataset
    path = tmp_path / "rows.csv"
    outcomes = []
    for data in (b"x1,y\n0,0\n1\x00,1\n", b'x1,y\n"0",0\n1\x00,1\n'):
        path.write_bytes(data)
        outcomes.append(_outcome(load_consistent_dataset, path))
        assert outcomes[-1] == _outcome(o_dataset, path)
    assert outcomes[0] == outcomes[1]


def test_dataset_bad_utf8_after_many_rows(tmp_path, capsys):
    # the byte lies past the first block the file is decoded in
    from oracle import o_dataset
    path = tmp_path / "rows.csv"
    rows = "".join(f"{i % 7},{i % 3},{i % 2}\n" for i in range(20_000)).encode()
    path.write_bytes(b"x1,x2,y\n" + rows + b"\xff,0,1\n" + rows)
    outcome = _outcome(load_consistent_dataset, path)
    assert outcome.startswith(f"InputError: dataset {path} is not UTF-8 text: ")
    assert outcome == _outcome(o_dataset, path)
    assert main(["build-omdd", "--data", str(path), "--out", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("svaudit: dataset ") and "Traceback" not in err


def test_build_omdd_ignores_repeated_rows(tmp_path):
    rng = random.Random(3)
    lines = ["x1,x2,x3,label"] + [
        f"{rng.randrange(2)},{rng.randrange(3)},{rng.randrange(2)},{rng.randrange(3)}"
        for _ in range(40)]
    once = tmp_path / "once.csv"
    twice = tmp_path / "twice.csv"
    once.write_text("\n".join(lines) + "\n", encoding="utf-8")
    twice.write_text("\n".join(lines + lines[1:]) + "\n", encoding="utf-8")
    first, second = load_consistent_dataset(once), load_consistent_dataset(twice)
    assert first.dropped > 0 and second.dropped == 2 * first.dropped
    assert second.rows == first.rows
    for path in (once, twice):
        assert main(["build-omdd", "--data", str(path), "--out", str(path) + ".json"]) == 0
    assert (tmp_path / "once.csv.json").read_bytes() == (tmp_path / "twice.csv.json").read_bytes()


def test_build_omdd_covering_dataset_reproduces_k1(tmp_path, k1_table):
    lines = ["x1,x2,x3,label"]
    for p in k1_table.space.points():
        lines.append(",".join(map(str, (*p, k1_table.evaluate(p)))))
    path = tmp_path / "k1.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    omdd = build_omdd_from_dataset(load_consistent_dataset(path))
    for p in k1_table.space.points():
        assert omdd.evaluate(p) == k1_table.evaluate(p)


def test_build_omdd_covering_dataset_reproduces_k2(tmp_path, k2_table):
    lines = ["x1,x2,x3,label"]
    for p in k2_table.space.points():
        lines.append(",".join(map(str, (*p, k2_table.evaluate(p)))))
    path = tmp_path / "k2.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    omdd = build_omdd_from_dataset(load_consistent_dataset(path))
    for p in k2_table.space.points():
        assert omdd.evaluate(p) == k2_table.evaluate(p)


def test_build_omdd_majority_completion(tmp_path):
    path = tmp_path / "rows.csv"
    # classes 2 and 7 tie on count; the smaller label wins the default
    path.write_text("a,b,label\n0,0,7\n0,1,2\n1,0,7\n1,1,2\n0,2,5\n",
                    encoding="utf-8")
    omdd = build_omdd_from_dataset(load_consistent_dataset(path))
    assert omdd.evaluate((1, 2)) == 2  # unseen point gets the default


def test_build_omdd_rejects_constant_completion(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("a,label\n0,1\n1,1\n", encoding="utf-8")
    with pytest.raises(InputError):
        build_omdd_from_dataset(load_consistent_dataset(path))

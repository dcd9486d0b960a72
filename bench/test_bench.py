"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import copy
import importlib.util
import json
from fractions import Fraction

import pytest

import run  # puts the checkout's src/ on sys.path
import catzeta
import catzeta.zeta
import measure
import oracle
import spans
import workloads
from benchpath import ROOT


# -- self-time arithmetic ---------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    #  root [0, 10]
    #    a  [1, 4]
    #      b [2, 3]
    #    a  [5, 9]
    trace = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
    ]
    assert spans.self_times(trace) == {"root": 3.0, "a": 6.0, "b": 1.0}
    assert spans.inclusive_times(trace) == {"root": 10.0, "a": 7.0, "b": 1.0}
    assert sum(spans.self_times(trace).values()) == 10.0


def test_inclusive_time_does_not_count_a_nested_span_twice():
    trace = [["a", 0.0, 4.0, None], ["b", 1.0, 3.0, 0], ["a", 1.5, 2.5, 1]]
    assert spans.inclusive_times(trace)["a"] == 4.0
    assert spans.self_times(trace) == {"a": 3.0, "b": 1.0}


def test_tracer_spans_cover_verify_and_restore_the_library():
    original = catzeta.zeta.factor_charpoly
    a = catzeta.IntMatrix([[1, 2], [1, 1]])
    with spans.Tracer() as tracer:
        catzeta.zeta.verify_matrix(a, order=10)
    assert catzeta.zeta.factor_charpoly is original
    roots = [s for s in tracer.spans if s[spans.PARENT] is None]
    assert [s[spans.NAME] for s in roots] == ["zeta.checks"]
    total = roots[0][spans.END] - roots[0][spans.START]
    assert sum(spans.self_times(tracer.spans).values()) == pytest.approx(total)
    assert tracer.calls["charpoly.det"] > 0
    assert tracer.numeric_degree == 2  # the Pell matrix has two irrational roots


def test_tracer_skips_a_layer_the_library_no_longer_has(monkeypatch):
    monkeypatch.delattr(catzeta.cli, "cli_main")
    with spans.Tracer() as tracer:
        catzeta.zeta.verify_matrix(catzeta.IntMatrix([[2]]), order=3)
    assert tracer.calls["cli.main"] == 0
    assert tracer.calls["zeta.checks"] == 1
    assert not hasattr(catzeta.cli, "cli_main")


# -- statistics ---------------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert measure.percentile(values, 0.5) == 50
    assert measure.percentile(values, 0.9) == 90
    assert measure.percentile(values, 1.0) == 100
    assert measure.percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)


def test_min_samples_leaves_ten_beyond_p90():
    n = measure.min_samples()
    assert n == 100
    assert measure.samples_beyond(n, 0.9) == 10
    assert measure.samples_beyond(n - 1, 0.9) == 9


def test_pass_rates_use_complete_passes_and_count_only_verified_items():
    attempts = [measure.Attempt(0, "x", 0.5, True), measure.Attempt(0, "y", 0.5, False),
                measure.Attempt(1, "x", 0.25, True), measure.Attempt(1, "y", 0.25, True),
                measure.Attempt(2, "x", 0.1, True)]
    assert measure.pass_rates(attempts, 2) == {0: 1.0, 1: 4.0}


# -- generators ---------------------------------------------------------------------

def _inputs(items):
    return [(item.label, item.matrix, item.argv) for item in items]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert _inputs(workloads.build(name, 3)) == _inputs(workloads.build(name, 3))


@pytest.mark.parametrize("name", ["exact-ladder", "numeric-ladder"])
def test_ladders_change_with_the_seed(name):
    first = sorted((i.label, i.matrix.rows) for i in workloads.build(name, 1))
    second = sorted((i.label, i.matrix.rows) for i in workloads.build(name, 2))
    assert first != second
    rungs = workloads.EXACT_RUNGS if name == "exact-ladder" else workloads.NUMERIC_RUNGS
    assert sorted(i.n for i in workloads.build(name, 1)) == \
        sorted(n for n, count in rungs for _ in range(count))


def test_corpus_is_the_acceptance_corpus_of_the_test_suite():
    spec = importlib.util.spec_from_file_location("catzeta_tests_conftest",
                                                  ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    ours = [(i.label, i.matrix) for i in workloads.corpus_items()]
    theirs = [(name, catzeta.adjacency(conftest.load_fixture_category(name)))
              for name in conftest.FIXTURE_NAMES]
    theirs += [(f"poset{i}", catzeta.adjacency(catzeta.poset_category(rel)))
               for i, rel in enumerate(conftest.poset_relations())]
    theirs += [(f"monoid{i}", catzeta.adjacency(catzeta.monoid_delooping(t)))
               for i, t in enumerate(conftest.monoids_up_to_3() + conftest.monoids_of_4())]
    theirs += [(name, conftest.load_fixture_matrix(name)) for name in conftest.MATRIX_NAMES]
    assert len(ours) == 230
    assert ours == theirs


def test_ladders_take_the_path_they_promise():
    for name, path in (("exact-ladder", "exact"), ("numeric-ladder", "numeric")):
        for item in workloads.build(name, 11):
            assert item.expected_path == path
            if item.n <= 12:
                report = run.verify_call(item)
                assert report.passed and report.path == path, item.label


def test_exact_ladder_has_one_eigenvalue_of_multiplicity_n_minus_4():
    for item in workloads.build("exact-ladder", 5):
        d = catzeta.char_poly_bundle(item.matrix).d
        top = max(mult for _, mult in catzeta.squarefree_decompose(d))
        assert top >= item.n - 4, item.label


# -- the oracle and the output check --------------------------------------------------

def test_charpoly_mod_matches_the_library():
    for item in workloads.build("numeric-ladder", 4)[:6]:
        rows = [list(r) for r in item.matrix.rows]
        d = catzeta.char_poly_bundle(item.matrix).d
        for p in oracle.SPLIT_PRIMES:
            reversed_charpoly = oracle.charpoly_mod(rows, p)[::-1]
            want = [oracle.to_mod(c, p) for c in d.coeffs]
            assert reversed_charpoly[:len(want)] == want
            assert not any(reversed_charpoly[len(want):])


def test_integer_spectrum_has_no_irrationality_certificate():
    assert not oracle.has_irrational_eigenvalue([[1, 2, 3], [0, 2, 5], [0, 0, 3]])
    assert oracle.has_irrational_eigenvalue([[1, 2], [1, 1]])


@pytest.fixture(scope="module")
def golden():
    with open(run.HERE / "golden.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def pell_content():
    item = next(i for i in workloads.corpus_items() if i.label == "pell")
    report = run.verify_call(item)
    return item, report, run.item_content(item.matrix, report)


def test_golden_fingerprint_and_oracle_accept_the_real_results(pell_content, golden):
    item, _, content = pell_content
    rows = [list(r) for r in item.matrix.rows]
    assert oracle.check_content(rows, content, 99) == []
    assert oracle.fingerprint(content) == golden["corpus"]["pell"]


@pytest.mark.parametrize("key,index", [("d", 1), ("k", 0), ("m", 1), ("zeta", 17)])
def test_a_corrupted_coefficient_is_caught(pell_content, golden, key, index):
    item, _, content = pell_content
    bad = copy.deepcopy(content)
    bad[key][index] = str(Fraction(bad[key][index]) + 1)
    rows = [list(r) for r in item.matrix.rows]
    assert oracle.check_content(rows, bad, 99) != []
    assert oracle.fingerprint(bad) != golden["corpus"]["pell"]


def test_wrong_chi_path_or_flag_is_caught(pell_content):
    item, _, content = pell_content
    rows = [list(r) for r in item.matrix.rows]
    for key, value in (("chi", "5"), ("path", "exact"), ("flags", [False, True, True, True])):
        bad = dict(content, **{key: value})
        assert oracle.check_content(rows, bad, 99, expected_path="numeric") != []


def test_output_check_counts_a_changed_report_as_a_failure(pell_content):
    item, report, _ = pell_content
    outputs = run.Outputs({})
    assert outputs.report(item, report)
    assert outputs.report(item, run.verify_call(item))
    changed = copy.copy(report)
    object.__setattr__(changed, "c2_sum", report.c2_sum + 1)
    assert not outputs.report(item, changed)


def test_cli_check_wants_exit_zero_passed_and_identical_bytes(golden):
    item = next(i for i in workloads.cli_items() if i.label == "p2@30")
    outputs = run.Outputs(golden["cli"])
    code, stdout = run.cli_inprocess_call(item)
    assert outputs.cli(item, (code, stdout))
    assert not outputs.cli(item, (1, stdout))
    assert not outputs.cli(item, (0, stdout + b" "))
    assert not outputs.cli(item, (0, stdout.replace(b'"passed": true', b'"passed": false')))

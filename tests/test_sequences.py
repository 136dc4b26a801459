import dataclasses

from orbigraph import sequences
from orbigraph.constructions import complete, cycle, path
from orbigraph.orbital import DivisorMatrix
from orbigraph.sequences import SequenceSpec, generate, preservation_report, verify_self_similar


def _cycles(count):
    return generate(SequenceSpec.from_dict({"family": "cycles"}), count)


def _check(report, name):
    return next(c for c in report.preservation if c.name == name)


def test_cycles_preserve_every_invariant():
    report = preservation_report(_cycles(4))
    assert report.ok and report.verdict.seed_status == "not-checked"


def test_rho_paths_flags_a_wrong_divisor_matrix(monkeypatch):
    analyze = sequences.analyze_term

    def wrong_divisor_for_term_one(graph):
        record = analyze(graph)
        if graph.n == 4:
            record = dataclasses.replace(record, divisor=DivisorMatrix(1, ((3,),), (4,)))
        return record

    monkeypatch.setattr(sequences, "analyze_term", wrong_divisor_for_term_one)
    check = _check(preservation_report(_cycles(3)), "rho_paths_agree")
    assert not check.passed
    assert check.detail.startswith("term 1: divisor matrix gives 3.0")


def test_every_term_is_compared_with_the_first():
    terms = [cycle(3), cycle(4), path(5)]
    verdict = verify_self_similar(terms)
    assert not verdict.self_similar
    assert verdict.failing_pair == (0, 2)


def test_seed_is_checked_by_isomorphism():
    terms = _cycles(3)
    relabelled = terms[0].relabel([2, 0, 1])
    assert verify_self_similar(terms, seed=relabelled).seed_status == "verified"
    big = generate(SequenceSpec.from_dict({"family": "cycles", "start": 12}), 2)
    assert verify_self_similar(big, seed=big[0].relabel([(5 * v) % 12 for v in range(12)])).seed_status == "verified"
    failed = verify_self_similar(big, seed=path(12))
    assert not failed.self_similar and failed.seed_status == "failed"


def test_density_is_null_below_two_vertices():
    report = preservation_report([complete(1), complete(2), complete(3)])
    assert report.as_dict()["terms"][0]["density"] is None
    check = _check(report, "density_decreasing")
    assert not check.passed
    assert check.detail == "term 0 has no density (fewer than two vertices)"

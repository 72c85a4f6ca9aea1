"""Tests of the benchmark's own reference and checks.

    python3 -m pytest bench/test_reference.py -q

The reference recurrence must agree with the brute-force oracle on every
slope up to a small denominator, and the checks must reject wrong answers.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import sys
from math import gcd
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import corpus  # noqa: E402
import reference as R  # noqa: E402
import worker  # noqa: E402
from fareybridge import DomainError, ExtendedRational, cli, ladder, oracle  # noqa: E402

Q_MAX = 32


def _slopes(qmax):
    return [(p, q) for q in range(2, qmax + 1) for p in range(1, q) if gcd(p, q) == 1]


def test_recurrence_matches_oracle_for_every_slope_up_to_q_max():
    for t in _slopes(Q_MAX):
        x, y = ExtendedRational(1, 0), ExtendedRational(*t)
        bound = R.oracle_bound(R.INF, t)
        d, n = R.distance_count(R.INF, t)
        assert oracle.bounded_distance(x, y, bound) == d, t
        gs = oracle.bruteforce_geodesics(x, y, bound)
        assert (gs.length, len(gs.paths)) == (d, n), t
        assert R.check_paths(worker._pairs(gs.paths), R.INF, t, d, n) is None, t


def test_moved_pairs_match_oracle():
    rng = random.Random(7)
    for t in _slopes(12):
        m = R.random_unimodular(rng, 1)
        x, y = R.apply(m, R.INF), R.apply(m, t)
        bound = R.oracle_bound(x, y)
        got = oracle.bounded_distance(ExtendedRational(*x), ExtendedRational(*y), bound)
        assert got == R.distance_count(x, y)[0], (x, y)


def test_ladder_vertices_and_box_size():
    x = (-2, 3)
    for t in _slopes(15):
        if abs(R.det(x, t)) > 1:
            lad = ladder(ExtendedRational(*x), ExtendedRational(*t))
            assert {(v.p, v.q) for v in lad.vertices()} == R.ladder_vertices(x, t)
    for n in (1, 2, 5, 9):
        assert R.box_vertices(n) == len(oracle.BoundedSubgraph(n).distances_from((1, 0)))


def test_check_paths_rejects_bad_sets():
    paths = [((1, 0), (0, 1), (1, 2)), ((1, 0), (1, 1), (1, 2))]
    assert R.check_paths(paths, R.INF, (1, 2), 2, 2) is None
    assert "paths" in R.check_paths(paths[:1], R.INF, (1, 2), 2, 2)
    assert "sorted" in R.check_paths(paths[::-1], R.INF, (1, 2), 2, 2)
    assert "edge" in R.check_paths([((1, 0), (1, 3), (1, 2))], R.INF, (1, 2), 2, 1)
    assert "endpoints" in R.check_paths([((1, 0), (0, 1), (1, 3))], R.INF, (1, 2), 2, 1)


def _passes(workload, seed, n):
    return list(itertools.islice(corpus.passes(workload, seed), n))


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_seeded(workload):
    assert _passes(workload, 3, 2) == _passes(workload, 3, 2)
    assert _passes(workload, 3, 2) != _passes(workload, 4, 2)
    assert corpus.probes(workload, 3) == corpus.probes(workload, 3)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_passes_repeat_only_the_stated_operations(workload):
    """Slot sizes stay fixed; the only repeats are cli-json's bad argv and
    oracle-check's marked repeats within a pass."""
    seen = set()
    for ops in _passes(workload, 1, 10):
        assert len(ops) == len(_passes(workload, 2, 1)[0])
        for it in ops:
            if it.get("repeat") or it.get("want", {}).get("cmd") == "error":
                continue
            key = json.dumps(it, sort_keys=True)
            assert key not in seen, it
            seen.add(key)


def test_oracle_boxes_come_back_only_after_every_other_box():
    bounds = [corpus._oracle_bound(i, n) for n in range(corpus._ORACLE_BAND)
              for i in range(corpus._ORACLE_SLOTS)]
    assert sorted(bounds) == list(range(30, 150))


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_warmup_and_cli_process_ops_pass_their_checks(workload):
    worker._load(workload)
    for it in corpus.warmup(workload):
        assert worker.attempt(it, worker._no_span)[1] == "ok"
    it = corpus.cli_process_op(workload)
    worker._load("cli-json")
    assert worker.attempt(it, worker._no_span)[1] == "ok"


def test_checks_reject_wrong_answers():
    worker._load("cli-json")
    it = corpus.cli_process_op("distance-long")  # distance 1/0 79/182 = 6
    worker.check_cli_output(it, 0, "6\n", "")
    with pytest.raises(worker.Wrong):
        worker.check_cli_output(it, 0, "7\n", "")
    with pytest.raises(worker.Wrong):
        worker.check_cli_output(it, 1, "", "error: nope\n")
    with pytest.raises(worker.Wrong):
        worker.check_cli_output(it, 0, "6\n", "Traceback (most recent call last):\n")
    with pytest.raises(worker.Wrong):
        worker.check_distance({"x": "1/0", "y": "79/182", "d": 6}, 5)


def test_tampered_document_is_rejected_by_the_library():
    out = io.StringIO()
    assert cli.run(["--json", "geodesics", "1/0", "79/182"], out=out, err=io.StringIO()) == 0
    with pytest.raises(DomainError, match="not an edge"):
        cli.geodesic_set_from_jsonable(worker._tamper(json.loads(out.getvalue())))

"""Tests of the benchmark's own arithmetic: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from bergman_lab import operators, subspaces, verify  # noqa: E402
from bergman_lab.space import TruncatedSpace  # noqa: E402
from bergman_lab.weights import ScalarMode, WeightParams, weight_sequence  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def perf_counter(self):
        return next(self.ticks)


def test_self_time_is_duration_minus_children(monkeypatch):
    # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
    monkeypatch.setattr(spans, "time", FakeClock([0, 1, 3, 4, 5, 6, 8, 10]))
    rec = spans.Recorder()
    rec.open("outer")
    rec.open("a")
    rec.close()
    rec.open("b")
    rec.open("c")
    rec.close()
    rec.close()
    rec.close()
    assert dict(rec.self_s) == {"outer": 4, "a": 2, "b": 3, "c": 1}
    assert dict(rec.calls) == {"outer": 1, "a": 1, "b": 1, "c": 1}
    assert [rec.names[i] for i in rec.name_id] == ["outer", "a", "b", "c"]
    assert list(rec.parent) == [-1, 0, 0, 2]
    assert list(rec.start) == [0, 1, 4, 5]
    assert list(rec.end) == [10, 3, 8, 6]


def test_tower_builds_and_hits_survive_cache_clears():
    counter = spans.TowerCounter(verify._tower_cached)
    counter.clear()
    a = verify.CheckSpec("left_inverse", 1, 0.0, 4, (0,), depth=1)
    b = verify.CheckSpec("left_inverse", 2, 0.0, 4, (1,), depth=1)
    verify._tower(a)
    verify._tower(a)
    verify._tower(b)
    assert counter.totals() == (1, 2)
    counter.clear()  # zeroes cache_info(), not the counter
    verify._tower(a)
    verify._tower(a)
    assert counter.totals() == (2, 3)


def _exact_shift(dim: int, N: int):
    ws = weight_sequence(WeightParams(Fraction(0), N, dim + 2 * N), ScalarMode.EXACT_RATIONAL)
    spaces = [TruncatedSpace(ws, dim + j * N) for j in range(3)]
    return (operators.shift(spaces[0], spaces[1], N),
            operators.shift(spaces[1], spaces[2], N))


def test_useful_ratio_of_exact_shift_compose():
    s1, s2 = _exact_shift(4, 1)
    # (6 x 5) @ (5 x 4): 120 multiply-adds, one nonzero product per column of s1
    assert spans.compose_products(s2.matrix, s1.matrix) == (120, 4)
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        s2.compose(s1)
    finally:
        uninstall()
    assert rec.counts["compose.madds"] == 120
    assert rec.counts["compose.useful"] == 4
    assert rec.calls["operators.LinearMap.compose"] == 1


def test_install_wraps_every_binding_and_uninstall_restores():
    orig, orig_compose = subspaces.wandering, operators.LinearMap.compose
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        assert verify.wandering is subspaces.wandering is not orig
        assert operators.LinearMap.compose is not orig_compose
    finally:
        uninstall()
    assert verify.wandering is subspaces.wandering is orig
    assert operators.LinearMap.compose is orig_compose


def test_benchmark_json_names_the_metrics_the_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        spans.per_layer_metrics()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_sets_spec_seeds_but_not_the_work(name):
    a, b = workloads.make(name, 1), workloads.make(name, 2)
    assert a == workloads.make(name, 1)
    assert [len(g) for g in a] == [len(g) for g in b]
    strip = [[(s.name, s.N, s.alpha, s.D, len(s.residues or ())) for s in g] for g in a]
    assert strip == [[(s.name, s.N, s.alpha, s.D, len(s.residues or ())) for s in g] for g in b]
    assert {s.seed for g in a for s in g}.isdisjoint({s.seed for g in b for s in g})

"""Oracle tests for the per-site trace index.

``Trace.site_snapshots`` and ``Trace.site_counts`` read one index that
groups ``points`` by site, built on first use. The reference is the
linear scan both used to do over every point.
"""

import pickle
from collections import Counter

import pytest

from repro.bytecode_wm import WatermarkKey
from repro.pipeline import prepare
from repro.vm.interpreter import run_module
from repro.vm.tracing import SiteKey, Trace, TracePoint
from repro.workloads import gcd_module
from repro.workloads.caffeinemark import DEFAULT_INPUT, caffeinemark_module


@pytest.fixture(scope="module")
def trace():
    run = run_module(caffeinemark_module(), DEFAULT_INPUT, trace_mode="full")
    return run.trace


def linear_snapshots(trace, key):
    return [p for p in trace.points if p.key == key]


def linear_counts(trace):
    counts = {}
    for p in trace.points:
        counts[p.key] = counts.get(p.key, 0) + 1
    return counts


def test_snapshots_match_linear_scan_for_every_site(trace):
    keys = {p.key for p in trace.points}
    assert len(keys) > 10
    for key in keys:
        assert trace.site_snapshots(key) == linear_snapshots(trace, key)
    assert trace.site_snapshots(SiteKey("main", "no-such-site")) == []


def test_counts_match_linear_scan_in_first_seen_order(trace):
    assert list(trace.site_counts().items()) == list(
        linear_counts(trace).items())
    assert trace.site_counts() == Counter(p.key for p in trace.points)


def test_snapshots_are_copies(trace):
    key = trace.points[0].key
    trace.site_snapshots(key).clear()
    assert trace.site_snapshots(key) == linear_snapshots(trace, key)


def test_index_follows_appends_after_first_use():
    a, b = SiteKey("f", "<entry>"), SiteKey("f", "L1")
    trace = Trace(points=[TracePoint(a, (1,), ()), TracePoint(b, (2,), ())])
    assert trace.site_counts() == {a: 1, b: 1}
    trace.points.append(TracePoint(a, (3,), ()))
    trace.points.append(TracePoint(SiteKey("g", "<entry>"), (), ()))
    assert trace.site_snapshots(a) == linear_snapshots(trace, a)
    assert [p.locals_snapshot for p in trace.site_snapshots(a)] == [(1,), (3,)]
    assert trace.site_counts() == linear_counts(trace)


def test_index_follows_a_replaced_points_list():
    a, b = SiteKey("f", "<entry>"), SiteKey("f", "L1")
    trace = Trace(points=[TracePoint(a, (1,), ())])
    assert trace.site_counts() == {a: 1}
    trace.points = [TracePoint(b, (2,), ())]
    assert trace.site_counts() == {b: 1}
    assert trace.site_snapshots(a) == []


def test_index_stays_out_of_equality():
    a, b = SiteKey("f", "<entry>"), SiteKey("f", "L1")
    trace = Trace(points=[TracePoint(a, (1,), ()), TracePoint(b, (2,), ())])
    unindexed = Trace(points=list(trace.points))
    trace.site_counts()
    assert "_index" in trace.__dict__
    assert trace == unindexed
    assert repr(trace) == repr(unindexed)


def test_index_stays_out_of_prepared_program_pickles():
    key = WatermarkKey(secret=b"site-index", inputs=[252, 105])
    prepared = prepare(gcd_module(), key, 16)
    assert "_index" in prepared.trace.__dict__
    indexed = pickle.dumps(prepared)
    del prepared.trace.__dict__["_index"]
    assert pickle.dumps(prepared) == indexed
    restored = pickle.loads(indexed)
    assert restored.sites == prepared.sites
    assert restored.trace.site_counts() == linear_counts(prepared.trace)

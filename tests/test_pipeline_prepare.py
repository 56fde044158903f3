"""Tests for the shared preparation cache (repro.pipeline.prepare)."""

import pickle

import pytest

from repro.bytecode_wm import WatermarkKey, embed, recognize
from repro.core.planner import plan_redundancy
from repro.core.primes import choose_moduli
from repro.pipeline import (
    PrepareCache,
    PrepareError,
    PreparedProgram,
    prepare,
    prepare_fingerprint,
    resolve_piece_count,
)
from repro.vm import assemble, disassemble, run_module
from repro.vm.compiler import NUM_OPCODES
from repro.workloads import collatz_module, gcd_module

KEY = WatermarkKey(secret=b"pldi-2004", inputs=[25, 10])

NONTERMINATING_SRC = """
.globals 0
.entry main
.func main params=0 locals=1
top:
    iinc 0 1
    goto top
.end
"""


class TestPrepare:
    def test_snapshot_contents(self):
        module = gcd_module()
        p = prepare(module, KEY, 16)
        assert p.watermark_bits == 16
        assert p.moduli == choose_moduli(16)
        assert p.pieces > 0
        assert p.trace.points and p.sites
        assert set(p.cfgs) == set(module.functions)
        assert p.baseline_output == run_module(module, KEY.inputs).output
        # Every prepared stage is individually timed.
        assert set(p.timings.stages) == {
            "verify", "trace", "cfg", "placement", "plan"
        }

    def test_original_module_isolated(self):
        module = gcd_module()
        p = prepare(module, KEY, 16)
        module.functions["main"].code.clear()
        # The snapshot still embeds fine after the caller mutates theirs.
        result = embed(p.module, 7, KEY, pieces=p.pieces,
                       watermark_bits=16, trace=p.trace, sites=p.sites)
        assert result.piece_count == p.pieces

    def test_rejects_bad_width(self):
        with pytest.raises(PrepareError):
            prepare(gcd_module(), KEY, 0)

    def test_rejects_untraceable_key(self):
        # collatz needs one input; an empty input sequence traps the VM.
        from repro.vm import VMError
        with pytest.raises(VMError):
            prepare(collatz_module(), WatermarkKey(b"k", []), 16)

    def test_piece_count_resolution(self):
        moduli, explicit = resolve_piece_count(16, pieces=9)
        assert explicit == 9
        _, planned = resolve_piece_count(16, piece_loss=0.3)
        assert planned == plan_redundancy(16, 0.3, 0.99).pieces
        _, default = resolve_piece_count(16)
        assert default == 2 * len(moduli)

    def test_planner_is_memoized(self):
        assert plan_redundancy(64, 0.25) is plan_redundancy(64, 0.25)


class TestPickleRoundTrip:
    def test_roundtrip_preserves_embedding(self, tmp_path):
        module = gcd_module()
        p = prepare(module, KEY, 16)
        p2 = pickle.loads(pickle.dumps(p))
        a = embed(module, 0xCAFE, KEY, pieces=p.pieces, watermark_bits=16,
                  trace=p.trace, sites=p.sites)
        b = embed(p2.module, 0xCAFE, KEY, pieces=p2.pieces,
                  watermark_bits=16, trace=p2.trace, sites=p2.sites)
        assert disassemble(a.module) == disassemble(b.module)

    def test_branch_events_rebind_to_pickled_module(self):
        p = pickle.loads(pickle.dumps(prepare(gcd_module(), KEY, 16)))
        instrs = {
            id(i) for fn in p.module.functions.values() for i in fn.code
        }
        assert p.trace.branches
        for event in p.trace.branches:
            assert id(event.branch) in instrs
            assert id(event.follower) in instrs

    def test_dispatch_counts_from_another_numbering_are_dropped(self):
        p = prepare(gcd_module(), KEY, 16, profile=True)
        assert len(p.dispatch_counts) == NUM_OPCODES
        assert pickle.loads(pickle.dumps(p)).dispatch_counts == p.dispatch_counts
        p.dispatch_counts = [1] * 103  # an older engine's opcode layout
        loaded = pickle.loads(pickle.dumps(p))
        assert loaded.dispatch_counts is None
        assert loaded.trace.branches

    def test_save_load(self, tmp_path):
        path = str(tmp_path / "prep.pkl")
        p = prepare(gcd_module(), KEY, 16)
        p.save(path)
        loaded = PreparedProgram.load(path)
        assert loaded.matches(gcd_module(), KEY, 16)
        assert loaded.fingerprint() == p.fingerprint()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.pkl"
        path.write_bytes(b"not a pickle")
        with pytest.raises(PrepareError):
            PreparedProgram.load(str(path))
        path.write_bytes(pickle.dumps({"also": "wrong"}))
        with pytest.raises(PrepareError):
            PreparedProgram.load(str(path))

    def test_matches_detects_drift(self):
        p = prepare(gcd_module(), KEY, 16)
        assert p.matches(gcd_module(), KEY, 16)
        assert not p.matches(collatz_module(), KEY, 16)
        assert not p.matches(gcd_module(), KEY, 32)
        other = WatermarkKey(secret=b"other", inputs=[25, 10])
        assert not p.matches(gcd_module(), other, 16)
        assert not p.matches(gcd_module(), KEY, 16, pieces=p.pieces + 1)


class TestCachedEmbedEquivalence:
    """The cache must be invisible in the output modules."""

    def test_cached_equals_single_shot(self):
        module = gcd_module()
        p = prepare(module, KEY, 16)
        for watermark in (0, 0xCAFE, 0xFFFF):
            single = embed(module, watermark, KEY, pieces=p.pieces,
                           watermark_bits=16)
            cached = embed(module, watermark, KEY, pieces=p.pieces,
                           watermark_bits=16, trace=p.trace, sites=p.sites)
            assert disassemble(single.module) == disassemble(cached.module)

    def test_cached_embed_recognizes(self):
        module = collatz_module()
        key = WatermarkKey(secret=b"vendor", inputs=[27])
        p = prepare(module, key, 16)
        result = embed(module, 4242, key, pieces=p.pieces,
                       watermark_bits=16, trace=p.trace, sites=p.sites)
        found = recognize(result.module, key, watermark_bits=16)
        assert found.complete and found.value == 4242

    def test_recognize_accepts_cached_trace(self):
        module = gcd_module()
        marked = embed(module, 0xBEEF, KEY, watermark_bits=16).module
        run = run_module(marked, KEY.inputs, trace_mode="branch")
        via_cache = recognize(marked, KEY, watermark_bits=16,
                              trace=run.trace)
        fresh = recognize(marked, KEY, watermark_bits=16)
        assert via_cache.value == fresh.value == 0xBEEF

    def test_rng_salt_diversifies_but_stays_deterministic(self):
        module = gcd_module()
        p = prepare(module, KEY, 16)
        kw = dict(pieces=p.pieces, watermark_bits=16,
                  trace=p.trace, sites=p.sites)
        plain = embed(module, 7, KEY, **kw)
        salted = embed(module, 7, KEY, rng_salt="1", **kw)
        salted_again = embed(module, 7, KEY, rng_salt="1", **kw)
        assert disassemble(salted.module) == disassemble(salted_again.module)
        assert disassemble(salted.module) != disassemble(plain.module)
        # Salting never hurts recognition.
        assert recognize(salted.module, KEY, watermark_bits=16).value == 7


class TestPrepareCache:
    def test_hit_miss_accounting(self):
        cache = PrepareCache()
        a, hit = cache.get_or_prepare(gcd_module(), KEY, 16)
        assert not hit
        b, hit = cache.get_or_prepare(gcd_module(), KEY, 16)
        assert hit and b is a
        _, hit = cache.get_or_prepare(collatz_module(),
                                      WatermarkKey(b"v", [27]), 16)
        assert not hit
        assert cache.hits == 1 and cache.misses == 2

    def test_distinct_widths_distinct_entries(self):
        cache = PrepareCache()
        a, _ = cache.get_or_prepare(gcd_module(), KEY, 16)
        b, _ = cache.get_or_prepare(gcd_module(), KEY, 64)
        assert a is not b and a.watermark_bits != b.watermark_bits
        assert cache.misses == 2

    def test_eviction_bounds_memory(self):
        cache = PrepareCache(max_entries=1)
        cache.get_or_prepare(gcd_module(), KEY, 16)
        cache.get_or_prepare(gcd_module(), KEY, 32)
        assert len(cache) == 1
        _, hit = cache.get_or_prepare(gcd_module(), KEY, 16)
        assert not hit  # evicted

    def test_fingerprint_sensitive_to_all_inputs(self):
        base = prepare_fingerprint(gcd_module(), KEY, 16, None)
        assert base != prepare_fingerprint(gcd_module(), KEY, 32, None)
        assert base != prepare_fingerprint(gcd_module(), KEY, 16, 8)
        assert base != prepare_fingerprint(collatz_module(), KEY, 16, None)
        other = WatermarkKey(secret=b"pldi-2004", inputs=[25, 11])
        assert base != prepare_fingerprint(gcd_module(), other, 16, None)


class TestStepLimitDuringTrace:
    def test_prepare_raises_clear_error(self):
        module = assemble(NONTERMINATING_SRC)
        with pytest.raises(PrepareError) as exc:
            prepare(module, KEY, 16, max_steps=5_000)
        message = str(exc.value)
        assert "did not terminate" in message
        assert "step limit of 5000" in message

    def test_partial_trace_is_not_cached(self):
        # The key-input run exhausts max_steps mid-trace; the cache
        # must stay empty so a later call does not serve a truncated
        # trace as if preparation had succeeded.
        cache = PrepareCache()
        module = assemble(NONTERMINATING_SRC)
        with pytest.raises(PrepareError):
            cache.get_or_prepare(module, KEY, 16, max_steps=5_000)
        assert len(cache) == 0
        assert cache.misses == 1 and cache.hits == 0
        with pytest.raises(PrepareError):
            cache.get_or_prepare(module, KEY, 16, max_steps=5_000)
        assert len(cache) == 0
        assert cache.misses == 2  # retried, not served from cache

    def test_generous_limit_still_succeeds(self):
        prepared = prepare(gcd_module(), KEY, 16, max_steps=1_000_000)
        assert prepared.trace.points

"""Oracle tests for distinct-window decoding.

Every codec decrypts each distinct 64-bit trace window once
(:func:`repro.core.bitstring.decrypt_distinct`) and weights what the
window decodes to by how often it occurs. This suite keeps the
per-window loops the codecs used before that as local references —
decrypt every window, count every hit once — and checks that:

* the scan stages (``extract_candidates``, ``symbol_votes``) return the
  same multisets in the same insertion order;
* each codec's ``decode`` returns a field-for-field equal
  :class:`~repro.core.recovery.RecoveryResult` (its distinct-window
  count checked against the bit-string's), on random bit-strings
  with hot-loop repetition and on embedded-then-attacked ones;
* ``decrypt_block`` runs exactly once per distinct window — once in
  total for ``hybrid``, whose two channels share one table.
"""

import random
from collections import Counter
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.codec.hybrid as hybrid_module
import repro.codec.rs as rs_module
from repro.bytecode_wm import WatermarkKey
from repro.codec import resolve_codec
from repro.codec.base import open_symbol
from repro.core import recovery
from repro.core.bitstring import (
    decrypt_distinct,
    int_to_bits_lsb_first,
    sliding_windows,
)
from repro.core.cipher import BlockCipher
from repro.core.enumeration import StatementEnumeration
from repro.core.primes import choose_moduli

CIPHER = WatermarkKey(secret=b"window-oracle", inputs=[]).cipher()
SPECS = ["gcrt", "rs-8", "hybrid-4"]


class CountingCipher(BlockCipher):
    """The test cipher, counting ``decrypt_block`` calls."""

    def __init__(self):
        super().__init__(CIPHER.key_words)
        self.decrypts = 0

    def decrypt_block(self, block):
        self.decrypts += 1
        return super().decrypt_block(block)


# -- the per-window reference loops ------------------------------------------


def ref_extract_candidates(bits, cipher, enumeration):
    candidates = Counter()
    inspected = 0
    for _, packed in sliding_windows(list(bits), 64):
        inspected += 1
        stmt = enumeration.decode(cipher.decrypt_block(packed))
        if stmt is not None:
            candidates[stmt] += 1
    return candidates, inspected


def ref_symbol_votes(bits, cipher, tag, positions):
    votes = {}
    inspected = 0
    hits = 0
    for _, packed in sliding_windows(list(bits), 64):
        inspected += 1
        opened = open_symbol(cipher, tag, packed, positions)
        if opened is not None:
            pos, sym = opened
            votes.setdefault(pos, Counter())[sym] += 1
            hits += 1
    return votes, inspected, hits


def reference_decode(codec, bits, width, cipher):
    """``codec.decode`` with every scan replaced by the per-window loop.

    The codecs hand a window table from the table builder to the scan
    stage. Here the builders pass the raw bit-string through instead,
    and the scan stages are the reference loops that read it.
    """
    with ExitStack() as stack:
        patch = stack.enter_context
        patch(mock.patch.object(
            recovery, "extract_candidates",
            lambda b, c, e, plaintexts=None: ref_extract_candidates(b, c, e)))
        patch(mock.patch.object(
            rs_module, "decrypt_distinct", lambda windows, c: bits))
        patch(mock.patch.object(
            hybrid_module, "window_plaintexts", lambda b, c: b))
        patch(mock.patch.object(rs_module, "symbol_votes", ref_symbol_votes))
        patch(mock.patch.object(
            hybrid_module, "symbol_votes", ref_symbol_votes))
        result = codec.decode(bits, width, cipher)
    # The loops decrypt every window, so the distinct count is taken
    # straight from the bit-string.
    result.windows_distinct = len(
        {packed for _, packed in sliding_windows(list(bits), 64)})
    return result


def ordered(result):
    """Every field, with the vote tallies' insertion order made visible."""
    fields = dict(vars(result))
    fields["votes"] = [
        (key, list(tally.items())) for key, tally in result.votes.items()
    ]
    fields["clear_winners"] = list(result.clear_winners.items())
    return fields


# -- bit-string strategies ---------------------------------------------------


def hot_loop_bits(rng, length):
    """Random bits with repeated segments, as hot loops produce."""
    bits = []
    while len(bits) < length:
        if rng.random() < 0.5:
            bits.extend(rng.randint(0, 1) for _ in range(rng.randint(1, 80)))
        else:
            segment = [rng.randint(0, 1) for _ in range(rng.randint(8, 120))]
            bits.extend(segment * rng.randint(2, 6))
    return bits[:length]


def attack(bits, rng, intensity):
    """Flip, delete, insert and duplicate spans of the bit-string."""
    bits = list(bits)
    for _ in range(intensity):
        op = rng.randrange(4)
        at = rng.randrange(len(bits) + 1)
        span = rng.randint(1, 96)
        if op == 0 and bits:
            bits[min(at, len(bits) - 1)] ^= 1
        elif op == 1:
            del bits[at:at + span]
        elif op == 2:
            bits[at:at] = [rng.randint(0, 1) for _ in range(span)]
        else:
            bits[at:at] = bits[at:at + span] * rng.randint(1, 3)
    return bits


def embedded_bits(spec, width, value, rng, intensity):
    """Pieces planted (some repeated, as in loops) in junk, then attacked.

    A random share of the pieces is lost outright, so partial
    recoveries and the hybrid's parity rescue are exercised too.
    """
    codec = resolve_codec(spec)
    pieces = codec.encode(
        value, width, codec.default_piece_count(width), CIPHER, rng
    )
    keep = rng.uniform(0.2, 1.0)
    bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 40))]
    for piece in pieces:
        if rng.random() > keep:
            continue
        block = int_to_bits_lsb_first(piece.block, 64)
        bits.extend(block * rng.choice((1, 1, 2, 3)))
        bits.extend(hot_loop_bits(rng, rng.randint(0, 60)))
    return attack(bits, rng, intensity)


_WIDTHS = st.sampled_from([16, 32, 64])


# -- scan stages -------------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1), width=_WIDTHS)
@settings(max_examples=20, deadline=None)
def test_extract_candidates_matches_per_window_loop(seed, width):
    rng = random.Random(seed)
    value = rng.getrandbits(width)
    bits = embedded_bits("gcrt", width, value, rng, rng.randint(0, 12))
    enum = StatementEnumeration(choose_moduli(width))
    got = recovery.extract_candidates(bits, CIPHER, enum)
    want = ref_extract_candidates(bits, CIPHER, enum)
    assert list(got[0].items()) == list(want[0].items())
    assert got[1] == want[1]


@given(seed=st.integers(0, 2**32 - 1), width=_WIDTHS,
       spec=st.sampled_from(["rs-8", "hybrid-4"]))
@settings(max_examples=15, deadline=None)
def test_symbol_votes_matches_per_window_loop(seed, width, spec):
    rng = random.Random(seed)
    value = rng.getrandbits(width)
    bits = embedded_bits(spec, width, value, rng, rng.randint(0, 12))
    tag = (rs_module.RS_SYMBOL_TAG if spec == "rs-8"
           else hybrid_module.HYBRID_PARITY_TAG)
    _, n = resolve_codec(spec).layout(width)
    table = decrypt_distinct(sliding_windows(bits, 64), CIPHER)
    votes, inspected, hits = rs_module.symbol_votes(table, CIPHER, tag, n)
    ref_votes, ref_inspected, ref_hits = ref_symbol_votes(
        bits, CIPHER, tag, n)
    assert [(p, list(t.items())) for p, t in votes.items()] == [
        (p, list(t.items())) for p, t in ref_votes.items()
    ]
    assert (inspected, hits) == (ref_inspected, ref_hits)


# -- whole decodes -----------------------------------------------------------


@pytest.mark.parametrize("spec", SPECS)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(0, 2500),
       width=_WIDTHS)
@settings(max_examples=15, deadline=None)
def test_decode_matches_reference_on_random_bits(spec, seed, length, width):
    bits = hot_loop_bits(random.Random(seed), length)
    codec = resolve_codec(spec)
    got = codec.decode(bits, width, CIPHER)
    want = reference_decode(codec, bits, width, CIPHER)
    assert ordered(got) == ordered(want)


@pytest.mark.parametrize("spec", SPECS)
@given(seed=st.integers(0, 2**32 - 1), width=_WIDTHS,
       intensity=st.integers(0, 16))
@settings(max_examples=12, deadline=None)
def test_decode_matches_reference_on_attacked_embeds(spec, seed, width,
                                                     intensity):
    rng = random.Random(seed)
    value = rng.getrandbits(width)
    bits = embedded_bits(spec, width, value, rng, intensity)
    codec = resolve_codec(spec)
    got = codec.decode(bits, width, CIPHER)
    want = reference_decode(codec, bits, width, CIPHER)
    assert ordered(got) == ordered(want)
    assert not got.complete or got.value == value


@pytest.mark.parametrize("spec", SPECS)
@given(seed=st.integers(0, 2**32 - 1), width=_WIDTHS)
@settings(max_examples=10, deadline=None)
def test_one_decrypt_per_distinct_window(spec, seed, width):
    rng = random.Random(seed)
    bits = embedded_bits(spec, width, rng.getrandbits(width), rng, 4)
    cipher = CountingCipher()
    resolve_codec(spec).decode(bits, width, cipher)
    distinct = {packed for _, packed in sliding_windows(bits, 64)}
    assert cipher.decrypts == len(distinct)


def test_decrypt_distinct_orders_by_first_occurrence():
    windows = [(0, 5), (1, 9), (2, 5), (3, 7), (4, 9), (5, 5)]
    cipher = CountingCipher()
    table = decrypt_distinct(windows, cipher)
    assert table == [(CIPHER.decrypt_block(5), 3),
                     (CIPHER.decrypt_block(9), 2),
                     (CIPHER.decrypt_block(7), 1)]
    assert cipher.decrypts == 3

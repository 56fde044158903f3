"""Regression tests for recognition diagnostics on *failed* attempts.

Two regressions pinned here:

1. The zero-hit funnel: a recognition attempt that inspects windows
   but accepts nothing must still produce a diagnostic report (the
   ``--diagnose`` flags print it even when recovery fails).
2. The out-of-range false positive: junk windows decrypted under a
   wrong key can form a mutually consistent statement set covering
   every modulus; its CRT value lands in the product-of-moduli space,
   far above ``2**watermark_bits``. ``recognize_bits`` must demote
   such a "complete" recovery to a rejection instead of reporting a
   watermark that was never embedded.
"""

import random

import pytest

from repro.bytecode_wm.embedder import embed
from repro.bytecode_wm.keys import WatermarkKey
from repro.bytecode_wm.recognizer import (
    recognition_report,
    recognize_bits,
    recognize_with_report,
)
from repro.cli import main as cli_main
from repro.core.bitstring import int_to_bits_lsb_first
from repro.core.enumeration import Statement, StatementEnumeration
from repro.core.primes import choose_moduli
from repro.vm import disassemble
from repro.workloads import gcd_module

KEY = WatermarkKey(secret=b"vendor", inputs=[25, 10])
BITS = 16


def crafted_bitstring(value: int, key: WatermarkKey, bits: int):
    """Build a trace bit-string asserting ``W = value`` on every pair.

    Encodes one statement per modulus pair, encrypts each with the
    key's cipher, and concatenates the 64-bit blocks; the recognizer's
    aligned windows then decode exactly these statements.
    """
    moduli = choose_moduli(bits)
    enum = StatementEnumeration(moduli)
    cipher = key.cipher()
    out = []
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            stmt = Statement(i, j, value % (moduli[i] * moduli[j]))
            block = cipher.encrypt_block(enum.encode(stmt))
            out.extend(int_to_bits_lsb_first(block, 64))
    return out


class TestOutOfRangeRejection:
    def test_forged_overwide_value_is_demoted(self):
        moduli = choose_moduli(BITS)
        product = 1
        for m in moduli:
            product *= m
        forged = product - 1  # valid residue system, but >= 2**BITS
        assert forged >= (1 << BITS)

        result = recognize_bits(
            crafted_bitstring(forged, KEY, BITS), KEY, BITS
        )
        assert not result.complete
        assert result.value is None
        # The partial information survives for diagnostics.
        assert result.congruence is not None
        assert result.congruence.value == forged

    def test_rejection_is_explained_in_report(self):
        moduli = choose_moduli(BITS)
        product = 1
        for m in moduli:
            product *= m
        result = recognize_bits(
            crafted_bitstring(product - 1, KEY, BITS), KEY, BITS
        )
        report = recognition_report(result, BITS)
        assert not report.complete
        assert not report.moduli_missing
        assert any("exceeds" in note for note in report.notes)
        assert "NOT recovered" in report.summary()

    def test_in_range_value_still_recovered(self):
        result = recognize_bits(
            crafted_bitstring(0x1337, KEY, BITS), KEY, BITS
        )
        assert result.complete
        assert result.value == 0x1337
        report = recognition_report(result, BITS)
        assert not any("exceeds" in note for note in report.notes)


class TestZeroHitFunnel:
    def test_junk_bits_report_inspected_but_nothing_accepted(self):
        rng = random.Random(7)
        bits = [rng.randrange(2) for _ in range(600)]
        result, report = _bits_report(bits)
        assert result.windows_inspected > 0
        assert 0 < result.windows_distinct <= result.windows_inspected
        assert report.windows_distinct == result.windows_distinct
        assert not result.complete
        if result.candidates_found == 0:
            assert any("no window decrypted" in n for n in report.notes)
        text = report.summary()
        assert "NOT recovered" in text
        assert f"{result.windows_inspected} scanned" in text
        assert f"{result.windows_distinct} distinct decrypted" in text

    def test_wrong_key_on_marked_module_fails_with_diagnostics(self):
        marked = embed(
            gcd_module(), 0x1337, KEY, pieces=8, watermark_bits=BITS
        ).module
        wrong = WatermarkKey(secret=b"imposter", inputs=[25, 10])
        result, report = recognize_with_report(
            marked, wrong, watermark_bits=BITS
        )
        assert not result.complete
        assert result.windows_inspected > 0
        assert report.windows_inspected == result.windows_inspected
        assert "NOT recovered" in report.summary()


def _bits_report(bits):
    result = recognize_bits(bits, KEY, BITS)
    return result, recognition_report(result, BITS)


class TestDiagnoseCLI:
    """``--diagnose`` must print the funnel even when recognition fails."""

    @pytest.fixture()
    def marked_path(self, tmp_path):
        marked = embed(
            gcd_module(), 0x1337, KEY, pieces=8, watermark_bits=BITS
        ).module
        path = tmp_path / "marked.wasm"
        path.write_text(disassemble(marked))
        return path

    def test_recognize_diagnose_on_failure(self, marked_path, capsys):
        rc = cli_main([
            "recognize", str(marked_path), "--bits", str(BITS),
            "--secret", "imposter", "--inputs", "25,10", "--diagnose",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "bytecode recognition" in captured.err
        assert "distinct decrypted" in captured.err
        assert "no watermark recovered" in captured.err

    def test_recognize_diagnose_on_success(self, marked_path, capsys):
        rc = cli_main([
            "recognize", str(marked_path), "--bits", str(BITS),
            "--secret", "vendor", "--inputs", "25,10", "--diagnose",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "0x1337" in captured.out
        assert "bytecode recognition" in captured.err

    def test_nextract_diagnose_on_unmarked_image(self, tmp_path, capsys):
        src = tmp_path / "gcd.wee"
        src.write_text(
            "fn main() {\n"
            "    var a = input();\n"
            "    var b = input();\n"
            "    while (b > 0) {\n"
            "        var t = a % b;\n"
            "        a = b;\n"
            "        b = t;\n"
            "    }\n"
            "    print(a);\n"
            "}\n"
        )
        img = tmp_path / "gcd.n32"
        assert cli_main(["ncompile", str(src), "-o", str(img)]) == 0
        rc = cli_main([
            "nextract", str(img), "--inputs", "25,10", "--diagnose",
        ])
        captured = capsys.readouterr()
        assert rc != 0
        assert "native recognition" in captured.err
        assert "NOT recovered" in captured.err

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import centroid_ir
from centroid_ir import default_stopwords, load_stopwords, text, tokenize
from oracles import brute_tokenize


def test_empty_input():
    assert tokenize("", set()) == []


def test_lowercasing_and_stopwords():
    result = tokenize("The cell, the CELL.", {"the"})
    assert result == ["cell", "cell"]


def test_hyphen_splits():
    result = tokenize("p53-mediated apoptosis", set())
    assert result == ["p53", "mediated", "apoptosis"]


def test_single_digit_dropped_longer_numbers_kept():
    result = tokenize("stage 3 of 12 trials", set())
    assert result == ["stage", "of", "12", "trials"]


def test_underscore_is_a_delimiter():
    assert tokenize("gene_name", set()) == ["gene", "name"]


def test_tf_sums_to_token_count():
    rng = np.random.default_rng(7)
    words = ["alpha", "beta", "gamma", "p53", "x"]
    for _ in range(50):
        text = " ".join(rng.choice(words, size=rng.integers(0, 30)))
        result = tokenize(text, {"beta"})
        assert all(t and not t.isspace() for t in result)


def test_idempotence():
    samples = [
        "Which genes are implicated in Charcot-Marie-Tooth disease?",
        "TNF-alpha (tumour necrosis factor) signalling, 2015 review",
        "p53-mediated apoptosis: a 2-step model",
    ]
    stop = default_stopwords()
    for text in samples:
        first = tokenize(text, stop)
        assert tokenize(" ".join(first), stop) == first


def test_case_insensitive_ascii():
    text = "Protein Kinase C and the MAPK cascade!"
    assert tokenize(text.upper(), set()) == tokenize(text, set())


def test_stopword_soundness():
    stop = default_stopwords()
    result = tokenize("what is the role of brca1 in dna repair", stop)
    assert not set(result) & stop
    assert "brca1" in result


def test_public_names_resolve_once():
    names = centroid_ir.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(centroid_ir, name)] == []


def test_stopword_file(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# comment line\nthe\nOf\n\nand\n", encoding="utf-8")
    words = load_stopwords(path)
    assert words == {"the", "of", "and"}


def test_default_stopwords_lowercase():
    stop = default_stopwords()
    assert "the" in stop and "of" in stop
    assert all(w == w.lower() for w in stop)


class TestMatchesRegexOracle:
    """tokenize against the regular-expression tokenizer of tests/oracles.py."""

    def test_every_code_point(self, monkeypatch):
        # One table sees every code point and keeps only the BMP ones.
        monkeypatch.setattr(text, "_SEPARATORS", type(text._SEPARATORS)())
        for lo in range(0, 0x110000, 0x10000):
            block = " ".join(map(chr, range(lo, lo + 0x10000)))
            want = brute_tokenize(block)
            assert tokenize(block) == want
            assert tokenize(block) == want  # read back from the table
        assert len(text._SEPARATORS) <= 0x10000

    def test_random_unicode_strings(self):
        rng = np.random.default_rng(17)
        ranges = [(0x20, 0x7F), (0x00, 0x20), (0x80, 0x250), (0x370, 0x400),
                  (0x660, 0x670), (0x2000, 0x2070), (0x2460, 0x2480), (0x3000, 0x3010),
                  (0x4E00, 0x4E40), (0xD800, 0xE000), (0xFF10, 0xFF5B), (0x1D400, 0x1D420)]
        stop = {"the", "ab", "\u00df"}
        for _ in range(300):
            picks = rng.integers(len(ranges), size=rng.integers(0, 60))
            s = "".join(chr(int(rng.integers(*ranges[i]))) for i in picks)
            assert tokenize(s, stop) == brute_tokenize(s, stop)

    @pytest.mark.parametrize("s, want", [
        ("\u0130stanbul", ["i", "stanbul"]),    # İ lowercases to i + a combining dot
        ("\u039f\u0394\u039f\u03a3 \u03a3A", ["\u03bf\u03b4\u03bf\u03c2", "\u03c3a"]),  # final sigma
        ("Stra\u00dfe \u00df", ["stra\u00dfe", "\u00df"]),
        ("\u00b2 x\u00b2", ["x\u00b2"]),        # ² is isdigit but not \d
        ("\u2460 \u2460\u2461", ["\u2460\u2461"]),  # ① likewise
        ("\u0661 \u0661\u0662", ["\u0661\u0662"]),  # Arabic-Indic digits
        ("gene_name", ["gene", "name"]),
        ("a\x1cb\x85c\u2028d\u3000e", ["a", "b", "c", "d", "e"]),
        ("a\ud800b", ["a", "b"]),               # a lone surrogate separates
    ])
    def test_named_cases(self, s, want):
        assert tokenize(s) == want
        assert brute_tokenize(s) == want

    def test_plain_set_of_stopwords(self):
        stop = {"the", "of", "stra\u00dfe"}
        s = "The role of STRASSE and Stra\u00dfe in the 3 cities"
        assert tokenize(s, stop) == brute_tokenize(s, stop) == [
            "role", "strasse", "and", "in", "cities"]


def test_import_builds_no_separator_table():
    # The table fills lazily; built eagerly it would cost every CLI
    # command about 80 ms.
    src = str(Path(centroid_ir.__file__).resolve().parents[1])
    code = ("import centroid_ir, centroid_ir.cli\n"
            "from centroid_ir import text\n"
            "assert len(text._SEPARATORS) == 0, len(text._SEPARATORS)\n")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)

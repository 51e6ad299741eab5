import random
import re
import unicodedata

import numpy as np
import pytest

from oracles import build_vocabulary_per_sentence, normalize_per_char
from smclm import tokenization
from smclm.tokenization import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Vocabulary,
    build_vocabulary,
    load_vocabulary,
    normalize,
    save_vocabulary,
    words,
)


class TestNormalize:
    def test_reference_sentence(self):
        assert normalize("What's your New Year 2017 resolution?") == "whats your new year 2017 resolution"

    def test_punctuation_deleted_not_spaced(self):
        assert normalize("Hello, World!") == "hello world"
        assert normalize("a-b") == "ab"

    def test_whitespace_collapsed_and_stripped(self):
        assert normalize("  a\t\tb \n c  ") == "a b c"

    def test_unicode_punctuation_categories(self):
        # em dash (Pd), curly quotes (Pi/Pf), section-less brackets (Ps/Pe)
        assert normalize("“foo” — (bar)") == "foo bar"

    def test_idempotent_and_shape_on_random_text(self):
        rng = np.random.default_rng(42)
        pool = list("abcXYZ089 \t.,!?'—“¿") + ["é", "中"]
        for _ in range(200):
            s = "".join(rng.choice(pool) for _ in range(int(rng.integers(0, 30))))
            out = normalize(s)
            assert normalize(out) == out
            assert out == out.strip()
            assert "  " not in out
            assert out == out.lower()
            assert not any(unicodedata.category(ch).startswith("P") for ch in out)

    def test_equals_the_per_character_scan_on_every_code_point(self, monkeypatch):
        # a fresh table, so the module's own is not filled with 1.1M entries
        table = tokenization._PunctuationTable()
        monkeypatch.setattr(tokenization, "_PUNCTUATION", table)
        every = "".join(map(chr, range(0x110000)))
        assert normalize(every) == normalize_per_char(every)
        assert set(table) == set(map(ord, every.lower()))

    @pytest.mark.parametrize("text", [
        "İstanbul'da", "ΌΣΟΣ. ΣΑΣ!", "Straẞe, «ﬁne»", "ǅ-Ǆ ǈ", "A\u2028B\u3000C\x85D", "",
    ])
    def test_equals_the_per_character_scan_on_multi_character_lowercasings(self, text):
        assert normalize(text) == normalize_per_char(text)

    def test_table_fills_lazily(self):
        table = tokenization._PunctuationTable()
        assert "Hi, you!".lower().translate(table) == "hi you"
        assert table == {ord(ch): (None if ch in ",!" else ord(ch)) for ch in "hi, you!"}

    def test_words_splits_normalized(self):
        assert words("The cat, the hat.") == ["the", "cat", "the", "hat"]


class TestVocabulary:
    def test_specials_fixed_at_first_ids(self):
        v = build_vocabulary(["a b c"])
        assert v.tokens[:4] == SPECIAL_TOKENS
        assert (BOS_ID, EOS_ID, UNK_ID, PAD_ID) == (0, 1, 2, 3)

    def test_frequency_then_lexicographic_order(self):
        v = build_vocabulary(["b b c a a a", "c b"])
        # a:3, b:3, c:2 -> a before b (tie), then c
        assert v.tokens[4:] == ("a", "b", "c")

    def test_min_freq_filters(self):
        v = build_vocabulary(["a a", "b"], min_freq=2)
        assert len(v) == 5
        assert v.tokens[4:] == ("a",)

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocabulary([])
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocabulary(iter([]))

    @pytest.mark.parametrize("min_freq", [0, -1])
    def test_min_freq_below_one_raises(self, min_freq):
        with pytest.raises(ValueError, match="^min_freq must be >= 1$"):
            build_vocabulary(["a b"], min_freq=min_freq)

    def test_nothing_reaches_min_freq_raises(self):
        with pytest.raises(ValueError):
            build_vocabulary(["a b"], min_freq=3)

    def test_unknown_maps_to_unk(self):
        v = build_vocabulary(["a b"])
        assert v.tokenize("a z b") == [v.token_id("a"), UNK_ID, v.token_id("b")]

    def test_markers_wrap_sequence(self):
        v = build_vocabulary(["a b"])
        ids = [BOS_ID] + v.tokenize("a b") + [EOS_ID]
        assert v.detokenize(ids) == "a b"
        assert len(ids) == 4

    def test_round_trip_equals_normalized_form(self):
        corpus = ["The cat sat on the mat!", "What's your New Year 2017 resolution?"]
        v = build_vocabulary(corpus)
        for s in corpus:
            assert v.detokenize([BOS_ID] + v.tokenize(s) + [EOS_ID]) == normalize(s)
            assert v.detokenize(v.tokenize(s)) == normalize(s)

    def test_special_token_words_in_corpus_are_not_counted(self):
        v = build_vocabulary(["the <unk> token is here", "a b <bos> <eos> <pad>"])
        assert v.tokens[:4] == SPECIAL_TOKENS
        assert not set(v.tokens[4:]) & set(SPECIAL_TOKENS)
        assert v.tokenize("<unk> token") == [UNK_ID, v.token_id("token")]
        # nor are they markers: training and decoding never see one mid-sentence
        assert v.tokenize("a <eos> b <pad> <bos>") == [
            v.token_id("a"), UNK_ID, v.token_id("b"), UNK_ID, UNK_ID
        ]
        assert v.detokenize(v.tokenize("a <eos> b")) == "a <unk> b"

    def test_detokenize_out_of_range_raises(self):
        v = build_vocabulary(["a"])
        with pytest.raises(ValueError):
            v.detokenize([99])

    def test_requires_specials_and_one_word(self):
        with pytest.raises(ValueError):
            Vocabulary(SPECIAL_TOKENS)
        with pytest.raises(ValueError):
            Vocabulary(("x",) + SPECIAL_TOKENS[1:] + ("a",))
        with pytest.raises(ValueError):
            Vocabulary(SPECIAL_TOKENS + ("a", "a"))


class TestVocabularyChunks:
    # chunks of sentences are normalized together; each must count as if alone
    PIECES = ["Σ", "ΣΑΣ", "ΑΣ", "Σα", "ΑΣ'", "Α\u0301Σ", "aΣ", "the", "The", "CAT", "what's",
              "<bos>", "<BOS>", "<unk>", "<eos>.", "...", "!?", "—", "“", "", " ", "\t", "\u00a0",
              "\u2028", "ß", "İ", "ǅ", "3.14", "e.g."]

    def sentence(self, rng):
        return "".join(rng.choice(self.PIECES + [" "] * 8) for _ in range(rng.randint(0, 12)))

    def check(self, corpus, min_freq):
        try:
            expected = build_vocabulary_per_sentence(corpus, min_freq).tokens
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                build_vocabulary(iter(corpus), min_freq)
            return
        assert build_vocabulary(corpus, min_freq).tokens == expected
        assert build_vocabulary((s for s in corpus), min_freq).tokens == expected

    def test_equals_the_per_sentence_oracle(self):
        rng = random.Random(18)
        for n in (0, 1, 2, 63, 64, 65, 129, 300):
            for min_freq in (1, 2, 5):
                self.check([self.sentence(rng) for _ in range(n)], min_freq)

    def test_sigma_at_sentence_edges(self):
        edges = ["ΑΣ", "Σα", "ΑΣ'", "'Σα", "Σ", "ΣΣ"]
        for a in edges:
            for b in edges:
                self.check([a, b], 1)
                self.check(["x"] * 63 + [a, b], 1)
        assert build_vocabulary(["ΑΣ", "Σα"]).tokens[4:] == ("ας", "σα")

    def test_punctuation_and_whitespace_only_sentences(self):
        corpus = ["a b", "...", "  ", "", "\n", "!?", "b"] * 20
        self.check(corpus, 1)
        assert build_vocabulary(corpus).tokens[4:] == ("b", "a")

    def test_generator_is_read_once(self):
        pulled = []

        def sentences():
            for i in range(200):
                pulled.append(i)
                yield f"w{i % 7} common"

        v = build_vocabulary(sentences(), min_freq=2)
        assert pulled == list(range(200))
        assert v.tokens == build_vocabulary_per_sentence(
            [f"w{i % 7} common" for i in range(200)], 2
        ).tokens


class TestVocabularyFile:
    def test_round_trip_preserves_ids(self, tmp_path):
        v = build_vocabulary(["b b a", "c"])
        path = tmp_path / "vocab.txt"
        save_vocabulary(v, str(path))
        loaded = load_vocabulary(str(path))
        assert loaded.tokens == v.tokens
        # line number is the id
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, tok in enumerate(lines):
            assert loaded.token_id(tok) == i or tok == "<unk>"

    def test_trailing_blank_lines_are_dropped(self, tmp_path):
        # an editor's final newlines add no empty-string token after the last id
        path = tmp_path / "vocab.txt"
        path.write_text("<bos>\n<eos>\n<unk>\n<pad>\ncat\n\n\n", encoding="utf-8")
        assert load_vocabulary(str(path)).tokens == ("<bos>", "<eos>", "<unk>", "<pad>", "cat")

    def test_too_small_file_raises(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("<bos>\n<eos>\n<unk>\n<pad>\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_vocabulary(str(path))

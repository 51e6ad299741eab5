import json
import random
import time

import numpy as np
import pytest

import smclm.corpus as corpus_module
from oracles import acceptable_count_per_char, build_corpus_generator_integers, split_sentences_full_prefix
from smclm.corpus import (
    ABBREVIATIONS,
    ParaphraseGroup,
    build_corpus,
    default_lang_filter,
    flatten_unsupervised,
    fnv1a64,
    group_to_test_record,
    make_supervised_pairs,
    read_groups_jsonl,
    split_groups,
    split_sentences,
    write_groups_jsonl,
    _uniform_below,
)


class TestFnv1a64:
    def test_known_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_distinct_on_nearby_strings(self):
        assert fnv1a64(b"sentence one") != fnv1a64(b"sentence two")


class TestSplitSentences:
    def test_basic(self):
        assert split_sentences("The cat sat. The dog ran.") == [
            "The cat sat.",
            "The dog ran.",
        ]

    def test_abbreviation_is_not_a_boundary(self):
        assert split_sentences("Dr. Smith arrived. He left.") == [
            "Dr. Smith arrived.",
            "He left.",
        ]

    def test_question_and_exclamation(self):
        assert split_sentences("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]

    def test_boundary_needs_following_capital_or_quote(self):
        assert split_sentences("pi is 3.14 exactly. done") == ["pi is 3.14 exactly. done"]
        assert split_sentences('He said. "Go home."') == ["He said.", '"Go home."']

    def test_multi_punctuation(self):
        assert split_sentences("What?! Who knows. Nobody.") == [
            "What?!",
            "Who knows.",
            "Nobody.",
        ]

    def test_ellipsis_boundary(self):
        assert split_sentences("Wait... Then go.") == ["Wait...", "Then go."]

    def test_single_sentence_and_empty(self):
        assert split_sentences("just one line") == ["just one line"]
        assert split_sentences("") == []

    def test_initials_stay_attached(self):
        # "e.g" is stop-listed even with internal periods
        assert split_sentences("Use fruit, e.g. Apples are fine.") == [
            "Use fruit, e.g. Apples are fine."
        ]

    def test_abbreviations_are_immutable_and_the_window_covers_them(self):
        # `$` also matches before a final newline, so the word before
        # "xapprox\n. Next" is read from a window one char short of its end
        assert isinstance(ABBREVIATIONS, frozenset)
        assert corpus_module._ABBREVIATION_WINDOW >= max(map(len, ABBREVIATIONS)) + 2

    def test_every_abbreviation_equals_the_full_prefix_oracle(self):
        texts = []
        for abbreviation in sorted(ABBREVIATIONS):
            for word in (abbreviation, "x" + abbreviation, "xa" + abbreviation):
                for cased in (word, word.upper(), word.title()):
                    for gap in ("", "\n", " \n"):
                        texts.append(f"See {cased}{gap}. Next one.")
                        texts.append(f"{cased}{gap}. Next")
        for text in texts:
            assert split_sentences(text) == split_sentences_full_prefix(text), repr(text)
        # the stop list still holds with a newline between word and period
        assert split_sentences("Go approx\n. Next") == ["Go approx\n. Next"]
        assert split_sentences("Go xapprox\n. Next") == ["Go xapprox\n.", "Next"]
        assert split_sentences("Go e.g. Next") == ["Go e.g. Next"]

    def test_random_texts_equal_the_full_prefix_oracle(self):
        rng = random.Random(18)
        abbreviations = sorted(ABBREVIATIONS)
        plain = ["cat", "Dog", "3.14", "a.b.c", "naïve", "Straße", "Σοφία", "İstanbul",
                 "漢字", "x_y", "e.g", "i.e", "U.S", "ok"]
        gaps = [" ", "  ", "\n", " \n", "\t", ""]
        ends = [".", ".", ".", "?", "!", "...", "?!", ".."]
        starts = ["Next", "A", "Z", '"Go', "'so", "“Quote", "‘q", "next", "é"]

        def word():
            if rng.random() < 0.5:
                w = rng.choice(abbreviations)
                w = rng.choice(["", "", "x", "é", "xa", "1"]) + w
                return rng.choice([w, w.upper(), w.title()])
            return rng.choice(plain)

        for _ in range(3000):
            parts = []
            for _ in range(rng.randint(1, 8)):
                parts += [word(), rng.choice(gaps), rng.choice(ends), rng.choice(gaps), rng.choice(starts)]
                parts.append(rng.choice(gaps))
            text = "".join(parts)
            assert split_sentences(text) == split_sentences_full_prefix(text), repr(text)

    def test_long_document_splits_in_linear_time(self):
        # the full-prefix search took about 10 s on such a document
        sentences = [
            f"Dr. Lee met Mr. Ng at No. {i} St. on Jan. {i % 28 + 1}, approx. at noon"
            f"{'.' if i % 3 else '!'}" for i in range(2000)
        ]
        text = " ".join(sentences)
        assert len(text) > 100_000
        start = time.monotonic()
        out = split_sentences(text)
        elapsed = time.monotonic() - start
        assert elapsed < 1, f"runtime {elapsed:.2f}s exceeds the 1s bound"
        assert out == sentences

    @pytest.mark.parametrize("run", ["." * 20_000, "?!" * 10_000], ids=["periods", "alternating"])
    @pytest.mark.parametrize("after", ["b", " b", "\n", " B"], ids=["letter", "space", "newline", "capital"])
    def test_punctuation_run_splits_in_linear_time(self, run, after):
        # a regex scan retried the match at every mark of the run, each try
        # backtracking over the rest of it: about 7 s for such a run
        text = "a" + run + after
        start = time.monotonic()
        out = split_sentences(text)
        elapsed = time.monotonic() - start
        assert elapsed < 1, f"runtime {elapsed:.2f}s exceeds the 1s bound"
        assert out == (["a" + run, "B"] if after == " B" else [text.strip()])

    @pytest.mark.parametrize("text, expected", [
        ("A! " * 100_000, ["A!"] * 100_000),
        ("A " + "! " * 100_000, ["A " + "! " * 99_999 + "!"]),
    ], ids=["sentences", "no-boundary"])
    def test_text_dense_with_terminators_splits_in_linear_time(self, text, expected):
        start = time.monotonic()
        out = split_sentences(text)
        elapsed = time.monotonic() - start
        assert elapsed < 1, f"runtime {elapsed:.2f}s exceeds the 1s bound"
        assert out == expected

    def test_punctuation_runs_equal_the_full_prefix_oracle(self):
        # short runs only: the oracle's own scan is quadratic in a run
        rng = random.Random(29)
        words = ["cat", "Dog", "e.g", "Dr", "no", "x1", "é", "Σ"]
        gaps = ["", " ", "\n", "\x85", "\u2028", " \x85", "\u2028 "]
        starts = ["Next", "A", "b", "7", '"Go', "'so", "“Q", "‘q", "é"]

        def ends():
            if rng.random() < 0.5:
                return "".join(rng.choice(".?!") for _ in range(rng.randint(2, 12)))
            return rng.choice(".?!")

        for _ in range(3000):
            parts = []
            for _ in range(rng.randint(1, 6)):
                parts += [rng.choice(words), rng.choice(gaps), ends()]
                # a terminator followed directly by a letter or a digit
                parts += [rng.choice(["", "", rng.choice("aZ9é")]), rng.choice(gaps), rng.choice(starts)]
            text = "".join(parts)
            assert split_sentences(text) == split_sentences_full_prefix(text), repr(text)


class TestLangFilter:
    def test_plain_english_passes(self):
        assert default_lang_filter("The quick brown fox, obviously!")

    def test_mostly_non_ascii_fails(self):
        assert not default_lang_filter("это предложение на русском языке")

    def test_sparse_accents_pass(self):
        assert default_lang_filter("a cafe visit" + " with e" * 20 + " é")

    def test_empty_passes(self):
        assert default_lang_filter("")

    def test_threshold(self):
        text = "abcdefghi" + "é"  # 9 of 10 acceptable
        assert default_lang_filter(text, threshold=0.9)
        assert not default_lang_filter(text, threshold=0.95)

    def test_count_matches_the_per_character_oracle(self):
        # the filter passes at exactly the oracle's ratio and fails one
        # character above it, which pins its count to the oracle's
        rng = random.Random(5)
        pools = [
            [chr(c) for c in range(32, 127)],
            [chr(c) for c in range(0, 32)] + ["\x7f"],
            list("éüßøñ漢字ЖЯ€—“”…\u00a0\u2028") + ["\U0001f600"],
            [chr(c) for c in (0xD800, 0xDBFF, 0xDC00, 0xDFFF)],  # lone surrogates
        ]
        for _ in range(3000):
            text = "".join(rng.choice(rng.choice(pools)) for _ in range(rng.randint(1, 40)))
            count, n = acceptable_count_per_char(text), len(text)
            assert default_lang_filter(text, threshold=count / n), repr(text)
            assert count == n or not default_lang_filter(text, threshold=(count + 1) / n), repr(text)


def doc(i, domain):
    return (
        f"Sentence number {i} from {domain} reads well. "
        f"Another line {i} follows it. A third {i} closes."
    )


def demo_sources():
    return [
        ("news", [doc(i, "news") for i in range(40)]),
        ("news", [doc(i, "extra") for i in range(10)]),
        ("web", [doc(i, "web") for i in range(40)]),
    ]


class TestBuildCorpus:
    def test_deterministic(self):
        a, ma = build_corpus(demo_sources(), 30, seed=4)
        b, mb = build_corpus(demo_sources(), 30, seed=4)
        assert a == b
        assert ma == mb
        c, _ = build_corpus(demo_sources(), 30, seed=5)
        assert a != c

    def test_target_reached_without_duplicates(self):
        admitted, manifest = build_corpus(demo_sources(), 30, seed=4)
        assert len(admitted) == 30
        assert len(set(admitted)) == 30
        assert manifest["admitted"] == 30
        assert manifest["shortfall"] is False
        per_domain = sum(d["admitted"] for d in manifest["domains"].values())
        assert per_domain == 30

    def test_exhaustion_sets_shortfall(self):
        sources = [("tiny", ["One good sentence lives here."])]
        admitted, manifest = build_corpus(sources, 5, seed=0)
        assert len(admitted) == 1
        assert manifest["shortfall"] is True

    def test_short_documents_rejected(self):
        sources = [("d", ["tiny", "Long enough sentence to pass the bar."])]
        admitted, manifest = build_corpus(sources, 2, seed=0, min_chars=10)
        assert len(admitted) == 1
        assert manifest["domains"]["d"]["rejected"]["short"] == 1

    def test_language_rejections_counted(self):
        ru = "это предложение на русском языке и оно длинное"
        sources = [("d", [ru, "A perfectly ordinary English sentence."])]
        admitted, manifest = build_corpus(sources, 2, seed=0)
        assert admitted == ["A perfectly ordinary English sentence."]
        assert manifest["domains"]["d"]["rejected"]["language"] == 1

    def test_duplicate_sentences_rejected(self):
        same = "Exactly the same sentence again."
        sources = [("d", [same, same, same])]
        admitted, manifest = build_corpus(sources, 3, seed=0)
        assert admitted == [same]
        assert manifest["domains"]["d"]["rejected"]["duplicate"] == 2

    def test_distinct_sentences_never_collide(self, monkeypatch):
        # a colliding 64-bit hash once rejected a distinct sentence as a duplicate
        monkeypatch.setattr(corpus_module, "fnv1a64", lambda data: 0)
        sources = [("d", ["The cat sat on the mat.", "A dog ran in the park."])]
        admitted, manifest = build_corpus(sources, 2, seed=0)
        assert sorted(admitted) == ["A dog ran in the park.", "The cat sat on the mat."]
        assert manifest["domains"]["d"]["rejected"]["duplicate"] == 0

    @pytest.mark.parametrize("at", [0, 2, 3])
    def test_an_empty_source_adds_only_its_zero_row(self, at):
        # an empty document list once crashed the draw (numpy "high <= 0")
        zero = {"admitted": 0, "rejected": {"short": 0, "language": 0, "empty": 0, "duplicate": 0}}
        want, want_manifest = build_corpus(demo_sources(), 60, seed=4)
        # a new domain, then a known one
        for domain, extra in (("blank", {"blank": zero}), ("news", {})):
            sources = demo_sources()
            sources.insert(at, (domain, []))
            got, manifest = build_corpus(sources, 60, seed=4)
            assert got == want
            assert manifest == {**want_manifest, "domains": {**want_manifest["domains"], **extra}}

    def test_only_empty_sources_fall_short(self):
        admitted, manifest = build_corpus([("news", []), ("web", [])], 3)
        assert admitted == []
        assert manifest["shortfall"] is True
        assert [d["admitted"] for d in manifest["domains"].values()] == [0, 0]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            build_corpus(demo_sources(), 0)
        with pytest.raises(ValueError):
            build_corpus([], 5)

    def test_custom_splitter(self):
        sources = [("d", ["alpha beta gamma delta"])]
        admitted, _ = build_corpus(
            sources,
            1,
            splitter=lambda t: t.split(),
            min_chars=1,
        )
        assert admitted[0] in {"alpha", "beta", "gamma", "delta"}


class TestUniformBelow:
    # 2**31 + 1 rejects about half its words; 2**32 - 1 rejects only a zero low half
    BOUNDS = (1, 2, 3, 7, 2000, 2**31 + 1, 2**32 - 1)

    def test_draws_equal_generator_integers(self):
        # 700 draws take more than one 256-word chunk
        for seed in range(200):
            mix = random.Random(seed)
            bounds = [1] + [mix.choice(self.BOUNDS) for _ in range(700)]
            rng = np.random.default_rng(seed)
            want = [int(rng.integers(n)) for n in bounds]
            below = _uniform_below(np.random.default_rng(seed))
            assert [below(n) for n in bounds] == want, seed


def random_sources(rng: random.Random) -> list[tuple[str, list[str]]]:
    """Sources over a few domains whose documents are often rejected, drawn
    from a small stock so that sentences repeat."""
    stock = [doc(i, "news") for i in range(12)] + [
        "Short.", "tiny", "   ", "\t\n", "",
        "это предложение на русском языке и оно длинное",
        "Café au lait. Über alles geht es. Naïve façade here.",
        "One plain sentence without a boundary",
        "Dr. Smith arrived. He left at noon! Did he? Yes.",
        "Exactly the same sentence again.",
    ]
    sources = []
    for _ in range(rng.randint(1, 6)):
        domain = rng.choice(["news", "web", "wiki", "forum"])
        sources.append((domain, [rng.choice(stock) for _ in range(rng.randint(0, 25))]))
    return sources


class TestBuildCorpusDraws:
    def test_equals_the_generator_integers_oracle(self):
        rng = random.Random(11)
        for case in range(300):
            sources = random_sources(rng)
            supply = sum(len(docs) for _, docs in sources)
            target = rng.choice([1, max(1, supply // 3), supply + 5])
            kw = {"seed": rng.randrange(2**32), "min_chars": rng.choice([1, 10, 30]),
                  "splitter": rng.choice([split_sentences, str.split])}
            assert build_corpus(sources, target, **kw) == build_corpus_generator_integers(
                sources, target, **kw), case


def make_groups(n):
    return [
        ParaphraseGroup(f"g{i}", (f"sentence {i} a", f"sentence {i} b", f"sentence {i} c"))
        for i in range(n)
    ]


class TestSplitGroups:
    def test_eighty_five_fifteen_on_hundred(self):
        splits = split_groups(make_groups(100))
        assert [len(splits[k]) for k in ("train", "valid", "test")] == [80, 5, 15]

    def test_disjoint_union(self):
        groups = make_groups(1000)
        splits = split_groups(groups, seed=9)
        ids = [g.id for part in splits.values() for g in part]
        assert len(ids) == 1000
        assert set(ids) == {g.id for g in groups}
        sentences = [s for part in splits.values() for g in part for s in g.sentences]
        assert len(sentences) == len(set(sentences))

    def test_deterministic(self):
        groups = make_groups(50)
        a = split_groups(groups, seed=3)
        b = split_groups(groups, seed=3)
        assert a == b
        assert split_groups(groups, seed=4) != a

    def test_largest_remainder_on_awkward_count(self):
        # 7 groups at 80/5/15: floors 5/0/1, one leftover goes to the
        # largest fraction (train, .6); a starved split is acceptable here
        splits = split_groups(make_groups(7))
        assert [len(splits[k]) for k in ("train", "valid", "test")] == [6, 0, 1]

    def test_validation(self):
        with pytest.raises(ValueError, match="sum"):
            split_groups(make_groups(10), ratios=(0.5, 0.4, 0.05))
        with pytest.raises(ValueError, match="positive"):
            split_groups(make_groups(10), ratios=(1.1, -0.2, 0.1))
        with pytest.raises(ValueError, match=r"need 3 ratios \(train,valid,test\), got 2"):
            split_groups(make_groups(10), ratios=(0.5, 0.5))
        with pytest.raises(ValueError, match="got 4"):
            split_groups(make_groups(10), ratios=(0.4, 0.3, 0.2, 0.1))
        with pytest.raises(ValueError, match="cannot fill"):
            split_groups(make_groups(2))

    def test_nan_ratio_rejected(self):
        # nan once reached the apportionment: "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match="ratios must be positive"):
            split_groups(make_groups(10), ratios=(0.8, float("nan"), 0.15))

    def test_sentence_in_two_groups_rejected(self):
        # it could land in train and test at once
        groups = make_groups(4) + [ParaphraseGroup("dup", ("sentence 1 b", "another one"))]
        with pytest.raises(ValueError, match=r"'sentence 1 b' is in groups 'g1' and 'dup'"):
            split_groups(groups, ratios=(0.4, 0.2, 0.4))

    def test_repeat_within_one_group_allowed(self):
        groups = make_groups(4) + [ParaphraseGroup("rep", ("same", "same"))]
        splits = split_groups(groups, ratios=(0.4, 0.2, 0.4))
        assert sum(len(part) for part in splits.values()) == 5


class TestPairsAndFlatten:
    def test_pairs_share_one_source(self):
        group = ParaphraseGroup("g", ("s one", "s two", "s three"))
        pairs = make_supervised_pairs(group, seed=1)
        assert len(pairs) == 2
        sources = {a for a, _ in pairs}
        assert len(sources) == 1
        source = sources.pop()
        assert source in group.sentences
        assert source not in {b for _, b in pairs}

    def test_pairs_deterministic_by_seed(self):
        group = ParaphraseGroup("g", ("s one", "s two", "s three"))
        assert make_supervised_pairs(group, seed=1) == make_supervised_pairs(group, seed=1)

    def test_same_size_groups_pick_different_positions(self):
        groups = [
            ParaphraseGroup(f"g{i}", tuple(f"s{i} m{k}" for k in range(4))) for i in range(6)
        ]
        picked = {g.sentences.index(make_supervised_pairs(g, seed=0)[0][0]) for g in groups}
        assert len(picked) > 1

    def test_singleton_group_rejected(self):
        with pytest.raises(ValueError, match="needs"):
            make_supervised_pairs(ParaphraseGroup("g", ("only",)))

    def test_test_record_shape(self):
        group = ParaphraseGroup("g", ("s one", "s two", "s three"))
        rec = group_to_test_record(group, seed=1)
        assert set(rec) == {"source", "references"}
        assert len(rec["references"]) == 2

    def test_flatten_dedups_across_groups(self):
        splits = {
            "train": [
                ParaphraseGroup("a", ("x", "y")),
                ParaphraseGroup("b", ("y", "z")),
            ]
        }
        assert flatten_unsupervised(splits) == {"train": ["x", "y", "z"]}

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="no sentences"):
            ParaphraseGroup("g", ())


class TestGroupFiles:
    def test_round_trip(self, tmp_path):
        groups = make_groups(5)
        path = tmp_path / "groups.jsonl"
        write_groups_jsonl(groups, str(path))
        assert read_groups_jsonl(str(path)) == groups

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "groups.jsonl"
        path.write_text('{"id": "a", "sentences": ["x"]}\n{"id": "b"}\n')
        with pytest.raises(ValueError, match=r"groups\.jsonl:2"):
            read_groups_jsonl(str(path))

    @pytest.mark.parametrize("sentences", ['"the cat"', '["e f", 7]', "[]", "null"])
    def test_sentences_must_be_a_list_of_strings(self, tmp_path, sentences):
        # a string would become one group of one-character sentences
        path = tmp_path / "groups.jsonl"
        path.write_text('{"id": "a", "sentences": ["x"]}\n{"id": 1, "sentences": %s}\n' % sentences)
        with pytest.raises(ValueError, match=r"groups\.jsonl:2: bad record: sentences must be"):
            read_groups_jsonl(str(path))

    def test_json_stays_loadable(self, tmp_path):
        path = tmp_path / "groups.jsonl"
        write_groups_jsonl(make_groups(2), str(path))
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            assert set(rec) == {"id", "sentences"}

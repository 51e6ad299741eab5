import json

import pytest

from smclm.corpus import (
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

    def test_bad_args(self):
        with pytest.raises(ValueError):
            build_corpus(demo_sources(), 0)
        with pytest.raises(ValueError):
            build_corpus([], 5)

    def test_custom_filter_and_splitter(self):
        sources = [("d", ["alpha beta gamma delta"])]
        admitted, _ = build_corpus(
            sources,
            1,
            lang_filter=lambda t: True,
            splitter=lambda t: t.split(),
            min_chars=1,
        )
        assert admitted[0] in {"alpha", "beta", "gamma", "delta"}


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

    def test_custom_ratios_and_names(self):
        splits = split_groups(make_groups(10), ratios=(0.5, 0.5), names=("a", "b"))
        assert len(splits["a"]) == 5 and len(splits["b"]) == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="sum"):
            split_groups(make_groups(10), ratios=(0.5, 0.4), names=("a", "b"))
        with pytest.raises(ValueError, match="positive"):
            split_groups(make_groups(10), ratios=(1.1, -0.1), names=("a", "b"))
        with pytest.raises(ValueError, match="matching"):
            split_groups(make_groups(10), ratios=(0.5, 0.3, 0.2), names=("a", "b"))
        with pytest.raises(ValueError, match="cannot fill"):
            split_groups(make_groups(2))


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

    def test_json_stays_loadable(self, tmp_path):
        path = tmp_path / "groups.jsonl"
        write_groups_jsonl(make_groups(2), str(path))
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            assert set(rec) == {"id", "sentences"}

import numpy as np
import pytest

from oracles import ClusterOracleEncoder, bag_encode_accumulating
from smclm import encoders
from smclm.encoders import (
    EMBED_MAGIC,
    FileBackedEncoder,
    HashedBagEncoder,
    HashedTokenEmbedder,
    cosine,
    encoder_from_spec,
    read_embedding_file,
    sentence_key,
    write_embedding_file,
)


class TestCosine:
    def test_reference_value(self):
        assert cosine([0.6, 0.8], [0.8, 0.6]) == pytest.approx(0.96)

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_self_cosine_never_exceeds_one(self):
        # roundoff on unnormalized vectors can produce 1 + ulp without the clamp
        for seed in range(50):
            v = np.random.default_rng(seed).normal(size=64)
            assert cosine(v, v) <= 1.0
        enc = HashedBagEncoder(dim=32)
        v = enc.encode("every bird really rises swiftly")
        assert cosine(v, v) <= 1.0


class TestHashedBag:
    def test_unit_norm_and_dtype(self):
        enc = HashedBagEncoder(dim=64, seed=0)
        v = enc.encode("the cat sat")
        assert v.dtype == np.float32
        assert np.linalg.norm(v.astype(np.float64)) == pytest.approx(1.0, abs=1e-6)

    def test_covers_every_sentence_without_reading_them(self):
        def sentences():
            raise AssertionError("read")
            yield

        assert HashedBagEncoder(dim=8).missing(sentences()) == []

    def test_order_invariance(self):
        enc = HashedBagEncoder(dim=64, seed=1)
        assert enc.encode("a b").tobytes() == enc.encode("b a").tobytes()

    def test_deterministic_across_instances(self):
        a = HashedBagEncoder(dim=32, seed=5).encode("hello world")
        b = HashedBagEncoder(dim=32, seed=5).encode("hello world")
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_embedding(self):
        a = HashedBagEncoder(dim=32, seed=0).encode("hello world")
        b = HashedBagEncoder(dim=32, seed=1).encode("hello world")
        assert a.tobytes() != b.tobytes()

    def test_normalization_applied_before_hashing(self):
        enc = HashedBagEncoder(dim=32, seed=0)
        assert enc.encode("The Cat!").tobytes() == enc.encode("the cat").tobytes()

    def test_empty_sentence_is_total(self):
        enc = HashedBagEncoder(dim=16, seed=0)
        v = enc.encode("...")
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("dim,seed", [(1, 0), (4, 3), (16, 0), (64, 7)])
    def test_equals_the_accumulating_oracle(self, dim, seed):
        # dim 1 puts every word on one slot, so many bags cancel
        rng = np.random.default_rng(53 + dim)
        words = [f"w{i}" for i in range(40)] + ["The", "cat!", "..."]
        enc = HashedBagEncoder(dim, seed)
        for _ in range(60):
            sentence = " ".join(rng.choice(words, int(rng.integers(0, 30))))
            assert np.array_equal(enc.encode(sentence), bag_encode_accumulating(enc, sentence)), sentence

    def test_cancelling_signs_fall_back_to_the_bag_size_slot(self):
        enc = HashedBagEncoder(dim=4, seed=0)
        first = {}
        for word in (f"t{i}" for i in range(200)):
            slot, sign = encoders._signed_slot(word, 4, 0)
            if (slot, -sign) in first:
                break
            first.setdefault((slot, sign), word)
        sentence = f"{first[slot, -sign]} {word}"
        v = enc.encode(sentence)
        assert v.tolist() == [0.0, 0.0, 1.0, 0.0]  # two words: slot 2 % 4
        assert np.array_equal(v, bag_encode_accumulating(enc, sentence))

    def test_shared_token_closer_than_disjoint(self):
        # appending one token keeps a sentence nearer to itself than to a
        # token-disjoint sentence; a concentration property, so allow a few
        # hash-collision failures
        rng = np.random.default_rng(2024)
        enc = HashedBagEncoder(dim=64, seed=3)
        vocab_a = [f"w{i}" for i in range(400)]
        vocab_b = [f"v{i}" for i in range(400)]
        wins = 0
        for _ in range(100):
            n = int(rng.integers(4, 10))
            base = list(rng.choice(vocab_a, size=n, replace=False))
            extended = base + [f"w{int(rng.integers(400, 500))}"]
            disjoint = list(rng.choice(vocab_b, size=n, replace=False))
            e = enc.encode(" ".join(base))
            close = cosine(e, enc.encode(" ".join(extended)))
            far = cosine(e, enc.encode(" ".join(disjoint)))
            wins += close > far
        assert wins >= 95


class TestHashedTokenEmbedder:
    def test_unit_and_deterministic(self):
        emb = HashedTokenEmbedder(dim=64, seed=0)
        v = emb("cat")
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert v.tobytes() == HashedTokenEmbedder(dim=64, seed=0)("cat").tobytes()

    def test_single_nonzero_component(self):
        v = HashedTokenEmbedder(dim=32)("dog")
        assert np.count_nonzero(v) == 1

    def test_slot_memo_is_bounded_and_keeps_every_slot(self):
        memo = encoders._signed_slot
        assert memo.cache_info().maxsize == encoders.SLOT_MEMO_SIZE
        for i in range(300):
            key = (f"w{i % 40}", 16 + i % 3, i % 2)
            assert memo(*key) == memo.__wrapped__(*key)


class TestEmbeddingFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "emb.bin")
        rng = np.random.default_rng(0)
        entries = {f"sentence {i}": rng.normal(size=8) for i in range(5)}
        assert write_embedding_file(path, entries) == 5
        table, dim = read_embedding_file(path)
        assert dim == 8 and len(table) == 5
        for s, raw in entries.items():
            stored = table[sentence_key(s)]
            expect = raw / np.linalg.norm(raw)
            np.testing.assert_allclose(stored, expect.astype(np.float32), rtol=1e-6)

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "emb.bin")
        write_embedding_file(path, {"a": np.ones(4)})
        raw = open(path, "rb").read()
        assert raw[:4] == EMBED_MAGIC
        assert int.from_bytes(raw[4:8], "little") == 1  # version
        assert int.from_bytes(raw[8:12], "little") == 1  # count
        assert int.from_bytes(raw[12:16], "little") == 4  # dim
        assert len(raw) == 16 + 32 + 4 * 4

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ValueError, match="magic"):
            read_embedding_file(str(path))

    def test_truncation_raises(self, tmp_path):
        path = str(tmp_path / "emb.bin")
        write_embedding_file(path, {"a": np.ones(4)})
        blob = open(path, "rb").read()
        trunc = tmp_path / "trunc.bin"
        trunc.write_bytes(blob[:-3])
        with pytest.raises(ValueError, match="truncated"):
            read_embedding_file(str(trunc))

    def test_truncated_header_raises(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(EMBED_MAGIC + b"\x01\x00\x00")
        with pytest.raises(ValueError, match=r"short\.bin: truncated embedding file"):
            read_embedding_file(str(path))

    def test_trailing_bytes_raise(self, tmp_path):
        path = str(tmp_path / "emb.bin")
        write_embedding_file(path, {"a": np.ones(4)})
        blob = open(path, "rb").read()
        fat = tmp_path / "fat.bin"
        fat.write_bytes(blob + b"x")
        with pytest.raises(ValueError, match="trailing"):
            read_embedding_file(str(fat))


class TestFileBackedEncoder:
    def test_lookup_after_normalization(self, tmp_path):
        path = str(tmp_path / "emb.bin")
        write_embedding_file(path, {"The cat sat.": [3.0, 4.0]})
        enc = FileBackedEncoder.load(path)
        v = enc.encode("the cat sat")  # same normalized form
        np.testing.assert_allclose(v, [0.6, 0.8], rtol=1e-6)

    def test_miss_names_sentence(self, tmp_path):
        path = str(tmp_path / "emb.bin")
        write_embedding_file(path, {"known": [1.0, 0.0]})
        enc = FileBackedEncoder.load(path)
        with pytest.raises(KeyError, match="mystery"):
            enc.encode("mystery")

    def test_missing_lists_uncovered_sentences_once(self):
        enc = FileBackedEncoder.from_sentences({"The cat sat.": [3.0, 4.0], "a dog": [1.0, 0.0]})
        got = enc.missing(["the cat sat", "mystery", "A dog!", "other", "mystery"])
        assert got == ["mystery", "other"]
        assert enc.missing(iter(["a dog"])) == []

    def test_from_sentences(self):
        enc = FileBackedEncoder.from_sentences({"a": np.array([0.0, 2.0])})
        np.testing.assert_allclose(enc.encode("a"), [0.0, 1.0])

    def test_from_sentences_matches_the_written_file(self, tmp_path):
        path = str(tmp_path / "emb.bin")
        rng = np.random.default_rng(1)
        entries = {f"sentence {i}": rng.normal(size=8) for i in range(5)}
        write_embedding_file(path, entries)
        built, loaded = FileBackedEncoder.from_sentences(entries), FileBackedEncoder.load(path)
        assert built.dim == loaded.dim == 8
        for s in entries:
            assert built.encode(s).tobytes() == loaded.encode(s).tobytes()

    def test_one_normalized_form_twice_raises(self, tmp_path):
        entries = {"The cat.": [1.0, 0.0], "the cat": [0.0, 1.0]}
        path = tmp_path / "emb.bin"
        with pytest.raises(ValueError, match=r"'The cat\.' and 'the cat' share"):
            write_embedding_file(str(path), entries)
        assert not path.exists()
        with pytest.raises(ValueError, match=r"'The cat\.' and 'the cat' share"):
            FileBackedEncoder.from_sentences(list(entries.items()))

    def test_table_dimensions(self):
        enc = FileBackedEncoder({sentence_key("a"): [3.0, 4.0, 0.0]})
        assert enc.dim == 3 and enc.spec()["dim"] == 3
        with pytest.raises(ValueError, match="empty embedding table"):
            FileBackedEncoder({})
        with pytest.raises(ValueError, match="inconsistent embedding dimensions"):
            FileBackedEncoder({sentence_key("a"): [1.0, 0.0], sentence_key("b"): [1.0, 0.0, 0.0]})
        with pytest.raises(ValueError, match="inconsistent embedding dimensions"):
            FileBackedEncoder.from_sentences({"a": [1.0, 0.0], "b": [1.0, 0.0, 0.0]})


class TestClusterOracle:
    def test_one_hot_reference(self):
        enc = ClusterOracleEncoder(8, assignment={"x": 3})
        v = enc.encode("x")
        expect = np.zeros(8, dtype=np.float32)
        expect[3] = 1.0
        np.testing.assert_array_equal(v, expect)

    def test_unknown_without_default_raises(self):
        enc = ClusterOracleEncoder(8, assignment={"x": 3})
        with pytest.raises(KeyError):
            enc.encode("y")

    def test_unknown_with_default(self):
        enc = ClusterOracleEncoder(8, assignment={"x": 3}, default=7)
        assert enc.encode("y")[7] == 1.0

    def test_cluster_fn_receives_normalized(self):
        seen = []
        enc = ClusterOracleEncoder(4, cluster_fn=lambda s: seen.append(s) or 0)
        enc.encode("The Cat!")
        assert seen == ["the cat"]

    def test_missing(self):
        assert ClusterOracleEncoder(8, assignment={"x": 3}).missing(["X!", "y", "z", "y"]) == ["y", "z"]
        assert ClusterOracleEncoder(8, assignment={"x": 3}, default=7).missing(["y"]) == []
        assert ClusterOracleEncoder(4, cluster_fn=lambda s: 0).missing(["y"]) == []

    def test_needs_exactly_one_source(self):
        with pytest.raises(ValueError):
            ClusterOracleEncoder(4)
        with pytest.raises(ValueError):
            ClusterOracleEncoder(4, assignment={"a": 0}, cluster_fn=lambda s: 0)


class TestEncoderSpec:
    def test_hashed_bag_round_trip(self):
        enc = HashedBagEncoder(dim=16, seed=9)
        clone = encoder_from_spec(enc.spec())
        assert clone.encode("abc").tobytes() == enc.encode("abc").tobytes()

    def test_file_backed_needs_path(self):
        with pytest.raises(ValueError, match="path"):
            encoder_from_spec({"kind": "file-backed", "dim": 4, "path": None})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown encoder kind"):
            encoder_from_spec({"kind": "quantum"})

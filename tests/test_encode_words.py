"""``encode_words`` is every encoder's one body: over the normalized words of
a text it must give the bytes ``encode_many`` gives over the text itself."""

import numpy as np
import pytest

from oracles import ClusterOracleEncoder
from smclm.encoders import FileBackedEncoder, HashedBagEncoder, sentence_key, words_key
from smclm.tokenization import normalize

# no words, punctuation only, case, whitespace runs, non-ASCII letters and marks
TEXTS = [
    "", "   ", "...", "!? -- ;", "The Cat SAT", "the  cat \t sat\n", "  the cat sat  ",
    "What's up?", "Ünïcödé ÇAFÉ", "naïve — café", "日本語 の 文", "İstanbul", "«the» cat", "a a a a",
]


def file_backed() -> FileBackedEncoder:
    # one vector per normalized form, which the texts sharing it share
    rng = np.random.default_rng(7)
    return FileBackedEncoder.from_sentences({n: rng.normal(size=12) for n in dict.fromkeys(map(normalize, TEXTS))})


ENCODERS = {
    "hashed-bag": lambda: HashedBagEncoder(16, seed=5),
    "file-backed": file_backed,
    "cluster-oracle": lambda: ClusterOracleEncoder(9, cluster_fn=lambda norm: len(norm) * 7 + norm.count("a")),
}


@pytest.mark.parametrize("kind", ENCODERS)
def test_encode_words_equals_encode_many(kind):
    enc = ENCODERS[kind]()
    word_lists = [t.split() for t in map(normalize, TEXTS)]
    rows = enc.encode_words(word_lists)
    assert rows.dtype == np.float32 and rows.shape == (len(TEXTS), enc.dim)
    assert rows.tobytes() == enc.encode_many(TEXTS).tobytes()
    assert rows.tobytes() == np.stack([enc.encode(t) for t in TEXTS]).tobytes()
    assert enc.encode_words([]).shape == (0, enc.dim)


@pytest.mark.parametrize("text", TEXTS)
def test_words_key_is_the_sentence_key(text):
    assert words_key(normalize(text).split()) == sentence_key(text)


def test_a_missing_file_backed_text_names_its_words():
    enc = FileBackedEncoder.from_sentences({"the cat": np.ones(4)})
    with pytest.raises(KeyError, match="no embedding stored for sentence: 'the dog'"):
        enc.encode_words([["the", "cat"], ["the", "dog"]])


def test_a_missing_file_backed_sentence_is_named_as_given():
    enc = FileBackedEncoder.from_sentences({"the cat": np.ones(4)})
    for call in (enc.encode, lambda t: enc.encode_many(["The Cat!", t, "the  dog"])):
        with pytest.raises(KeyError, match="no embedding stored for sentence: 'The  DOG!'"):
            call("The  DOG!")

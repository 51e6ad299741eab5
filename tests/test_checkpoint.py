import re
import struct

import numpy as np
import pytest

from smclm.checkpoint import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, load_checkpoint, save_checkpoint
from smclm.model import ModelConfig, TransformerLM
from smclm.tokenization import SPECIAL_TOKENS, Vocabulary


@pytest.fixture
def model():
    cfg = ModelConfig(
        vocab_size=11,
        embed_dim=8,
        layer_count=1,
        head_count=2,
        ff_dim=12,
        max_positions=9,
        seed=3,
    )
    return TransformerLM(cfg)


SPEC = {"kind": "hashed-bag", "dim": 8, "parameters": {"seed": 1}}
VOCAB = Vocabulary(SPECIAL_TOKENS + tuple("abcdefg"))


class TestRoundTrip:
    def test_bit_exact(self, model, tmp_path):
        path = tmp_path / "m.smck"
        save_checkpoint(path, model, SPEC, vocab=VOCAB, extra={"note": 1})
        loaded, meta = load_checkpoint(path)
        assert loaded.config == model.config
        for name in model.params:
            assert loaded.params[name].tobytes() == model.params[name].tobytes()
            assert loaded.params[name].dtype == np.float32
        assert meta["encoder"] == SPEC
        assert meta["vocab"] == list(VOCAB.tokens)
        assert meta["extra"] == {"note": 1}

    def test_save_twice_identical(self, model, tmp_path):
        a, b = tmp_path / "a.smck", tmp_path / "b.smck"
        save_checkpoint(a, model, SPEC)
        save_checkpoint(b, model, SPEC)
        assert a.read_bytes() == b.read_bytes()

    def test_float64_model_saved_as_float32(self, model, tmp_path):
        path = tmp_path / "m.smck"
        save_checkpoint(path, model.astype(np.float64), SPEC)
        loaded, _ = load_checkpoint(path)
        assert loaded.dtype == np.float32


class TestFileLayout:
    def test_header(self, model, tmp_path):
        path = tmp_path / "m.smck"
        save_checkpoint(path, model, SPEC)
        raw = path.read_bytes()
        assert raw[:4] == CHECKPOINT_MAGIC
        version, meta_len = struct.unpack("<II", raw[4:12])
        assert version == CHECKPOINT_VERSION
        assert raw[12 : 12 + meta_len].decode("utf-8").startswith("{")


class TestCorruption:
    def write_good(self, model, tmp_path):
        path = tmp_path / "m.smck"
        save_checkpoint(path, model, SPEC)
        return path

    def test_bad_magic(self, model, tmp_path):
        path = self.write_good(model, tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, model, tmp_path):
        path = self.write_good(model, tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_truncated(self, model, tmp_path):
        path = self.write_good(model, tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        # the message names the file, as every other load error does
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated checkpoint "
                                             "while reading tensor lnf_b payload$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("offset,data,message", [
        (4, b"tok_emx", "tensor 'tok_emx' where 'tok_emb' expected"),
        (4 + 7 + 4, struct.pack("<I", 12), r"tok_emb has dims \(12, 8\), expected \(11, 8\)"),
    ], ids=["name", "dims"])
    def test_a_tensor_header_that_does_not_match(self, model, tmp_path, offset, data, message):
        # offset counts from the first tensor's header: u32 name length, the
        # name "tok_emb", u32 rank, then the dims (11, 8)
        path = self.write_good(model, tmp_path)
        raw = bytearray(path.read_bytes())
        at = 12 + struct.unpack("<I", raw[8:12])[0] + offset
        raw[at : at + len(data)] = data
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("size", [10, 12])
    def test_stored_vocabulary_of_another_size(self, model, tmp_path, size):
        path = tmp_path / "m.smck"
        vocab = Vocabulary(SPECIAL_TOKENS + tuple("abcdefgh"[: size - 4]))
        save_checkpoint(path, model, SPEC, vocab=vocab)
        with pytest.raises(ValueError, match=f"stored vocabulary has {size} tokens, not 11"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda blob: blob.replace(b'"config"', b'"cfg"'), "metadata holds no model config"),
        (lambda blob: blob[:-1] + b" ", "bad metadata: Expecting ',' delimiter: .*"),
        (lambda blob: b"\xff" + blob[1:], "bad metadata: 'utf-8' codec can't decode byte 0xff .*"),
        (lambda blob: b"[" + blob + b"]", "bad metadata: list indices must be integers .*"),
        (lambda blob: blob.replace(b'"config": {', b'"config": [{', 1).replace(b"}, ", b"}], ", 1),
         "bad metadata: .*must be a mapping, not list"),
        (lambda blob: blob.replace(b'"config": {', b'"config": {"bogus": 1, ', 1),
         "bad metadata: .*unexpected keyword argument 'bogus'"),
        (lambda blob: blob.replace(b'"embed_dim": 8', b'"embed_dim": 0', 1),
         "bad metadata: embed_dim must be >= 1, got 0"),
        (lambda blob: blob.replace(b'"vocab": null', b'"vocab": 5', 1),
         "bad metadata: vocab is not a list of strings"),
        (lambda blob: blob.replace(b'"vocab": null', b'"vocab": [0]', 1),
         "bad metadata: vocab is not a list of strings"),
    ], ids=["missing", "not JSON", "not UTF-8", "not an object", "list", "unknown field",
            "out of range", "vocab not a list", "vocab entry not a string"])
    def test_bad_metadata_names_the_file(self, model, tmp_path, edit, message):
        # each of these once raised an error that did not name the file
        path = self.write_good(model, tmp_path)
        raw = path.read_bytes()
        (blob_len,) = struct.unpack("<I", raw[8:12])
        blob = edit(raw[12 : 12 + blob_len])
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + blob_len :])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
            load_checkpoint(path)

    def test_trailing_bytes(self, model, tmp_path):
        path = self.write_good(model, tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

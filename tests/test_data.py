import re
import struct

import numpy as np
import pytest

from fsglab.data import gen_synthetic, load_idx, write_idx
from fsglab.errors import ContractError, FormatError
from fsglab.model import Model
from fsglab.rng import Rng
from fsglab.trainer import SteTrainer, TrainConfig, OptimizerConfig, LrDecay


def _point_loop(kind, n_per_class, noise, rng, classes):
    """One point and one pair of draws at a time: the oracle of gen_synthetic's array form."""
    xs, ys = [], []
    for c in range(classes if kind == "blobs" else 2):
        for i in range(n_per_class):
            if kind == "blobs":
                angle = 2.0 * np.pi * c / classes
                mean = (2.0 * np.cos(angle), 2.0 * np.sin(angle))
            else:
                t = (i + 0.5) / n_per_class
                angle = 3.0 * np.pi * t + np.pi * c
                mean = ((0.3 + 2.7 * t) * np.cos(angle), (0.3 + 2.7 * t) * np.sin(angle))
            xs.append([mean[0] + noise * rng.normal(), mean[1] + noise * rng.normal()])
            ys.append(c)
    return np.array(xs), np.array(ys, dtype=np.int64)


class TestSynthetic:
    @pytest.mark.parametrize("kind,classes", [("blobs", 2), ("blobs", 3), ("blobs", 10),
                                              ("spirals", 2)])
    @pytest.mark.parametrize("n_per_class,noise", [(1, 0.15), (7, 0.3), (24, 0.0), (100, 0.15)])
    def test_array_form_equals_point_loop(self, kind, classes, n_per_class, noise):
        rng, ref_rng = Rng(5), Rng(5)
        data = gen_synthetic(kind, n_per_class, noise, rng, classes=classes)
        x, y = _point_loop(kind, n_per_class, noise, ref_rng, classes)
        assert data.x.tobytes() == x.tobytes() and data.x.shape == x.shape
        assert data.y.tobytes() == y.tobytes()
        assert rng.normal() == ref_rng.normal()  # both took the same draws

    def test_blobs_zero_noise_at_centers(self):
        data = gen_synthetic("blobs", 5, 0.0, Rng(1), classes=3)
        for c in range(3):
            pts = data.x[data.y == c]
            assert np.allclose(pts, pts[0])
            assert abs(np.linalg.norm(pts[0]) - 2.0) < 1e-12

    def test_seed_determinism(self):
        a = gen_synthetic("spirals", 20, 0.1, Rng(7))
        b = gen_synthetic("spirals", 20, 0.1, Rng(7))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_bad_kind(self):
        with pytest.raises(ContractError):
            gen_synthetic("rings", 5, 0.1, Rng(0))

    def test_bad_count(self):
        with pytest.raises(ContractError):
            gen_synthetic("blobs", 0, 0.1, Rng(0))

    def test_blobs_linear_model_reaches_99(self):
        data = gen_synthetic("blobs", 500, 0.1, Rng(3), classes=2)
        cfg = TrainConfig(base_optimizer=OptimizerConfig(kind="adam", lr=0.05),
                          epochs=40, batch_size=100,
                          lr_decay=LrDecay(every=0, factor=1.0), seed=0,
                          slow_kind="off", fast_kind="off")
        tr = SteTrainer(Model.build(["dense:2:2", "bias:2"], Rng(5)), cfg)
        for _ in range(40):
            rec = tr.train_epoch(data.x, data.y)
        assert rec.accuracy >= 0.99

    def test_spirals_shapes(self):
        data = gen_synthetic("spirals", 30, 0.15, Rng(4))
        assert data.x.shape == (60, 2)
        assert set(np.unique(data.y)) == {0, 1}


class TestIdx:
    def test_hand_built_fixture(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        pixels = np.array([[[0, 255], [128, 64]]], dtype=np.uint8)
        write_idx(img, lab, pixels, np.array([3], dtype=np.uint8))
        data = load_idx(img, lab)
        assert data.x.shape == (1, 1, 2, 2)
        assert np.allclose(data.x[0, 0],
                           [[0.0, 1.0], [128.0 / 255.0, 64.0 / 255.0]])
        assert data.y[0] == 3

    def test_label_magic_fed_to_image_loader(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        write_idx(img, lab, np.zeros((1, 2, 2), dtype=np.uint8),
                  np.zeros(1, dtype=np.uint8))
        with pytest.raises(FormatError, match="magic"):
            load_idx(lab, lab)

    def test_truncated_payload(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        write_idx(img, lab, np.zeros((2, 2, 2), dtype=np.uint8),
                  np.zeros(2, dtype=np.uint8))
        raw = img.read_bytes()
        img.write_bytes(raw[:-3])
        with pytest.raises(FormatError, match="payload"):
            load_idx(img, lab)

    @pytest.mark.parametrize("which,keep", [("img", 6), ("img", 14), ("lab", 6)])
    def test_truncated_header(self, tmp_path, which, keep):
        img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(img, lab, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
        cut = tmp_path / f"{which}.idx"
        cut.write_bytes(cut.read_bytes()[:keep])
        with pytest.raises(FormatError, match=f"^{re.escape(str(cut))}: truncated header$"):
            load_idx(img, lab)

    def test_short_label_payload(self, tmp_path):
        img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(img, lab, np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
        lab.write_bytes(lab.read_bytes()[:-1])
        with pytest.raises(FormatError, match="payload holds 2 labels, header promises 3$"):
            load_idx(img, lab)

    def test_missing_labels_file_wins_over_bad_image_header(self, tmp_path):
        img = tmp_path / "img.idx"
        img.write_bytes(b"\x00\x00\x08")  # not even a whole magic
        with pytest.raises(FileNotFoundError, match="missing.idx"):
            load_idx(img, tmp_path / "missing.idx")

    def test_count_mismatch(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        lab2 = tmp_path / "lab2.idx"
        write_idx(img, lab, np.zeros((2, 2, 2), dtype=np.uint8),
                  np.zeros(2, dtype=np.uint8))
        with open(lab2, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 3))
            fh.write(bytes(3))
        with pytest.raises(FormatError, match="mismatch"):
            load_idx(img, lab2)

    def test_mutated_magic_rejected(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        write_idx(img, lab, np.zeros((1, 2, 2), dtype=np.uint8),
                  np.zeros(1, dtype=np.uint8))
        raw = bytearray(img.read_bytes())
        for flip in (0, 1, 2, 3):
            mutated = bytearray(raw)
            mutated[flip] ^= 0xFF
            img.write_bytes(bytes(mutated))
            with pytest.raises(FormatError):
                load_idx(img, lab)

    @pytest.mark.parametrize("images,labels,message", [
        (np.full((1, 2, 2), 256), [0], "images hold 256,"),
        (np.full((1, 2, 2), -1), [0], "images hold -1,"),
        (np.full((1, 2, 2), 255.9), [0], "images hold 255.9,"),
        (np.full((1, 2, 2), np.nan), [0], "images hold nan,"),
        (np.zeros((1, 2, 2)), [300], "labels hold 300,"),
        (np.zeros((2, 2, 2)), [0, 1, 0], "2 images vs 3 labels"),
        (np.zeros((2, 4)), [0, 1], r"images \(B, H, W\)"),
        (np.zeros((2, 2, 2)), [[0, 1]], r"labels \(B,\)"),
    ], ids=["256", "minus-1", "fraction", "nan", "label-300", "count", "images-2d",
            "labels-2d"])
    def test_write_rejects_what_uint8_idx_cannot_hold(self, tmp_path, images, labels, message):
        img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
        with pytest.raises(ContractError, match=message):
            write_idx(img, lab, images, np.asarray(labels))
        assert not img.exists() and not lab.exists()

    def test_write_takes_whole_numbers_of_any_numeric_dtype(self, tmp_path):
        img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(img, lab, np.array([[[0.0, 255.0]]]), np.arange(1, dtype=np.int64))
        data = load_idx(img, lab)
        assert np.array_equal(data.x[0, 0], [[0.0, 1.0]]) and data.y.tolist() == [0]

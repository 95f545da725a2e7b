import numpy as np
import pytest

from bayeslayers.datasets import (content_digest, gen_blobs, gen_shapes,
                                  load_pairing, save_pairing)


def pairings_equal(a, b):
    for sa, sb in ((a.id_train, b.id_train), (a.id_test, b.id_test),
                   (a.ood_test, b.ood_test)):
        if len(sa) != len(sb):
            return False
        for x, y in zip(sa, sb):
            if not np.array_equal(x.input, y.input) or x.label != y.label:
                return False
            if (x.box is None) != (y.box is None):
                return False
            if x.box is not None and not np.array_equal(x.box, y.box):
                return False
    return True


def test_gen_blobs_deterministic():
    a = gen_blobs(7, k=3, n_per_class=20, dim=2)
    b = gen_blobs(7, k=3, n_per_class=20, dim=2)
    assert pairings_equal(a, b)
    assert content_digest(a) == content_digest(b)
    c = gen_blobs(8, k=3, n_per_class=20, dim=2)
    assert content_digest(a) != content_digest(c)


def test_gen_blobs_counts_and_tags():
    p = gen_blobs(0, k=3, n_per_class=20, dim=4)
    assert len(p.id_train) == 60
    assert len(p.id_test) == 30
    assert len(p.ood_test) == 30
    assert all(s.tag == "id" for s in p.id_train + p.id_test)
    assert all(s.tag == "ood" for s in p.ood_test)
    assert all(s.input.shape == (4,) for s in p.id_train)


def test_gen_blobs_zero_offset_overlaps_an_id_class():
    p = gen_blobs(0, k=3, n_per_class=50, dim=2, id_center_scale=10.0,
                  ood_offset=0.0)
    class0 = np.stack([s.input for s in p.id_train if s.label == 0])
    ood = np.stack([s.input for s in p.ood_test])
    # OOD cluster sits on top of class 0, far from the others
    assert np.linalg.norm(class0.mean(axis=0) - ood.mean(axis=0)) < 1.0


def test_gen_blobs_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        gen_blobs(0, k=1)
    with pytest.raises(ValueError):
        gen_blobs(0, dim=1)
    with pytest.raises(ValueError):
        gen_blobs(0, n_per_class=0)


def test_gen_shapes_deterministic():
    a = gen_shapes(3, n=10)
    b = gen_shapes(3, n=10)
    assert pairings_equal(a, b)
    assert content_digest(a) == content_digest(b)


def test_gen_shapes_box_and_pixel_invariants():
    p = gen_shapes(0, image_size=28, n=20)
    for s in p.id_train + p.id_test + p.ood_test:
        assert s.input.shape == (1, 28, 28)
        assert s.input.min() >= 0.0 and s.input.max() <= 1.0
        x0, y0, x1, y1 = s.box
        assert 0 <= x0 < x1 <= 28
        assert 0 <= y0 < y1 <= 28
        assert (x1 - x0) * (y1 - y0) >= 9


def test_gen_shapes_counts_and_labels():
    p = gen_shapes(1, n=10)
    assert len(p.id_train) == 30   # 3 ID shape classes, n each
    assert len(p.id_test) == 15
    assert len(p.ood_test) == 10   # 2 OOD shape kinds, n//2 each
    assert sorted({s.label for s in p.id_train}) == [0, 1, 2]


def test_gen_shapes_rejects_small_image():
    with pytest.raises(ValueError):
        gen_shapes(0, image_size=15)


def test_pairing_save_load_round_trip(tmp_path):
    p = gen_shapes(5, n=6)
    manifest = save_pairing(p, str(tmp_path))
    assert manifest["digest"] == content_digest(p)
    assert manifest["generator"] == "shapes"
    loaded = load_pairing(str(tmp_path))
    assert pairings_equal(p, loaded)
    assert content_digest(loaded) == manifest["digest"]


def test_pairing_save_digest_deterministic(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    m1 = save_pairing(gen_blobs(9, n_per_class=10), str(d1))
    m2 = save_pairing(gen_blobs(9, n_per_class=10), str(d2))
    assert m1["digest"] == m2["digest"]


def test_pairing_load_detects_tampering(tmp_path):
    p = gen_blobs(10, n_per_class=5)
    save_pairing(p, str(tmp_path))
    data = dict(np.load(tmp_path / "data.npz"))
    data["id_train_inputs"] = data["id_train_inputs"] + 1.0
    np.savez(tmp_path / "data.npz", **data)
    with pytest.raises(ValueError, match="digest"):
        load_pairing(str(tmp_path))

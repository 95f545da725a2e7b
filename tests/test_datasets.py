import numpy as np
import pytest

from bayeslayers.datasets import (Split, content_digest, gen_blobs, gen_shapes,
                                  load_pairing, save_pairing)
from bayeslayers.network import PersistenceError

SPLIT_NAMES = ("id_train", "id_test", "ood_test")


def pairings_equal(a, b):
    for name in SPLIT_NAMES:
        sa, sb = getattr(a, name), getattr(b, name)
        if len(sa) != len(sb):
            return False
        if not np.array_equal(sa.inputs, sb.inputs) or not np.array_equal(sa.labels, sb.labels):
            return False
        if (sa.boxes is None) != (sb.boxes is None):
            return False
        if sa.boxes is not None and not np.array_equal(sa.boxes, sb.boxes):
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
    assert p.id_train.tag == p.id_test.tag == "id"
    assert p.ood_test.tag == "ood"
    assert p.id_train.inputs.shape == (60, 4)


def test_gen_blobs_zero_offset_overlaps_an_id_class():
    p = gen_blobs(0, k=3, n_per_class=50, dim=2, id_center_scale=10.0,
                  ood_offset=0.0)
    class0 = p.id_train.inputs[p.id_train.labels == 0]
    ood = p.ood_test.inputs
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
    for split in (p.id_train, p.id_test, p.ood_test):
        assert split.inputs.shape[1:] == (1, 28, 28)
        assert split.inputs.min() >= 0.0 and split.inputs.max() <= 1.0
        x0, y0, x1, y1 = split.boxes.T
        assert np.all((0 <= x0) & (x0 < x1) & (x1 <= 28))
        assert np.all((0 <= y0) & (y0 < y1) & (y1 <= 28))
        assert np.all((x1 - x0) * (y1 - y0) >= 9)


def test_gen_shapes_counts_and_labels():
    p = gen_shapes(1, n=10)
    assert len(p.id_train) == 30   # 3 ID shape classes, n each
    assert len(p.id_test) == 15
    assert len(p.ood_test) == 10   # 2 OOD shape kinds, n//2 each
    assert sorted(set(p.id_train.labels.tolist())) == [0, 1, 2]


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


@pytest.mark.parametrize("gen", [lambda: gen_shapes(5, n=6),
                                 lambda: gen_blobs(9, n_per_class=10)],
                         ids=["shapes", "blobs"])
def test_saved_arrays_are_the_contract(tmp_path, gen):
    # the key names, dtypes and values that readers of data.npz rely on
    p = gen()
    save_pairing(p, str(tmp_path))
    with np.load(tmp_path / "data.npz") as data:
        stored = dict(data)
    fields = ("inputs", "labels", "boxes") if p.id_train.boxes is not None else ("inputs", "labels")
    assert sorted(stored) == sorted(f"{n}_{f}" for n in SPLIT_NAMES for f in fields)
    for name in SPLIT_NAMES:
        split = getattr(p, name)
        for f in fields:
            want = getattr(split, f)
            got = stored[f"{name}_{f}"]
            assert got.dtype == (np.int64 if f == "labels" else np.float64)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    loaded = load_pairing(str(tmp_path))
    for name in SPLIT_NAMES:
        for f in fields:
            assert getattr(getattr(loaded, name), f).tobytes() == stored[f"{name}_{f}"].tobytes()
    assert (loaded.id_train.tag, loaded.id_test.tag, loaded.ood_test.tag) == ("id", "id", "ood")


def test_split_rejects_mismatched_rows():
    with pytest.raises(ValueError, match="labels"):
        Split(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="boxes"):
        Split(np.zeros((3, 2)), np.zeros(3), boxes=np.zeros((3, 2)))


def test_split_rejects_negative_labels():
    with pytest.raises(ValueError, match="id labels must be non-negative, got -1"):
        Split(np.zeros((3, 2)), [0, -1, 2])


def test_pairing_load_names_a_malformed_file(tmp_path):
    save_pairing(gen_blobs(10, n_per_class=5), str(tmp_path))
    data = dict(np.load(tmp_path / "data.npz"))
    data["ood_test_labels"] = data["ood_test_labels"][:-1]
    np.savez(tmp_path / "data.npz", **data)
    with pytest.raises(PersistenceError, match="data.npz"):
        load_pairing(str(tmp_path))


def test_pairing_load_tells_bad_content_from_a_non_npz_file(tmp_path):
    save_pairing(gen_blobs(10, n_per_class=5), str(tmp_path))
    data = dict(np.load(tmp_path / "data.npz"))
    data["id_train_labels"][0] = -1
    np.savez(tmp_path / "data.npz", **data)
    with pytest.raises(PersistenceError, match="data.npz") as exc:
        load_pairing(str(tmp_path))
    reason = str(exc.value).split("data.npz: ", 1)[1]
    assert "non-negative" in reason and "archive" not in reason
    (tmp_path / "data.npz").write_text("not an archive\n")
    with pytest.raises(PersistenceError, match="data.npz: not a dataset archive"):
        load_pairing(str(tmp_path))


def test_shapes_content_digest_pinned():
    # the shapes data draws only Rng.uniforms, so this pins those bits too
    assert content_digest(gen_shapes(5, n=6)) == (
        "acd96605743bb14d21406f77e9f09d8eb2185b08964e423720633f876a101daa")

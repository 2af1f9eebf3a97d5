import os
import tracemalloc

import numpy as np
import pytest

from scanseg.data import load_dataset, save_pair
from scanseg.errors import NetpbmError
from scanseg.netpbm import read_pgm, read_ppm, write_pgm, write_ppm
from scanseg.rng import SplitMix64
from scanseg.synth import ModalityPair, SceneConfig, generate_scene


def rand(shape, seed=0):
    return SplitMix64(seed).uniform_array(shape)


# ---------------------------------------------------------------- netpbm

def test_ppm_single_white_pixel_exact_bytes(tmp_path):
    path = str(tmp_path / "white.ppm")
    write_ppm(path, np.ones((3, 1, 1)))
    blob = open(path, "rb").read()
    # header "P6\n1 1\n255\n" is 11 bytes, payload 3 -> 14 total
    assert blob == b"P6\n1 1\n255\n\xff\xff\xff"
    assert len(blob) == 14


def test_ppm_roundtrip_bitwise(tmp_path):
    path = str(tmp_path / "img.ppm")
    img = rand((3, 5, 7), seed=1)
    write_ppm(path, img)
    once = read_ppm(path)
    write_ppm(path, once)
    assert np.array_equal(read_ppm(path), once)
    assert np.max(np.abs(once - img)) <= 0.5 / 255 + 1e-12


def test_pgm_roundtrip_8_and_16_bit(tmp_path):
    img = rand((4, 6), seed=2)
    p8 = str(tmp_path / "a.pgm")
    write_pgm(p8, img, maxval=255)
    r8 = read_pgm(p8)
    write_pgm(p8, r8, maxval=255)
    assert np.array_equal(read_pgm(p8), r8)

    p16 = str(tmp_path / "b.pgm")
    write_pgm(p16, img, maxval=65535)
    r16 = read_pgm(p16)
    write_pgm(p16, r16, maxval=65535)
    assert np.array_equal(read_pgm(p16), r16)
    assert np.max(np.abs(r16 - img)) <= 0.5 / 65535 + 1e-12


def test_pgm_16bit_big_endian_layout(tmp_path):
    path = str(tmp_path / "v.pgm")
    write_pgm(path, np.array([[1.0]]), maxval=65535)
    blob = open(path, "rb").read()
    assert blob == b"P5\n1 1\n65535\n\xff\xff"
    write_pgm(path, np.array([[256 / 65535]]), maxval=65535)
    assert open(path, "rb").read()[-2:] == b"\x01\x00"  # MSB first


def test_ppm_header_with_comments(tmp_path):
    path = str(tmp_path / "c.ppm")
    with open(path, "wb") as fh:
        fh.write(b"P6\n# a comment\n2 1\n# another\n255\n" + b"\x00" * 6)
    img = read_ppm(path)
    assert img.shape == (3, 1, 2)


def test_ppm_bad_magic_offset(tmp_path):
    path = str(tmp_path / "bad.ppm")
    open(path, "wb").write(b"P5\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(NetpbmError) as e:
        read_ppm(path)
    assert e.value.byte_offset == 0


def test_ppm_truncated_payload_offset(tmp_path):
    path = str(tmp_path / "short.ppm")
    open(path, "wb").write(b"P6\n2 2\n255\n" + b"\x00" * 5)
    with pytest.raises(NetpbmError) as e:
        read_ppm(path)
    assert "truncated" in str(e.value)
    assert e.value.byte_offset == 16  # end of buffer


def test_pgm_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "long.pgm")
    open(path, "wb").write(b"P5\n1 1\n255\n\x00\x00")
    with pytest.raises(NetpbmError, match="trailing"):
        read_pgm(path)


@pytest.mark.parametrize("blob", [
    b"P5\n1 1\n255\n\x00\x00",       # trailing byte
    b"P5\n2 2\n255\n\x00",            # truncated payload
    b"P5\n2 x\n255\n\x00",            # bad height
    b"P5\n2 2\n70000\n\x00",          # maxval out of range
    b"P5\n2 2",                        # header ends early
    b"P6\n1 1\n255\n\x00",            # wrong magic
], ids=["trailing", "truncated", "height", "maxval", "header", "magic"])
def test_reader_errors_name_the_file(blob, tmp_path):
    path = str(tmp_path / "bad.pgm")
    open(path, "wb").write(blob)
    with pytest.raises(NetpbmError) as e:
        read_pgm(path)
    assert str(e.value).endswith(f" in {path})")
    assert str(e.value).count(path) == 1


# ---------------------------------------------------------------- scenes

def test_scene_determinism_bitwise():
    cfg = SceneConfig(seed=3)
    a = generate_scene(cfg, 5)
    b = generate_scene(cfg, 5)
    assert np.array_equal(a.rgb, b.rgb)
    assert np.array_equal(a.xmod, b.xmod)
    assert np.array_equal(a.mask, b.mask)


def test_scene_index_changes_content():
    cfg = SceneConfig(seed=3)
    a = generate_scene(cfg, 0)
    b = generate_scene(cfg, 1)
    assert not np.array_equal(a.rgb, b.rgb)


def test_scene_kappa_zero_visible_in_rgb():
    cfg = SceneConfig(resolution=(64, 64), kappa=0.0, seed=4)
    for i in range(4):
        p = generate_scene(cfg, i)
        gap = max(abs(p.rgb[c][p.mask].mean() - p.rgb[c][~p.objects].mean())
                  for c in range(3))
        assert gap > 0.2, (i, gap)


def test_scene_kappa_one_invisible_in_rgb():
    cfg = SceneConfig(resolution=(64, 64), kappa=1.0, seed=4)
    for i in range(4):
        p = generate_scene(cfg, i)
        clean_bg = ~(p.objects | p.occluders)
        gap = max(abs(p.rgb[c][p.mask].mean() - p.rgb[c][clean_bg].mean())
                  for c in range(3))
        assert gap < cfg.noise_sigma, (i, gap)
        xgap = p.xmod[0][p.mask].mean() - p.xmod[0][clean_bg].mean()
        assert xgap > 0.2


def test_scene_mask_inside_objects_and_nonempty():
    cfg = SceneConfig(seed=5, occluder_density=1.0)
    for i in range(8):
        p = generate_scene(cfg, i)
        assert p.mask.any()
        assert not (p.mask & ~p.objects).any()


def test_scene_value_ranges():
    cfg = SceneConfig(seed=6)
    p = generate_scene(cfg, 0)
    for arr in (p.rgb, p.xmod):
        assert arr.min() >= 0.0 and arr.max() <= 1.0


# ---------------------------------------------------------------- dataset io

def test_dataset_roundtrip(tmp_path):
    root = str(tmp_path / "ds")
    cfg = SceneConfig(resolution=(32, 32), seed=7)
    originals = [generate_scene(cfg, i) for i in range(3)]
    for p in originals:
        save_pair(root, p)
    pairs, report = load_dataset(root)
    assert report.ok()
    assert [p.id for p in pairs] == ["00000", "00001", "00002"]
    for loaded, orig in zip(pairs, originals):
        assert np.array_equal(loaded.mask, orig.mask)
        assert np.max(np.abs(loaded.rgb - orig.rgb)) <= 0.5 / 255 + 1e-12


def test_dataset_empty_dir(tmp_path):
    pairs, report = load_dataset(str(tmp_path))
    assert pairs == [] and report.ok()


def test_dataset_missing_counterpart_reported(tmp_path):
    root = str(tmp_path / "ds")
    cfg = SceneConfig(resolution=(32, 32), seed=8)
    save_pair(root, generate_scene(cfg, 0))
    save_pair(root, generate_scene(cfg, 1))
    import os
    os.remove(os.path.join(root, "mask", "00001.pgm"))
    pairs, report = load_dataset(root)
    assert [p.id for p in pairs] == ["00000"]
    assert report.errors == ["00001: missing mask"]


def test_dataset_16bit_depth_modality(tmp_path):
    root = str(tmp_path / "ds")
    cfg = SceneConfig(resolution=(32, 32), seed=9)
    save_pair(root, generate_scene(cfg, 0), depth_16bit=True)
    pairs, report = load_dataset(root)
    assert report.ok() and len(pairs) == 1
    assert pairs[0].xmod.shape == (1, 32, 32)


def _decoded_from_bytes(path, channels):
    """A canonical-header file's values by the formula the readers have
    always used: samples as float64, divided by maxval."""
    _, dims, maxval, payload = open(path, "rb").read().split(b"\n", 3)
    w, h = map(int, dims.split())
    dtype = ">u2" if int(maxval) > 255 else np.uint8
    flat = np.frombuffer(payload, dtype).astype(np.float64) / int(maxval)
    return np.transpose(flat.reshape(h, w, channels), (2, 0, 1)).copy()


@pytest.mark.parametrize("depth_16bit", [False, True], ids=["8bit", "16bit"])
def test_loaded_images_decode_to_the_readers_arrays(depth_16bit, tmp_path):
    root = str(tmp_path / "ds")
    cfg = SceneConfig(resolution=(24, 16), seed=12)
    for i in range(3):
        save_pair(root, generate_scene(cfg, i), depth_16bit=depth_16bit)
    pairs, report = load_dataset(root)
    assert report.ok() and len(pairs) == 3
    for p in pairs:
        rgb_path = os.path.join(root, "rgb", f"{p.id}.ppm")
        x_path = os.path.join(root, "x", f"{p.id}.pgm")
        want = {"rgb": read_ppm(rgb_path), "xmod": read_pgm(x_path)[None]}
        assert want["rgb"].tobytes() == _decoded_from_bytes(rgb_path, 3).tobytes()
        assert want["xmod"].tobytes() == _decoded_from_bytes(x_path, 1).tobytes()
        for name, ref in want.items():
            got = getattr(p, name)
            assert got.shape == ref.shape and got.shape[1:] == (24, 16)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.tobytes() == ref.tobytes()
            # Each access is a new array: writing into one leaves the next.
            got[...] = -1.0
            again = getattr(p, name)
            assert again is not got and again.tobytes() == ref.tobytes()
        mask = read_pgm(os.path.join(root, "mask", f"{p.id}.pgm")) > 0.5
        assert p.mask.dtype == bool and np.array_equal(p.mask, mask)
        assert p.objects is None and p.occluders is None


def test_loaded_dataset_holds_samples_not_floats(tmp_path):
    root = str(tmp_path / "ds")
    cfg = SceneConfig(resolution=(64, 64), seed=13)
    for i in range(8):
        save_pair(root, generate_scene(cfg, i))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pairs, _ = load_dataset(root)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # 1 byte per RGB or X sample and 1 per mask pixel is 5 bytes a pixel;
    # float64 images and a bool mask would be 33.
    assert len(pairs) == 8
    assert retained < 8 * 64 * 64 * len(pairs), retained / (64 * 64 * 8)

"""Synthetic generators against their recorded geometry, image IO round
trips, manifest validation, and the equalization remap."""

import collections
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swinqa import cli, data
from swinqa.data import (
    SampleRecord,
    SynthSpec,
    histogram_equalize,
    load_manifest,
    make_benchmark,
    pixels01,
    read_image,
    synth_foreign_object,
    synth_lvot,
    threshold_baseline,
    write_pgm,
)


SRC = str(Path(data.__file__).resolve().parent.parent)


def fo_spec(**over):
    base = dict(task="foreign_object", size=64, seed=7)
    base.update(over)
    return SynthSpec(**base)


# ----------------------------------------------------------- generators


def test_foreign_object_negative_has_no_objects():
    rec = synth_foreign_object(fo_spec(), False, np.random.default_rng(3))
    assert rec.label == 0 and rec.meta["objects"] == []
    assert rec.image.shape == (64, 64)
    assert rec.image.min() >= 0.02 - 1e-12 and rec.image.max() <= 0.98 + 1e-12


def test_foreign_object_fixed_seed_is_bit_identical():
    a = synth_foreign_object(fo_spec(), True, np.random.default_rng(11))
    b = synth_foreign_object(fo_spec(), True, np.random.default_rng(11))
    assert np.array_equal(a.image, b.image)
    assert a.meta == b.meta


def test_foreign_object_diff_support_matches_meta():
    """Positive and negative from identically seeded rngs share the
    background, so their diff is exactly the recorded object support."""
    for seed in range(8):
        pos = synth_foreign_object(fo_spec(), True, np.random.default_rng(seed))
        neg = synth_foreign_object(fo_spec(), False, np.random.default_rng(seed))
        diff = pos.image != neg.image
        assert diff.sum() == pos.meta["support_pixels"]
        assert pos.meta["objects"], "positives must contain at least one object"
        # objects are confined to their recorded neighborhoods
        yy, xx = np.nonzero(diff)
        for y, x in zip(yy, xx):
            near = min(math.hypot(y - o["cy"], x - o["cx"]) - o["extent"]
                       for o in pos.meta["objects"])
            assert near <= 2.0


def test_foreign_object_disk_area_close_to_pi_r_squared():
    spec = fo_spec(object_count=(1, 1), object_radius=(6, 6))
    checked = 0
    for seed in range(60):
        pos = synth_foreign_object(spec, True, np.random.default_rng(seed))
        (obj,) = pos.meta["objects"]
        if obj["kind"] != "disk":
            continue
        area = obj["pixels"]
        r = obj["r"]
        assert abs(area - math.pi * r * r) <= 2 * math.pi * r + 4
        # the center pixel sits exactly one checker step from the base value
        center = pos.image[int(round(obj["cy"])), int(round(obj["cx"]))]
        assert abs(abs(center - obj["value"]) - obj["amp"]) < 1e-12
        checked += 1
        if checked >= 5:
            break
    assert checked >= 3


def test_foreign_object_object_count_respects_range():
    spec = fo_spec(object_count=(2, 3))
    for seed in range(6):
        rec = synth_foreign_object(spec, True, np.random.default_rng(seed))
        assert 2 <= len(rec.meta["objects"]) <= 3


def test_lvot_positive_centroid_near_center():
    spec = SynthSpec(task="lvot", size=64, seed=1)
    for seed in range(6):
        rec = synth_lvot(spec, True, np.random.default_rng(seed))
        lv = rec.meta["lvot"]
        assert lv is not None
        # centre 25% crop: central square spanning [0.25, 0.75) per axis
        assert 16 <= lv["cy"] < 48 and 16 <= lv["cx"] < 48
        assert rec.image.min() >= 0.0 and rec.image.max() <= 1.0


def test_lvot_negative_has_exactly_four_chambers():
    spec = SynthSpec(task="lvot", size=64, seed=1)
    rec = synth_lvot(spec, False, np.random.default_rng(5))
    assert rec.meta["lvot"] is None
    assert len(rec.meta["chambers"]) == 4


def manual_convolve_nearest(img, kernel):
    kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    padded = np.pad(img, ((ph, ph), (pw, pw)), mode="edge")
    out = np.zeros_like(img)
    for i in range(img.shape[0]):
        for j in range(img.shape[1]):
            # scipy convolve flips the kernel; mirror that here
            patch = padded[i:i + kh, j:j + kw]
            out[i, j] = (patch * kernel[::-1, ::-1]).sum()
    return out


def test_lvot_blur_flag_is_exactly_one_convolution():
    base = SynthSpec(task="lvot", size=48, seed=9, blur=False)
    blurred = SynthSpec(task="lvot", size=48, seed=9, blur=True)
    for seed in (0, 4):
        plain = synth_lvot(base, True, np.random.default_rng(seed))
        conv = synth_lvot(blurred, True, np.random.default_rng(seed))
        kernel = np.array(conv.meta["blur_kernel"])
        want = manual_convolve_nearest(plain.image, kernel)
        assert np.abs(conv.image - want).max() < 1e-12
        assert plain.meta["blur_kernel"] is None


# RandAugment's sharpness kernel and the two lvot motion-blur kernels
CONVOLVE_KERNELS = (np.array([[1.0, 1, 1], [1, 5, 1], [1, 1, 1]]) / 13.0,
                    np.array([[0.0, 0, 0], [1, 1, 1], [0, 0, 0]]) / 3.0,
                    np.eye(3) / 3.0)


@settings(max_examples=80, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12), planes=st.sampled_from([0, 1, 3]),
       dtype=st.sampled_from([np.float64, np.float32]), which=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_convolve_nearest_is_scipy_byte_for_byte(h, w, planes, dtype, which, seed):
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(seed)
    if which < len(CONVOLVE_KERNELS):
        kernel = CONVOLVE_KERNELS[which]
    else:  # random taps, some zero and some below float64 eps, which scipy skips
        kernel = rng.standard_normal((3, 3))
        kernel[rng.random((3, 3)) < 0.3] = 0.0
        kernel[rng.random((3, 3)) < 0.1] = 1e-17
    img = rng.random((h, w, planes) if planes else (h, w)).astype(dtype)
    got = data.convolve_nearest(img, kernel)
    if planes:
        want = np.stack([ndimage.convolve(img[:, :, c], kernel, mode="nearest")
                         for c in range(planes)], axis=-1)
    else:
        want = ndimage.convolve(img, kernel, mode="nearest")
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_convolve_nearest_rejects_even_kernels():
    with pytest.raises(ValueError, match="odd"):
        data.convolve_nearest(np.zeros((4, 4)), np.ones((2, 3)))


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(task="mystery")
    with pytest.raises(ValueError):
        SynthSpec(size=16)
    with pytest.raises(ValueError):
        SynthSpec(object_radius=(5, 3))
    with pytest.raises(ValueError):
        synth_foreign_object(SynthSpec(task="lvot"), True, np.random.default_rng(0))


# -------------------------------------------------------------------- IO


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    img = rng.random((10, 13))
    path = str(tmp_path / "x.pgm")
    write_pgm(path, img)
    back = read_image(path)
    assert back.shape == (10, 13)
    assert np.array_equal(back, np.round(img * 255) / 255.0)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    img = rng.random((6, 7, 3))
    path = str(tmp_path / "x.ppm")
    oracles.write_ppm(path, img)
    back = read_image(path)
    assert back.shape == (6, 7, 3)
    assert np.array_equal(back, np.round(img * 255) / 255.0)


def test_read_image_handles_comments_and_errors(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
    img = read_image(str(path))
    assert img.shape == (2, 3)
    assert np.array_equal(np.round(img * 255).astype(int).reshape(-1), list(range(6)))
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P7\n1 1\n255\n\x00")
    with pytest.raises(ValueError, match="magic"):
        read_image(str(bad))
    trunc = tmp_path / "t.pgm"
    trunc.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        read_image(str(trunc))


@pytest.mark.parametrize("blob, why", [
    (b"P5\n100000 100000\n255\n" + bytes(6), "truncated pixel data"),
    (b"P6\n3 2\n255\n" + bytes(6), "truncated pixel data"),
    (b"P5\nabc 2\n255\n" + bytes(6), "not a non-negative integer"),
    (b"P5\n-3 2\n255\n" + bytes(6), "not a non-negative integer"),
    (b"P5\n0 0\n255\n", "empty"),
    (b"P5\n3 0\n255\n" + bytes(6), "empty"),
    (b"P5\n3 2\n65535\n" + bytes(12), "maxval"),
    (b"P5\n3 2", "truncated image header"),
    (b"P4\n3 2\n255\n" + bytes(6), "magic"),
])
def test_read_image_header_errors_name_the_file(tmp_path, blob, why):
    # the header never sizes an allocation beyond what the file holds, and
    # every header fault is a ValueError that names the file
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match=why) as err:
        read_image(str(path))
    assert str(err.value).startswith(f"{path}: ")


def test_train_on_oversized_image_header_exits_1(tmp_path, capsys):
    (tmp_path / "big.pgm").write_bytes(b"P5\n100000 100000\n255\n" + bytes(16))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label,split\nbig.pgm,0,train\n")
    assert cli.main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "big.pgm: truncated pixel data" in err, err
    assert "Traceback" not in err


# ------------------------------------------------------------- manifests


def test_make_benchmark_and_load_manifest(tmp_path):
    spec = fo_spec(seed=21)
    manifest = make_benchmark(spec, 8, 4, 2, str(tmp_path / "ds"))
    records = load_manifest(manifest)
    counts = collections.Counter(r.split for r in records)
    assert counts == {"train": 8, "val": 4, "test": 2}
    for split, n in counts.items():
        labels = [r.label for r in records if r.split == split]
        assert sum(labels) == n // 2  # exact class balance
    assert all(r.image.shape == (64, 64) for r in records)


def test_load_manifest_keeps_the_files_uint8_pixels(tmp_path):
    rng = np.random.default_rng(3)
    gray = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
    rgb = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
    write_pgm(str(tmp_path / "g.pgm"), gray / 255.0)
    oracles.write_ppm(str(tmp_path / "c.ppm"), rgb / 255.0)
    (tmp_path / "m.csv").write_text("path,label,split\ng.pgm,0,train\nc.ppm,1,val\n")
    records = load_manifest(str(tmp_path / "m.csv"))
    for rec, want, name in zip(records, (gray, rgb), ("g.pgm", "c.ppm")):
        assert rec.image.dtype == np.uint8
        assert np.array_equal(rec.image, want)
        header_end = (tmp_path / name).read_bytes().index(b"255\n") + 4
        assert rec.image.tobytes() == (tmp_path / name).read_bytes()[header_end:]
        # pixels01 gives read_image's floats, bit for bit
        assert pixels01(rec.image).tobytes() == read_image(str(tmp_path / name)).tobytes()
    float_image = rng.random((3, 3))
    assert pixels01(float_image) is float_image


def test_image_functions_take_uint8_pixels_as_their_floats(tmp_path):
    # a record from a manifest holds uint8 pixels; every public function
    # that takes an image reads them as pixels01 does
    levels = np.arange(256, dtype=np.uint8)
    gray = np.concatenate([levels, levels[::-1]]).reshape(16, 32)
    rgb = np.stack([gray, gray[::-1], gray.T.reshape(16, 32)], axis=-1)
    for writer, img in ((write_pgm, gray), (oracles.write_ppm, rgb)):
        path = str(tmp_path / "x")
        writer(path, img)
        assert np.array_equal(data._read_pixels(path), img)
    assert np.array_equal(histogram_equalize(gray), histogram_equalize(pixels01(gray)))


def test_make_benchmark_refuses_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        fo_spec(seed=-1)


def test_make_benchmark_deterministic(tmp_path):
    spec = fo_spec(seed=33)
    m1 = make_benchmark(spec, 4, 2, 2, str(tmp_path / "a"))
    m2 = make_benchmark(spec, 4, 2, 2, str(tmp_path / "b"))
    with open(m1) as f1, open(m2) as f2:
        assert f1.read() == f2.read()
    for rel in sorted(os.listdir(tmp_path / "a" / "images")):
        b1 = (tmp_path / "a" / "images" / rel).read_bytes()
        b2 = (tmp_path / "b" / "images" / rel).read_bytes()
        assert b1 == b2, rel


def dataset_sha256(manifest: str) -> str:
    """sha256 over a manifest's bytes and then its images' bytes, in
    manifest order."""
    h = hashlib.sha256()
    with open(manifest, "rb") as f:
        rows = f.read()
    h.update(rows)
    for line in rows.decode().splitlines()[1:]:
        with open(os.path.join(os.path.dirname(manifest), line.split(",")[0]), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


@pytest.mark.parametrize("spec, want", [
    (SynthSpec(task="foreign_object", size=64, seed=5),
     "ed235aaf61d6bd8b16e579c9fa85c43f08228a828b0bf001d9aa8873e5ad15e5"),
    (SynthSpec(task="lvot", size=224, seed=1),
     "4b4354ff81898f56316d58bb7c4c1df5ffee176a9d1f576de92e13672eb01940"),
    (SynthSpec(task="lvot", size=224, seed=1, blur=True),
     "d7d86be687b6dcfac982e9463081c876e1874dde6f46333bc0025b87cc3c7ce4"),
], ids=["foreign_object-64", "lvot-224", "lvot-224-blur"])
def test_make_benchmark_bytes_are_pinned(tmp_path, spec, want):
    """A dataset's bytes are a pure function of the spec, the split and the
    index; these digests were taken from the full-grid generator."""
    n = (8, 4, 4) if spec.task == "foreign_object" else (4, 2, 2)
    assert dataset_sha256(make_benchmark(spec, *n, str(tmp_path / "ds"))) == want


@settings(max_examples=25, deadline=None)
@given(size=st.integers(32, 256), seed=st.integers(0, 2**32 - 1),
       blobs=st.integers(0, 8), radius=st.integers(4, 40), count=st.integers(1, 6))
def test_foreign_object_matches_full_grid_reference(size, seed, blobs, radius, count):
    """The windowed background, clutter and objects give the bytes of the
    full-grid reference, on both classes: every pixel and every metadata
    value. Large radii put shapes against the image's edges."""
    spec = SynthSpec(size=size, background_blobs=blobs, seed=seed,
                     object_radius=(4, radius), object_count=(1, count))
    for positive in (True, False):
        got = synth_foreign_object(spec, positive, np.random.default_rng(seed))
        with mock.patch.object(data, "_blob_background", oracles.blob_background), \
                mock.patch.object(data, "_add_clutter", oracles.add_clutter), \
                mock.patch.object(data, "_add_objects", oracles.add_objects):
            want = synth_foreign_object(spec, positive, np.random.default_rng(seed))
        assert got.image.tobytes() == want.image.tobytes()
        assert repr(got.meta) == repr(want.meta)


def test_foreign_object_builds_every_positive_at_minimum_size():
    """At size 32 a bar's margin can exceed half the image. Such a shape is
    centred, and it still lies wholly inside the image."""
    spec = SynthSpec(size=32, seed=0)
    for i in range(400):
        rec = synth_foreign_object(spec, True, np.random.default_rng([spec.seed, 0, i]))
        assert rec.meta["objects"]
        for o in rec.meta["objects"]:
            assert o["pixels"] > 0
            assert o["extent"] <= min(o["cy"], o["cx"], 32 - o["cy"], 32 - o["cx"])


def test_make_benchmark_failure_leaves_no_tree(tmp_path):
    def fail(*args):
        raise ValueError("generator failed")

    out = tmp_path / "ds"
    with mock.patch.object(data, "generate_record", fail), pytest.raises(ValueError):
        make_benchmark(fo_spec(), 2, 2, 2, str(out))
    assert not out.exists()


def dataset_files(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_make_benchmark_failure_keeps_the_existing_dataset(tmp_path):
    # the failure comes after several images of the new set are written
    out = tmp_path / "ds"
    make_benchmark(fo_spec(), 4, 2, 2, str(out))
    before = dataset_files(out)
    built = []

    def fail_late(spec, positive, rng):
        if len(built) == 5:
            raise ValueError("generator failed")
        built.append(data.synth_foreign_object(spec, positive, rng))
        return built[-1]

    with mock.patch.object(data, "generate_record", fail_late), \
            pytest.raises(ValueError, match="generator failed"):
        make_benchmark(fo_spec(seed=8), 4, 2, 2, str(out))
    assert dataset_files(out) == before
    assert os.listdir(tmp_path) == ["ds"]  # the staging directory is gone


def test_make_benchmark_removes_only_dead_writers_staging(tmp_path):
    """Staging directories of the same name whose pid is gone are removed.
    Those of a live pid or of one that may not be signalled stay, as do
    another name's and entries of another form."""
    probed = []

    def kill(pid, sig):
        probed.append((pid, sig))
        if pid == 111:
            raise ProcessLookupError(pid)
        if pid == 222:
            raise PermissionError(pid)

    keep = [".ds.222.0123456789ab.staging", ".ds.333.0123456789ab.staging",
            ".other.111.0123456789ab.staging", ".ds.0123456789ab.staging",
            ".ds.111.0123456789ab.replaced", ".ds.111.xyz.staging"]
    for entry in keep + [".ds.111.0123456789ab.staging"]:
        (tmp_path / entry / "images").mkdir(parents=True)
    with mock.patch.object(data.os, "kill", kill):
        make_benchmark(fo_spec(), 4, 2, 2, str(tmp_path / "ds"))
    assert sorted(os.listdir(tmp_path)) == sorted(keep + ["ds"])
    assert sorted(probed) == [(111, 0), (222, 0), (333, 0)]


def test_make_benchmark_replaces_a_dataset_as_a_whole(tmp_path):
    out, fresh = tmp_path / "ds", tmp_path / "fresh"
    make_benchmark(fo_spec(), 8, 4, 2, str(out))
    (out / "images" / "stale.pgm").write_bytes(b"P5\n1 1\n255\n\x00")
    make_benchmark(fo_spec(seed=9), 4, 2, 2, str(out))
    make_benchmark(fo_spec(seed=9), 4, 2, 2, str(fresh))
    assert dataset_files(out) == dataset_files(fresh)
    assert sorted(os.listdir(tmp_path)) == ["ds", "fresh"]
    # an empty directory is filled; any other directory, or a file, stays
    (tmp_path / "empty").mkdir()
    make_benchmark(fo_spec(seed=9), 4, 2, 2, str(tmp_path / "empty"))
    assert dataset_files(tmp_path / "empty") == dataset_files(fresh)
    (tmp_path / "other").mkdir()
    (tmp_path / "other" / "notes.txt").write_text("keep")
    (tmp_path / "file").write_text("keep")
    for name in ("other", "file"):
        with pytest.raises(ValueError, match="not a dataset directory"):
            make_benchmark(fo_spec(), 2, 2, 2, str(tmp_path / name))
    assert (tmp_path / "other" / "notes.txt").read_text() == "keep"
    assert (tmp_path / "file").read_text() == "keep"
    assert sorted(os.listdir(tmp_path)) == ["ds", "empty", "file", "fresh", "other"]


def test_make_benchmark_memory_does_not_grow_with_the_record_count(tmp_path):
    # records are written in runs of a bounded size as they are built: 60
    # lvot records at 224 peak within 0.5 MB of 20 (one float64 record is
    # 0.4 MB)
    spec = SynthSpec(task="lvot", size=224, seed=3)
    make_benchmark(spec, 2, 2, 2, str(tmp_path / "warm"))
    peaks = []
    tracemalloc.start()
    try:
        for n_train in (16, 56):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            make_benchmark(spec, n_train, 2, 2, str(tmp_path / f"ds{n_train}"))
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.5 * 2**20, peaks


def test_killed_synth_leaves_no_manifest_and_train_exits_1(tmp_path):
    out = tmp_path / "run"
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"synth": {"task": "lvot", "size": 224, "n_train": 1000,
                                            "n_val": 2, "n_test": 2}}))
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    swinqa = [sys.executable, "-m", "swinqa.cli"]
    proc = subprocess.Popen(swinqa + ["synth", "--config", str(config), "--out", str(out)],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while not list(out.glob(".dataset.*.staging/images/*.pgm")):
            assert proc.poll() is None, "synth ended before it was killed"
            assert time.monotonic() < deadline, "no staged image appeared"
            time.sleep(0.002)
        proc.send_signal(signal.SIGKILL)
        assert proc.wait(timeout=60) == -signal.SIGKILL
    finally:
        proc.kill()
        proc.wait()
    assert not (out / "dataset").exists()
    assert not list(out.rglob("manifest.csv"))
    done = subprocess.run(swinqa + ["train", "--manifest", str(out / "dataset" / "manifest.csv"),
                                    "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: ") and "manifest.csv" in done.stderr, done.stderr
    assert "Traceback" not in done.stderr
    # the next synth into the same out removes the dead writer's staging
    config.write_text(json.dumps({"synth": {"task": "lvot", "size": 32, "n_train": 2,
                                            "n_val": 2, "n_test": 2}}))
    done = subprocess.run(swinqa + ["synth", "--config", str(config), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert sorted(os.listdir(out)) == ["dataset", "resolved_config.json"]
    assert (out / "dataset" / "manifest.csv").is_file()


def test_make_benchmark_rejects_odd_or_tiny_splits(tmp_path):
    with pytest.raises(ValueError):
        make_benchmark(fo_spec(), 5, 2, 2, str(tmp_path / "x"))
    with pytest.raises(ValueError):
        make_benchmark(fo_spec(), 4, 0, 2, str(tmp_path / "y"))


def test_load_manifest_errors(tmp_path):
    d = tmp_path / "m"
    d.mkdir()
    write_pgm(str(d / "ok.pgm"), np.zeros((4, 4)))
    (d / "bad_label.csv").write_text("path,label,split\nok.pgm,1,train\nok.pgm,2,val\n")
    with pytest.raises(ValueError, match="row 3"):
        load_manifest(str(d / "bad_label.csv"))
    (d / "missing.csv").write_text("path,label,split\nnope.pgm,0,train\n")
    with pytest.raises(ValueError, match="row 2.*missing"):
        load_manifest(str(d / "missing.csv"))
    (d / "bad_split.csv").write_text("path,label,split\nok.pgm,0,dev\n")
    with pytest.raises(ValueError, match="row 2"):
        load_manifest(str(d / "bad_split.csv"))
    (d / "bad_header.csv").write_text("file,y,part\n")
    with pytest.raises(ValueError, match="header"):
        load_manifest(str(d / "bad_header.csv"))
    (d / "empty.csv").write_text("path,label,split\n")
    assert load_manifest(str(d / "empty.csv")) == []


def test_sample_record_validation():
    with pytest.raises(ValueError):
        SampleRecord(source="x", label=2)
    with pytest.raises(ValueError):
        SampleRecord(source="x", label=0, split="dev")


# ----------------------------------------------------------- equalization


def test_histogram_equalize_constant__maps_to_top():
    out = histogram_equalize(np.full((5, 5), 0.42))
    assert np.array_equal(out, np.ones((5, 5)))


def test_histogram_equalize_two_level():
    img = np.zeros((4, 4))
    img[:2] = 0.25
    img[2:] = 0.75
    out = histogram_equalize(img)
    assert np.allclose(np.unique(out), [0.5, 1.0])
    assert np.allclose(out[:2], 0.5) and np.allclose(out[2:], 1.0)


def test_histogram_equalize_uniform_is_near_identity():
    # one pixel per level: cdf[v] = (v+1)/256 vs input v/255 -> within a bin
    img = (np.arange(256) / 255.0).reshape(16, 16)
    out = histogram_equalize(img)
    assert np.abs(out - img).max() <= 1.0 / 255.0 + 1e-12


def test_histogram_equalize_preserves_order():
    rng = np.random.default_rng(6)
    img = rng.random((12, 12))
    out = histogram_equalize(img)
    flat_in, flat_out = img.reshape(-1), out.reshape(-1)
    order = np.argsort(flat_in, kind="stable")
    diffs = np.diff(flat_out[order])
    assert (diffs >= -1e-12).all()


# --------------------------------------------------------------- baseline


def test_threshold_baseline_separable_and_blind():
    rng = np.random.default_rng(8)

    def rec(value, label):
        return SampleRecord(source="t", label=label,
                            image=np.full((8, 8), value) + rng.normal(0, 0.01, (8, 8)))

    train = [rec(0.8, 1) for _ in range(10)] + [rec(0.2, 0) for _ in range(10)]
    test = [rec(0.8, 1) for _ in range(5)] + [rec(0.2, 0) for _ in range(5)]
    assert threshold_baseline(train, test) == 100.0
    # labels independent of pixels -> near chance on a balanced eval set
    blind_train = [rec(0.5, i % 2) for i in range(20)]
    blind_test = [rec(0.5, i % 2) for i in range(20)]
    assert threshold_baseline(blind_train, blind_test) <= 75.0

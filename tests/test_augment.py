"""Augmentation ops against hand-computed cases and scripted rngs, plus
the train/eval pipeline contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import affine_sample_taps, prepare_batch_three_planes, write_ppm
from swinqa import augment
from swinqa.augment import (
    IMAGENET_MEAN,
    IMAGENET_STD,
    RANDAUGMENT_OPS,
    AugConfig,
    LabeledBatch,
    adjust_brightness,
    adjust_contrast,
    adjust_saturation,
    adjust_sharpness,
    autocontrast,
    bilinear_resize,
    color_jitter,
    cutmix,
    equalize,
    mixup,
    posterize,
    prepare_batch,
    rand_augment,
    random_erasing,
    resize_normalize,
    rotate,
    shear,
    to_rgb01,
    translate,
)
from swinqa.data import _read_pixels, read_image, write_pgm
from swinqa.tensor import using_dtype


class ScriptedRng:
    """Stand-in generator returning scripted draws for the methods the
    augmentation code calls."""

    def __init__(self, *, beta_value=0.5, perm=None, ints=(), randoms=(),
                 uniform3=None):
        self.beta_value = beta_value
        self.perm = perm
        self.ints = list(ints)
        self.randoms = list(randoms)
        self.uniform3 = uniform3

    def beta(self, a, b):
        return self.beta_value

    def permutation(self, n):
        assert len(self.perm) == n
        return np.array(self.perm)

    def integers(self, lo, hi):
        return self.ints.pop(0)

    def random(self):
        return self.randoms.pop(0) if self.randoms else 0.3

    def uniform(self, lo, hi, size=None):
        assert size == 3
        return np.asarray(self.uniform3, dtype=np.float64)


def gray(v, h=4, w=4):
    return np.full((h, w, 3), float(v))


# ------------------------------------------------------------------ resize


def test_to_rgb01_shapes():
    g = np.random.default_rng(0).random((5, 6))
    rgb = to_rgb01(g)
    assert rgb.shape == (5, 6, 3)
    assert np.array_equal(rgb[:, :, 0], g) and np.array_equal(rgb[:, :, 2], g)
    assert to_rgb01(g[:, :, None]).shape == (5, 6, 3)
    with pytest.raises(ValueError):
        to_rgb01(np.zeros((4, 4, 2)))


def test_bilinear_resize_identity_is_copy():
    img = np.random.default_rng(1).random((7, 7, 3))
    out = bilinear_resize(img, 7, 7)
    assert np.array_equal(out, img) and out is not img


def test_bilinear_resize_2x2_to_4x4_hand_case():
    # half-pixel centers: dst row/col k samples src at (k+0.5)/2 - 0.5,
    # i.e. offsets -0.25, 0.25, 0.75, 1.25 with edge clipping
    img = np.array([[0.0, 1.0], [2.0, 3.0]])[:, :, None] * np.ones(3)
    want = np.array([
        [0.0, 0.25, 0.75, 1.0],
        [0.5, 0.75, 1.25, 1.5],
        [1.5, 1.75, 2.25, 2.5],
        [2.0, 2.25, 2.75, 3.0],
    ])
    out = bilinear_resize(img, 4, 4)
    assert np.abs(out - want[:, :, None]).max() < 1e-12


def test_bilinear_resize_preserves_constants_downscale():
    img = gray(0.37, 16, 16)
    out = bilinear_resize(img, 5, 9)
    assert out.shape == (5, 9, 3)
    assert np.abs(out - 0.37).max() < 1e-12


def test_resize_normalize_constant_matches_formula():
    out = resize_normalize(np.full((8, 8), 0.5), 4, 4, AugConfig())
    for c in range(3):
        want = (0.5 - IMAGENET_MEAN[c]) / IMAGENET_STD[c]
        assert np.abs(out[:, :, c] - want).max() < 1e-12


# ------------------------------------------------------------------ mixing


def batch_01():
    images = np.stack([gray(0.0), gray(1.0)])
    labels = np.array([[1.0, 0.0], [0.0, 1.0]])
    return LabeledBatch(images, labels)


def test_mixup_lambda_one_is_identity():
    rng = ScriptedRng(beta_value=1.0, perm=[1, 0])
    out = mixup(batch_01(), 0.8, rng)
    assert np.array_equal(out.images, batch_01().images)
    assert np.array_equal(out.labels, batch_01().labels)


def test_mixup_half_blends_images_and_labels():
    rng = ScriptedRng(beta_value=0.5, perm=[1, 0])
    out = mixup(batch_01(), 0.8, rng)
    assert np.abs(out.images - 0.5).max() < 1e-12
    assert np.allclose(out.labels, [[0.5, 0.5], [0.5, 0.5]])


def test_mixup_needs_two():
    with pytest.raises(ValueError):
        mixup(LabeledBatch(np.zeros((1, 4, 4, 3)), np.array([[1.0, 0.0]])), 0.8,
              ScriptedRng())


def test_cutmix_realized_box_sets_label_weight():
    # lam 0.75 -> cut 0.5 of an 8x8 -> 4x4 box at center (4, 4): rows/cols 2..6
    images = np.stack([np.zeros((8, 8, 3)), np.ones((8, 8, 3))])
    labels = np.array([[1.0, 0.0], [0.0, 1.0]])
    rng = ScriptedRng(beta_value=0.75, perm=[1, 0], ints=[4, 4])
    out = cutmix(LabeledBatch(images, labels), 1.0, rng)
    pasted = out.images[0, :, :, 0] != 0.0
    want = np.zeros((8, 8), dtype=bool)
    want[2:6, 2:6] = True
    assert np.array_equal(pasted, want)
    lam_real = 1.0 - pasted.sum() / 64.0
    assert lam_real == 0.75
    assert np.allclose(out.labels[0], [lam_real, 1.0 - lam_real])


def test_cutmix_degenerate_boxes():
    images = np.stack([np.zeros((8, 8, 3)), np.ones((8, 8, 3))])
    labels = np.array([[1.0, 0.0], [0.0, 1.0]])
    # lam 1 -> zero-area box -> exact identity
    out = cutmix(LabeledBatch(images, labels),
                 1.0, ScriptedRng(beta_value=1.0, perm=[1, 0], ints=[4, 4]))
    assert np.array_equal(out.images, images)
    assert np.array_equal(out.labels, labels)
    # lam 0 -> whole-image box -> full swap
    out = cutmix(LabeledBatch(images, labels),
                 1.0, ScriptedRng(beta_value=0.0, perm=[1, 0], ints=[4, 4]))
    assert np.array_equal(out.images, images[[1, 0]])
    assert np.array_equal(out.labels, labels[[1, 0]])


def test_cutmix_label_weight_recoverable_from_pixels():
    """With continuous random pixels, the pasted region is exactly the set
    of changed pixels, so the realized box area must reproduce the label
    mixing weight."""
    gen = np.random.default_rng(7)
    images = gen.random((4, 16, 16, 3))
    labels = np.eye(2)[[0, 1, 0, 1]].astype(float)
    out = cutmix(LabeledBatch(images, labels.copy()), 1.0, np.random.default_rng(3))
    changed = (out.images != images).any(axis=-1)  # [B, H, W]
    rect = changed.any(axis=0)
    assert rect.any(), "seed must produce a non-empty box"
    # every sample is either a permutation fixed point or shows the box
    assert all(np.array_equal(changed[k], rect) or not changed[k].any()
               for k in range(4))
    lam_real = 1.0 - rect.sum() / (16 * 16)
    resid = out.labels - lam_real * labels
    assert np.allclose(resid.sum(axis=-1), 1.0 - lam_real, atol=1e-12)
    for k in range(4):  # residual mass is one partner's scaled one-hot row
        hits = [j for j in range(4)
                if np.allclose(resid[k], (1.0 - lam_real) * labels[j], atol=1e-12)]
        assert hits


# ----------------------------------------------------------------- erasing


def test_random_erasing_prob_zero_is_identity():
    img = np.random.default_rng(2).random((16, 16, 3))
    cfg = AugConfig(erase_prob=0.0)
    out = random_erasing(img, cfg, np.random.default_rng(0))
    assert np.array_equal(out, img)


def test_random_erasing_always_one_rectangle():
    cfg = AugConfig(erase_prob=1.0)
    img = gray(0.5, 32, 32)
    for seed in range(6):
        out = random_erasing(img, cfg, np.random.default_rng(seed))
        diff = (out != img).any(axis=-1)
        rows = np.flatnonzero(diff.any(axis=1))
        cols = np.flatnonzero(diff.any(axis=0))
        assert rows.size and cols.size
        rect = np.zeros_like(diff)
        rect[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1] = True
        # noise fill makes repeats of the background value measure-zero
        assert np.array_equal(diff, rect)
        area = diff.sum()
        assert 1 <= area <= 0.35 * 32 * 32
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_random_erasing_one_plane_as_three():
    """A grayscale image is returned as it is when no rectangle is drawn,
    else as the erased repeated plane, with the same draws."""
    plane = np.random.default_rng(4).random((24, 24, 1))
    assert random_erasing(plane, AugConfig(erase_prob=0.0), np.random.default_rng(9)) is plane
    rng1, rng3 = np.random.default_rng(9), np.random.default_rng(9)
    cfg = AugConfig(erase_prob=1.0)
    out = random_erasing(plane, cfg, rng1)
    assert np.array_equal(out, random_erasing(np.repeat(plane, 3, axis=-1), cfg, rng3))
    assert rng1.bit_generator.state == rng3.bit_generator.state


def test_random_erasing_deterministic():
    cfg = AugConfig(erase_prob=1.0)
    img = np.random.default_rng(3).random((24, 24, 3))
    a = random_erasing(img, cfg, np.random.default_rng(9))
    b = random_erasing(img, cfg, np.random.default_rng(9))
    assert np.array_equal(a, b)


# ------------------------------------------------------------- randaugment


def test_rotate_quarter_turn_moves_delta_exactly():
    img = np.zeros((5, 5, 3))
    img[1, 2] = 1.0  # center offset (-1, 0)
    out = rotate(img, 90.0)
    want = np.zeros((5, 5, 3))
    want[2, 1] = 1.0  # offset (0, -1) after a quarter turn
    assert np.abs(out - want).max() < 1e-9


def test_translate_integer_shift_is_exact():
    img = np.zeros((4, 5, 3))
    img[1, 1] = 1.0
    out = translate(img, 1.0, 2.0)
    assert out[2, 3, 0] == 1.0
    assert np.all(out[0] == 0.5)          # rows shifted in from outside
    assert np.all(out[:, :2] == 0.5)      # columns shifted in from outside
    inner = out[1:, 2:].copy()
    inner[1, 1] = 0.0
    assert np.abs(inner).max() == 0.0


GEOMETRIC_CASES = [
    ("rotate", lambda im: rotate(im, 17.0)),
    ("rotate_neg", lambda im: rotate(im, -30.0)),
    ("rotate_half", lambda im: rotate(im, 180.0)),
    ("translate", lambda im: translate(im, 2.0, -3.0)),
    ("translate_fraction", lambda im: translate(im, -1.5, 0.25)),
    ("translate_rows_off", lambda im: translate(im, im.shape[0] + 3.0, 1.0)),
    ("translate_rows_off_neg", lambda im: translate(im, -im.shape[0] - 2.0, 0.0)),
    ("translate_cols_off", lambda im: translate(im, 0.0, im.shape[1] + 0.5)),
    ("shear_x", lambda im: shear(im, 1, 0.3)),
    ("shear_y", lambda im: shear(im, 0, -0.27)),
]


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("hw", [(9, 9), (7, 12), (12, 5)])
@pytest.mark.parametrize("name,op", GEOMETRIC_CASES, ids=[c[0] for c in GEOMETRIC_CASES])
def test_geometric_ops_match_tap_oracle(monkeypatch, name, op, hw, channels):
    img = np.random.default_rng([len(name), *hw, channels]).random(hw + (channels,))
    got = op(img)
    monkeypatch.setattr(augment, "_affine_sample", affine_sample_taps)
    want = op(img)
    assert got.shape == want.shape == img.shape
    assert np.array_equal(got, want)


def test_posterize_masks_low_bits():
    img = gray(0.5)
    out4 = posterize(img, 4)
    assert np.all(out4 == (127 & 0xF0) / 255.0)
    assert np.all(posterize(gray(1.0), 4) == 240 / 255.0)
    assert np.all(posterize(gray(0.0), 4) == 0.0)


def test_autocontrast_rescales_channel_range():
    img = gray(0.0, 2, 2)
    img[:, :, 0] = [[0.2, 0.45], [0.7, 0.2]]
    img[:, :, 1] = 0.3  # constant channel left alone
    img[:, :, 2] = [[0.0, 1.0], [0.5, 0.25]]
    out = autocontrast(img)
    assert np.allclose(out[:, :, 0], (img[:, :, 0] - 0.2) / 0.5)
    assert np.allclose(out[:, :, 1], 0.3)
    assert np.allclose(out[:, :, 2], img[:, :, 2])


def test_adjust_contrast_zero_collapses_to_mean():
    img = np.random.default_rng(4).random((6, 6, 3))
    out = adjust_contrast(img, 0.0)
    luma = img @ np.array([0.299, 0.587, 0.114])
    assert np.abs(out - np.clip(luma.mean(), 0, 1)).max() < 1e-12


def test_adjust_saturation_fixed_points():
    g = gray(0.6)
    assert np.abs(adjust_saturation(g, 3.0) - g).max() < 1e-12
    red = np.zeros((2, 2, 3))
    red[:, :, 0] = 1.0
    out = adjust_saturation(red, 0.0)
    assert np.allclose(out, 0.299)


def test_adjust_sharpness_factor_one_is_identity():
    img = np.random.default_rng(5).random((8, 8, 3))
    assert np.abs(adjust_sharpness(img, 1.0) - img).max() < 1e-12


def test_rand_augment_zero_ops_is_identity():
    img = np.random.default_rng(6).random((10, 10, 3))
    out = rand_augment(img, 0, 9.0, np.random.default_rng(0))
    assert np.array_equal(out, img)


def test_rand_augment_identity_draws_leave_image():
    img = np.random.default_rng(7).random((8, 8, 3))
    rng = ScriptedRng(ints=[0, 0, 0])  # op index 0 == "identity"
    assert RANDAUGMENT_OPS[0] == "identity"
    out = rand_augment(img, 3, 9.0, rng)
    assert np.array_equal(out, img)


def test_rand_augment_bounded_and_deterministic():
    img = np.random.default_rng(8).random((12, 12, 3))
    for seed in range(5):
        a = rand_augment(img, 2, 9.0, np.random.default_rng(seed))
        b = rand_augment(img, 2, 9.0, np.random.default_rng(seed))
        assert np.array_equal(a, b)
        assert a.shape == img.shape
        assert a.min() >= 0.0 and a.max() <= 1.0


def test_color_jitter_strength_zero_and_constant_image():
    img = np.random.default_rng(9).random((6, 6, 3))
    assert np.array_equal(color_jitter(img, 0.0, None), img)
    # constant gray: contrast/saturation are no-ops, brightness scales
    rng = ScriptedRng(perm=[0, 1, 2], uniform3=[1.3, 0.7, 1.1])
    out = color_jitter(gray(0.5), 0.4, rng)
    assert np.abs(out - 0.65).max() < 1e-12


def select_op(op):
    """Scripted draws that make rand_augment apply `op` once, sign negative."""
    return ScriptedRng(ints=[RANDAUGMENT_OPS.index(op)], randoms=[0.7])


@pytest.mark.parametrize("op", RANDAUGMENT_OPS)
def test_rand_augment_op_on_2d_one_and_three_planes(op):
    plane = np.random.default_rng(12).random((9, 11))
    plane[2:5, 3:7] = 0.0  # a dark patch gives equalize and autocontrast work
    one = rand_augment(plane[:, :, None], 1, 7.0, select_op(op))
    assert one.shape == (9, 11, 1)
    assert np.array_equal(rand_augment(plane, 1, 7.0, select_op(op)), one)
    three = rand_augment(np.repeat(plane[:, :, None], 3, axis=-1), 1, 7.0, select_op(op))
    assert three.shape == (9, 11, 3)
    for c in range(3):
        assert np.array_equal(three[:, :, c:c + 1], one)


@pytest.mark.parametrize("op", RANDAUGMENT_OPS)
def test_rand_augment_applies_each_op_at_its_signed_magnitude(op):
    """One scripted draw of `op` equals the op called directly: the 0-10
    magnitude read as m on 0-1, the second draw below 0.5 meaning +m."""
    img = np.random.default_rng(15).random((9, 15, 3))
    img[2:5, 3:7] = 0.0
    h, w, m = 9, 15, 7.0 / 10.0
    for draw, s in ((0.2, 1.0), (0.7, -1.0)):
        want = {
            "identity": lambda: img,
            "rotate": lambda: rotate(img, s * augment._MAX_ROTATE_DEG * m),
            "translate_x": lambda: translate(
                img, 0.0, round(s * augment._MAX_TRANSLATE_FRAC * m * w)),
            "translate_y": lambda: translate(
                img, round(s * augment._MAX_TRANSLATE_FRAC * m * h), 0.0),
            "shear_x": lambda: shear(img, 1, s * augment._MAX_SHEAR * m),
            "shear_y": lambda: shear(img, 0, s * augment._MAX_SHEAR * m),
            "brightness": lambda: adjust_brightness(img, 1.0 + s * augment._MAX_ENHANCE * m),
            "contrast": lambda: adjust_contrast(img, 1.0 + s * augment._MAX_ENHANCE * m),
            "sharpness": lambda: adjust_sharpness(img, 1.0 + s * augment._MAX_ENHANCE * m),
            "posterize": lambda: posterize(
                img, 8 - int(round((8 - augment._MIN_POSTERIZE_BITS) * m))),
            "autocontrast": lambda: autocontrast(img),
            "equalize": lambda: equalize(img),
        }[op]()
        rng = ScriptedRng(ints=[RANDAUGMENT_OPS.index(op)], randoms=[draw])
        got = rand_augment(img, 1, 7.0, rng)
        assert np.array_equal(got, np.clip(want, 0.0, 1.0)), (op, s)


def test_color_jitter_on_2d_one_and_three_planes():
    plane = np.random.default_rng(13).random((6, 7))

    def jitter(img):
        return color_jitter(img, 0.4, ScriptedRng(perm=[2, 0, 1], uniform3=[1.3, 0.7, 1.2]))

    one = jitter(plane[:, :, None])
    assert one.shape == (6, 7, 1)
    assert np.array_equal(jitter(plane), one)
    three = jitter(np.repeat(plane[:, :, None], 3, axis=-1))
    for c in range(3):
        assert np.array_equal(three[:, :, c:c + 1], one)


def test_rand_augment_and_color_jitter_reject_two_planes():
    img = np.zeros((4, 4, 2))
    with pytest.raises(ValueError, match="expected"):
        rand_augment(img, 1, 5.0, select_op("rotate"))
    with pytest.raises(ValueError, match="expected"):
        color_jitter(img, 0.4, ScriptedRng(perm=[0, 1, 2], uniform3=[1.0, 1.0, 1.0]))


# ---------------------------------------------------------------- pipeline


def test_prepare_batch_eval_matches_resize_normalize():
    # eval batches come in the engine dtype: each image is normalized in
    # float64 and cast on store, so a float32 batch is the float64 formula
    # cast, and under the float64 engine the batch is the formula exactly
    rng = np.random.default_rng(10)
    images = [rng.random((20, 20)) for _ in range(3)]
    labels = np.array([0, 1, 1])
    cfg = AugConfig()
    # bit for bit the RGB-broadcast formula: gray at the target size, gray
    # needing a resize, RGB at and off the size, and a batch mixing them
    mean, std = np.asarray(cfg.normalize_mean), np.asarray(cfg.normalize_std)
    cases = {"gray at size": [rng.random((16, 16)) for _ in range(2)],
             "gray resized": [rng.random((20, 12)), rng.random((9, 30, 1))],
             "rgb": [rng.random((16, 16, 3)), rng.random((24, 18, 3))]}
    cases["mixed"] = [im for ims in cases.values() for im in ims]
    for dtype in (np.float32, np.float64):
        with using_dtype(dtype):
            out, soft = prepare_batch(images, labels, cfg, "eval", 16)
            batches = {name: prepare_batch(ims, [0] * len(ims), cfg, "eval", 16)[0]
                       for name, ims in cases.items()}
        want = np.stack([resize_normalize(im, 16, 16, cfg) for im in images])
        assert out.dtype == dtype
        assert np.array_equal(out, want.astype(dtype))
        assert np.array_equal(soft, np.eye(2)[[0, 1, 1]])
        for name, images_ in cases.items():
            want = np.stack([(bilinear_resize(to_rgb01(im), 16, 16) - mean) / std
                             for im in images_])
            assert batches[name].shape == (len(images_), 16, 16, 3), name
            assert batches[name].dtype == dtype, name
            assert np.array_equal(batches[name], want.astype(dtype)), name


def test_prepare_batch_eval_of_gray_uint8_at_size_is_the_per_image_path():
    # a batch of gray 8-bit pixels at the size is normalized in one pass;
    # its bits are those of each image through resize_normalize, cast.
    # Every level occurs, and the config's mean and std are not the default
    rng = np.random.default_rng(12)
    cfg = AugConfig(normalize_mean=(0.3, 0.5, 0.7), normalize_std=(0.11, 0.2, 0.3))
    pixels = [rng.permutation(256).astype(np.uint8).reshape(16, 16) for _ in range(5)]
    for dtype in (np.float32, np.float64):
        want = np.stack([resize_normalize(im, 16, 16, cfg) for im in pixels]).astype(dtype)
        with using_dtype(dtype):
            got, _ = prepare_batch(pixels, [0] * 5, cfg, "eval", 16)
            # one image off the size sends the batch down the per-image path
            odd = pixels[:4] + [rng.integers(0, 256, size=(12, 16), dtype=np.uint8)]
            mixed, _ = prepare_batch(odd, [0] * 5, cfg, "eval", 16)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()
        want_mixed = np.stack([resize_normalize(im, 16, 16, cfg) for im in odd]).astype(dtype)
        assert mixed.tobytes() == want_mixed.tobytes()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rgb=st.booleans(), resized=st.booleans(),
       count=st.integers(1, 4))
def test_prepare_batch_same_bytes_for_uint8_pixels_and_read_floats(
        tmp_path_factory, seed, rgb, resized, count):
    # records from a manifest keep their file's 8-bit pixels; both modes
    # must give the batch that read_image's floats give, byte for byte
    gen = np.random.default_rng(seed)
    path = str(tmp_path_factory.mktemp("pix") / ("x.ppm" if rgb else "x.pgm"))
    pixels, floats = [], []
    for _ in range(count):
        shape = (int(gen.integers(9, 24)), int(gen.integers(9, 24))) if resized else (16, 16)
        img = gen.integers(0, 256, size=shape + ((3,) if rgb else ()), dtype=np.uint8)
        (write_ppm if rgb else write_pgm)(path, img / 255.0)
        pixels.append(img)
        floats.append(read_image(path))
        assert np.array_equal(_read_pixels(path), img)
    labels = [i % 2 for i in range(count)]
    cfg = AugConfig(erase_prob=0.5)
    for mode, key in (("eval", None), ("train", [seed, 3])):
        got = [prepare_batch(ims, labels, cfg, mode, 16,
                             rng=None if key is None else np.random.default_rng(key))
               for ims in (pixels, floats)]
        assert got[0][0].dtype == got[1][0].dtype
        assert got[0][0].tobytes() == got[1][0].tobytes(), mode
        assert got[0][1].tobytes() == got[1][1].tobytes(), mode


def test_prepare_batch_eval_rejects_rng_train_requires_it():
    images = [np.zeros((8, 8))]
    with pytest.raises(ValueError, match="deterministic"):
        prepare_batch(images, [0], AugConfig(), "eval", 8, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="rng"):
        prepare_batch(images, [0], AugConfig(), "train", 8)
    with pytest.raises(ValueError, match="mode"):
        prepare_batch(images, [0], AugConfig(), "test", 8)


def test_prepare_batch_train_shapes_labels_determinism():
    gen = np.random.default_rng(11)
    images = [gen.random((20, 24)) for _ in range(4)]
    labels = [0, 1, 0, 1]
    cfg = AugConfig()
    a, la = prepare_batch(images, labels, cfg, "train", 16,
                          rng=np.random.default_rng(5))
    b, lb = prepare_batch(images, labels, cfg, "train", 16,
                          rng=np.random.default_rng(5))
    c, lc = prepare_batch(images, labels, cfg, "train", 16,
                          rng=np.random.default_rng(6))
    assert a.shape == (4, 16, 16, 3) and la.shape == (4, 2)
    assert np.array_equal(a, b) and np.array_equal(la, lb)
    assert not np.array_equal(a, c)
    assert np.abs(la.sum(axis=-1) - 1.0).max() < 1e-9
    assert np.isfinite(a).all()


PIPELINE_CONFIGS = {
    "desk": AugConfig(randaug_n=1, randaug_magnitude=3.0, mixup_alpha=0.05,
                      cutmix_alpha=0.05, erase_prob=0.0, jitter_strength=0.05),
    "default": AugConfig(),
    "heavy": AugConfig(randaug_n=3, randaug_magnitude=10.0, erase_prob=1.0),
}


def pipeline_images(kind, seed):
    gen = np.random.default_rng([seed, 31])
    shapes = {"gray": [(16, 16)] * 4,
              "gray_resized": [(21, 13), (16, 16), (9, 30), (16, 16)],
              "rgb": [(16, 16, 3), (20, 16, 3), (16, 16, 3)],
              "mixed": [(16, 16), (16, 18, 3), (12, 16, 1), (16, 16)]}[kind]
    return [gen.random(shape) for shape in shapes]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["gray", "gray_resized", "rgb", "mixed"])
@pytest.mark.parametrize("config", sorted(PIPELINE_CONFIGS))
def test_prepare_batch_train_matches_three_plane_oracle(monkeypatch, config, kind, seed):
    cfg = PIPELINE_CONFIGS[config]
    images = pipeline_images(kind, seed)
    labels = [(seed + i) % 2 for i in range(len(images))]
    rng = np.random.default_rng([seed, 17])
    got, got_labels = prepare_batch(images, labels, cfg, "train", 16, rng=rng)
    # the reference runs every warp through the tap sampler as well
    monkeypatch.setattr(augment, "_affine_sample", affine_sample_taps)
    ref_rng = np.random.default_rng([seed, 17])
    want, want_labels = prepare_batch_three_planes(images, labels, cfg, 16, ref_rng)
    assert got.shape == want.shape == (len(images), 16, 16, 3)
    assert np.array_equal(got, want)
    assert np.array_equal(got_labels, want_labels)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_prepare_batch_accepts_soft_labels():
    images = [np.zeros((8, 8)), np.ones((8, 8))]
    soft = np.array([[0.7, 0.3], [0.2, 0.8]])
    _, out = prepare_batch(images, soft, AugConfig(), "eval", 8)
    assert np.array_equal(out, soft)


def test_labeled_batch_validation():
    with pytest.raises(ValueError):
        LabeledBatch(np.zeros((2, 4, 4, 3)), np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        LabeledBatch(np.zeros((1, 4, 4, 3)), np.array([[0.6, 0.6]]))
    with pytest.raises(ValueError):
        AugConfig(mix_switch_prob=1.5)
    with pytest.raises(ValueError):
        AugConfig(erase_scale=(0.4, 0.1))
    with pytest.raises(ValueError):
        AugConfig(randaug_magnitude=11)

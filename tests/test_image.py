import tracemalloc

import numpy as np
import pytest

from lepfuse import Image, Rect, crop, rgb_to_luma

from oracles import constant_image, pad_replicate


def test_image_lifts_2d_to_single_channel():
    img = Image(np.zeros((4, 5)))
    assert img.data.shape == (4, 5, 1)
    assert (img.height, img.width, img.channels) == (4, 5, 1)


def test_image_copies_and_freezes_data():
    src = np.ones((3, 3))
    img = Image(src)
    src[0, 0] = 99.0
    assert img.data[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        img.data[0, 0, 0] = 5.0  # read-only view


def test_image_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        Image(np.zeros((2, 2, 2)))  # 2 channels unsupported
    with pytest.raises(ValueError):
        Image(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        Image(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        Image(np.zeros((2, 2)), max_val=0.0)
    with pytest.raises(ValueError, match=r"^image data must be 2-D or 3-D, got ndim=4$"):
        Image(np.zeros((1, 2, 2, 1)))


@pytest.mark.parametrize("arr", [np.zeros((2, 2), dtype=np.int64), np.zeros((2, 4))[:, ::2]],
                         ids=["int64", "strided"])
def test_adopt_refuses_what_it_cannot_wrap(arr):
    with pytest.raises(ValueError, match=r"^only float64 or uint8, C-contiguous arrays can be adopted$"):
        Image._adopt(arr, 255.0)


def test_constant_image():
    img = constant_image(3, 4, 3, 7.5)
    assert img.data.shape == (3, 4, 3)
    assert np.all(img.data == 7.5)
    with pytest.raises(ValueError):
        constant_image(2, 2, 4, 0.0)


def test_crop_and_bounds():
    img = Image(np.arange(20, dtype=float).reshape(4, 5))
    region = crop(img, Rect(x0=1, y0=2, width=3, height=2))
    assert region.data.shape == (2, 3, 1)
    assert region.plane()[0, 0] == 11.0
    with pytest.raises(IndexError):
        crop(img, Rect(x0=3, y0=0, width=3, height=2))
    with pytest.raises(ValueError):
        Rect(x0=-1, y0=0, width=2, height=2)
    with pytest.raises(ValueError):
        Rect(x0=0, y0=0, width=0, height=2)


def test_rgb_to_luma_weights():
    """BT.601 weighting: white maps to max, pure red to 0.299 * max."""
    white = constant_image(4, 4, 3, 255.0)
    assert np.all(rgb_to_luma(white).data == 255.0)

    red = np.zeros((4, 4, 3))
    red[:, :, 0] = 255.0
    luma = rgb_to_luma(Image(red))
    assert np.allclose(luma.data, 0.299 * 255.0, atol=1e-9)

    gray = constant_image(4, 4, 1, 5.0)
    with pytest.raises(ValueError):
        rgb_to_luma(gray)


def test_rgb_to_luma_stays_in_observed_range():
    rng = np.random.default_rng(3)
    img = Image(rng.uniform(0, 255, (8, 8, 3)))
    luma = rgb_to_luma(img)
    assert luma.data.min() >= img.data.min()
    assert luma.data.max() <= img.data.max()


def test_pad_replicate():
    img = Image(np.array([[1.0, 2.0], [3.0, 4.0]]))
    padded = pad_replicate(img, 2)
    assert padded.data.shape == (6, 6, 1)
    assert padded.plane()[0, 0] == 1.0
    assert padded.plane()[5, 5] == 4.0
    assert padded.plane()[0, 5] == 2.0
    assert np.array_equal(pad_replicate(img, 0).data, img.data)
    with pytest.raises(ValueError):
        pad_replicate(img, -1)


@pytest.mark.parametrize("shape", [(1, 1, 3), (7, 5, 3), (64, 48, 3)])
def test_rgb_to_luma_bit_identical_to_the_plain_expression(shape):
    """rgb_to_luma builds its sum in place, yet every sample equals the
    plain expression (wr * R + wg * G) + wb * B clamped to the observed
    range, bit for bit, on signed samples from 1e-297 to 1e303."""
    rng = np.random.default_rng(shape[0])
    data = rng.uniform(-1e3, 1e3, shape) * rng.choice([1e-300, 1.0, 1e300], shape)
    img = Image(data)
    wr, wg, wb = 0.299, 0.587, 0.114
    expected = np.clip(wr * data[:, :, 0] + wg * data[:, :, 1] + wb * data[:, :, 2], data.min(), data.max())
    luma = rgb_to_luma(img)
    assert luma.data.shape == shape[:2] + (1,)
    assert luma.data[:, :, 0].tobytes() == expected.tobytes()
    assert not luma.data.flags.writeable and luma.max_val == img.max_val


def test_rgb_to_luma_holds_one_plane_and_a_strip():
    """rgb_to_luma builds its sum in the returned plane through one strip
    of scratch, so at 512^2 its traced peak is about 1.03 planes.  A whole
    plane of scratch for the weighted channels, as before, read 2.13."""
    side = 512
    img = Image(np.random.default_rng(5).uniform(0, 255, (side, side, 3)))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        luma = rgb_to_luma(img)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert luma.data.shape == (side, side, 1)
    assert (peak - start) / (side * side * 8) <= 1.1

"""Noise fields, blending, schedules, stats, PGM round-trips."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regulab.diffusion import (
    DEFAULT_POWER_SHAPES,
    DEFAULT_UNIFORM_ALPHAS,
    GrayImage,
    NoiseSchedule,
    PowerMask,
    blend,
    gen_noise_field,
    image_stats,
    pgm_bytes,
    power_schedule,
    read_pgm,
    run_schedule,
    synthetic_portrait,
    uniform_schedule,
)
from regulab.rng import SplitMix64


def flat_image(w, h, value):
    return GrayImage(width=w, height=h, pixels=np.full((h, w), value))


# --- noise fields ------------------------------------------------------------


def test_uniform_field_mean_and_variance():
    field = gen_noise_field(500, 200, 1.0, seed=1)
    mean, var = image_stats(field)
    assert abs(mean - 0.5) <= 0.01
    assert abs(var - 1.0 / 12.0) <= 0.005


def test_power_shape_one_is_uniform():
    # u ** 1.0 is u, so shape 1 takes no pow: the field is the draws as they are.
    field = gen_noise_field(500, 200, 1.0, seed=2)
    assert field.pixels.tobytes() == SplitMix64(2).floats(500 * 200).tobytes()


@pytest.mark.parametrize("a", [0.2, 1.0, 3.0])
def test_power_mean_matches_analytic(a):
    # density a*x^(a-1) on [0,1] has mean a/(a+1)
    field = gen_noise_field(500, 200, a, seed=3)
    mean, _ = image_stats(field)
    assert abs(mean - a / (a + 1.0)) <= 0.01


def test_power_mass_shifts_toward_one_with_shape():
    fracs = []
    for a in (0.2, 1.0, 5.0):
        field = gen_noise_field(400, 250, a, seed=4)
        fracs.append(float(np.mean(field.pixels > 0.5)))
    assert fracs[0] < fracs[1] < fracs[2]


# 5e-324 makes 1 / shape infinite; 1e300 makes it about 1e-300.
@pytest.mark.parametrize("a", [5e-324, 1e-300, 0.01, 0.2, 1 / 3, 1.0, 3.0, 1e300])
def test_power_field_matches_python_pow(a):
    # 97 x 61 = 5917 pixels: an odd count, which no even chunk size divides.
    want = [u ** (1.0 / a) for u in SplitMix64(8).floats(97 * 61).tolist()]
    # float ** rounds an underflow to 0 silently, as numpy does by default.
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        field = gen_noise_field(97, 61, a, seed=8)
    assert field.pixels.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("shape", [0.0, -1.0, float("nan"), float("inf")])
def test_power_mask_rejects_nonpositive_or_nonfinite_shape(shape):
    with pytest.raises(ValueError, match="shape"):
        PowerMask(shape=shape)


def test_field_determinism():
    a = gen_noise_field(64, 64, 1.0, seed=9)
    b = gen_noise_field(64, 64, 1.0, seed=9)
    assert np.array_equal(a.pixels, b.pixels)


def test_field_dimensions():
    field = gen_noise_field(300, 377, 1.0, seed=5)
    assert field.pixels.shape == (377, 300)
    assert field.pixels.size == 113_100


# --- blending ------------------------------------------------------------------


def test_blend_alpha_extremes_bit_identical():
    img = synthetic_portrait(32, 24)
    noise = gen_noise_field(32, 24, 1.0, seed=6)
    assert blend(img, noise, 0.0) is img
    assert blend(img, noise, 1.0) is noise


def test_blend_mean_linearity():
    img = synthetic_portrait(40, 40)
    noise = gen_noise_field(40, 40, 1.0, seed=7)
    alpha = 0.37
    out = blend(img, noise, alpha)
    m_img, _ = image_stats(img)
    m_noise, _ = image_stats(noise)
    m_out, _ = image_stats(out)
    assert abs(m_out - ((1 - alpha) * m_img + alpha * m_noise)) <= 1e-12


def test_blend_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        blend(flat_image(4, 4, 0.5), flat_image(5, 4, 0.5), 0.5)


@settings(max_examples=50)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32),
)
def test_blend_convexity_pixelwise(w, h, alpha, seed):
    img = gen_noise_field(w, h, 1.0, seed=seed)
    noise = gen_noise_field(w, h, 1.0, seed=seed + 1)
    out = blend(img, noise, alpha)
    lo = np.minimum(img.pixels, noise.pixels)
    hi = np.maximum(img.pixels, noise.pixels)
    assert np.all(out.pixels >= lo)
    assert np.all(out.pixels <= hi)


# --- schedules --------------------------------------------------------------------


def test_default_ladders():
    assert uniform_schedule().steps == tuple(PowerMask(1.0, a) for a in DEFAULT_UNIFORM_ALPHAS)
    assert [s.shape for s in power_schedule().steps] == list(DEFAULT_POWER_SHAPES)
    assert all(s.alpha == 0.75 for s in power_schedule().steps)


def test_schedule_zero_alpha_is_identity():
    img = synthetic_portrait(16, 16)
    outs = list(run_schedule(img, NoiseSchedule((PowerMask(1.0, 0.0),)), seed=8))
    assert len(outs) == 1
    assert np.array_equal(outs[0].pixels, img.pixels)


def test_schedule_all_zero_steps_identity_everywhere():
    img = synthetic_portrait(16, 16)
    sched = NoiseSchedule(tuple(PowerMask(1.0, 0.0) for _ in range(4)))
    for out in list(run_schedule(img, sched, seed=8)):
        assert np.array_equal(out.pixels, img.pixels)


def test_schedule_deterministic_and_independent_of_order():
    img = synthetic_portrait(24, 24)
    outs_a = list(run_schedule(img, uniform_schedule(), seed=10))
    outs_b = list(run_schedule(img, uniform_schedule(), seed=10))
    for a, b in zip(outs_a, outs_b):
        assert np.array_equal(a.pixels, b.pixels)


def test_schedule_noises_original_not_chain():
    # with identical specs at every step, independent mode draws fresh noise
    # per step but always blends the ORIGINAL image: expected distance from
    # the original is the same at each step
    img = flat_image(64, 64, 0.0)
    sched = NoiseSchedule(tuple(PowerMask(1.0, 0.5) for _ in range(3)))
    outs = list(run_schedule(img, sched, seed=11))
    means = [image_stats(o)[0] for o in outs]
    for m in means:
        assert abs(m - 0.25) < 0.01
    cum = list(run_schedule(img, sched, seed=11, cumulative=True))
    cum_means = [image_stats(o)[0] for o in cum]
    assert cum_means[0] < cum_means[1] < cum_means[2]


def test_empty_schedule_rejected():
    with pytest.raises(ValueError):
        NoiseSchedule(())


# --- stats ------------------------------------------------------------------------


def test_stats_trivial_images():
    mean, var = image_stats(flat_image(8, 8, 0.0))
    assert mean == 0.0 and var == 0.0
    mean, var = image_stats(flat_image(8, 8, 0.5))
    assert mean == 0.5 and var == 0.0


# --- PGM I/O -----------------------------------------------------------------------


def test_pgm_round_trip_binary(tmp_path):
    # an image already on the 8-bit grid survives write/read exactly
    quant = np.arange(256, dtype=float).reshape(16, 16) / 255.0
    img = GrayImage(width=16, height=16, pixels=quant)
    p = tmp_path / "img.pgm"
    p.write_bytes(pgm_bytes(img))
    back = read_pgm(p)
    assert back.width == 16 and back.height == 16
    assert np.array_equal(back.pixels, img.pixels)
    # write-read-write is byte stable
    assert pgm_bytes(back) == p.read_bytes()


def test_pgm_round_trip_ascii(tmp_path):
    # ASCII P2 is read, not written: the test writes the text itself.
    raw = np.rint(synthetic_portrait(12, 9).pixels * 255.0).astype(int)
    p = tmp_path / "img.pgm"
    p.write_text("P2\n12 9\n255\n" + "".join(" ".join(map(str, row)) + "\n" for row in raw),
                 encoding="ascii")
    back = read_pgm(p)
    assert np.allclose(back.pixels, raw / 255.0, atol=0)


def test_pgm_comment_header(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x7f\xff\x10")
    img = read_pgm(p)
    assert img.width == 2 and img.height == 2
    assert img.pixels[0, 1] == pytest.approx(127 / 255)


@pytest.mark.parametrize("data, result", [
    (b"P5# after the magic\n2 1 255\n\x00\xff", (2, 1)),
    (b"P5 2 1\n# runs to the end", "truncated PGM header"),
    (b"P5 2 1 255# no newline", "invalid literal for int() with base 10: b'255#'"),
    (b"P2 1#2 1 9", "invalid literal for int() with base 10: b'1#2'"),
    (b"P5\v2\f1\v255\f\x00\xff", (2, 1)),
    (b"P5\x852 1 255\n\x00\xff", "invalid literal for int() with base 10: b'\\x852'"),
], ids=["comment-after-magic", "comment-to-end", "hash-ending-a-token", "hash-inside-a-token",
        "vertical-tab-and-form-feed", "x85-is-a-token-byte"])
def test_pgm_header_tokens(tmp_path, data, result):
    # Header whitespace is ASCII whitespace; a comment starts where a token
    # would and runs to its newline.
    p = tmp_path / "h.pgm"
    p.write_bytes(data)
    if isinstance(result, str):
        with pytest.raises(ValueError) as err:
            read_pgm(p)
        assert str(err.value) == result
    else:
        img = read_pgm(p)
        assert (img.width, img.height) == result
        assert img.pixels.tolist() == [[0.0, 1.0]]


def test_pgm_rejects_garbage(tmp_path):
    p = tmp_path / "g.bin"
    p.write_bytes(b"JUNKJUNK")
    with pytest.raises(ValueError, match="magic"):
        read_pgm(p)


# --- misc ---------------------------------------------------------------------------


def test_image_validation():
    with pytest.raises(ValueError):
        GrayImage(width=2, height=2, pixels=np.array([[0.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        GrayImage(width=3, height=2, pixels=np.zeros((2, 2)))


def test_image_keeps_its_pixels_when_the_callers_array_changes():
    px = np.full((4, 6), 0.25)
    img = GrayImage(width=6, height=4, pixels=px)
    px[:] = 0.75
    base = np.full(48, 0.25)
    view = base[:24].reshape(4, 6)
    view.flags.writeable = False  # read-only, but its base is not
    from_view = GrayImage(width=6, height=4, pixels=view)
    base[:] = 0.75
    assert np.all(img.pixels == 0.25) and np.all(from_view.pixels == 0.25)
    assert not img.pixels.flags.writeable and not from_view.pixels.flags.writeable


def test_image_keeps_a_read_only_array_that_owns_its_memory():
    px = np.full((4, 6), 0.25)
    px.flags.writeable = False
    assert GrayImage(width=6, height=4, pixels=px).pixels is px

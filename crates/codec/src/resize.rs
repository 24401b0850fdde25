//! Image resampling.
//!
//! DLBooster's FPGA pipeline ends in a 2-way resizing unit (paper Fig. 4):
//! decoded frames are reshaped to the model input size (e.g. 256×256 before
//! the augmentation crop to 224×224) *on the device*, so the host only ever
//! sees fixed-size tensors. This module provides the same operation for the
//! functional pipeline and for the CPU baseline backend.

use crate::error::{CodecError, CodecResult};
use crate::pixel::{clamp_u8, Image};

/// Resampling filter selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResizeFilter {
    /// Nearest-neighbour: cheapest, used by the FPGA's low-area configuration.
    Nearest,
    /// Bilinear: the default, matching the paper's resizer unit.
    #[default]
    Bilinear,
    /// Box/area averaging: best for large downscales (offline conversion).
    Area,
}

/// Resizes `src` to `dst_w` × `dst_h` with the given filter.
pub fn resize(src: &Image, dst_w: u32, dst_h: u32, filter: ResizeFilter) -> CodecResult<Image> {
    if dst_w == 0 || dst_h == 0 || dst_w > Image::MAX_DIM || dst_h > Image::MAX_DIM {
        return Err(CodecError::UnsupportedDimensions {
            width: dst_w,
            height: dst_h,
        });
    }
    if dst_w == src.width() && dst_h == src.height() {
        return Ok(src.clone());
    }
    match filter {
        ResizeFilter::Nearest => Ok(resize_nearest(src, dst_w, dst_h)),
        ResizeFilter::Bilinear => Ok(resize_bilinear(src, dst_w, dst_h)),
        ResizeFilter::Area => Ok(resize_area(src, dst_w, dst_h)),
    }
}

fn resize_nearest(src: &Image, dst_w: u32, dst_h: u32) -> Image {
    let c = src.channels();
    let sw = src.width() as usize;
    let sh = src.height() as usize;
    let mut out = vec![0u8; dst_w as usize * dst_h as usize * c];
    let sdata = src.data();
    for dy in 0..dst_h as usize {
        let sy = (dy * sh / dst_h as usize).min(sh - 1);
        for dx in 0..dst_w as usize {
            let sx = (dx * sw / dst_w as usize).min(sw - 1);
            let s = (sy * sw + sx) * c;
            let d = (dy * dst_w as usize + dx) * c;
            out[d..d + c].copy_from_slice(&sdata[s..s + c]);
        }
    }
    Image::from_vec(dst_w, dst_h, src.color(), out).expect("dims validated")
}

/// Horizontal taps of the separable bilinear filter, one per output
/// element (`dst_w · c` of them), shared by the scalar and AVX2 row passes:
/// element `i` lerps source bytes `off0[i]` and `off1[i]` of a row
/// (`x0·c + ch` and `x1·c + ch`) with weight `wx[i]`.
struct XTaps {
    off0: Vec<i32>,
    off1: Vec<i32>,
    wx: Vec<f32>,
    /// Leading elements, a multiple of 8, whose 4-byte gathers at `off0`
    /// and `off1` all stay inside one source row. The AVX2 kernel runs
    /// these; the rest take the scalar loop.
    gather_len: usize,
}

impl XTaps {
    fn new(sw: usize, dst_w: usize, c: usize) -> XTaps {
        let x_scale = sw as f32 / dst_w as f32;
        let n = dst_w * c;
        let (mut off0, mut off1, mut wx) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        for dx in 0..dst_w {
            // Pixel-centre mapping: d+0.5 in dst ↔ (d+0.5)·scale in src.
            let fx = ((dx as f32 + 0.5) * x_scale - 0.5).max(0.0);
            let x0 = fx as usize;
            let x1 = (x0 + 1).min(sw - 1);
            for ch in 0..c {
                let off = |x: usize| i32::try_from(x * c + ch).expect("rows ≤ MAX_DIM·3 bytes");
                off0.push(off(x0));
                off1.push(off(x1));
                wx.push(fx - x0 as f32);
            }
        }
        let row_bytes = sw * c;
        let in_row = |i: usize| off0[i].max(off1[i]) as usize + 4 <= row_bytes;
        let gather_len = (0..n / 8)
            .take_while(|&k| (k * 8..k * 8 + 8).all(in_row))
            .count()
            * 8;
        XTaps {
            off0,
            off1,
            wx,
            gather_len,
        }
    }

    /// Horizontal lerp of one source row into f32: `p0 + (p1 − p0)·wx`
    /// per element — the same expression the per-pixel loop evaluates as
    /// `top`/`bot`, so the AVX2 and scalar paths agree bit for bit.
    fn lerp_row(&self, row: &[u8], out: &mut [f32]) {
        let mut start = 0;
        #[cfg(target_arch = "x86_64")]
        if crate::simd::simd_active() {
            let n = self.gather_len;
            // SAFETY: `simd_active` returns true only after runtime AVX2
            // detection succeeds; every offset below `gather_len` leaves a
            // 4-byte window inside `row` (checked in `XTaps::new`), and
            // all four slices hold `n` elements.
            unsafe {
                crate::simd::lerp_row_gather_avx2(
                    row,
                    &self.off0[..n],
                    &self.off1[..n],
                    &self.wx[..n],
                    &mut out[..n],
                )
            };
            start = n;
        }
        let taps = self.off0[start..].iter().zip(&self.off1[start..]);
        let taps = taps.zip(&self.wx[start..]);
        for (o, ((&i0, &i1), &wx)) in out[start..].iter_mut().zip(taps) {
            let p0 = row[i0 as usize] as f32;
            let p1 = row[i1 as usize] as f32;
            *o = p0 + (p1 - p0) * wx;
        }
    }
}

/// Vertical bilinear blend of two horizontally-lerped rows into u8 output.
/// Bit-exact between the AVX2 kernel and the scalar loop.
#[inline]
fn lerp_rows_to_u8(top: &[f32], bot: &[f32], wy: f32, out: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::simd_active() {
        // SAFETY: `simd_active` returns true only after runtime AVX2
        // detection succeeds; callers pass equal-length slices.
        unsafe { crate::simd::lerp_rows_to_u8_avx2(top, bot, wy, out) };
        return;
    }
    for ((o, &t), &b) in out.iter_mut().zip(top).zip(bot) {
        *o = clamp_u8(t + (b - t) * wy);
    }
}

fn resize_bilinear(src: &Image, dst_w: u32, dst_h: u32) -> Image {
    let c = src.channels();
    let sw = src.width() as usize;
    let sh = src.height() as usize;
    let sdata = src.data();
    let row_len = dst_w as usize * c;
    let mut out = vec![0u8; row_len * dst_h as usize];
    let y_scale = sh as f32 / dst_h as f32;
    let taps = XTaps::new(sw, dst_w as usize, c);
    let src_row = |y: usize| &sdata[y * sw * c..][..sw * c];
    // Two-slot row cache keyed by source-row parity: `y0` and `y1` differ
    // by at most one, so parity separates them, and because `y0` is
    // nondecreasing in `dy` an evicted row is never needed again. Upscales
    // lerp each source row once instead of once per output row.
    let mut row_even = vec![0f32; row_len];
    let mut row_odd = vec![0f32; row_len];
    let mut idx_even = usize::MAX;
    let mut idx_odd = usize::MAX;
    for dy in 0..dst_h as usize {
        let fy = ((dy as f32 + 0.5) * y_scale - 0.5).max(0.0);
        let y0 = fy as usize;
        let y1 = (y0 + 1).min(sh - 1);
        let wy = fy - y0 as f32;
        for y in [y0, y1] {
            let (buf, idx) = if y.is_multiple_of(2) {
                (&mut row_even, &mut idx_even)
            } else {
                (&mut row_odd, &mut idx_odd)
            };
            if *idx != y {
                taps.lerp_row(src_row(y), buf);
                *idx = y;
            }
        }
        let top = if y0.is_multiple_of(2) {
            &row_even
        } else {
            &row_odd
        };
        let bot = if y1.is_multiple_of(2) {
            &row_even
        } else {
            &row_odd
        };
        lerp_rows_to_u8(top, bot, wy, &mut out[dy * row_len..][..row_len]);
    }
    Image::from_vec(dst_w, dst_h, src.color(), out).expect("dims validated")
}

fn resize_area(src: &Image, dst_w: u32, dst_h: u32) -> Image {
    let c = src.channels();
    let sw = src.width() as usize;
    let sh = src.height() as usize;
    let sdata = src.data();
    let mut out = vec![0u8; dst_w as usize * dst_h as usize * c];
    for dy in 0..dst_h as usize {
        // Source row span covered by this destination row.
        let y_lo = dy * sh / dst_h as usize;
        let y_hi = (((dy + 1) * sh).div_ceil(dst_h as usize))
            .min(sh)
            .max(y_lo + 1);
        for dx in 0..dst_w as usize {
            let x_lo = dx * sw / dst_w as usize;
            let x_hi = (((dx + 1) * sw).div_ceil(dst_w as usize))
                .min(sw)
                .max(x_lo + 1);
            let d = (dy * dst_w as usize + dx) * c;
            for ch in 0..c {
                let mut acc = 0u32;
                let mut n = 0u32;
                for sy in y_lo..y_hi {
                    for sx in x_lo..x_hi {
                        acc += sdata[(sy * sw + sx) * c + ch] as u32;
                        n += 1;
                    }
                }
                out[d + ch] = ((acc + n / 2) / n) as u8;
            }
        }
    }
    Image::from_vec(dst_w, dst_h, src.color(), out).expect("dims validated")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::ColorSpace;

    fn solid(w: u32, h: u32, v: u8) -> Image {
        Image::from_vec(w, h, ColorSpace::Rgb, vec![v; (w * h * 3) as usize]).unwrap()
    }

    #[test]
    fn identity_resize_is_noop() {
        let img = solid(10, 10, 42);
        for f in [
            ResizeFilter::Nearest,
            ResizeFilter::Bilinear,
            ResizeFilter::Area,
        ] {
            let out = resize(&img, 10, 10, f).unwrap();
            assert_eq!(out.data(), img.data());
        }
    }

    #[test]
    fn constant_images_stay_constant() {
        let img = solid(37, 23, 99);
        for f in [
            ResizeFilter::Nearest,
            ResizeFilter::Bilinear,
            ResizeFilter::Area,
        ] {
            for (w, h) in [(10, 10), (64, 64), (5, 40)] {
                let out = resize(&img, w, h, f).unwrap();
                assert!(
                    out.data().iter().all(|&v| v == 99),
                    "{f:?} {w}x{h} broke constancy"
                );
            }
        }
    }

    #[test]
    fn upscale_dimensions() {
        let img = solid(8, 8, 1);
        let out = resize(&img, 32, 16, ResizeFilter::Bilinear).unwrap();
        assert_eq!(out.width(), 32);
        assert_eq!(out.height(), 16);
        assert_eq!(out.channels(), 3);
    }

    #[test]
    fn rejects_zero_target() {
        let img = solid(8, 8, 1);
        assert!(resize(&img, 0, 8, ResizeFilter::Nearest).is_err());
        assert!(resize(&img, 8, 0, ResizeFilter::Area).is_err());
    }

    #[test]
    fn bilinear_preserves_horizontal_gradient_monotonicity() {
        let mut img = Image::new(64, 4, ColorSpace::Gray).unwrap();
        for y in 0..4 {
            for x in 0..64 {
                img.set_pixel(x, y, [(x * 4) as u8, 0, 0]);
            }
        }
        let out = resize(&img, 16, 4, ResizeFilter::Bilinear).unwrap();
        for x in 1..16 {
            assert!(out.pixel(x, 0)[0] >= out.pixel(x - 1, 0)[0]);
        }
    }

    /// The original per-pixel bilinear loop, kept as the reference the
    /// row-based/SIMD implementation must match byte-for-byte.
    fn bilinear_reference(src: &Image, dst_w: u32, dst_h: u32) -> Vec<u8> {
        let c = src.channels();
        let sw = src.width() as usize;
        let sh = src.height() as usize;
        let sdata = src.data();
        let mut out = vec![0u8; dst_w as usize * dst_h as usize * c];
        let x_scale = sw as f32 / dst_w as f32;
        let y_scale = sh as f32 / dst_h as f32;
        for dy in 0..dst_h as usize {
            let fy = ((dy as f32 + 0.5) * y_scale - 0.5).max(0.0);
            let y0 = fy as usize;
            let y1 = (y0 + 1).min(sh - 1);
            let wy = fy - y0 as f32;
            for dx in 0..dst_w as usize {
                let fx = ((dx as f32 + 0.5) * x_scale - 0.5).max(0.0);
                let x0 = fx as usize;
                let x1 = (x0 + 1).min(sw - 1);
                let wx = fx - x0 as f32;
                let d = (dy * dst_w as usize + dx) * c;
                for ch in 0..c {
                    let p00 = sdata[(y0 * sw + x0) * c + ch] as f32;
                    let p01 = sdata[(y0 * sw + x1) * c + ch] as f32;
                    let p10 = sdata[(y1 * sw + x0) * c + ch] as f32;
                    let p11 = sdata[(y1 * sw + x1) * c + ch] as f32;
                    let top = p00 + (p01 - p00) * wx;
                    let bot = p10 + (p11 - p10) * wx;
                    out[d + ch] = clamp_u8(top + (bot - top) * wy);
                }
            }
        }
        out
    }

    #[test]
    fn bilinear_matches_per_pixel_reference() {
        let mut state = 0x1234_5678u32;
        let mut rng = || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 24) as u8
        };
        // (src, dst) pairs: small odd shapes, ILSVRC geometries, 1-pixel
        // wide/tall sources (the `x1`/`y1` clamp) and output rows whose
        // element count is not a multiple of 8.
        let mut cases: Vec<((u32, u32), (u32, u32))> = Vec::new();
        for (sw, sh) in [(17, 13), (32, 32), (5, 40)] {
            for (dw, dh) in [(8, 8), (40, 9), (64, 64), (sw, 2 * sh)] {
                cases.push(((sw, sh), (dw, dh)));
            }
        }
        cases.extend([
            ((500, 375), (224, 224)),
            ((585, 439), (224, 224)),
            ((1, 37), (7, 11)),
            ((1, 37), (1, 5)),
            ((41, 1), (13, 3)),
            ((41, 1), (97, 1)),
            ((1, 1), (9, 9)),
            ((300, 200), (131, 77)),
            ((64, 48), (250, 3)),
        ]);
        let _guard = crate::simd::TEST_MODE_LOCK.lock().unwrap();
        for color in [ColorSpace::Rgb, ColorSpace::Gray] {
            for &((sw, sh), (dw, dh)) in &cases {
                let n = (sw * sh) as usize * color.channels();
                let data: Vec<u8> = (0..n).map(|_| rng()).collect();
                let img = Image::from_vec(sw, sh, color, data).unwrap();
                let want = bilinear_reference(&img, dw, dh);
                for scalar in [true, false] {
                    crate::simd::force_scalar(scalar);
                    let got = resize(&img, dw, dh, ResizeFilter::Bilinear);
                    crate::simd::force_scalar(false);
                    assert_eq!(
                        got.unwrap().data(),
                        &want[..],
                        "{color:?} {sw}x{sh} -> {dw}x{dh}, forced scalar {scalar}"
                    );
                }
            }
        }
    }

    #[test]
    fn gather_prefix_stays_inside_the_row() {
        for (sw, dw, c) in [
            (585, 224, 3),
            (500, 224, 1),
            (3, 40, 3),
            (1, 16, 1),
            (9, 8, 1),
        ] {
            let taps = XTaps::new(sw, dw, c);
            assert_eq!(taps.gather_len % 8, 0);
            for i in 0..taps.gather_len {
                assert!(taps.off0[i].max(taps.off1[i]) as usize + 4 <= sw * c);
            }
            // Downscales keep all but the last few elements on the SIMD path.
            if sw >= 2 * dw {
                assert!(taps.gather_len + 16 >= dw * c, "{sw}->{dw} x{c}");
            }
        }
    }

    #[test]
    fn area_downscale_averages() {
        // 2x2 blocks of 0 and 200 average to 100.
        let mut img = Image::new(2, 2, ColorSpace::Gray).unwrap();
        img.set_pixel(0, 0, [0, 0, 0]);
        img.set_pixel(1, 0, [200, 0, 0]);
        img.set_pixel(0, 1, [200, 0, 0]);
        img.set_pixel(1, 1, [0, 0, 0]);
        let out = resize(&img, 1, 1, ResizeFilter::Area).unwrap();
        assert_eq!(out.pixel(0, 0)[0], 100);
    }

    #[test]
    fn gray_resize_keeps_colorspace() {
        let img = solid(12, 12, 5).to_gray();
        let out = resize(&img, 6, 6, ResizeFilter::Bilinear).unwrap();
        assert_eq!(out.color(), ColorSpace::Gray);
    }
}

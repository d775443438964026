//! 8-bit images and deterministic synthetic scenes.
//!
//! The paper's sensors buffer image frames; since the original test images
//! are not distributed, we generate deterministic synthetic scenes with the
//! structure the kernels care about: smooth gradients (sobel responds to
//! edges), sharp shapes (corners for SUSAN), and band-limited texture
//! (median/integral behaviour under noise).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// An 8-bit grayscale image.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Image {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Image {
    /// Creates a black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Image {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    /// Builds an image from a per-pixel function (values clamped to 0–255).
    pub fn from_fn<F: FnMut(usize, usize) -> i32>(width: usize, height: usize, mut f: F) -> Self {
        let mut img = Image::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.data[y * width + x] = f(x, y).clamp(0, 255) as u8;
            }
        }
        img
    }

    /// Builds an image from raw words, clamping each to 0–255.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != width * height`.
    pub fn from_words(width: usize, height: usize, words: &[i32]) -> Self {
        assert_eq!(words.len(), width * height, "word count mismatch");
        Image {
            width,
            height,
            data: words.iter().map(|&w| w.clamp(0, 255) as u8).collect(),
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x]
    }

    /// Sets pixel `(x, y)`.
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x] = v;
    }

    /// Raw pixel slice, row-major.
    pub fn pixels(&self) -> &[u8] {
        &self.data
    }

    /// Converts to data-memory words.
    pub fn to_words(&self) -> Vec<i32> {
        self.data.iter().map(|&p| p as i32).collect()
    }

    /// Writes the image as a binary PGM (P5) file — the format used to
    /// inspect the visual figures (11, 13, 17, 26).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_pgm(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        write!(f, "P5\n{} {}\n255\n", self.width, self.height)?;
        f.write_all(&self.data)
    }

    /// Reads a binary PGM (P5) file written by [`Image::write_pgm`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for malformed headers or truncated payloads.
    pub fn read_pgm(path: &std::path::Path) -> std::io::Result<Image> {
        use std::io::{Error, ErrorKind};
        let bytes = std::fs::read(path)?;
        let bad = |m: &str| Error::new(ErrorKind::InvalidData, m.to_string());
        // Header: "P5\n<w> <h>\n255\n" with flexible whitespace.
        let mut fields = Vec::new();
        let mut pos = 0;
        while fields.len() < 4 && pos < bytes.len() {
            while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            let start = pos;
            while pos < bytes.len() && !bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            fields.push(&bytes[start..pos]);
        }
        if fields.len() < 4 || fields[0] != b"P5" {
            return Err(bad("not a binary PGM"));
        }
        let parse = |b: &[u8]| -> std::io::Result<usize> {
            std::str::from_utf8(b)
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("bad PGM header field"))
        };
        let (w, h, maxv) = (parse(fields[1])?, parse(fields[2])?, parse(fields[3])?);
        if maxv != 255 || w == 0 || h == 0 {
            return Err(bad("unsupported PGM parameters"));
        }
        pos += 1; // single whitespace after maxval
        let data = bytes
            .get(pos..pos + w * h)
            .ok_or_else(|| bad("truncated PGM payload"))?;
        Ok(Image {
            width: w,
            height: h,
            data: data.to_vec(),
        })
    }

    // --- synthetic scenes ------------------------------------------------

    /// Diagonal gradient scene.
    pub fn gradient(width: usize, height: usize) -> Self {
        Image::from_fn(width, height, |x, y| {
            ((x * 255) / width.max(1)) as i32 / 2 + ((y * 255) / height.max(1)) as i32 / 2
        })
    }

    /// Checkerboard with the given cell size (sharp edges and corners).
    pub fn checkerboard(width: usize, height: usize, cell: usize) -> Self {
        assert!(cell > 0, "cell size must be positive");
        Image::from_fn(width, height, |x, y| {
            if ((x / cell) + (y / cell)).is_multiple_of(2) {
                220
            } else {
                35
            }
        })
    }

    /// Soft blobs on a dark background (bright circular features).
    pub fn blobs(width: usize, height: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 3 + (rng.gen::<u64>() % 4) as usize;
        let centers: Vec<(f64, f64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.gen::<f64>() * width as f64,
                    rng.gen::<f64>() * height as f64,
                    2.0 + rng.gen::<f64>() * (width.min(height) as f64 / 4.0),
                )
            })
            .collect();
        Image::from_fn(width, height, |x, y| {
            let mut v = 20.0;
            for &(cx, cy, r) in &centers {
                let d2 = (x as f64 - cx).powi(2) + (y as f64 - cy).powi(2);
                v += 235.0 * (-d2 / (2.0 * r * r)).exp();
            }
            v as i32
        })
    }

    /// Band-limited value-noise texture (a natural-image stand-in).
    pub fn texture(width: usize, height: usize, seed: u64) -> Self {
        // Low-resolution random lattice, bilinearly interpolated, two
        // octaves.
        let cell = 6.max(width.min(height) / 8);
        let gw = width / cell + 2;
        let gh = height / cell + 2;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA57);
        let lattice: Vec<f64> = (0..gw * gh).map(|_| rng.gen::<f64>()).collect();
        let sample = |fx: f64, fy: f64| -> f64 {
            let x0 = fx.floor() as usize;
            let y0 = fy.floor() as usize;
            let tx = fx - x0 as f64;
            let ty = fy - y0 as f64;
            let at = |x: usize, y: usize| lattice[(y.min(gh - 1)) * gw + x.min(gw - 1)];
            let a = at(x0, y0) * (1.0 - tx) + at(x0 + 1, y0) * tx;
            let b = at(x0, y0 + 1) * (1.0 - tx) + at(x0 + 1, y0 + 1) * tx;
            a * (1.0 - ty) + b * ty
        };
        Image::from_fn(width, height, |x, y| {
            let fx = x as f64 / cell as f64;
            let fy = y as f64 / cell as f64;
            let v = 0.7 * sample(fx, fy) + 0.3 * sample(fx * 2.0, fy * 2.0);
            (30.0 + v * 200.0) as i32
        })
    }

    /// A shifted copy of this image (used as the motion-estimation
    /// reference frame), shifting by `(dx, dy)` with edge clamping.
    pub fn shifted(&self, dx: i32, dy: i32) -> Image {
        Image::from_fn(self.width, self.height, |x, y| {
            let sx = (x as i32 - dx).clamp(0, self.width as i32 - 1) as usize;
            let sy = (y as i32 - dy).clamp(0, self.height as i32 - 1) as usize;
            self.get(sx, sy) as i32
        })
    }
}

/// A planar 8-bit RGB image (three full planes, R then G then B), the input
/// format of the `tiff2bw` / `tiff2rgba` kernels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RgbImage {
    /// Red plane.
    pub r: Image,
    /// Green plane.
    pub g: Image,
    /// Blue plane.
    pub b: Image,
}

impl RgbImage {
    /// Deterministic synthetic color scene.
    pub fn synthetic(width: usize, height: usize, seed: u64) -> Self {
        RgbImage {
            r: Image::texture(width, height, seed),
            g: Image::gradient(width, height),
            b: Image::blobs(width, height, seed ^ 0xB10B),
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.r.width()
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.r.height()
    }

    /// Planar word layout: R plane, then G, then B.
    pub fn to_words(&self) -> Vec<i32> {
        let mut w = self.r.to_words();
        w.extend(self.g.to_words());
        w.extend(self.b.to_words());
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_clamps() {
        let img = Image::from_fn(2, 2, |x, _| if x == 0 { -50 } else { 300 });
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(1, 0), 255);
    }

    #[test]
    fn words_roundtrip() {
        let img = Image::texture(8, 8, 3);
        let w = img.to_words();
        let back = Image::from_words(8, 8, &w);
        assert_eq!(img, back);
    }

    #[test]
    fn scenes_are_deterministic() {
        assert_eq!(Image::texture(16, 16, 7), Image::texture(16, 16, 7));
        assert_eq!(Image::blobs(16, 16, 7), Image::blobs(16, 16, 7));
        assert_ne!(Image::texture(16, 16, 7), Image::texture(16, 16, 8));
    }

    #[test]
    fn checkerboard_alternates() {
        let img = Image::checkerboard(8, 8, 2);
        assert_eq!(img.get(0, 0), 220);
        assert_eq!(img.get(2, 0), 35);
        assert_eq!(img.get(2, 2), 220);
    }

    #[test]
    fn scenes_have_dynamic_range() {
        for img in [
            Image::gradient(32, 32),
            Image::texture(32, 32, 1),
            Image::blobs(32, 32, 1),
        ] {
            let min = *img.pixels().iter().min().unwrap();
            let max = *img.pixels().iter().max().unwrap();
            assert!(max - min > 60, "flat scene: {min}..{max}");
        }
    }

    #[test]
    fn shifted_moves_content() {
        let img = Image::checkerboard(8, 8, 4);
        let sh = img.shifted(2, 0);
        assert_eq!(sh.get(2, 0), img.get(0, 0));
        assert_eq!(sh.get(7, 7), img.get(5, 7));
    }

    #[test]
    fn frame_sequence_distinct_frames() {
        // Multi-frame inputs are textures whose seed advances per frame.
        let seq: Vec<Image> = (9..12).map(|s| Image::texture(16, 16, s)).collect();
        assert_ne!(seq[0], seq[1]);
        assert_ne!(seq[1], seq[2]);
    }

    #[test]
    fn rgb_planar_layout() {
        let rgb = RgbImage::synthetic(4, 4, 1);
        let w = rgb.to_words();
        assert_eq!(w.len(), 48);
        assert_eq!(w[0], rgb.r.get(0, 0) as i32);
        assert_eq!(w[16], rgb.g.get(0, 0) as i32);
        assert_eq!(w[32], rgb.b.get(0, 0) as i32);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_get_panics() {
        Image::new(4, 4).get(4, 0);
    }

    #[test]
    fn pgm_roundtrip() {
        let dir = std::env::temp_dir().join("nvp_kernels_pgm_test");
        let path = dir.join("t.pgm");
        let img = Image::texture(9, 7, 12);
        img.write_pgm(&path).unwrap();
        let back = Image::read_pgm(&path).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn pgm_rejects_garbage() {
        let dir = std::env::temp_dir().join("nvp_kernels_pgm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.pgm");
        std::fs::write(&path, b"P6\n2 2\n255\n....").unwrap();
        assert!(Image::read_pgm(&path).is_err());
        std::fs::write(&path, b"P5\n9 9\n255\nxx").unwrap();
        assert!(Image::read_pgm(&path).is_err(), "truncated payload");
    }
}

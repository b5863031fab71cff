//! Offline stand-in for `rand` 0.8: `StdRng` (xoshiro256**), `thread_rng`,
//! and the two `Rng` helpers this repo calls (`gen_range`, `gen_bool`). Streams differ from the real
//! crate's; nothing in the product depends on particular values.

use std::ops::Range;

pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `gen_range` can draw uniformly from a half-open range.
pub trait SampleRange: Sized {
    fn sample<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
                assert!(range.start < range.end, "cannot sample empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                // Widening multiply maps 64 random bits onto the span.
                let pick = (u128::from(rng.next_u64()) * span) >> 64;
                (range.start as i128 + pick as i128) as $t
            }
        }
    )*};
}

int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleRange for f64 {
    fn sample<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
        assert!(range.start < range.end, "cannot sample empty range");
        range.start + (range.end - range.start) * unit_f64(rng)
    }
}

pub trait Rng: RngCore {
    fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample(range, self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256**, seeded through splitmix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^ (x >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }

    /// Handle to a lazily seeded per-thread generator.
    #[derive(Debug, Clone, Copy)]
    pub struct ThreadRng;

    impl RngCore for ThreadRng {
        fn next_u64(&mut self) -> u64 {
            super::THREAD_RNG.with(|rng| rng.borrow_mut().next_u64())
        }
    }
}

thread_local! {
    static THREAD_RNG: std::cell::RefCell<rngs::StdRng> = {
        use std::hash::{BuildHasher, Hasher};
        // `RandomState` carries per-process OS entropy; the thread id and
        // the clock separate threads and runs.
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u128(
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0),
        );
        std::hash::Hash::hash(&std::thread::current().id(), &mut h);
        std::cell::RefCell::new(SeedableRng::seed_from_u64(h.finish()))
    };
}

pub fn thread_rng() -> rngs::ThreadRng {
    rngs::ThreadRng
}

//! Seeded property runner shared by the `prop_*` integration tests.
//!
//! [`check`] draws `cases` inputs from a [`Gen`] and runs the property
//! on each one. A property's seed is derived from its name, so every
//! run draws the same cases and a failure reproduces on a plain rerun.
//! There is no shrinking: on failure the runner prints the property
//! name, the case index and the generated input, then re-raises the
//! panic.
//!
//! [`Gen::mutate`] is a seeded byte mutator for adversarial-input
//! properties: it damages a valid encoding the way media rot, torn
//! writes and hostile files do.
//!
//! [`drains`] holds the one-record-per-drain checks the golden
//! sessions and the fault matrix run over a finished session.
//!
//! [`oracle`] holds the per-bucket epoch walk that production
//! resolution is checked against.

#![allow(dead_code)]

pub mod drains;
pub mod oracle;

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use viprof_repro::sim_os::SplitMix64;

/// Run `prop` on `cases` inputs drawn by `gen`.
pub fn check<T: Clone + Debug>(
    name: &str,
    cases: u32,
    gen: impl Fn(&mut Gen) -> T,
    prop: impl Fn(T),
) {
    // FNV-1a over the name: a fixed, distinct seed per property.
    let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    for case in 0..cases {
        let mut g = Gen(SplitMix64::new(
            seed ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
        let input = gen(&mut g);
        let shown = input.clone();
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| prop(input))) {
            eprintln!("property `{name}` failed on case {case} of {cases}; input:\n{shown:#?}");
            resume_unwind(panic);
        }
    }
}

/// Source of one case's random input.
pub struct Gen(SplitMix64);

impl Gen {
    pub fn u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Any `i64`, uniformly.
    pub fn i64(&mut self) -> i64 {
        self.0.next_u64() as i64
    }

    pub fn bool(&mut self) -> bool {
        self.0.next_u64() & 1 == 1
    }

    /// Uniform in the half-open range; panics if it is empty.
    pub fn range<R: Draw>(&mut self, r: R) -> R::Out {
        r.draw(&mut self.0)
    }

    /// A vector whose length is drawn from `len`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// `Some` or `None` with equal odds.
    pub fn option<T>(&mut self, item: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        self.bool().then(|| item(self))
    }

    /// A copy of `input` with one to four random mutations: bit flips,
    /// bytes and little-endian words set to boundary values, random
    /// bytes, truncation, deleted, inserted and duplicated ranges. Half
    /// of the positions fall in the first 64 bytes, where headers live.
    pub fn mutate(&mut self, input: &[u8]) -> Vec<u8> {
        const BYTES: [u8; 8] = [0, 1, 2, 3, 4, 5, 0x7F, 0xFF];
        const WORDS: [u64; 6] = [0, 1, 2, 4, u32::MAX as u64, u64::MAX];
        let mut out = input.to_vec();
        for _ in 0..self.range(1u32..5) {
            let pos = self.position(out.len());
            match self.range(0u32..8) {
                0 if pos < out.len() => out[pos] ^= 1 << self.range(0u32..8),
                1 if pos < out.len() => out[pos] = BYTES[self.range(0..BYTES.len())],
                2 if pos < out.len() => out[pos] = self.u64() as u8,
                3 => {
                    let word = WORDS[self.range(0..WORDS.len())].to_le_bytes();
                    let width = if self.bool() { 4 } else { 8 };
                    let end = (pos + width).min(out.len());
                    out[pos..end].copy_from_slice(&word[..end - pos]);
                }
                4 => out.truncate(pos),
                5 => {
                    let end = (pos + self.range(1usize..64)).min(out.len());
                    out.drain(pos..end);
                }
                6 => {
                    let n = self.range(1usize..64);
                    let junk: Vec<u8> = (0..n).map(|_| self.u64() as u8).collect();
                    out.splice(pos..pos, junk);
                }
                7 => {
                    let end = (pos + self.range(1usize..128)).min(out.len());
                    let copy = out[pos..end].to_vec();
                    let at = self.position(out.len());
                    out.splice(at..at, copy);
                }
                _ => out.push(self.u64() as u8),
            }
        }
        out
    }

    /// A position in `0..=len`, biased toward the first 64 bytes.
    fn position(&mut self, len: usize) -> usize {
        let hi = if self.bool() { len.min(64) } else { len };
        self.range(0..hi + 1)
    }
}

/// A range [`Gen::range`] can draw from.
pub trait Draw {
    type Out;
    fn draw(self, rng: &mut SplitMix64) -> Self::Out;
}

macro_rules! draw_unsigned {
    ($($t:ty),*) => {$(
        impl Draw for Range<$t> {
            type Out = $t;
            fn draw(self, rng: &mut SplitMix64) -> $t {
                rng.range_u64(self.start as u64, self.end as u64) as $t
            }
        }
    )*};
}
draw_unsigned!(u8, u16, u32, u64, usize);

impl Draw for Range<i64> {
    type Out = i64;
    fn draw(self, rng: &mut SplitMix64) -> i64 {
        assert!(self.start < self.end, "empty range {self:?}");
        let span = self.end.wrapping_sub(self.start) as u64;
        self.start.wrapping_add((rng.next_u64() % span) as i64)
    }
}

impl Draw for Range<f64> {
    type Out = f64;
    fn draw(self, rng: &mut SplitMix64) -> f64 {
        assert!(self.start < self.end, "empty range {self:?}");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Draw for RangeInclusive<f64> {
    type Out = f64;
    fn draw(self, rng: &mut SplitMix64) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty range {lo}..={hi}");
        // 53 random bits over [0, 1], both ends reachable.
        let unit = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
        lo + unit * (hi - lo)
    }
}

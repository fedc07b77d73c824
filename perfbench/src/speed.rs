//! CPU speed probes. The virtual machines this runs on share their host
//! with other tenants, and for seconds at a time the client and server
//! run 1.5–2.5× slower — all of their work, not a few stalls, so no
//! quantile over a run's samples removes it when a whole run falls in a
//! slow stretch. A probe times a fixed kernel on the CPU the client and
//! server are pinned to, while both are idle, between segments of the
//! measured commands; each segment's times are then divided by the mean
//! slowdown of the probes around it, which reports every time figure at
//! the reference speed.
//!
//! The kernel has three parts: integer arithmetic in independent lanes,
//! a 4 MiB streaming read, and round trips over a Unix socket pair. Each
//! part's slowdown is its time over its reference time; a workload's
//! slowdown is modelled as their product, each raised to the workload's
//! exponent ([`exponents`]). The exponents are least-squares fits of
//! log(segment time ÷ that segment's median) on the parts' log slowdowns,
//! over sixteen 10 s runs of each session workload in a noisy stretch.
//! On those runs they cut the segments' spread from 0.18–0.23 to
//! 0.07–0.10 (standard deviation of the log), and the spread between
//! runs of the time figures (interquartile range over median) from
//! 0.08–0.36 to 0.02–0.16.

use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// Reference time of each part at full speed on the 2-vCPU Xeon virtual
/// machine the benchmark was sized on, µs: arithmetic, streaming read,
/// socket round trips. Figures are reported at this speed.
pub const REFERENCE_US: [f64; 3] = [37.0, 155.0, 35.0];

/// The exponents of the parts' slowdowns in `workload`'s. `paper-grid`,
/// whose slices run in worker processes the fit could not see, takes the
/// rounded mean of the others.
pub fn exponents(workload: &str) -> [f64; 3] {
    match workload {
        "bulk-ingest" => [0.2, 0.15, 0.6],
        "adaptive-game" => [0.45, 0.2, 0.35],
        "turnstile-churn" => [0.4, 0.2, 0.6],
        _ => [0.35, 0.2, 0.5],
    }
}

/// Kernel passes per probe; each part counts with its fastest pass,
/// which drops passes an interrupt landed in.
const PASSES: usize = 3;

/// Steps of the arithmetic part.
const STEPS: usize = 12_000;

/// Words the streaming part reads: 4 MiB.
const WORDS: usize = 1 << 19;

/// Socket round trips of one pass, and their message size.
const ROUND_TRIPS: usize = 40;
const MESSAGE: usize = 64;

/// A reusable probe: its buffer and socket pair stay allocated between
/// probes.
pub struct Probe {
    exponents: [f64; 3],
    words: Vec<u64>,
    pair: (UnixStream, UnixStream),
}

fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

impl Probe {
    /// A probe that raises its parts' slowdowns to `exponents` (see
    /// [`exponents`]).
    ///
    /// # Errors
    /// The socket pair cannot be created.
    pub fn new(exponents: [f64; 3]) -> Result<Self, String> {
        let pair = UnixStream::pair().map_err(|e| format!("probe socket pair: {e}"))?;
        let mut probe = Self { exponents, words: (0..WORDS as u64).collect(), pair };
        probe.pass_us()?;
        Ok(probe)
    }

    /// One pass: the time of each part, µs.
    fn pass_us(&mut self) -> Result<[f64; 3], String> {
        let t = Instant::now();
        let mut lanes: [u64; 8] = black_box([1, 2, 3, 4, 5, 6, 7, 8]);
        for _ in 0..STEPS {
            for v in &mut lanes {
                *v = v.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ (*v >> 3);
            }
        }
        black_box(lanes);
        let arithmetic = since(t);

        let t = Instant::now();
        black_box(black_box(&self.words).iter().fold(0_u64, |s, &w| s.wrapping_add(w)));
        let streaming = since(t);

        let (a, b) = &mut self.pair;
        let mut buf = [0_u8; MESSAGE];
        let t = Instant::now();
        for _ in 0..ROUND_TRIPS {
            a.write_all(&[7; MESSAGE]).map_err(|e| format!("probe send: {e}"))?;
            b.read_exact(&mut buf).map_err(|e| format!("probe recv: {e}"))?;
        }
        Ok([arithmetic, streaming, since(t)])
    }

    /// How much slower than the reference the calling thread's CPU runs
    /// now: about 1 at full speed.
    ///
    /// # Errors
    /// A socket error on the probe's own pair.
    pub fn slowdown(&mut self) -> Result<f64, String> {
        let mut best = [f64::INFINITY; 3];
        for _ in 0..PASSES {
            for (b, t) in best.iter_mut().zip(self.pass_us()?) {
                *b = b.min(t);
            }
        }
        Ok((0..3).map(|i| (best[i] / REFERENCE_US[i]).powf(self.exponents[i])).product())
    }
}

/// The factor that scales a time measured between probes that read
/// slowdowns `before` and `after` to the reference speed.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdowns_are_positive_and_scale_inverts_them() {
        let mut p = Probe::new(exponents("bulk-ingest")).unwrap();
        let s = p.slowdown().unwrap();
        assert!(s > 0.0 && s.is_finite());
        assert_eq!(scale(1.0, 1.0), 1.0);
        assert_eq!(scale(2.0, 2.0), 0.5);
    }
}

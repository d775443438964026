//! Approximate persistence of `incidental` data with per-bit retention
//! (Section 3.2).
//!
//! The data memory *is* the NVM, so `incidental`-marked data is not copied
//! at backup time: it was written under a [`RetentionPolicy`], and bits
//! written with short retention may decay while power is out. On restore,
//! each expired bit is counted as a *retention failure* (Figure 22) and its
//! stored value is re-sampled uniformly (a decayed MTJ settles in an
//! arbitrary state).

use crate::retention::{RetentionPolicy, WORD_BITS};
use crate::versioned::VersionedMemory;
use nvp_power::Ticks;
use nvp_trace::{emit, Event, Tracer};
use rand::rngs::SmallRng;
use rand::Rng;

/// Decays versions `versions` of words `start..end` after an outage: every
/// bit of the 8-bit data domain whose policy retention is shorter than
/// `outage` counts as a retention failure and is re-sampled uniformly.
/// Returns failures by bit position (0 = LSB) and emits one
/// `retention_decay` event per bit position that failed (with `tick` as the
/// restore tick the decay was observed at). Precision tags are unchanged.
#[allow(clippy::too_many_arguments)]
pub fn decay_region_traced(
    mem: &mut VersionedMemory,
    start: usize,
    end: usize,
    versions: &[usize],
    policy: RetentionPolicy,
    outage: Ticks,
    rng: &mut SmallRng,
    tick: u64,
    tracer: &mut dyn Tracer,
) -> [u64; 8] {
    let mut failures = [0u64; 8];
    let mut expired_mask = 0i32;
    for b in 1..=WORD_BITS {
        if policy.retention_ticks(b) < outage {
            expired_mask |= 1 << (b - 1);
        }
    }
    if expired_mask == 0 {
        return failures;
    }
    for addr in start..end {
        for &v in versions {
            let old = mem.read(addr, v);
            let prec = mem.precision(addr, v);
            let mut val = old;
            for b in 0..8 {
                if expired_mask & (1 << b) != 0 {
                    failures[b as usize] += 1;
                    let bit = i32::from(rng.gen::<bool>()) << b;
                    val = (val & !(1 << b)) | bit;
                }
            }
            if val != old {
                mem.write(addr, v, val, prec);
            }
        }
    }
    for (b, &n) in failures.iter().enumerate() {
        if n > 0 {
            emit(tracer, || Event::RetentionDecay {
                tick,
                bit: b as u8,
                failures: n,
            });
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_trace::NoopTracer;
    use rand::SeedableRng;

    /// Fills version 0 of a `words`-word memory with `value` at precision
    /// 8, decays it all, and returns the memory and failures by bit.
    fn decay(
        value: i32,
        words: usize,
        policy: RetentionPolicy,
        outage: Ticks,
        seed: u64,
    ) -> (VersionedMemory, [u64; 8]) {
        let mut mem = VersionedMemory::new(words);
        for a in 0..words {
            mem.write(a, 0, value, 8);
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let fails = decay_region_traced(
            &mut mem,
            0,
            words,
            &[0],
            policy,
            outage,
            &mut rng,
            0,
            &mut NoopTracer,
        );
        (mem, fails)
    }

    fn version0(mem: &VersionedMemory) -> Vec<i32> {
        (0..mem.len()).map(|a| mem.read(a, 0)).collect()
    }

    #[test]
    fn full_retention_never_decays() {
        let (mem, fails) = decay(
            0x5A,
            3,
            RetentionPolicy::FullRetention,
            Ticks::from_seconds(100.0),
            1,
        );
        assert_eq!(version0(&mem), vec![0x5A; 3]);
        assert_eq!(fails, [0; 8]);
    }

    #[test]
    fn short_outage_no_failures_under_linear() {
        // Linear LSB retention = 1 tick; an outage of exactly 1 tick is
        // covered (retention >= outage).
        let (mem, fails) = decay(0xA5, 1, RetentionPolicy::Linear, Ticks(1), 2);
        assert_eq!(fails, [0; 8]);
        assert_eq!(version0(&mem), vec![0xA5]);
    }

    #[test]
    fn long_outage_decays_low_bits_only() {
        // 1000-tick outage: linear retention covers bits with
        // 427B-426 >= 1000, i.e. B >= 3.34 → bits 4..8 safe, bits 1..3 decay.
        let (mem, fails) = decay(0xFF, 64, RetentionPolicy::Linear, Ticks(1000), 3);
        assert_eq!(fails, [64, 64, 64, 0, 0, 0, 0, 0]);
        // MSB nibble of every word intact.
        let words = version0(&mem);
        for w in &words {
            assert_eq!(w & 0xF8, 0xF8);
        }
        // About half the expired bits flip.
        let flipped: u32 = words.iter().map(|w| (w ^ 0xFF).count_ones()).sum();
        assert!(flipped > 40 && flipped < 160, "{flipped} flips");
    }

    #[test]
    fn log_policy_fails_more_than_parabola() {
        // Mid-length outage: log's mid bits expire, parabola's survive.
        let total = |p| decay(0x3C, 32, p, Ticks(1500), 5).1.iter().sum::<u64>();
        let (log, parabola) = (
            total(RetentionPolicy::Log),
            total(RetentionPolicy::Parabola),
        );
        assert!(log > parabola, "log {log} !> parabola {parabola}");
    }

    #[test]
    fn restore_is_seeded_deterministic() {
        let run = |seed| version0(&decay(0x77, 16, RetentionPolicy::Linear, Ticks(2500), seed).0);
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn decay_region_traced_emits_per_failed_bit() {
        use nvp_trace::VecSink;
        let run = |tracer: &mut dyn Tracer| {
            let mut mem = VersionedMemory::new(16);
            for a in 0..16 {
                mem.write(a, 0, 0xFF, 8);
            }
            let mut rng = SmallRng::seed_from_u64(11);
            decay_region_traced(
                &mut mem,
                0,
                16,
                &[0],
                RetentionPolicy::Linear,
                Ticks(1000),
                &mut rng,
                77,
                tracer,
            )
        };
        let mut sink = VecSink::new();
        let fails = run(&mut sink);
        // A 1000-tick outage under Linear expires bits 0..2 (427·B − 426 <
        // 1000 for B ≤ 3): one event per failed bit, carrying the restore
        // tick and the region's failure count.
        let failed_bits: Vec<u8> = (0..8u8).filter(|&b| fails[b as usize] > 0).collect();
        assert_eq!(failed_bits, vec![0, 1, 2]);
        assert_eq!(sink.events.len(), 3);
        for (ev, &b) in sink.events.iter().zip(&failed_bits) {
            match ev {
                Event::RetentionDecay {
                    tick,
                    bit,
                    failures,
                } => {
                    assert_eq!(*tick, 77);
                    assert_eq!(*bit, b);
                    assert_eq!(*failures, fails[b as usize]);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        // Same RNG consumption with and without a listening tracer.
        let silent = run(&mut NoopTracer);
        assert_eq!(silent, fails);
    }
}

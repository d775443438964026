//! Property-based tests over the core data structures and invariants,
//! spanning crates.

use nvp_isa::{alu_approximate, mem_truncate, ApproxConfig, Reg, RegFile};
use nvp_kernels::quality::{mse, psnr};
use nvp_kernels::KernelId;
use nvp_nvm::backup::decay_region_traced;
use nvp_nvm::{MergeMode, RetentionPolicy, VersionedMemory, NUM_VERSIONS};
use nvp_power::outage::{OutageStats, OPERATING_THRESHOLD};
use nvp_power::synth::{SynthParams, TraceSynthesizer};
use nvp_power::{Energy, Power, PowerProfile, Ticks};
use proptest::prelude::*;

proptest! {
    /// Truncation is idempotent and never increases the 8-bit value.
    #[test]
    fn mem_truncate_idempotent(v in -100_000i32..100_000, bits in 1u8..=8) {
        let once = mem_truncate(v, bits);
        prop_assert_eq!(once, mem_truncate(once, bits));
        prop_assert!(once <= v);
        prop_assert!(v - once < 256);
    }

    /// The gradient-VDD ALU error is bounded by half the junk mask.
    #[test]
    fn alu_error_bounded(v in -100_000i32..100_000, bits in 1u8..=8, noise: u32) {
        let out = alu_approximate(v, bits, noise);
        let mask = ((1i64 << (8 - bits)) - 1) as i32;
        prop_assert!((out - v).abs() <= mask / 2 + 1);
    }

    /// Retention times are monotone in bit significance for every policy.
    #[test]
    fn retention_monotone(b in 1u8..8) {
        for p in RetentionPolicy::SHAPED {
            prop_assert!(p.retention_ticks(b) <= p.retention_ticks(b + 1));
        }
    }

    /// Retention decay after an outage — the path `SystemSim` runs on
    /// restore — never flips a bit whose retention covers the outage, for
    /// any shaped policy, outage, seed, region and set of versions. It
    /// touches nothing outside the listed versions of `[start, end)`, keeps
    /// every precision tag, and counts each expired bit once per decayed
    /// word-version.
    #[test]
    fn covered_bits_survive(
        words in proptest::collection::vec(any::<i32>(), 4..64),
        tags in proptest::collection::vec(0u8..=8, 4..64),
        a in 0usize..64,
        b in 0usize..64,
        version_mask in 0u8..16,
        outage in 0u64..5000,
        seed: u64,
    ) {
        let len = words.len();
        let start = a % (len + 1);
        let end = start + b % (len + 1 - start);
        let versions: Vec<usize> = (0..NUM_VERSIONS).filter(|v| version_mask & (1 << v) != 0).collect();
        let mut mem = VersionedMemory::new(len);
        for addr in 0..len {
            for v in 0..NUM_VERSIONS {
                mem.write(addr, v, words[(addr + v) % len], tags[(addr + v) % tags.len()]);
            }
        }
        let before = mem.clone();
        for policy in RetentionPolicy::SHAPED {
            let mut mem = before.clone();
            let mut rng = rand::SeedableRng::seed_from_u64(seed);
            let fails = decay_region_traced(
                &mut mem,
                start,
                end,
                &versions,
                policy,
                Ticks(outage),
                &mut rng,
                0,
                &mut nvp_trace::NoopTracer,
            );
            let mut expired = 0i32;
            for bit in 1..=8u8 {
                if policy.retention_ticks(bit) < Ticks(outage) {
                    expired |= 1 << (bit - 1);
                }
            }
            for addr in 0..len {
                for v in 0..NUM_VERSIONS {
                    let decayed = (start..end).contains(&addr) && versions.contains(&v);
                    let may_flip = if decayed { expired } else { 0 };
                    let (old, new) = (before.read(addr, v), mem.read(addr, v));
                    prop_assert_eq!((old ^ new) & !may_flip, 0);
                    prop_assert_eq!(before.precision(addr, v), mem.precision(addr, v));
                }
            }
            let per_bit = ((end - start) * versions.len()) as u64;
            for (bit, &n) in fails.iter().enumerate() {
                let want = if expired & (1 << bit) != 0 { per_bit } else { 0 };
                prop_assert_eq!(n, want);
            }
        }
    }

    /// `MergeMode::merge`: every mode keeps the max of the two precision
    /// tags, so a merge never lowers the stored precision.
    #[test]
    fn merge_precision_never_drops(
        v0 in any::<i16>(), v1 in any::<i16>(),
        p0 in 0u8..=8, p1 in 0u8..=8,
        mode_idx in 0usize..4,
    ) {
        let mode = MergeMode::ALL[mode_idx];
        let (_, p) = mode.merge((v0 as i32, p0), (v1 as i32, p1));
        prop_assert!(p >= p0.max(p1));
    }

    /// The trace synthesizer respects its clamp and produces only valid
    /// samples, for arbitrary plausible parameters.
    #[test]
    fn synthesizer_respects_clamp(
        burst in 1.0f64..100.0,
        idle in 1.0f64..500.0,
        amp in 10.0f64..500.0,
        seed: u64,
    ) {
        let params = SynthParams {
            mean_burst_ticks: burst,
            mean_idle_ticks: idle,
            long_idle_prob: 0.01,
            mean_long_idle_ticks: 1000.0,
            burst_amplitude_uw: amp,
            burst_amplitude_sigma: 0.8,
            peak_clamp_uw: 2000.0,
            idle_power_uw: 5.0,
            intra_burst_jitter: 0.4,
        };
        let p = TraceSynthesizer::new(params, seed).synthesize(Ticks(2000));
        prop_assert!(p.peak() <= Power::from_uw(2000.0));
        prop_assert!(p.as_uw_slice().iter().all(|&s| s.is_finite() && s >= 0.0));
    }

    /// Outage extraction partitions the trace: dark fraction equals the
    /// sum of outage durations over the length.
    #[test]
    fn outages_partition_trace(samples in proptest::collection::vec(0.0f64..100.0, 1..500)) {
        let p = PowerProfile::from_uw(samples.iter().copied());
        let stats = OutageStats::extract(&p);
        let dark: u64 = stats.outages().iter().map(|o| o.duration.0).sum();
        let below = samples
            .iter()
            .filter(|&&s| s < OPERATING_THRESHOLD.as_uw())
            .count() as u64;
        prop_assert_eq!(dark, below);
    }

    /// PSNR and MSE are consistent: lower MSE implies higher (or equal)
    /// PSNR.
    #[test]
    fn psnr_mse_consistent(
        a in proptest::collection::vec(0i32..=255, 8..64),
        delta in 1i32..100,
    ) {
        let near: Vec<i32> = a.iter().map(|&v| (v + 1).min(255)).collect();
        let far: Vec<i32> = a.iter().map(|&v| (v + delta).min(255)).collect();
        let (m_near, m_far) = (mse(&a, &near), mse(&a, &far));
        if m_near < m_far {
            prop_assert!(psnr(&a, &near) > psnr(&a, &far));
        }
    }

    /// Energy bookkeeping: power × time round-trips through the unit types.
    #[test]
    fn units_roundtrip(uw in 0.0f64..5000.0, ticks in 1u64..100_000) {
        let e = Power::from_uw(uw) * Ticks(ticks);
        let back = e.over(Ticks(ticks));
        prop_assert!((back.as_uw() - uw).abs() < 1e-6 * uw.max(1.0));
        prop_assert!(e >= Energy::ZERO);
    }

    /// Register-file version planes are fully independent.
    #[test]
    fn regfile_versions_independent(
        r in 0u8..16, v in 0usize..4, val: i32, other: i32,
    ) {
        let mut rf = RegFile::new();
        rf.write(Reg(r), v, val);
        let ov = (v + 1) % 4;
        rf.write(Reg(r), ov, other);
        prop_assert_eq!(rf.read(Reg(r), v), val);
        prop_assert_eq!(rf.read(Reg(r), ov), other);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The NVP checkpointing contract on the real simulator: a precise
    /// frame cut by power failures at arbitrary points (random on-lengths
    /// at 800 µW, each followed by 138 dead ticks) still commits the
    /// golden output, under both engines. This is the property that makes
    /// per-instruction persistent forward progress meaningful. The frame is
    /// 24×24: an 8×8 median finishes on one charge of the default
    /// capacitor, so power would never fail mid-frame.
    #[test]
    fn interrupted_execution_equals_uninterrupted(
        seed: u64,
        on_lengths in proptest::collection::vec(1u64..40, 1..12),
    ) {
        use nvp_sim::{ExecEngine, ExecMode, SystemConfig, SystemSim};
        let id = KernelId::Median;
        let input = id.make_input(24, 24, seed);
        let golden = id.golden(&input, 24, 24);
        let cycle: Vec<f64> = on_lengths
            .iter()
            .flat_map(|&on| (0..on + 138).map(move |t| if t < on { 800.0 } else { 0.0 }))
            .collect();
        let profile = PowerProfile::from_uw(cycle.iter().copied().cycle().take(100_000));
        for engine in [ExecEngine::Step, ExecEngine::Compiled] {
            let cfg = SystemConfig {
                frames_limit: Some(1),
                exec_engine: engine,
                ..Default::default()
            };
            let rep = SystemSim::new(id.spec(24, 24), vec![input.clone()], ExecMode::Precise, cfg)
                .run(&profile);
            prop_assert!(rep.backups > 0, "{:?}: power never failed mid-frame", engine);
            prop_assert_eq!(rep.frames_committed, 1);
            prop_assert_eq!(&rep.outputs_for(0)[0].output, &golden);
        }
    }

    /// Kernel goldens are deterministic and full-precision VM runs match
    /// them for arbitrary seeds (the heavyweight cross-crate property).
    #[test]
    fn vm_equals_golden_for_random_inputs(seed: u64) {
        let id = KernelId::Sobel;
        let input = id.make_input(10, 10, seed);
        let spec = id.spec(10, 10);
        let out = nvp_sim::run_fixed(&spec, &input, ApproxConfig::default(), seed);
        prop_assert_eq!(out, id.golden(&input, 10, 10));
    }

    /// Retention decay is seed-deterministic through the whole system sim.
    #[test]
    fn system_runs_deterministic_for_any_seed(seed: u64) {
        use nvp_sim::{ExecMode, SystemConfig, SystemSim};
        let id = KernelId::Tiff2Bw;
        let profile = nvp_power::synth::WatchProfile::P5.synthesize_seconds(0.5);
        let run = || {
            let cfg = SystemConfig {
                seed,
                backup_policy: RetentionPolicy::Linear,
                record_outputs: false,
                ..Default::default()
            };
            SystemSim::new(
                id.spec(8, 8),
                vec![id.make_input(8, 8, seed)],
                ExecMode::Precise,
                cfg,
            )
            .run(&profile)
        };
        prop_assert_eq!(run(), run());
    }
}

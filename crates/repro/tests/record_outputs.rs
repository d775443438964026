//! `record_outputs` changes only the outputs: a run without recording
//! keeps no committed frame, and a run that records its committed frames
//! reports exactly what the same run without recording does once its
//! `committed` is cleared. This is what lets a figure that never reads
//! frames run without recording and share its run with any other figure
//! that does the same.

use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_repro::catalog::{self, RunRequest};
use nvp_sim::{BackupScope, ExecMode};
use proptest::prelude::*;

const SCOPES: [BackupScope; 3] = [
    BackupScope::FullState,
    BackupScope::LiveOnly,
    BackupScope::LiveDirty,
];

fn modes(bits: u8) -> [ExecMode; 4] {
    [
        ExecMode::Precise,
        ExecMode::Fixed(bits),
        ExecMode::Dynamic(bits, 8),
        ExecMode::Incidental(bits, 8),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn recording_outputs_changes_nothing_else(
        kernel in 0usize..KernelId::QUALITY_TRIO.len(),
        profile in 0usize..WatchProfile::ALL.len(),
        img in 8usize..=12,
        bits in 1u8..=8,
        seed in any::<u64>(),
    ) {
        let (mut frames_recorded, mut backups) = (0, 0);
        for scope in SCOPES {
            for mode in modes(bits) {
                let req = RunRequest {
                    kernel: KernelId::QUALITY_TRIO[kernel],
                    img,
                    frames: 2,
                    trace_seconds: 0.4,
                    profile: WatchProfile::ALL[profile],
                    scope,
                    mode,
                    seed,
                    ..RunRequest::default()
                };
                let plain = catalog::simulate(&req);
                prop_assert!(plain.committed.is_empty(), "{:?}", req);
                let mut recorded = catalog::simulate(&RunRequest {
                    record_outputs: true,
                    ..req.clone()
                });
                prop_assert!(
                    recorded.committed.iter().all(|frame| !frame.output.is_empty()),
                    "{:?}", req
                );
                frames_recorded += recorded.committed.len();
                recorded.committed.clear();
                backups += plain.backups;
                prop_assert_eq!(recorded, plain, "{:?}", req);
            }
        }
        prop_assert!(frames_recorded > 0, "no run recorded an output");
        prop_assert!(backups > 0, "no run backed up");
    }
}

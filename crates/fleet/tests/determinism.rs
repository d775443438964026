//! The fleet determinism contract: the aggregate report is a pure
//! function of the spec — independent of worker count, and of whether the
//! run was interrupted and resumed from a mid-run snapshot (possibly in a
//! different process, here modeled by round-tripping the snapshot text).

use nvp_fleet::{
    decode_snapshot, encode_snapshot, run_chunks, FleetAggregate, RunOptions, RunStatus,
    ScenarioSpec,
};

fn spec() -> ScenarioSpec {
    ScenarioSpec::parse(
        "fleet-spec-v1\n\
         devices = 2000\n\
         chunk = 512\n\
         seed = 24301\n\
         ms = 150\n\
         img = 8\n\
         frames = 1\n\
         members = 2\n\
         kernels = sobel*3, median\n\
         profiles = p1, p3\n\
         caps_nj = 2500, 3500\n\
         scopes = full, live-dirty\n\
         modes = precise, fixed:4*2\n",
    )
    .unwrap()
}

fn run_with(jobs: usize) -> FleetAggregate {
    let mut agg = FleetAggregate::new(spec());
    let Ok(status) = run_chunks(
        &mut agg,
        RunOptions {
            jobs,
            stop_after_chunks: None,
        },
        |_| {},
    );
    assert_eq!(status, RunStatus::Complete);
    agg
}

#[test]
fn report_is_byte_identical_across_jobs_1_and_4() {
    let serial = run_with(1);
    let parallel = run_with(4);
    assert_eq!(serial, parallel, "aggregation state must not see workers");
    assert_eq!(
        serial.render_report(),
        parallel.render_report(),
        "report bytes must be identical across --jobs settings"
    );
}

#[test]
fn report_is_valid_json_with_the_documented_sections() {
    use nvp_trace::json::Json;
    let text = run_with(1).render_report();
    let doc = Json::parse(&text).expect("fleet report is JSON");
    assert_eq!(doc.get("fleet").and_then(Json::as_str), Some("v1"));
    assert_eq!(
        doc.get("job").and_then(Json::as_str),
        Some(spec().job_id().as_str())
    );
    assert_eq!(doc.get("devices").and_then(Json::as_u64), Some(2000));
    assert!(matches!(doc.get("cohorts"), Some(Json::Obj(c)) if !c.is_empty()));
    assert!(matches!(doc.get("outliers"), Some(Json::Obj(_))));
    assert!(doc.get("exemplars").and_then(Json::as_array).is_some());
}

#[test]
fn resume_from_a_mid_run_snapshot_is_byte_identical() {
    let straight = run_with(1).render_report();

    // Interrupt after 2 of 4 chunks, snapshot, restore from the *text*
    // (as a new process would), and finish with a different worker count.
    let mut first_half = FleetAggregate::new(spec());
    let Ok(status) = run_chunks(
        &mut first_half,
        RunOptions {
            jobs: 1,
            stop_after_chunks: Some(2),
        },
        |_| {},
    );
    assert_eq!(status, RunStatus::Paused);
    assert_eq!(first_half.next_chunk, 2);

    let snapshot_text = encode_snapshot(&first_half);
    let mut resumed = decode_snapshot(&snapshot_text).unwrap();
    assert_eq!(resumed, first_half, "snapshot must restore bit-exactly");

    let Ok(status) = run_chunks(
        &mut resumed,
        RunOptions {
            jobs: 4,
            stop_after_chunks: None,
        },
        |_| {},
    );
    assert_eq!(status, RunStatus::Complete);
    assert_eq!(
        resumed.render_report(),
        straight,
        "resumed report must match the uninterrupted run byte-for-byte"
    );
}

#[test]
fn aggregation_state_is_bounded_by_cells_not_devices() {
    // Two populations at 10× different N over the same axes must hold the
    // same number of resident aggregate entries.
    let small = run_with(1);
    let mut big_spec = spec();
    big_spec.devices = 20_000;
    let mut big = FleetAggregate::new(big_spec);
    let Ok(_) = run_chunks(&mut big, RunOptions::default(), |_| {});
    assert_eq!(
        small.cells.len(),
        big.cells.len(),
        "resident cell table must not scale with N"
    );
    assert_eq!(small.cohorts.len(), big.cohorts.len());
    assert_eq!(
        big.cells.values().map(|s| s.devices).sum::<u64>(),
        20_000,
        "every device must still be accounted"
    );
}

/// A small mixed-scope population whose canonical cell order is not
/// numeric order (`member=10` spells before `member=2`) and whose kernel
/// axis repeats an entry.
const PINNED_SPEC: &str = "fleet-spec-v1\n\
    devices = 900\n\
    chunk = 128\n\
    seed = 11\n\
    ms = 150\n\
    img = 8\n\
    frames = 1\n\
    members = 12\n\
    kernels = sobel, median*2, sobel*3\n\
    scopes = full, live-dirty\n\
    modes = precise, fixed:4\n";

#[test]
fn report_and_snapshot_bytes_are_pinned() {
    // FNV-1a digests of the bytes this engine has always produced for
    // PINNED_SPEC; any change to sampling, fold order or either format
    // moves them.
    let digest = |text: String| nvp_exec::fnv1a64(text.as_bytes());
    let parsed = ScenarioSpec::parse(PINNED_SPEC).unwrap();
    let mut paused = FleetAggregate::new(parsed.clone());
    let stop = RunOptions {
        jobs: 1,
        stop_after_chunks: Some(2),
    };
    assert_eq!(run_chunks(&mut paused, stop, |_| {}), Ok(RunStatus::Paused));
    assert_eq!(digest(encode_snapshot(&paused)), 0xd847_f129_4c78_00e0);

    let mut done = FleetAggregate::new(parsed);
    let Ok(_) = run_chunks(&mut done, RunOptions::default(), |_| {});
    assert_eq!(done.cells.len(), 96);
    assert_eq!(digest(done.render_report()), 0x7f8d_4e33_950e_e4a6);
    assert_eq!(digest(encode_snapshot(&done)), 0x17e5_f02c_faec_f59b);
}

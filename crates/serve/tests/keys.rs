//! One run key across front-ends: a configuration written as a `/v1/run`
//! body and as a fleet spec cell is the same `RunKey`, and both paths
//! simulate it to the same outcome.

use nvp_fleet::{cell_for_device, evaluate_cell, ScenarioSpec};
use nvp_repro::catalog;
use nvp_serve::json::Json;
use nvp_serve::SimKey;

#[test]
fn run_bodies_and_fleet_cells_share_one_run_key() {
    for (json_mode, tag) in [
        (r#""precise""#, "precise"),
        (r#""simd4""#, "simd4"),
        (r#"{"fixed":4}"#, "fixed:4"),
        (r#"{"dynamic":{"minbits":2,"maxbits":8}}"#, "dynamic:2-8"),
        (
            r#"{"incidental":{"minbits":4,"maxbits":8}}"#,
            "incidental:4-8",
        ),
    ] {
        let body = format!(
            r#"{{"kernel":"Median","img":8,"frames":1,"seconds":0.15,"profile":"P3",
                "mode":{json_mode},"engine":"step","seed":7}}"#
        );
        let run = SimKey::from_json(&Json::parse(&body).unwrap()).unwrap();
        let spec = ScenarioSpec::parse(&format!(
            "fleet-spec-v1\ndevices = 1\nseed = 7\nimg = 8\nframes = 1\nms = 150\n\
             kernels = median\nprofiles = p3\nmodes = {tag}\nengines = step\n"
        ))
        .unwrap();
        let cell = cell_for_device(&spec, 0);
        assert_eq!(run.run, cell, "{tag}");

        // The two pinned spellings render the same field tokens.
        let run_fields = run.canonical();
        let run_fields = run_fields
            .strip_prefix("run/")
            .and_then(|s| s.strip_suffix("&trace=0"))
            .unwrap();
        let cell_fields = cell
            .canonical()
            .replace("&member=0&cap_nj=3500&scope=full", "");
        assert_eq!(Some(run_fields), cell_fields.strip_prefix("cell/"));

        let report = catalog::simulate(&run.run_request());
        let outcome = evaluate_cell(&cell);
        assert_eq!(report.forward_progress, outcome.forward_progress, "{tag}");
        assert_eq!(report.backups, outcome.backups, "{tag}");
        assert_eq!(
            report.energy_backup.as_nj().to_bits(),
            outcome.backup_nj.to_bits(),
            "{tag}"
        );
    }
}

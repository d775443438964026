//! The visual figures: PGM image dumps for Figures 11, 13, 17 and 26.

use super::racx::{figure_frame, recompute};
use super::run;
use crate::catalog::RunRequest;
use crate::table::Table;
use crate::{dims, Scale};
use nvp_isa::ApproxConfig;
use nvp_kernels::{Image, KernelId};
use nvp_nvm::{MergeMode, RetentionPolicy};
use nvp_power::synth::WatchProfile;
use nvp_sim::{run_fixed, ExecMode};
use std::path::Path;

fn save(dir: &Path, name: &str, w: usize, h: usize, words: &[i32]) -> std::io::Result<String> {
    let img = Image::from_words(w, h, words);
    let file = format!("{name}.pgm");
    img.write_pgm(&dir.join(&file))?;
    Ok(file)
}

/// The output of the first frame `req` commits from its first input,
/// if power allows one.
fn first_output(req: RunRequest) -> Option<Vec<i32>> {
    let report = run(&RunRequest {
        frames: 1,
        frames_limit: Some(1),
        record_outputs: true,
        ..req
    });
    report.committed.first().map(|frame| frame.output.clone())
}

/// Writes the visual-figure image set into `dir` and returns an index
/// table of what was written.
///
/// # Errors
///
/// Propagates I/O errors from image writing.
pub fn images(scale: Scale, dir: &Path) -> std::io::Result<Vec<Table>> {
    let mut t = Table::new(
        "visual_figures",
        format!("Visual figures (PGM files in {})", dir.display()).as_str(),
        &["figure", "file", "description"],
    );
    let img_edge = scale.img.max(24);

    // Figures 11 & 13: the quality trio under fixed ALU / memory reduction.
    for id in KernelId::QUALITY_TRIO {
        let (w, h) = dims(id, img_edge);
        let spec = id.spec(w, h);
        let input = id.make_input(w, h, 0x51);
        let golden = id.golden(&input, w, h);
        let f = save(dir, &format!("fig11_{id}_baseline"), w, h, &golden)?;
        t.row(["fig 11/13".into(), f, format!("{id} 8-bit baseline")]);
        for bits in [6u8, 4, 2, 1] {
            let alu = run_fixed(&spec, &input, ApproxConfig::alu_only(bits), 3);
            let f = save(dir, &format!("fig11_{id}_alu_{bits}bit"), w, h, &alu)?;
            t.row(["fig 11".into(), f, format!("{id}, {bits}-bit ALU")]);
            let mem = run_fixed(&spec, &input, ApproxConfig::mem_only(bits), 3);
            let f = save(dir, &format!("fig13_{id}_mem_{bits}bit"), w, h, &mem)?;
            t.row(["fig 13".into(), f, format!("{id}, {bits}-bit memory")]);
        }
    }

    // Figure 17: dynamic bitwidth on median under profiles 1–3.
    let (w, h) = dims(KernelId::Median, img_edge);
    for &wp in &WatchProfile::ALL[..3] {
        let req = RunRequest {
            profile: wp,
            input_seed: 0x17,
            ..figure_frame(scale, img_edge, ExecMode::Dynamic(1, 8))
        };
        if let Some(output) = first_output(req) {
            let f = save(
                dir,
                &format!("fig17_median_dynamic_p{}", wp.index()),
                w,
                h,
                &output,
            )?;
            t.row(["fig 17".into(), f, format!("median, dynamic bits, {wp}")]);
        }
    }

    // Figure 26 left: retention policies; right: recomputation passes.
    for policy in RetentionPolicy::SHAPED {
        let req = RunRequest {
            profile: WatchProfile::P2,
            backup_policy: policy,
            ..figure_frame(scale, img_edge, ExecMode::Precise)
        };
        if let Some(output) = first_output(req) {
            let f = save(dir, &format!("fig26_median_{policy}"), w, h, &output)?;
            t.row([
                "fig 26".into(),
                f,
                format!("median, {policy} retention, profile 2"),
            ]);
        }
    }
    for passes in [1, 2, 4, 8] {
        let frame = figure_frame(scale, img_edge, ExecMode::Dynamic(2, 8));
        let out = recompute(&frame, passes, MergeMode::HigherBits);
        let f = save(
            dir,
            &format!("fig26_recompute_{passes}pass"),
            w,
            h,
            &out.merged,
        )?;
        t.row([
            "fig 26".into(),
            f,
            format!("median after {passes} recompute pass(es)"),
        ]);
    }
    t.note("view with any PGM-capable viewer (e.g. ImageMagick `display`)");
    Ok(vec![t])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_the_image_set() {
        let dir = std::env::temp_dir().join("nvp_repro_visual_test");
        let tables = images(Scale::quick(), &dir).expect("image dump succeeds");
        let t = &tables[0];
        assert!(t.rows.len() >= 20, "only {} images", t.rows.len());
        // Every listed file must exist and parse back.
        for r in &t.rows {
            let img = Image::read_pgm(&dir.join(&r[1])).expect("readable PGM");
            assert!(img.width() >= 8);
        }
    }
}

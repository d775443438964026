//! Workload inputs, each a pure function of the workload seed.
//!
//! Both seeded workloads draw from a fixed *universe* so that every input
//! a seed can produce has an output digest pinned in `golden.txt`:
//!
//! * `serve`: the seed picks [`SERVE_KEYS`] distinct `/v1/run` bodies out
//!   of [`serve_universe`] and a replay order over them;
//! * `fleet`: the seed picks the axis weights of a spec whose axis values
//!   are fixed, so every cell it can reach is one of [`fleet_universe`].

use nvp_fleet::{splitmix64, CellKey, FleetMode};
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_sim::{BackupScope, ExecEngine};
use std::collections::HashSet;

/// Distinct `/v1/run` keys one serve run populates (under the default
/// 1024-body cache, so replay never misses).
pub const SERVE_KEYS: usize = 256;

/// Times each key is replayed after the populate phase.
pub const REPLAY_ROUNDS: usize = 8;

/// Size of the pinned serve key universe.
pub const SERVE_UNIVERSE: usize = 512;

/// Kernels the serve universe draws from.
pub const SERVE_KERNELS: [KernelId; 4] = [
    KernelId::Sobel,
    KernelId::Median,
    KernelId::Integral,
    KernelId::Tiff2Bw,
];

/// Image edges the serve universe draws from.
pub const SERVE_IMGS: [usize; 3] = [8, 12, 16];

/// Retention seed of the warm-up requests; universe keys never use it, so
/// warm-ups fill compiled tables without pre-filling any measured key.
pub const WARMUP_SEED: u64 = 1;

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed` under a per-purpose `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(splitmix64(seed ^ salt))
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform pick from a slice.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One `/v1/run` body per universe slot; slot order is fixed forever
/// (the golden digests are indexed by it). Slots come in strata of
/// [`VARIANTS`] keys that differ only in their retention seed, so every
/// variant of a stratum costs the same to simulate and renders a body of
/// about the same size. Strata vary kernel, profile, mode, img, frames
/// and seconds; about one stratum in 16 asks for the run's event trace in
/// the body.
pub fn serve_universe() -> Vec<String> {
    const MODES: [&str; 7] = [
        r#""precise""#,
        r#"{"fixed":2}"#,
        r#"{"fixed":4}"#,
        r#"{"dynamic":{"minbits":2,"maxbits":8}}"#,
        r#"{"dynamic":{"minbits":4,"maxbits":8}}"#,
        r#"{"incidental":{"minbits":2,"maxbits":8}}"#,
        r#"{"incidental":{"minbits":4,"maxbits":8}}"#,
    ];
    let mut rng = Rng::new(0x05EE_D0F5_E87E, 0);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(SERVE_UNIVERSE);
    while out.len() < SERVE_UNIVERSE {
        let stratum = format!(
            r#""kernel":"{}","profile":"p{}","mode":{},"img":{},"frames":{},"seconds":{},"trace":{}"#,
            rng.pick(&SERVE_KERNELS).name(),
            rng.pick(&WatchProfile::ALL).index(),
            rng.pick(&MODES),
            rng.pick(&SERVE_IMGS),
            rng.pick(&[1, 2, 4]),
            rng.pick(&["0.5", "1", "1.5"]),
            rng.below(16) == 0,
        );
        if seen.insert(stratum.clone()) {
            for variant in 0..VARIANTS as u64 {
                out.push(format!(
                    r#"{{{stratum},"seed":{}}}"#,
                    FIRST_KEY_SEED + variant
                ));
            }
        }
    }
    out
}

/// Retention seed of a stratum's first variant (above [`WARMUP_SEED`]).
const FIRST_KEY_SEED: u64 = 100;

/// Keys per universe stratum; a plan takes one of each.
pub const VARIANTS: usize = SERVE_UNIVERSE / SERVE_KEYS;

/// The serve workload's inputs: which universe keys it populates (in
/// populate order) and the replay order as positions into that list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServePlan {
    /// Universe slots, one per stratum, in populate order.
    pub keys: Vec<usize>,
    /// [`REPLAY_ROUNDS`] seeded shuffles of `0..keys.len()`, concatenated.
    pub replay: Vec<usize>,
}

impl ServePlan {
    /// The plan for a workload seed. Taking one variant of every stratum
    /// keeps the plan's simulation cost and memory the same for every
    /// seed, so run-to-run spread measures the system, not the inputs.
    pub fn for_seed(seed: u64) -> ServePlan {
        let mut rng = Rng::new(seed, 0x5E_4E);
        let mut slots: Vec<usize> = (0..SERVE_KEYS)
            .map(|stratum| stratum * VARIANTS + rng.below(VARIANTS))
            .collect();
        rng.shuffle(&mut slots);
        let mut replay = Vec::with_capacity(SERVE_KEYS * REPLAY_ROUNDS);
        for _ in 0..REPLAY_ROUNDS {
            let mut round: Vec<usize> = (0..SERVE_KEYS).collect();
            rng.shuffle(&mut round);
            replay.extend(round);
        }
        ServePlan {
            keys: slots,
            replay,
        }
    }

    /// The plan as text: one populate body per line, then the replay
    /// order (the purity check compares this byte-for-byte).
    #[cfg(test)]
    pub fn render(&self, universe: &[String]) -> String {
        let mut out = String::new();
        for &slot in &self.keys {
            out.push_str(&universe[slot]);
            out.push('\n');
        }
        let order: Vec<String> = self.replay.iter().map(usize::to_string).collect();
        out.push_str(&order.join(","));
        out.push('\n');
        out
    }
}

/// Fixed fleet axes; the seed only chooses their weights.
const FLEET_KERNELS: [KernelId; 3] = [KernelId::Sobel, KernelId::Median, KernelId::Integral];
const FLEET_CAPS_NJ: [u64; 2] = [2500, 3500];
const FLEET_SCOPES: [BackupScope; 2] = [BackupScope::FullState, BackupScope::LiveDirty];
const FLEET_MODES: [FleetMode; 4] = [
    FleetMode::Precise,
    FleetMode::Fixed(4),
    FleetMode::Dynamic(2, 8),
    FleetMode::Incidental(2, 8),
];
const FLEET_MEMBERS: u32 = 4;
/// The spec's sampling seed, which is also every cell's retention seed;
/// fixed so the reachable cells stay inside the pinned universe.
const FLEET_SPEC_SEED: u64 = 24301;
const FLEET_IMG: usize = 12;
const FLEET_FRAMES: usize = 2;
const FLEET_MS: u64 = 1500;

/// The fleet workload's spec text for a workload seed: 10⁶ devices in
/// 4096-device chunks over 3 kernels × 5 profiles × 4 members × 2
/// capacitors × 2 backup scopes × 4 modes, compiled engine, with seeded
/// weights in `1..=8` on every axis entry.
pub fn fleet_spec(seed: u64) -> String {
    let mut rng = Rng::new(seed, 0xF1EE7);
    let mut axis = |tokens: Vec<String>| {
        tokens
            .into_iter()
            .map(|t| format!("{t}*{}", 1 + rng.below(8)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let kernels = axis(FLEET_KERNELS.iter().map(|k| k.name().to_string()).collect());
    let profiles = axis(
        WatchProfile::ALL
            .iter()
            .map(|p| format!("p{}", p.index()))
            .collect(),
    );
    let caps = axis(FLEET_CAPS_NJ.iter().map(u64::to_string).collect());
    let scopes = axis(
        FLEET_SCOPES
            .iter()
            .map(|s| nvp_fleet::scope_tag(*s).to_string())
            .collect(),
    );
    let modes = axis(FLEET_MODES.iter().map(FleetMode::canonical).collect());
    format!(
        "fleet-spec-v1\n\
         devices = 1000000\n\
         chunk = 4096\n\
         seed = {FLEET_SPEC_SEED}\n\
         img = {FLEET_IMG}\n\
         frames = {FLEET_FRAMES}\n\
         ms = {FLEET_MS}\n\
         members = {FLEET_MEMBERS}\n\
         kernels = {kernels}\n\
         profiles = {profiles}\n\
         caps_nj = {caps}\n\
         scopes = {scopes}\n\
         modes = {modes}\n\
         engines = compiled\n"
    )
}

/// Every cell a [`fleet_spec`] can reach, in a fixed order (the golden
/// cell digests are indexed by it).
pub fn fleet_universe() -> Vec<CellKey> {
    let mut out = Vec::new();
    for kernel in FLEET_KERNELS {
        for profile in WatchProfile::ALL {
            for member in 0..FLEET_MEMBERS {
                for cap_nj in FLEET_CAPS_NJ {
                    for scope in FLEET_SCOPES {
                        for mode in FLEET_MODES {
                            out.push(CellKey {
                                kernel,
                                img: FLEET_IMG,
                                frames: FLEET_FRAMES,
                                trace_ms: FLEET_MS,
                                profile,
                                member,
                                cap_nj,
                                scope,
                                mode,
                                engine: ExecEngine::Compiled,
                                seed: FLEET_SPEC_SEED,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_fleet::{cell_for_device, ScenarioSpec};
    use nvp_serve::json::Json;
    use nvp_serve::SimKey;

    #[test]
    fn serve_inputs_are_a_pure_function_of_the_seed() {
        let universe = serve_universe();
        let a = ServePlan::for_seed(1).render(&universe);
        let b = ServePlan::for_seed(2).render(&universe);
        assert_ne!(a, b, "different seeds must give different inputs");
        assert_eq!(a, ServePlan::for_seed(1).render(&serve_universe()));
        assert_eq!(b, ServePlan::for_seed(2).render(&serve_universe()));
    }

    #[test]
    fn fleet_inputs_are_a_pure_function_of_the_seed() {
        assert_ne!(fleet_spec(1), fleet_spec(2));
        assert_eq!(fleet_spec(1), fleet_spec(1));
        assert_eq!(fleet_spec(2), fleet_spec(2));
    }

    #[test]
    fn serve_plan_uses_distinct_keys_and_replays_each_evenly() {
        let plan = ServePlan::for_seed(7);
        let strata: HashSet<_> = plan.keys.iter().map(|k| k / VARIANTS).collect();
        assert_eq!(strata.len(), SERVE_KEYS, "one key from every stratum");
        assert!(plan.keys.iter().all(|&k| k < SERVE_UNIVERSE));
        let mut counts = vec![0; SERVE_KEYS];
        for &i in &plan.replay {
            counts[i] += 1;
        }
        assert!(counts.iter().all(|&c| c == REPLAY_ROUNDS));
    }

    #[test]
    fn universe_bodies_are_valid_distinct_keys() {
        let universe = serve_universe();
        let canon: HashSet<String> = universe
            .iter()
            .map(|b| {
                let key = SimKey::from_json(&Json::parse(b).unwrap()).unwrap();
                assert_ne!(key.seed, WARMUP_SEED);
                key.canonical()
            })
            .collect();
        assert_eq!(canon.len(), SERVE_UNIVERSE);
        let traced = universe
            .iter()
            .filter(|b| b.contains("\"trace\":true"))
            .count();
        assert!((16..=48).contains(&traced), "{traced} traced keys");
        assert_eq!(
            traced % VARIANTS,
            0,
            "variants of a stratum share the trace flag"
        );
    }

    #[test]
    fn fleet_specs_parse_and_stay_inside_the_universe() {
        let universe: HashSet<String> = fleet_universe().iter().map(CellKey::canonical).collect();
        assert_eq!(universe.len(), 3 * 5 * 4 * 2 * 2 * 4);
        for seed in [0, 1, 99] {
            let spec = ScenarioSpec::parse(&fleet_spec(seed)).unwrap();
            assert_eq!(spec.devices, 1_000_000);
            for d in (0..spec.devices).step_by(997) {
                assert!(universe.contains(&cell_for_device(&spec, d).canonical()));
            }
        }
    }
}

//! The multi-tenant determinism law.
//!
//! A service hosting K named sessions must be observationally identical
//! to K single-session services: interleaving the sessions' command
//! streams in *any* order yields, per session, byte-identical response
//! lines to running that session alone — for every streaming colorer
//! the workspace exposes. This is what makes the serving layer safe to scale: tenants cannot
//! perturb each other, deliberately or accidentally.

use proptest::prelude::*;
use sc_engine::{wire, ColorerSpec};
use sc_graph::generators;
use sc_service::Service;

/// SplitMix64, for reproducible interleavings derived from one seed.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

/// Every colorer the service can open without a materialized graph
/// (`bcg20` sizes its palette from exact degeneracy and is therefore a
/// documented open-time error, covered in the crate's unit tests).
fn openable_colorers() -> Vec<(&'static str, ColorerSpec)> {
    vec![
        ("robust", ColorerSpec::Robust { beta: None }),
        ("robust-beta", ColorerSpec::Robust { beta: Some(0.5) }),
        ("auto", ColorerSpec::Auto),
        ("alg3", ColorerSpec::RandEfficient),
        ("cgs22", ColorerSpec::Cgs22),
        ("bg18", ColorerSpec::Bg18 { buckets: None }),
        ("ps", ColorerSpec::PaletteSparsification { lists: Some(6) }),
        ("store-all", ColorerSpec::StoreAll),
        ("dynamic", ColorerSpec::DynamicSr { sparsity: None }),
        ("trivial", ColorerSpec::Trivial),
    ]
}

/// Builds one session's full command-line sequence: open, a mix of
/// push / push_batch / observe / checkpoint / stats, then finish.
/// Dynamic colorers additionally get turnstile traffic: previously
/// inserted edges are retracted through both signed vocabularies
/// (`"sign":"delete"` on `push`, `-u-v` tokens on `push_batch`).
fn session_script(
    name: &str,
    spec: &ColorerSpec,
    n: usize,
    delta: usize,
    seed: u64,
) -> Vec<String> {
    let g = generators::gnp_with_max_degree(n, delta, 0.5, seed);
    let edges: Vec<_> = generators::shuffled_edges(&g, seed ^ 0xFEED);
    let dynamic = matches!(spec, ColorerSpec::DynamicSr { .. });
    let mut deletable: Vec<sc_graph::Edge> = Vec::new();
    let mut rng = Gen::new(seed ^ 0x5E55);
    let mut open = sc_engine::flatjson::FlatObject::new();
    open.insert("cmd".into(), sc_engine::flatjson::Scalar::Str("open".into()));
    open.insert("session".into(), sc_engine::flatjson::Scalar::Str(name.into()));
    open.insert("n".into(), sc_engine::flatjson::Scalar::Uint(n as u64));
    open.insert("delta".into(), sc_engine::flatjson::Scalar::Uint(delta as u64));
    open.insert("seed".into(), sc_engine::flatjson::Scalar::Uint(seed));
    wire::colorer_to_wire(spec, &mut open);
    let mut lines = vec![sc_engine::flatjson::encode_object(&open)];
    let mut i = 0;
    while i < edges.len() {
        if dynamic && !deletable.is_empty() && rng.below(4) == 0 {
            let j = rng.below(deletable.len() as u64) as usize;
            let e = deletable.swap_remove(j);
            if rng.below(2) == 0 {
                lines.push(format!(
                    r#"{{"cmd":"push","session":"{name}","edge":"{}-{}","sign":"delete"}}"#,
                    e.u(),
                    e.v()
                ));
            } else {
                lines.push(format!(
                    r#"{{"cmd":"push_batch","session":"{name}","edges":"-{}-{}"}}"#,
                    e.u(),
                    e.v()
                ));
            }
            continue;
        }
        match rng.below(5) {
            0 => {
                lines.push(format!(
                    r#"{{"cmd":"push","session":"{name}","edge":"{}-{}"}}"#,
                    edges[i].u(),
                    edges[i].v()
                ));
                deletable.push(edges[i]);
                i += 1;
            }
            1 | 2 => {
                let k = 1 + rng.below(7) as usize;
                let end = (i + k).min(edges.len());
                let batch = wire::encode_edges(edges[i..end].iter().copied());
                lines.push(format!(
                    r#"{{"cmd":"push_batch","session":"{name}","edges":"{batch}"}}"#
                ));
                deletable.extend(edges[i..end].iter().copied());
                i = end;
            }
            3 => lines.push(format!(r#"{{"cmd":"observe","session":"{name}"}}"#)),
            _ => lines.push(format!(r#"{{"cmd":"{}","session":"{name}"}}"#, {
                if rng.below(2) == 0 {
                    "checkpoint"
                } else {
                    "stats"
                }
            })),
        }
    }
    lines.push(format!(r#"{{"cmd":"observe","session":"{name}"}}"#));
    lines.push(format!(r#"{{"cmd":"stats","session":"{name}"}}"#));
    lines.push(format!(r#"{{"cmd":"finish","session":"{name}"}}"#));
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// K interleaved tenants ≡ K isolated runs, byte for byte, per
    /// session — over all colorers and a random interleaving.
    #[test]
    fn interleaved_sessions_match_isolated_runs(seed in any::<u64>()) {
        let mut rng = Gen::new(seed);
        let n = 24 + rng.below(16) as usize;
        let delta = 3 + rng.below(4) as usize;
        let scripts: Vec<(String, Vec<String>)> = openable_colorers()
            .into_iter()
            .map(|(name, spec)| {
                let session_seed = rng.next();
                (name.to_string(), session_script(name, &spec, n, delta, session_seed))
            })
            .collect();

        // Isolated reference: one fresh service per session.
        let isolated: Vec<Vec<String>> = scripts
            .iter()
            .map(|(_, lines)| {
                let mut service = Service::new();
                lines.iter().filter_map(|l| service.respond(l)).collect()
            })
            .collect();

        // Interleaved run: one service, sessions advanced in a random
        // global order (per-session order preserved).
        let mut cursors = vec![0usize; scripts.len()];
        let mut service = Service::new();
        let mut interleaved: Vec<Vec<String>> = vec![Vec::new(); scripts.len()];
        loop {
            let live: Vec<usize> = (0..scripts.len())
                .filter(|&s| cursors[s] < scripts[s].1.len())
                .collect();
            if live.is_empty() {
                break;
            }
            let s = live[rng.below(live.len() as u64) as usize];
            let line = &scripts[s].1[cursors[s]];
            cursors[s] += 1;
            if let Some(response) = service.respond(line) {
                interleaved[s].push(response);
            }
        }
        prop_assert!(service.session_names().is_empty(), "every session finished");
        for (s, (name, _)) in scripts.iter().enumerate() {
            prop_assert_eq!(
                &interleaved[s],
                &isolated[s],
                "tenant {} diverged under interleaving (seed {})",
                name,
                seed
            );
        }
    }
}

//! Property test: the wire format is lossless.
//!
//! `from_wire(to_wire(x)) == x` over randomly generated [`Scenario`],
//! [`AttackScenario`], and [`EngineConfig`] values — including irregular
//! floats (signed zero, subnormals, extreme exponents, arbitrary finite
//! bit patterns) and empty grids. Stored graphs are generated in
//! canonical (sorted-edge) form, where exact equality is the law; the
//! idempotence of `decode ∘ encode` for *non*-canonical graphs is covered
//! in `sc_engine::wire`'s unit tests.

use proptest::prelude::*;
use sc_engine::wire;
use sc_engine::{AdversarySpec, AttackScenario, ColorerSpec, GraphFamily, Scenario, SourceSpec};
use sc_graph::{Edge, Graph};
use sc_stream::{EngineConfig, QuerySchedule, StreamOrder};
use std::collections::BTreeSet;
use std::sync::Arc;
use streamcolor::{DerandStrategy, DetConfig};

/// SplitMix64: one seed from the proptest strategy drives the whole
/// structured value, so every case is reproducible from its seed.
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

    /// A finite float, biased toward the irregular corners of the format:
    /// signed zero, subnormals, the extreme normals, decimal-unfriendly
    /// fractions, and arbitrary finite bit patterns.
    fn float(&mut self) -> f64 {
        const IRREGULAR: &[f64] = &[
            0.0,
            -0.0,
            5e-324, // smallest positive subnormal
            -5e-324,
            2.2250738585072014e-308, // smallest positive normal
            1.7976931348623157e308,  // f64::MAX
            -1.7976931348623157e308,
            0.1,
            0.30000000000000004, // 0.1 + 0.2
            1.0 / 3.0,
            1e16,
            -1e-300,
            std::f64::consts::PI,
        ];
        match self.below(3) {
            0 => IRREGULAR[self.below(IRREGULAR.len() as u64) as usize],
            1 => {
                // Arbitrary finite bit pattern (NaN/∞ are unrepresentable
                // on the wire by design; redraw until finite).
                loop {
                    let x = f64::from_bits(self.next());
                    if x.is_finite() {
                        return x;
                    }
                }
            }
            _ => self.below(1000) as f64 / 8.0,
        }
    }

    fn label(&mut self) -> String {
        const CHARS: &[char] = &[
            'a', 'Z', '3', ' ', '∆', 'β', '"', '\\', '\n', '\t', '\r', '\u{1}', ':', ',', '{', '}',
        ];
        (0..self.below(12)).map(|_| CHARS[self.below(CHARS.len() as u64) as usize]).collect()
    }

    fn colorer(&mut self) -> ColorerSpec {
        match self.below(15) {
            0 => ColorerSpec::Robust { beta: None },
            1 => ColorerSpec::Robust { beta: Some(self.float()) },
            2 => ColorerSpec::Auto,
            3 => ColorerSpec::RandEfficient,
            4 => ColorerSpec::Cgs22,
            5 => ColorerSpec::Bg18 { buckets: (self.below(2) == 0).then(|| self.next()) },
            6 => ColorerSpec::Bcg20 { epsilon: self.float() },
            7 => ColorerSpec::PaletteSparsification {
                lists: (self.below(2) == 0).then(|| self.below(1 << 40) as usize),
            },
            8 => ColorerSpec::StoreAll,
            9 => ColorerSpec::Trivial,
            10 => ColorerSpec::Det(DetConfig {
                derand: if self.below(2) == 0 {
                    DerandStrategy::FullFamily
                } else {
                    DerandStrategy::Grid { l: self.below(1 << 20) as usize }
                },
                max_epochs: self.below(1 << 30) as usize,
                track_potential: self.below(2) == 0,
            }),
            11 => ColorerSpec::BatchGreedy,
            12 => ColorerSpec::OfflineGreedy,
            13 => ColorerSpec::DynamicSr {
                sparsity: (self.below(2) == 0).then(|| self.below(1 << 30) as usize),
            },
            _ => ColorerSpec::Brooks,
        }
    }

    /// A canonical stored graph: built from sorted edges, so decoding its
    /// wire form reproduces it exactly (adjacency order included).
    fn stored_graph(&mut self) -> Graph {
        let n = 2 + self.below(28) as usize;
        let m = self.below(40);
        let mut edges = BTreeSet::new();
        for _ in 0..m {
            let a = self.below(n as u64) as u32;
            let b = self.below(n as u64) as u32;
            if a != b {
                edges.insert(Edge::new(a, b));
            }
        }
        Graph::from_edges(n, edges)
    }

    fn source(&mut self) -> SourceSpec {
        match self.below(6) {
            0 => return SourceSpec::Stored(Arc::new(self.stored_graph())),
            1 => {
                return SourceSpec::Churn {
                    n: self.next() as usize,
                    delta: self.next() as usize,
                    p: self.float(),
                    seed: self.next(),
                    rounds: self.below(1 << 30) as usize,
                }
            }
            2 => {
                return SourceSpec::SlidingWindow {
                    n: self.next() as usize,
                    delta: self.next() as usize,
                    p: self.float(),
                    seed: self.next(),
                    window: self.below(1 << 30) as usize,
                }
            }
            _ => {}
        }
        let family = match self.below(11) {
            0 => GraphFamily::Gnp,
            1 => GraphFamily::ExactDegree,
            2 => GraphFamily::PreferentialAttachment,
            3 => GraphFamily::Cycle,
            4 => GraphFamily::Path,
            5 => GraphFamily::Complete,
            6 => GraphFamily::Star,
            7 => GraphFamily::CliqueUnion {
                k: self.below(1 << 20) as usize,
                size: self.below(1 << 20) as usize,
            },
            8 => GraphFamily::Bipartite {
                a: self.below(1 << 20) as usize,
                b: self.below(1 << 20) as usize,
            },
            9 => GraphFamily::Petersen,
            _ => GraphFamily::Circulant,
        };
        // Wire data only — never materialized — so params are unbounded.
        SourceSpec::Family {
            family,
            n: self.next() as usize,
            delta: self.next() as usize,
            p: self.float(),
            seed: self.next(),
        }
    }

    fn order(&mut self) -> StreamOrder {
        match self.below(6) {
            0 => StreamOrder::AsGenerated,
            1 => StreamOrder::Shuffled(self.next()),
            2 => StreamOrder::HubsFirst,
            3 => StreamOrder::HubsLast,
            4 => StreamOrder::VertexContiguous,
            _ => StreamOrder::Interleaved(self.next()),
        }
    }

    fn engine_config(&mut self) -> EngineConfig {
        let schedule = match self.below(3) {
            0 => QuerySchedule::FinalOnly,
            1 => QuerySchedule::EveryEdges(self.next() as usize),
            _ => QuerySchedule::AtPrefixes(
                (0..self.below(5)).map(|_| self.next() as usize).collect(),
            ),
        };
        EngineConfig { chunk_size: self.next() as usize, schedule, incremental: self.below(2) == 0 }
    }

    fn scenario(&mut self) -> Scenario {
        Scenario {
            label: self.label(),
            source: self.source(),
            order: self.order(),
            colorer: self.colorer(),
            engine: self.engine_config(),
            seed: self.next(),
        }
    }

    fn adversary(&mut self) -> AdversarySpec {
        match self.below(7) {
            0 => AdversarySpec::Monochromatic,
            1 => AdversarySpec::Random,
            2 => AdversarySpec::CliqueBuilder,
            3 => AdversarySpec::BufferBoundary {
                buffer: (self.below(2) == 0).then(|| self.next() as usize),
            },
            4 => AdversarySpec::LevelBoundary,
            5 => AdversarySpec::Oscillation,
            _ => {
                // Replay order is part of the data: keep it un-sorted.
                let edges: Vec<Edge> = (0..self.below(20))
                    .filter_map(|_| {
                        let a = self.below(50) as u32;
                        let b = self.below(50) as u32;
                        (a != b).then(|| Edge::new(a, b))
                    })
                    .collect();
                AdversarySpec::Replay(Arc::new(edges))
            }
        }
    }

    fn attack(&mut self) -> AttackScenario {
        AttackScenario {
            label: self.label(),
            victim: self.colorer(),
            adversary: self.adversary(),
            n: self.next() as usize,
            delta: self.next() as usize,
            rounds: self.next() as usize,
            victim_seed: self.next(),
            adversary_seed: self.next(),
        }
    }
}

// ---------------------------------------------------------------------
// Error-path hardening: malformed, truncated, and unknown-key spec
// files must return Err naming the problem — never panic, never
// silently ignore a field.
// ---------------------------------------------------------------------

mod error_paths {
    use super::*;
    use sc_engine::flatjson::Scalar;
    use sc_engine::shard::ShardJob;

    fn sample_scenario() -> Scenario {
        Scenario::new(SourceSpec::exact_degree(20, 3, 1), ColorerSpec::Bg18 { buckets: Some(4) })
    }

    #[test]
    fn unknown_scenario_keys_name_the_offender() {
        let mut obj = wire::scenario_to_wire(&sample_scenario());
        obj.insert("buckts".into(), Scalar::Uint(12));
        let e = wire::scenario_from_wire(&obj).unwrap_err();
        assert!(e.contains("unknown key") && e.contains("buckts"), "{e}");
    }

    #[test]
    fn parameters_of_other_colorers_are_unknown_keys() {
        // "beta" belongs to robust; on a bg18 scenario it must error, not
        // silently vanish on the next re-encode.
        let mut obj = wire::scenario_to_wire(&sample_scenario());
        obj.insert("beta".into(), Scalar::Num(0.5));
        let e = wire::scenario_from_wire(&obj).unwrap_err();
        assert!(e.contains("unknown key") && e.contains("beta"), "{e}");
    }

    #[test]
    fn unknown_attack_keys_name_the_offender() {
        let attack = AttackScenario::new(
            ColorerSpec::Robust { beta: None },
            AdversarySpec::Monochromatic,
            30,
            4,
        );
        let mut obj = wire::attack_to_wire(&attack);
        obj.insert("round".into(), Scalar::Uint(99));
        let e = wire::attack_from_wire(&obj).unwrap_err();
        assert!(e.contains("unknown key") && e.contains("round"), "{e}");
    }

    #[test]
    fn truncated_spec_files_error_instead_of_panicking() {
        let text = ShardJob::Grid(vec![sample_scenario()]).encode();
        for cut in [1, text.len() / 3, text.len() / 2, text.len() - 2] {
            let truncated = &text[..cut];
            assert!(
                ShardJob::decode(truncated).is_err(),
                "truncation at byte {cut} must not decode"
            );
        }
    }

    #[test]
    fn shard_job_header_rejects_unknown_and_misspelled_keys() {
        let grid = ShardJob::Grid(vec![sample_scenario()]);
        let tampered = grid.encode().replace(
            "\"kind\":\"shard-job\",\"payload\":\"grid\"",
            "\"kind\":\"shard-job\",\"payload\":\"grid\",\"trails\":3",
        );
        let e = ShardJob::decode(&tampered).unwrap_err();
        assert!(e.contains("unknown key") && e.contains("trails"), "{e}");
    }

    #[test]
    fn overflowing_numbers_in_spec_files_are_decode_errors() {
        // 1e999 would parse to +inf and then panic inside canonicalize's
        // re-encode; the parser must refuse it up front.
        let text = ShardJob::Grid(vec![Scenario::new(
            SourceSpec::gnp(20, 3, 0.5, 1),
            ColorerSpec::Robust { beta: Some(0.5) },
        )])
        .encode()
        .replace("0.5,", "1e999,");
        let e = ShardJob::decode(&text).unwrap_err();
        assert!(e.contains("overflows"), "{e}");
    }

    #[test]
    fn wrongly_typed_fields_error_with_the_field_name() {
        let mut obj = wire::scenario_to_wire(&sample_scenario());
        obj.insert("seed".into(), Scalar::Str("seven".into()));
        let e = wire::scenario_from_wire(&obj).unwrap_err();
        assert!(e.contains("seed"), "{e}");

        let mut obj = wire::scenario_to_wire(&sample_scenario());
        obj.insert("buckets".into(), Scalar::Bool(true));
        let e = wire::scenario_from_wire(&obj).unwrap_err();
        assert!(e.contains("buckets"), "{e}");
    }
}

// ---------------------------------------------------------------------
// Colorer state codecs: decode ∘ encode ≡ id, canonical bytes, and loud
// failures on mangled blobs — the engine-level half of the persistence
// law (`crates/service/tests/snapshot_determinism.rs` owns the protocol
// half).
// ---------------------------------------------------------------------

mod state_codecs {
    use super::*;
    use sc_graph::generators;

    /// Every spec [`ColorerSpec::build`] accepts (the four offline
    /// algorithms are build-time errors, so a codec-less colorer cannot
    /// exist). `bcg20` is the one that needs a materialized graph.
    fn codec_specs() -> Vec<(ColorerSpec, bool)> {
        vec![
            (ColorerSpec::Robust { beta: None }, false),
            (ColorerSpec::Robust { beta: Some(0.5) }, false),
            (ColorerSpec::Auto, false),
            (ColorerSpec::RandEfficient, false),
            (ColorerSpec::Cgs22, false),
            (ColorerSpec::Bg18 { buckets: None }, false),
            (ColorerSpec::Bcg20 { epsilon: 0.5 }, true),
            (ColorerSpec::PaletteSparsification { lists: Some(6) }, false),
            (ColorerSpec::StoreAll, false),
            (ColorerSpec::Trivial, false),
        ]
    }

    /// Feeds a prefix, round-trips the state into a freshly built twin,
    /// and demands (a) canonical bytes on re-encode, (b) identical
    /// colorings now and after both ingest the rest of the stream.
    pub fn check_round_trip(seed: u64) -> Result<(), String> {
        let mut rng = Gen::new(seed);
        let n = 20 + rng.below(20) as usize;
        let delta = 3 + rng.below(5) as usize;
        let g = generators::gnp_with_max_degree(n, delta, 0.5, rng.next());
        let edges: Vec<Edge> = generators::shuffled_edges(&g, rng.next());
        let cut = rng.below(edges.len() as u64 + 1) as usize;
        for (spec, needs_graph) in codec_specs() {
            let graph = needs_graph.then_some(&g);
            let colorer_seed = rng.next();
            let mut original = spec.build(n, delta, colorer_seed, graph)?;
            original.process_batch(&edges[..cut]);

            let blob = original.encode_state()?;
            let mut restored = spec.build(n, delta, colorer_seed, graph)?;
            restored.decode_state(&blob)?;
            let reencoded = restored.encode_state()?;
            if reencoded != blob {
                return Err(format!("{spec:?}: re-encode drifted\n {blob}\n {reencoded}"));
            }

            if restored.query() != original.query() {
                return Err(format!("{spec:?}: colorings diverged at the snapshot point"));
            }
            original.process_batch(&edges[cut..]);
            restored.process_batch(&edges[cut..]);
            if restored.query() != original.query() {
                return Err(format!("{spec:?}: colorings diverged after resuming the stream"));
            }
        }
        Ok(())
    }

    /// Mangled blobs must fail loudly, naming the offender — for every
    /// codec, since each decodes its own vocabulary.
    #[test]
    fn mangled_state_blobs_name_the_offender() {
        let mut rng = Gen::new(7);
        let n = 24;
        let delta = 4;
        let g = generators::gnp_with_max_degree(n, delta, 0.5, 7);
        let edges: Vec<Edge> = generators::shuffled_edges(&g, 8);
        for (spec, needs_graph) in codec_specs() {
            let graph = needs_graph.then_some(&g);
            let seed = rng.next();
            let mut colorer = spec.build(n, delta, seed, graph).unwrap();
            colorer.process_batch(&edges[..edges.len() / 2]);
            let blob = colorer.encode_state().unwrap();
            let fresh = || spec.build(n, delta, seed, graph).unwrap();

            // Truncation: cut mid-blob (never a valid shorter blob —
            // every field is demanded by name).
            let e = fresh().decode_state(&blob[..blob.len() / 2]).unwrap_err();
            assert!(!e.is_empty(), "{spec:?}: truncation must error");

            // Typo'd first key: "algo" is every codec's opening field.
            let typod = blob.replacen("algo=", "algq=", 1);
            let e = fresh().decode_state(&typod).unwrap_err();
            assert!(e.contains("algo") && e.contains("algq"), "{spec:?}: {e}");

            // Unknown trailing key.
            let e = fresh().decode_state(&format!("{blob};bogus=1")).unwrap_err();
            assert!(e.contains("bogus"), "{spec:?}: {e}");

            // A blob from a different algorithm names the mismatch.
            if !matches!(spec, ColorerSpec::Trivial) {
                let mut stranger = ColorerSpec::Trivial.build(n, delta, seed, None).unwrap();
                let e = stranger.decode_state(&blob).unwrap_err();
                assert!(e.contains("is not"), "{spec:?}: {e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scenarios_round_trip(seed in any::<u64>()) {
        let s = Gen::new(seed).scenario();
        let back = wire::scenario_from_wire(&wire::scenario_to_wire(&s));
        prop_assert_eq!(back.as_ref(), Ok(&s), "seed {}", seed);
    }

    #[test]
    fn attacks_round_trip(seed in any::<u64>()) {
        let a = Gen::new(seed).attack();
        let back = wire::attack_from_wire(&wire::attack_to_wire(&a));
        prop_assert_eq!(back.as_ref(), Ok(&a), "seed {}", seed);
    }

    #[test]
    fn engine_configs_round_trip(seed in any::<u64>()) {
        let cfg = Gen::new(seed).engine_config();
        let text = cfg.wire_encode();
        let back = EngineConfig::wire_decode(&text);
        prop_assert_eq!(back.as_ref(), Ok(&cfg), "wire text {:?}", text);
        // Stability: re-encoding the decoded value is byte-identical.
        prop_assert_eq!(back.unwrap().wire_encode(), text);
    }

    /// `decode_state ∘ encode_state ≡ id` for every colorer, with
    /// canonical bytes and an identical continuation of the stream.
    #[test]
    fn colorer_states_round_trip(seed in any::<u64>()) {
        prop_assert_eq!(state_codecs::check_round_trip(seed), Ok(()), "seed {}", seed);
    }

    #[test]
    fn grids_round_trip_including_empty(seed in any::<u64>(), len in 0usize..5) {
        let mut g = Gen::new(seed);
        let job = sc_engine::shard::ShardJob::Grid((0..len).map(|_| g.scenario()).collect());
        let text = job.encode();
        let back = sc_engine::shard::ShardJob::decode(&text);
        prop_assert_eq!(back.as_ref(), Ok(&job));
        // Canonical: encoding the decoded grid is byte-identical.
        prop_assert_eq!(back.unwrap().encode(), text);
    }
}

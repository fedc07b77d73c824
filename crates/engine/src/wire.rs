//! Wire-format encoding of the declarative experiment layer.
//!
//! [`Scenario`] and [`AttackScenario`] are plain data, which is what
//! makes grids shardable across OS processes: this module round-trips
//! them (and everything they contain — [`SourceSpec`], [`ColorerSpec`],
//! [`sc_stream::EngineConfig`], [`sc_stream::StreamOrder`]) through the
//! [`flatjson`](crate::flatjson) wire format, one flat object per
//! scenario. A [`shard`](crate::shard) job spec is encoded this way, and
//! each worker decodes it back before running its slice.
//!
//! Laws (property-tested in `tests/wire_roundtrip.rs`):
//!
//! * **Round-trip** — `from_wire(to_wire(x)) == x` for every scenario the
//!   workspace can express, including irregular floats (`-0.0`,
//!   subnormals, `1e308`) and empty grids. The one caveat is stored
//!   graphs: adjacency-list *order* is not on the wire, so a decoded
//!   graph is the canonical representative with the same edge sequence.
//!   `decode(encode(·))` is idempotent, and the shard layer always
//!   compares runs of the *decoded* job (see
//!   [`shard::ShardJob::canonicalize`](crate::shard::ShardJob::canonicalize)).
//! * **Canonical text** — equal values encode to byte-identical text
//!   (sorted keys, deterministic number formatting), which is what lets
//!   CI `diff` merged shard outputs against single-process runs.

use crate::attack::{AdversarySpec, AttackScenario};
use crate::flatjson::{FlatObject, Scalar};
use crate::scenario::Scenario;
use crate::source::{GraphFamily, SourceSpec};
use crate::spec::ColorerSpec;
use sc_graph::{Edge, Graph};
use sc_stream::{EngineConfig, StreamOrder};
use std::sync::Arc;
use streamcolor::{DerandStrategy, DetConfig};

// ---------------------------------------------------------------------
// Field accessors (shared by the decoders and the sc-service protocol;
// errors distinguish an absent field from a present-but-mistyped one,
// naming the field either way).
// ---------------------------------------------------------------------

/// Reads a required string field.
///
/// # Errors
/// Names the field, distinguishing absent from wrongly typed.
pub fn str_field<'a>(obj: &'a FlatObject, key: &str) -> Result<&'a str, String> {
    match obj.get(key) {
        None => Err(format!("missing string field {key:?}")),
        Some(v) => v.as_str().ok_or(format!("field {key:?} must be a string")),
    }
}

/// Reads a required non-negative integer field.
///
/// # Errors
/// Names the field, distinguishing absent from wrongly typed (floats
/// like `100.0` are *not* integers on this wire — [`Scalar::Uint`] is).
pub fn u64_field(obj: &FlatObject, key: &str) -> Result<u64, String> {
    match obj.get(key) {
        None => Err(format!("missing integer field {key:?}")),
        Some(v) => v.as_u64().ok_or(format!("field {key:?} must be a non-negative integer")),
    }
}

/// Reads a required non-negative integer field as a `usize`.
///
/// # Errors
/// Like [`u64_field`], plus overflow on 32-bit targets.
pub fn usize_field(obj: &FlatObject, key: &str) -> Result<usize, String> {
    u64_field(obj, key)?.try_into().map_err(|_| format!("field {key:?} overflows usize"))
}

pub(crate) fn f64_field(obj: &FlatObject, key: &str) -> Result<f64, String> {
    match obj.get(key) {
        None => Err(format!("missing numeric field {key:?}")),
        Some(v) => v.as_f64().ok_or(format!("field {key:?} must be a number")),
    }
}

pub(crate) fn bool_field(obj: &FlatObject, key: &str) -> Result<bool, String> {
    match obj.get(key) {
        None => Err(format!("missing boolean field {key:?}")),
        Some(v) => v.as_bool().ok_or(format!("field {key:?} must be a boolean")),
    }
}

pub(crate) fn opt_u64(obj: &FlatObject, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or(format!("field {key:?} must be an integer")),
    }
}

fn opt_usize(obj: &FlatObject, key: &str) -> Result<Option<usize>, String> {
    opt_u64(obj, key)?
        .map(|x| x.try_into().map_err(|_| format!("field {key:?} overflows usize")))
        .transpose()
}

/// Errors on any key of `obj` that the canonical re-encoding of the
/// decoded value does not contain.
///
/// Decoders read fields by name, so a misspelled or foreign key in a
/// hand-written spec file would otherwise be *silently ignored* — the
/// classic config-rot failure where `"buckts": 12` quietly runs the
/// default. Comparing against the canonical encoding of what was
/// actually decoded needs no per-variant key tables and can never drift
/// from the encoder.
pub(crate) fn reject_unknown_keys(
    obj: &FlatObject,
    canonical: &FlatObject,
    what: &str,
) -> Result<(), String> {
    for key in obj.keys() {
        if !canonical.contains_key(key) {
            return Err(format!("{what}: unknown key {key:?}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Edge lists (stored graphs, replay adversaries).
// ---------------------------------------------------------------------

/// Encodes an edge sequence as `"0-1 0-2 …"` (empty string for none).
/// Public because the `sc-service` line protocol ships `push_batch`
/// payloads in exactly this form.
pub fn encode_edges(edges: impl IntoIterator<Item = Edge>) -> String {
    let list: Vec<String> = edges.into_iter().map(|e| format!("{}-{}", e.u(), e.v())).collect();
    list.join(" ")
}

/// Decodes an [`encode_edges`] string; endpoints must be distinct and
/// `< n` when a bound is given.
///
/// # Errors
/// Returns a message naming the malformed token.
pub fn decode_edges(text: &str, n: Option<usize>) -> Result<Vec<Edge>, String> {
    let mut out = Vec::new();
    for tok in text.split_whitespace() {
        let (a, b) = tok.split_once('-').ok_or(format!("edge {tok:?} is not u-v"))?;
        let a: u32 = a.parse().map_err(|e| format!("edge {tok:?}: {e}"))?;
        let b: u32 = b.parse().map_err(|e| format!("edge {tok:?}: {e}"))?;
        if a == b {
            return Err(format!("edge {tok:?} is a self-loop"));
        }
        if let Some(n) = n {
            if a.max(b) as usize >= n {
                return Err(format!("edge {tok:?} out of range for n = {n}"));
            }
        }
        out.push(Edge::new(a, b));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// ColorerSpec <-> fields ("colorer" + per-algorithm parameters).
// ---------------------------------------------------------------------

/// Writes the `"colorer"` discriminant and per-algorithm parameter
/// fields of `spec` into `obj` — the same flat fields a [`Scenario`]
/// object carries, reused verbatim by the `sc-service` `open` command.
pub fn colorer_to_wire(spec: &ColorerSpec, obj: &mut FlatObject) {
    let id = |obj: &mut FlatObject, name: &str| {
        obj.insert("colorer".into(), Scalar::Str(name.into()));
    };
    match spec {
        ColorerSpec::Robust { beta } => {
            id(obj, "robust");
            if let Some(b) = beta {
                obj.insert("beta".into(), Scalar::Num(*b));
            }
        }
        ColorerSpec::Auto => id(obj, "auto"),
        ColorerSpec::RandEfficient => id(obj, "rand-efficient"),
        ColorerSpec::Cgs22 => id(obj, "cgs22"),
        ColorerSpec::Bg18 { buckets } => {
            id(obj, "bg18");
            if let Some(b) = buckets {
                obj.insert("buckets".into(), Scalar::Uint(*b));
            }
        }
        ColorerSpec::Bcg20 { epsilon } => {
            id(obj, "bcg20");
            obj.insert("epsilon".into(), Scalar::Num(*epsilon));
        }
        ColorerSpec::PaletteSparsification { lists } => {
            id(obj, "ps");
            if let Some(k) = lists {
                obj.insert("lists".into(), Scalar::Uint(*k as u64));
            }
        }
        ColorerSpec::StoreAll => id(obj, "store-all"),
        ColorerSpec::DynamicSr { sparsity } => {
            id(obj, "dynamic-sr");
            if let Some(s) = sparsity {
                obj.insert("sparsity".into(), Scalar::Uint(*s as u64));
            }
        }
        ColorerSpec::Trivial => id(obj, "trivial"),
        ColorerSpec::Det(config) => {
            id(obj, "det");
            match config.derand {
                DerandStrategy::FullFamily => {
                    obj.insert("derand".into(), Scalar::Str("full".into()));
                }
                DerandStrategy::Grid { l } => {
                    obj.insert("derand".into(), Scalar::Str("grid".into()));
                    obj.insert("grid_l".into(), Scalar::Uint(l as u64));
                }
            }
            obj.insert("max_epochs".into(), Scalar::Uint(config.max_epochs as u64));
            obj.insert("track_potential".into(), Scalar::Bool(config.track_potential));
        }
        ColorerSpec::BatchGreedy => id(obj, "batch-greedy"),
        ColorerSpec::OfflineGreedy => id(obj, "offline-greedy"),
        ColorerSpec::Brooks => id(obj, "brooks"),
    }
}

/// Reads a [`colorer_to_wire`] field set back out of `obj`.
///
/// # Errors
/// Returns a message naming the missing or malformed field.
pub fn colorer_from_wire(obj: &FlatObject) -> Result<ColorerSpec, String> {
    Ok(match str_field(obj, "colorer")? {
        "robust" => {
            let beta = match obj.get("beta") {
                None => None,
                Some(v) => {
                    Some(v.as_f64().ok_or_else(|| "field \"beta\" must be a number".to_string())?)
                }
            };
            ColorerSpec::Robust { beta }
        }
        "auto" => ColorerSpec::Auto,
        "rand-efficient" => ColorerSpec::RandEfficient,
        "cgs22" => ColorerSpec::Cgs22,
        "bg18" => ColorerSpec::Bg18 { buckets: opt_u64(obj, "buckets")? },
        "bcg20" => ColorerSpec::Bcg20 { epsilon: f64_field(obj, "epsilon")? },
        "ps" => ColorerSpec::PaletteSparsification { lists: opt_usize(obj, "lists")? },
        "store-all" => ColorerSpec::StoreAll,
        "dynamic-sr" => ColorerSpec::DynamicSr { sparsity: opt_usize(obj, "sparsity")? },
        "trivial" => ColorerSpec::Trivial,
        "det" => {
            let derand = match str_field(obj, "derand")? {
                "full" => DerandStrategy::FullFamily,
                "grid" => DerandStrategy::Grid { l: usize_field(obj, "grid_l")? },
                other => return Err(format!("unknown derand strategy {other:?}")),
            };
            ColorerSpec::Det(DetConfig {
                derand,
                max_epochs: usize_field(obj, "max_epochs")?,
                track_potential: bool_field(obj, "track_potential")?,
            })
        }
        "batch-greedy" => ColorerSpec::BatchGreedy,
        "offline-greedy" => ColorerSpec::OfflineGreedy,
        "brooks" => ColorerSpec::Brooks,
        other => return Err(format!("unknown colorer {other:?}")),
    })
}

// ---------------------------------------------------------------------
// SourceSpec <-> fields.
// ---------------------------------------------------------------------

fn family_id(family: GraphFamily) -> &'static str {
    match family {
        GraphFamily::Gnp => "gnp",
        GraphFamily::ExactDegree => "exact",
        GraphFamily::PreferentialAttachment => "pa",
        GraphFamily::Cycle => "cycle",
        GraphFamily::Path => "path",
        GraphFamily::Complete => "complete",
        GraphFamily::Star => "star",
        GraphFamily::CliqueUnion { .. } => "clique-union",
        GraphFamily::Bipartite { .. } => "bipartite",
        GraphFamily::Petersen => "petersen",
        GraphFamily::Circulant => "circulant",
    }
}

fn source_to_wire(source: &SourceSpec, obj: &mut FlatObject) {
    match source {
        SourceSpec::Stored(g) => {
            obj.insert("source".into(), Scalar::Str("stored".into()));
            obj.insert("n".into(), Scalar::Uint(g.n() as u64));
            obj.insert("edges".into(), Scalar::Str(encode_edges(g.edges())));
        }
        SourceSpec::Family { family, n, delta, p, seed } => {
            obj.insert("source".into(), Scalar::Str("family".into()));
            obj.insert("family".into(), Scalar::Str(family_id(*family).into()));
            obj.insert("n".into(), Scalar::Uint(*n as u64));
            obj.insert("delta".into(), Scalar::Uint(*delta as u64));
            obj.insert("p".into(), Scalar::Num(*p));
            obj.insert("source_seed".into(), Scalar::Uint(*seed));
            match family {
                GraphFamily::CliqueUnion { k, size } => {
                    obj.insert("cu_k".into(), Scalar::Uint(*k as u64));
                    obj.insert("cu_size".into(), Scalar::Uint(*size as u64));
                }
                GraphFamily::Bipartite { a, b } => {
                    obj.insert("bip_a".into(), Scalar::Uint(*a as u64));
                    obj.insert("bip_b".into(), Scalar::Uint(*b as u64));
                }
                _ => {}
            }
        }
        SourceSpec::Churn { n, delta, p, seed, rounds } => {
            obj.insert("source".into(), Scalar::Str("churn".into()));
            obj.insert("n".into(), Scalar::Uint(*n as u64));
            obj.insert("delta".into(), Scalar::Uint(*delta as u64));
            obj.insert("p".into(), Scalar::Num(*p));
            obj.insert("source_seed".into(), Scalar::Uint(*seed));
            obj.insert("churn_rounds".into(), Scalar::Uint(*rounds as u64));
        }
        SourceSpec::SlidingWindow { n, delta, p, seed, window } => {
            obj.insert("source".into(), Scalar::Str("window".into()));
            obj.insert("n".into(), Scalar::Uint(*n as u64));
            obj.insert("delta".into(), Scalar::Uint(*delta as u64));
            obj.insert("p".into(), Scalar::Num(*p));
            obj.insert("source_seed".into(), Scalar::Uint(*seed));
            obj.insert("window".into(), Scalar::Uint(*window as u64));
        }
    }
}

fn source_from_wire(obj: &FlatObject) -> Result<SourceSpec, String> {
    match str_field(obj, "source")? {
        "stored" => {
            let n = usize_field(obj, "n")?;
            let edges = decode_edges(str_field(obj, "edges")?, Some(n))?;
            Ok(SourceSpec::Stored(Arc::new(Graph::from_edges(n, edges))))
        }
        "family" => {
            let family = match str_field(obj, "family")? {
                "gnp" => GraphFamily::Gnp,
                "exact" => GraphFamily::ExactDegree,
                "pa" => GraphFamily::PreferentialAttachment,
                "cycle" => GraphFamily::Cycle,
                "path" => GraphFamily::Path,
                "complete" => GraphFamily::Complete,
                "star" => GraphFamily::Star,
                "clique-union" => GraphFamily::CliqueUnion {
                    k: usize_field(obj, "cu_k")?,
                    size: usize_field(obj, "cu_size")?,
                },
                "bipartite" => GraphFamily::Bipartite {
                    a: usize_field(obj, "bip_a")?,
                    b: usize_field(obj, "bip_b")?,
                },
                "petersen" => GraphFamily::Petersen,
                "circulant" => GraphFamily::Circulant,
                other => return Err(format!("unknown graph family {other:?}")),
            };
            Ok(SourceSpec::Family {
                family,
                n: usize_field(obj, "n")?,
                delta: usize_field(obj, "delta")?,
                p: f64_field(obj, "p")?,
                seed: u64_field(obj, "source_seed")?,
            })
        }
        "churn" => Ok(SourceSpec::Churn {
            n: usize_field(obj, "n")?,
            delta: usize_field(obj, "delta")?,
            p: f64_field(obj, "p")?,
            seed: u64_field(obj, "source_seed")?,
            rounds: usize_field(obj, "churn_rounds")?,
        }),
        "window" => Ok(SourceSpec::SlidingWindow {
            n: usize_field(obj, "n")?,
            delta: usize_field(obj, "delta")?,
            p: f64_field(obj, "p")?,
            seed: u64_field(obj, "source_seed")?,
            window: usize_field(obj, "window")?,
        }),
        other => Err(format!("unknown source kind {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Scenario.
// ---------------------------------------------------------------------

/// Encodes one scenario as a flat wire object (`"kind": "scenario"`).
pub fn scenario_to_wire(s: &Scenario) -> FlatObject {
    let mut obj = FlatObject::new();
    obj.insert("kind".into(), Scalar::Str("scenario".into()));
    obj.insert("label".into(), Scalar::Str(s.label.clone()));
    source_to_wire(&s.source, &mut obj);
    obj.insert("order".into(), Scalar::Str(s.order.wire_encode()));
    colorer_to_wire(&s.colorer, &mut obj);
    obj.insert("engine".into(), Scalar::Str(s.engine.wire_encode()));
    obj.insert("seed".into(), Scalar::Uint(s.seed));
    obj
}

/// Decodes a [`scenario_to_wire`] object.
///
/// # Errors
/// Returns a message naming the missing or malformed field.
pub fn scenario_from_wire(obj: &FlatObject) -> Result<Scenario, String> {
    match str_field(obj, "kind")? {
        "scenario" => {}
        other => return Err(format!("expected a scenario object, got kind {other:?}")),
    }
    let scenario = Scenario {
        label: str_field(obj, "label")?.to_string(),
        source: source_from_wire(obj)?,
        order: StreamOrder::wire_decode(str_field(obj, "order")?)?,
        colorer: colorer_from_wire(obj)?,
        engine: EngineConfig::wire_decode(str_field(obj, "engine")?)?,
        seed: u64_field(obj, "seed")?,
    };
    reject_unknown_keys(obj, &scenario_to_wire(&scenario), "scenario")?;
    Ok(scenario)
}

// ---------------------------------------------------------------------
// AttackScenario.
// ---------------------------------------------------------------------

fn adversary_to_wire(spec: &AdversarySpec, obj: &mut FlatObject) {
    let id = |obj: &mut FlatObject, name: &str| {
        obj.insert("adversary".into(), Scalar::Str(name.into()));
    };
    match spec {
        AdversarySpec::Monochromatic => id(obj, "mono"),
        AdversarySpec::Random => id(obj, "random"),
        AdversarySpec::CliqueBuilder => id(obj, "clique"),
        AdversarySpec::BufferBoundary { buffer } => {
            id(obj, "buffer");
            if let Some(b) = buffer {
                obj.insert("buffer".into(), Scalar::Uint(*b as u64));
            }
        }
        AdversarySpec::LevelBoundary => id(obj, "level"),
        AdversarySpec::Oscillation => id(obj, "oscillation"),
        AdversarySpec::Replay(edges) => {
            id(obj, "replay");
            obj.insert("replay_edges".into(), Scalar::Str(encode_edges(edges.iter().copied())));
        }
    }
}

fn adversary_from_wire(obj: &FlatObject) -> Result<AdversarySpec, String> {
    Ok(match str_field(obj, "adversary")? {
        "mono" => AdversarySpec::Monochromatic,
        "random" => AdversarySpec::Random,
        "clique" => AdversarySpec::CliqueBuilder,
        "buffer" => AdversarySpec::BufferBoundary { buffer: opt_usize(obj, "buffer")? },
        "level" => AdversarySpec::LevelBoundary,
        "oscillation" => AdversarySpec::Oscillation,
        "replay" => {
            AdversarySpec::Replay(Arc::new(decode_edges(str_field(obj, "replay_edges")?, None)?))
        }
        other => return Err(format!("unknown adversary {other:?}")),
    })
}

/// Encodes one attack scenario as a flat wire object (`"kind": "attack"`).
pub fn attack_to_wire(s: &AttackScenario) -> FlatObject {
    let mut obj = FlatObject::new();
    obj.insert("kind".into(), Scalar::Str("attack".into()));
    obj.insert("label".into(), Scalar::Str(s.label.clone()));
    colorer_to_wire(&s.victim, &mut obj);
    adversary_to_wire(&s.adversary, &mut obj);
    obj.insert("n".into(), Scalar::Uint(s.n as u64));
    obj.insert("delta".into(), Scalar::Uint(s.delta as u64));
    obj.insert("rounds".into(), Scalar::Uint(s.rounds as u64));
    obj.insert("victim_seed".into(), Scalar::Uint(s.victim_seed));
    obj.insert("adversary_seed".into(), Scalar::Uint(s.adversary_seed));
    obj
}

/// Decodes an [`attack_to_wire`] object.
///
/// # Errors
/// Returns a message naming the missing or malformed field.
pub fn attack_from_wire(obj: &FlatObject) -> Result<AttackScenario, String> {
    match str_field(obj, "kind")? {
        "attack" => {}
        other => return Err(format!("expected an attack object, got kind {other:?}")),
    }
    let attack = AttackScenario {
        label: str_field(obj, "label")?.to_string(),
        victim: colorer_from_wire(obj)?,
        adversary: adversary_from_wire(obj)?,
        n: usize_field(obj, "n")?,
        delta: usize_field(obj, "delta")?,
        rounds: usize_field(obj, "rounds")?,
        victim_seed: u64_field(obj, "victim_seed")?,
        adversary_seed: u64_field(obj, "adversary_seed")?,
    };
    reject_unknown_keys(obj, &attack_to_wire(&attack), "attack")?;
    Ok(attack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_stream::QuerySchedule;

    fn all_colorers() -> Vec<ColorerSpec> {
        vec![
            ColorerSpec::Robust { beta: None },
            ColorerSpec::Robust { beta: Some(0.5) },
            ColorerSpec::Auto,
            ColorerSpec::RandEfficient,
            ColorerSpec::Cgs22,
            ColorerSpec::Bg18 { buckets: None },
            ColorerSpec::Bg18 { buckets: Some(12) },
            ColorerSpec::Bcg20 { epsilon: 0.25 },
            ColorerSpec::PaletteSparsification { lists: None },
            ColorerSpec::PaletteSparsification { lists: Some(6) },
            ColorerSpec::StoreAll,
            ColorerSpec::Trivial,
            ColorerSpec::Det(DetConfig::default()),
            ColorerSpec::Det(DetConfig::theory()),
            ColorerSpec::Det(DetConfig { track_potential: true, ..DetConfig::with_grid(8) }),
            ColorerSpec::BatchGreedy,
            ColorerSpec::OfflineGreedy,
            ColorerSpec::Brooks,
        ]
    }

    #[test]
    fn every_colorer_spec_round_trips() {
        for colorer in all_colorers() {
            let s = Scenario::new(SourceSpec::exact_degree(40, 4, 1), colorer.clone());
            let back = scenario_from_wire(&scenario_to_wire(&s)).unwrap();
            assert_eq!(back, s, "{colorer:?}");
        }
    }

    #[test]
    fn every_family_round_trips() {
        let families = [
            GraphFamily::Gnp,
            GraphFamily::ExactDegree,
            GraphFamily::PreferentialAttachment,
            GraphFamily::Cycle,
            GraphFamily::Path,
            GraphFamily::Complete,
            GraphFamily::Star,
            GraphFamily::CliqueUnion { k: 3, size: 4 },
            GraphFamily::Bipartite { a: 10, b: 12 },
            GraphFamily::Petersen,
            GraphFamily::Circulant,
        ];
        for family in families {
            let s = Scenario::new(
                SourceSpec::Family { family, n: 24, delta: 4, p: 0.3, seed: 9 },
                ColorerSpec::StoreAll,
            );
            let back = scenario_from_wire(&scenario_to_wire(&s)).unwrap();
            assert_eq!(back, s, "{family:?}");
        }
    }

    #[test]
    fn stored_sources_round_trip_canonically() {
        let g = sc_graph::generators::gnp_with_max_degree(30, 5, 0.4, 3);
        let s = Scenario::new(SourceSpec::stored(g.clone()), ColorerSpec::Trivial)
            .labeled("robust ∆^2.5 \"quoted\"")
            .with_order(StreamOrder::Interleaved(3))
            .with_engine(EngineConfig::batched(32).scratch_queries())
            .with_schedule(QuerySchedule::AtPrefixes(vec![5, 17]));
        let once = scenario_from_wire(&scenario_to_wire(&s)).unwrap();
        // Same edge sequence and metadata…
        match (&once.source, &s.source) {
            (SourceSpec::Stored(a), SourceSpec::Stored(b)) => {
                assert_eq!(a.n(), b.n());
                assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
            }
            other => panic!("stored source decoded as {other:?}"),
        }
        assert_eq!((&once.label, once.order, &once.engine), (&s.label, s.order, &s.engine));
        // …and decode∘encode is idempotent (canonical representative).
        let twice = scenario_from_wire(&scenario_to_wire(&once)).unwrap();
        assert_eq!(twice, once);
        assert_eq!(scenario_to_wire(&twice), scenario_to_wire(&once));
    }

    #[test]
    fn attacks_round_trip() {
        let adversaries = vec![
            AdversarySpec::Monochromatic,
            AdversarySpec::Random,
            AdversarySpec::CliqueBuilder,
            AdversarySpec::BufferBoundary { buffer: None },
            AdversarySpec::BufferBoundary { buffer: Some(64) },
            AdversarySpec::LevelBoundary,
            AdversarySpec::Replay(Arc::new(vec![Edge::new(0, 1), Edge::new(2, 1)])),
        ];
        for adversary in adversaries {
            let s = AttackScenario::new(
                ColorerSpec::Robust { beta: Some(0.1) },
                adversary.clone(),
                50,
                6,
            )
            .with_seed(u64::MAX);
            let back = attack_from_wire(&attack_to_wire(&s)).unwrap();
            assert_eq!(back, s, "{adversary:?}");
        }
    }

    #[test]
    fn grids_round_trip_including_empty() {
        use crate::shard::ShardJob;
        let grid: Vec<Scenario> = (0..4)
            .map(|i| {
                Scenario::new(SourceSpec::gnp(30, 4, 0.3, i), ColorerSpec::Robust { beta: None })
                    .with_seed(i * 31)
            })
            .collect();
        for job in [ShardJob::Grid(Vec::new()), ShardJob::Grid(grid)] {
            assert_eq!(ShardJob::decode(&job.encode()).unwrap(), job);
        }
    }

    #[test]
    fn decode_errors_name_the_problem() {
        let mut obj = scenario_to_wire(&Scenario::new(
            SourceSpec::exact_degree(10, 3, 1),
            ColorerSpec::StoreAll,
        ));
        obj.remove("order");
        assert!(scenario_from_wire(&obj).unwrap_err().contains("order"));
        obj.insert("order".into(), Scalar::Str("sorted".into()));
        assert!(scenario_from_wire(&obj).unwrap_err().contains("sorted"));

        assert!(decode_edges("3-3", None).unwrap_err().contains("self-loop"));
        assert!(decode_edges("5-9", Some(6)).unwrap_err().contains("out of range"));
        assert!(decode_edges("5:9", None).unwrap_err().contains("not u-v"));

        let attack = attack_to_wire(&AttackScenario::new(
            ColorerSpec::StoreAll,
            AdversarySpec::Random,
            10,
            3,
        ));
        assert!(scenario_from_wire(&attack).unwrap_err().contains("attack"));
    }
}

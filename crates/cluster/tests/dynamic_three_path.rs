//! The turnstile three-path byte-identity law.
//!
//! One deletion-bearing (churn) scenario, property-tested across seeds,
//! must produce the same answers through every route the workspace can
//! run it:
//!
//! 1. the in-process [`Runner`] (signed engine route),
//! 2. `streamcolor serve --listen` (the single-threaded [`Reactor`]),
//! 3. `streamcolor shard --transport tcp` (a [`ClusterCoordinator`]
//!    dispatching the scenario over a socket to a reactor),
//!
//! plus a snapshot/restore of the serve session at a **random cut** —
//! possibly between a delete and the re-insert it pairs with — onto a
//! fresh host. Path 2 and the restored run are compared line by line
//! (byte-for-byte) against an isolated in-process `Service`; path 1's
//! final coloring is compared against the wire coloring parsed back out
//! of the serve transcript; path 3 is compared against the
//! single-process shard reference, whose outcome embeds path 1's bytes.

use proptest::prelude::*;
use sc_cluster::transport::{Tcp, Transport as _};
use sc_cluster::{ClusterCoordinator, Reactor, TransportSpec};
use sc_engine::flatjson::{encode_object, parse_object, FlatObject, Scalar};
use sc_engine::shard::{run_in_process, ShardJob};
use sc_engine::{ColorerSpec, Runner, Scenario, SourceSpec};
use sc_service::service::parse_coloring;
use sc_service::Service;
use sc_stream::encode_signed_list;
use std::time::Duration;

const TICK: Duration = Duration::from_secs(120);

/// SplitMix64, for deriving scenario parameters from one proptest seed.
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

/// The serve-side transcript of the scenario: open with the same
/// `(n, delta, seed)` the runner's signed route uses, then the exact
/// token sequence chunked arbitrarily across both signed vocabularies
/// (single tokens ride `push` with a `"sign"` field, runs ride
/// `push_batch` with `±u-v` tokens), then observe/stats/finish.
fn serve_script(name: &str, source: &SourceSpec, victim_seed: u64, rng: &mut Gen) -> Vec<String> {
    let tokens = source.signed_tokens();
    let n = source.materialize().n();
    let delta = source.stream_delta();
    let mut lines = vec![format!(
        r#"{{"cmd":"open","session":"{name}","n":{n},"delta":{delta},"colorer":"dynamic-sr","seed":{victim_seed}}}"#
    )];
    let mut i = 0;
    while i < tokens.len() {
        let k = 1 + rng.below(5) as usize;
        let end = (i + k).min(tokens.len());
        if end == i + 1 && rng.below(2) == 0 {
            let t = tokens[i];
            let sign = if t.is_insert() { "insert" } else { "delete" };
            lines.push(format!(
                r#"{{"cmd":"push","session":"{name}","edge":"{}-{}","sign":"{sign}"}}"#,
                t.edge.u(),
                t.edge.v()
            ));
        } else {
            lines.push(format!(
                r#"{{"cmd":"push_batch","session":"{name}","edges":"{}"}}"#,
                encode_signed_list(&tokens[i..end])
            ));
        }
        i = end;
    }
    lines.push(format!(r#"{{"cmd":"observe","session":"{name}"}}"#));
    lines.push(format!(r#"{{"cmd":"stats","session":"{name}"}}"#));
    lines.push(format!(r#"{{"cmd":"finish","session":"{name}"}}"#));
    lines
}

/// A reactor on an ephemeral port that exits after one connection, and
/// the thread running it.
fn spawn_reactor() -> (String, std::thread::JoinHandle<()>) {
    let mut reactor = Reactor::bind("127.0.0.1:0").unwrap();
    let addr = reactor.local_addr().unwrap().to_string();
    (addr, std::thread::spawn(move || reactor.run(Some(1)).unwrap()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn deletion_bearing_scenarios_agree_across_all_three_paths(seed in any::<u64>()) {
        let mut rng = Gen::new(seed);
        let n = 20 + rng.below(12) as usize;
        let delta = 3 + rng.below(3) as usize;
        let rounds = 1 + rng.below(3) as usize;
        let victim_seed = rng.next();
        let source = SourceSpec::churn(n, delta, rng.next(), rounds);
        prop_assert!(
            source.signed_tokens().iter().any(|t| !t.is_insert()),
            "churn with oscillation rounds must carry deletions"
        );

        // Path 1: the in-process runner's signed route.
        let scenario = Scenario::new(source.clone(), ColorerSpec::DynamicSr { sparsity: None })
            .with_seed(victim_seed);
        let outcome = Runner::sequential().run(&scenario);
        prop_assert!(outcome.proper, "dynamic run must color the live graph properly");

        // Isolated serve reference: the same tokens as protocol lines
        // against one fresh in-process Service.
        let lines = serve_script("t", &source, victim_seed, &mut rng);
        let mut isolated = Service::new();
        let reference: Vec<String> =
            lines.iter().map(|l| isolated.respond(l).expect("script lines answer")).collect();

        // The serve transcript's final coloring is the runner's, byte
        // for byte through the wire encoding.
        let observed = parse_object(&reference[lines.len() - 3]).unwrap();
        let text = observed.get("coloring").and_then(Scalar::as_str).unwrap();
        let colors = observed.get("colors").and_then(Scalar::as_u64).unwrap() as usize;
        prop_assert_eq!(parse_coloring(text, n).unwrap(), outcome.coloring.clone());
        prop_assert_eq!(colors, outcome.colors);

        // Path 2: the reactor (one thread, shared Service), lock-step
        // over one TCP connection: each line waits for its response.
        let (addr, handle) = spawn_reactor();
        let mut t = Tcp::connect(&addr).unwrap();
        let via_reactor: Vec<String> = lines
            .iter()
            .map(|line| {
                t.send(line).unwrap();
                t.recv(TICK).unwrap()
            })
            .collect();
        drop(t);
        handle.join().unwrap();
        prop_assert_eq!(&via_reactor, &reference, "reactor diverged from isolated service");

        // Snapshot/restore at a random cut — possibly mid-oscillation,
        // between a delete and its re-insert — onto a fresh host. The
        // tail of the restored transcript must match the uninterrupted
        // reference byte for byte.
        let cut = 1 + rng.below(lines.len() as u64 - 1) as usize;
        let mut before = Service::new();
        for line in &lines[..cut] {
            before.respond(line).unwrap();
        }
        let snap = before.respond(r#"{"cmd":"snapshot","session":"t"}"#).unwrap();
        let blob = parse_object(&snap).unwrap()["snapshot"].as_str().unwrap().to_string();
        let mut after = Service::new();
        let mut restore = FlatObject::new();
        restore.insert("cmd".into(), Scalar::Str("restore".into()));
        restore.insert("session".into(), Scalar::Str("t".into()));
        restore.insert("snapshot".into(), Scalar::Str(blob));
        let restored = after.respond(&encode_object(&restore)).unwrap();
        prop_assert!(restored.contains("\"ok\":true"), "restore failed: {}", restored);
        let tail: Vec<String> =
            lines[cut..].iter().map(|l| after.respond(l).unwrap()).collect();
        prop_assert_eq!(
            &tail[..],
            &reference[cut..],
            "restored session diverged after cut {}",
            cut
        );

        // Path 3: the cluster coordinator dispatching the same scenario
        // over a real TCP worker, merged bytes identical to the
        // single-process shard run (which embeds path 1's outcome).
        let job = ShardJob::Grid(vec![scenario]);
        let shard_reference = run_in_process(&job, 1).unwrap().encode();
        let (addr, listener) = spawn_reactor();
        let report = ClusterCoordinator::new(TransportSpec::Tcp { addr, connections: 1 })
            .with_timeout(TICK)
            .run(&job)
            .unwrap();
        listener.join().unwrap();
        prop_assert_eq!(report.outcome.encode(), shard_reference, "tcp shard diverged");
    }
}

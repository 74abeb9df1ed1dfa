//! The analysis server, end to end in one process: boot a daemon on an
//! ephemeral port, drive it as two tenants over real TCP, and verify the
//! determinism contract — every response bit-identical to a solo batch
//! run at the reported `final_limits` — by recomputing the fingerprint
//! locally.
//!
//! Run with: `cargo run --example server_analysis`

use pp_petri::fingerprint::{hex, outcome_fingerprint};
use pp_petri::{Batch, BatchJob, ExplorationLimits};
use pp_population::StateId;
use pp_protocols::batch::spread_input;
use pp_protocols::catalog;
use pp_serve::json::Json;
use pp_serve::server::{Server, ServerConfig};
use pp_serve::Client;

fn frame(pairs: &[(&str, Json)]) -> Json {
    Json::object(pairs.iter().map(|(k, v)| ((*k).to_string(), v.clone())))
}

fn main() {
    // ---- 1. Boot the daemon ---------------------------------------------
    // An ephemeral port and a shared token pool:
    // at most 200k configurations held in memory across all tenants and
    // the session cache combined.
    let handle = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        pool: Some(200_000),
        ..ServerConfig::default()
    })
    .expect("bind");
    println!("server on {}\n", handle.addr());

    // ---- 2. A catalog job over the wire ---------------------------------
    let mut alice = Client::connect(handle.addr()).expect("connect");
    let answer = alice
        .submit(&frame(&[
            ("cmd", Json::str("submit")),
            ("protocol", Json::str("majority")),
            ("n", Json::uint(2)),
            ("agents", Json::uint(8)),
        ]))
        .expect("submit");
    let result = &answer.result;
    println!("alice: {result}\n");

    // ---- 3. Verify the determinism contract locally ---------------------
    // The response names its budget (`final_limits`) and fingerprints its
    // result; a solo in-process batch run at those limits must match bit
    // for bit — that is the server's core promise.
    let limits = ExplorationLimits {
        max_configurations: result
            .get("final_limits")
            .and_then(|l| l.get("max_configurations"))
            .and_then(Json::as_usize)
            .expect("watermark"),
        max_agents: None,
        max_depth: None,
    };
    let entry = catalog::all(2)
        .into_iter()
        .find(|e| e.family == "majority")
        .expect("catalog");
    let initial = spread_input(&entry.protocol, 8);
    let net = entry.protocol.net().clone();
    let report = Batch::new()
        .job(BatchJob::reachability("solo", net.clone(), [initial]).limits(limits))
        .run();
    let places: Vec<StateId> = net.places().iter().copied().collect();
    let solo = hex(outcome_fingerprint(&report.jobs[0].outcome, &places));
    let wire = result.get("fingerprint").and_then(Json::as_str).unwrap();
    assert_eq!(wire, solo, "server must equal the solo batch run");
    println!("fingerprint {wire} == solo batch run at the same limits\n");

    // ---- 4. A second tenant lands on the hot session --------------------
    let mut bob = Client::connect(handle.addr()).expect("connect");
    let again = bob
        .submit(&frame(&[
            ("cmd", Json::str("submit")),
            ("protocol", Json::str("majority")),
            ("n", Json::uint(2)),
            ("agents", Json::uint(8)),
        ]))
        .expect("submit");
    assert_eq!(
        again.result.get("cache"),
        Some(&frame(&[("seeded", Json::Bool(true))])),
        "the second tenant reuses the cached session"
    );
    println!("bob: cache hit, fingerprint matches alice: {}", {
        let same = again.result.get("fingerprint").and_then(Json::as_str) == Some(wire);
        assert!(same);
        same
    });

    // ---- 5. Truncate, then resume ---------------------------------------
    // A tiny budget truncates; the `session` token resumes the cached
    // graph at a bigger budget — bit-identical to a cold run there.
    let truncated = bob
        .submit(&frame(&[
            ("cmd", Json::str("submit")),
            ("protocol", Json::str("flock-unary")),
            ("n", Json::uint(4)),
            ("agents", Json::uint(8)),
            ("budget", Json::uint(5)),
        ]))
        .expect("submit");
    let session = truncated
        .result
        .get("session")
        .and_then(Json::as_str)
        .expect("token")
        .to_string();
    println!(
        "\ntruncated at budget 5 (completion {}), resuming {session}…",
        truncated
            .result
            .get("completion")
            .and_then(Json::as_str)
            .unwrap_or("?")
    );
    let resumed = bob
        .submit(&frame(&[
            ("cmd", Json::str("resume")),
            ("session", Json::str(&session)),
            ("budget", Json::uint(100_000)),
        ]))
        .expect("resume");
    println!("resumed: {}", resumed.result);

    // ---- 6. Status and graceful shutdown --------------------------------
    let pong = alice.ping().expect("ping");
    println!("\nping: {pong}");
    handle.shutdown();
    println!("\nserver drained and stopped");
}

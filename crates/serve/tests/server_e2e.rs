//! End-to-end tests: a real server on an ephemeral port, real TCP
//! clients, and the central contract checked over the wire — every
//! response bit-identical (by fingerprint) to a solo [`Batch`] run at the
//! reported `final_limits`, with one and several concurrent clients, on
//! an uncapped and a capped token pool, across truncate-then-resume.

use pp_petri::fingerprint::{hex, outcome_fingerprint};
use pp_petri::{Batch, BatchJob, ExplorationLimits};
use pp_population::StateId;
use pp_protocols::batch::spread_input;
use pp_protocols::catalog;
use pp_serve::json::Json;
use pp_serve::server::{Server, ServerConfig, ServerHandle};
use pp_serve::Client;

fn spawn(config: ServerConfig) -> ServerHandle {
    let mut config = config;
    config.addr = "127.0.0.1:0".to_string();
    Server::spawn(config).expect("bind ephemeral port")
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.addr()).expect("connect")
}

fn obj(pairs: &[(&str, Json)]) -> Json {
    Json::object(pairs.iter().map(|(k, v)| ((*k).to_string(), v.clone())))
}

fn submit_catalog(family: &str, n: u64, agents: u64, extra: &[(&str, Json)]) -> Json {
    let mut pairs = vec![
        ("cmd", Json::str("submit")),
        ("protocol", Json::str(family)),
        ("n", Json::uint(n)),
        ("agents", Json::uint(agents)),
    ];
    pairs.extend(extra.iter().cloned());
    obj(&pairs)
}

fn field<'a>(frame: &'a Json, key: &str) -> &'a Json {
    frame
        .get(key)
        .unwrap_or_else(|| panic!("frame lacks {key:?}: {frame}"))
}

fn str_field<'a>(frame: &'a Json, key: &str) -> &'a str {
    field(frame, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key:?} not a string: {frame}"))
}

fn usize_field(frame: &Json, key: &str) -> usize {
    field(frame, key)
        .as_usize()
        .unwrap_or_else(|| panic!("{key:?} not an integer: {frame}"))
}

fn assert_ok(frame: &Json) {
    assert_eq!(
        frame.get("ok"),
        Some(&Json::Bool(true)),
        "expected success frame, got {frame}"
    );
}

fn assert_error(frame: &Json, code: &str) {
    assert_eq!(frame.get("ok"), Some(&Json::Bool(false)), "frame: {frame}");
    assert_eq!(str_field(frame, "error"), code, "frame: {frame}");
}

/// The reported watermark of a result frame.
fn final_limits_of(frame: &Json) -> ExplorationLimits {
    let limits = field(frame, "final_limits");
    ExplorationLimits {
        max_configurations: usize_field(limits, "max_configurations"),
        max_agents: limits.get("max_agents").and_then(Json::as_u64),
        max_depth: limits.get("max_depth").and_then(Json::as_usize),
    }
}

/// The pool's books from a `ping` frame: `(free, cache-held, active)`.
fn pool_books(pong: &Json) -> (usize, usize, usize) {
    let pool = field(pong, "pool");
    let sessions = field(pong, "sessions");
    let held = usize_field(field(sessions, "catalog"), "held")
        + usize_field(field(sessions, "inline"), "held");
    (usize_field(pool, "free"), held, usize_field(pool, "active"))
}

/// Runs the same catalog job directly on the batch layer at `limits` and
/// returns the fingerprint the server should have reported.
fn direct_catalog_fingerprint(
    family: &str,
    n: u64,
    agents: u64,
    query: &str,
    target: &[(&str, u64)],
    limits: ExplorationLimits,
) -> String {
    let entry = catalog::all(n)
        .into_iter()
        .find(|e| e.family == family)
        .expect("catalog family");
    let protocol = entry.protocol;
    let net = protocol.net().clone();
    let initial = spread_input(&protocol, agents);
    let resolve = |pairs: &[(&str, u64)]| {
        pp_multiset::Multiset::from_pairs(
            pairs
                .iter()
                .map(|(name, count)| (protocol.state_id(name).expect("state name"), *count)),
        )
    };
    let job = match query {
        "reachability" => BatchJob::reachability("d", net.clone(), [initial]),
        "karp-miller" => BatchJob::karp_miller("d", net.clone(), initial),
        "coverability" => BatchJob::coverability("d", net.clone(), resolve(target)),
        "covering-word" => BatchJob::covering_word("d", net.clone(), initial, resolve(target)),
        other => panic!("query {other:?}"),
    };
    let report = Batch::new().job(job.limits(limits)).run();
    let places: Vec<StateId> = net.places().iter().copied().collect();
    hex(outcome_fingerprint(&report.jobs[0].outcome, &places))
}

#[test]
fn ping_reports_status_and_connections_survive_bad_frames() {
    let handle = spawn(ServerConfig::default());
    let mut client = connect(&handle);

    // Malformed JSON is a typed error, not a dropped connection.
    let reply = client
        .roundtrip(&Json::str("not an object"))
        .expect("roundtrip");
    assert_error(&reply, "bad-request");
    let reply = client.roundtrip(&Json::Null).expect("roundtrip");
    assert_error(&reply, "bad-request");

    // Unknown commands are typed too.
    let reply = client
        .roundtrip(&obj(&[("cmd", Json::str("frobnicate"))]))
        .expect("roundtrip");
    assert_error(&reply, "unknown-command");

    // And the connection still works.
    let pong = client.ping().expect("ping");
    assert_ok(&pong);
    assert_eq!(str_field(&pong, "event"), "pong");
    assert!(pong.get("pool").is_some());
    assert!(pong.get("sessions").is_some());
    handle.shutdown();
}

#[test]
fn raw_bytes_and_oversized_frames_get_typed_errors_and_resync() {
    use std::io::{BufRead, BufReader, Write};
    let handle = spawn(ServerConfig::default());
    let stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    // Unparsable bytes → parse-error.
    writer.write_all(b"{nope\n").unwrap();
    writer.flush().unwrap();
    reader.read_line(&mut line).unwrap();
    let reply = pp_serve::json::parse(line.as_bytes()).expect("server frames parse");
    assert_error(&reply, "parse-error");

    // An oversized frame → frame-too-large, then the stream resyncs at
    // the next newline and the connection keeps working.
    let huge = vec![b'x'; pp_serve::proto::MAX_FRAME_BYTES + 100];
    writer.write_all(&huge).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
    writer.flush().unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let reply = pp_serve::json::parse(line.as_bytes()).expect("server frames parse");
    assert_error(&reply, "frame-too-large");
    line.clear();
    reader.read_line(&mut line).unwrap();
    let pong = pp_serve::json::parse(line.as_bytes()).expect("server frames parse");
    assert_ok(&pong);
    handle.shutdown();
}

#[test]
fn unknown_protocols_places_and_bad_parameters_are_typed_errors() {
    let handle = spawn(ServerConfig::default());
    let mut client = connect(&handle);

    let reply = client
        .submit(&submit_catalog("no-such-family", 2, 4, &[]))
        .expect("submit");
    assert_error(&reply.result, "unknown-protocol");
    assert!(
        str_field(&reply.result, "message").contains("majority"),
        "error should list known families: {}",
        reply.result
    );

    let reply = client
        .submit(&submit_catalog(
            "majority",
            2,
            4,
            &[
                ("query", Json::str("coverability")),
                ("target", obj(&[("no-such-state", Json::uint(1))])),
            ],
        ))
        .expect("submit");
    assert_error(&reply.result, "unknown-place");

    // n = 0 must be rejected before it can reach the catalog (which
    // panics on zero thresholds).
    let reply = client
        .submit(&submit_catalog("majority", 0, 4, &[]))
        .expect("submit");
    assert_error(&reply.result, "bad-request");

    // Unknown query names.
    let reply = client
        .submit(&submit_catalog(
            "majority",
            2,
            4,
            &[("query", Json::str("telepathy"))],
        ))
        .expect("submit");
    assert_error(&reply.result, "bad-request");
    handle.shutdown();
}

#[test]
fn every_query_shape_is_bit_identical_to_a_direct_batch_run() {
    let handle = spawn(ServerConfig::default());
    let mut client = connect(&handle);
    type Case<'a> = (&'a str, &'a [(&'a str, Json)], &'a [(&'a str, u64)]);
    let cases: [Case; 4] = [
        ("reachability", &[], &[]),
        ("karp-miller", &[], &[]),
        (
            "coverability",
            &[("target", obj(&[("b", Json::uint(2))]))],
            &[("b", 2)],
        ),
        (
            "covering-word",
            &[("target", obj(&[("b", Json::uint(2))]))],
            &[("b", 2)],
        ),
    ];
    for (query, extra, target) in cases {
        let mut fields = vec![("query", Json::str(query))];
        fields.extend(extra.iter().cloned());
        let answer = client
            .submit(&submit_catalog("majority", 2, 6, &fields))
            .expect("submit");
        assert_ok(&answer.result);
        let limits = final_limits_of(&answer.result);
        let direct = direct_catalog_fingerprint("majority", 2, 6, query, target, limits);
        assert_eq!(
            str_field(&answer.result, "fingerprint"),
            direct,
            "query {query}: {}",
            answer.result
        );
    }
    handle.shutdown();
}

/// The per-client job list of the concurrency test: `(family, n, agents)`
/// with overlapping identities, so the session cache sees cold compiles,
/// hot reuse and the same net at other agent counts.
const WORKLOAD: [(&str, u64, u64); 6] = [
    ("majority", 2, 6),
    ("flock-unary", 3, 6),
    ("majority", 2, 6),
    ("example-4.2", 2, 5),
    ("flock-unary", 3, 8),
    ("majority", 2, 8),
];

#[test]
fn concurrent_clients_all_get_the_direct_run_answer() {
    // A cap below flock-unary(3)[8]'s 65 configurations: on the capped
    // server that job is truncated, and jobs evict each other's sessions.
    let cap = 40usize;
    let requested = ServerConfig::default().default_budget;
    let capped = ServerConfig {
        pool: Some(cap),
        ..ServerConfig::default()
    };
    for config in [ServerConfig::default(), capped] {
        for clients in [1usize, 3] {
            let handle = spawn(config.clone());
            let addr = handle.addr();
            // Concurrent clients share job identities: the session cache
            // must never cross-contaminate them.
            let threads: Vec<_> = (0..clients)
                .map(|_| {
                    std::thread::spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        WORKLOAD.map(|(family, n, agents)| {
                            let answer = client
                                .submit(&submit_catalog(family, n, agents, &[]))
                                .expect("submit");
                            assert_ok(&answer.result);
                            (
                                final_limits_of(&answer.result),
                                str_field(&answer.result, "fingerprint").to_string(),
                            )
                        })
                    })
                })
                .collect();
            let mut budgets = Vec::new();
            for thread in threads {
                let answers = thread.join().expect("client thread");
                for ((family, n, agents), (limits, fingerprint)) in
                    WORKLOAD.into_iter().zip(answers)
                {
                    let direct =
                        direct_catalog_fingerprint(family, n, agents, "reachability", &[], limits);
                    assert_eq!(
                        fingerprint, direct,
                        "{family}(n={n})[{agents}] with {clients} clients, pool {:?}",
                        config.pool
                    );
                    budgets.push(limits.max_configurations);
                }
            }
            if config.pool.is_some() {
                assert!(budgets.iter().all(|&budget| budget <= cap), "{budgets:?}");
                assert!(
                    budgets.iter().any(|&budget| budget < requested),
                    "the cap must cut some budget: {budgets:?}"
                );
                let (free, held, active) = pool_books(&connect(&handle).ping().expect("ping"));
                assert_eq!(active, 0, "{clients} clients");
                assert_eq!(free + held, cap, "{clients} clients");
            }
            handle.shutdown();
        }
    }
}

#[test]
fn truncation_reports_a_watermark_and_resume_is_bit_identical_to_cold() {
    for resume_budget in [10_000u64, 100_000] {
        let handle = spawn(ServerConfig::default());
        let mut client = connect(&handle);

        // A budget far below the reachable space: the job truncates,
        // reports the watermark it ran at, and is resumable.
        let answer = client
            .submit(&submit_catalog(
                "flock-unary",
                4,
                8,
                &[("budget", Json::uint(5))],
            ))
            .expect("submit");
        assert_ok(&answer.result);
        assert_eq!(str_field(&answer.result, "completion"), "config-budget");
        assert_eq!(field(&answer.result, "resumable"), &Json::Bool(true));
        let truncated_limits = final_limits_of(&answer.result);
        assert_eq!(truncated_limits.max_configurations, 5);
        let direct =
            direct_catalog_fingerprint("flock-unary", 4, 8, "reachability", &[], truncated_limits);
        assert_eq!(str_field(&answer.result, "fingerprint"), direct);
        let session = str_field(&answer.result, "session").to_string();

        // Resume at a generous budget: the server extends the *cached*
        // graph in place, and the extended result is bit-identical to a
        // cold direct run at the final limits — the resume-equals-cold
        // contract.
        let resume = obj(&[
            ("cmd", Json::str("resume")),
            ("session", Json::str(&session)),
            ("budget", Json::uint(resume_budget)),
        ]);
        let answer = client.submit(&resume).expect("resume");
        assert_ok(&answer.result);
        assert_eq!(str_field(&answer.result, "completion"), "complete");
        assert_eq!(
            field(&answer.result, "cache"),
            &obj(&[("seeded", Json::Bool(true))]),
            "resume must hit the cached session"
        );
        let limits = final_limits_of(&answer.result);
        let direct = direct_catalog_fingerprint("flock-unary", 4, 8, "reachability", &[], limits);
        assert_eq!(str_field(&answer.result, "fingerprint"), direct);

        // Resuming a token nobody issued is a typed error.
        let bogus = obj(&[
            ("cmd", Json::str("resume")),
            ("session", Json::str("c:0000000000000000")),
            ("budget", Json::uint(10)),
        ]);
        let answer = client.submit(&bogus).expect("resume");
        assert_error(&answer.result, "unknown-session");
        handle.shutdown();
    }
}

#[test]
fn repeat_submissions_reuse_the_cached_session() {
    let handle = spawn(ServerConfig::default());
    let mut client = connect(&handle);
    let frame = submit_catalog("majority", 2, 6, &[]);
    let first = client.submit(&frame).expect("submit");
    assert_ok(&first.result);
    assert_eq!(
        field(&first.result, "cache"),
        &obj(&[("seeded", Json::Bool(false))])
    );
    // Second submission — same identity, even from another connection —
    // lands on the cached session.
    let mut other = connect(&handle);
    let second = other.submit(&frame).expect("submit");
    assert_ok(&second.result);
    assert_eq!(
        field(&second.result, "cache"),
        &obj(&[("seeded", Json::Bool(true))])
    );
    assert_eq!(
        str_field(&first.result, "fingerprint"),
        str_field(&second.result, "fingerprint")
    );
    handle.shutdown();
}

#[test]
fn inline_nets_run_and_match_a_direct_run_on_the_same_literal() {
    let handle = spawn(ServerConfig::default());
    let mut client = connect(&handle);
    // a + a -> a + b ; a + b -> b + b (the doubling net).
    let net = obj(&[(
        "transitions",
        Json::Array(vec![
            obj(&[
                ("pre", obj(&[("a", Json::uint(2))])),
                ("post", obj(&[("a", Json::uint(1)), ("b", Json::uint(1))])),
            ]),
            obj(&[
                ("pre", obj(&[("a", Json::uint(1)), ("b", Json::uint(1))])),
                ("post", obj(&[("b", Json::uint(2))])),
            ]),
        ]),
    )]);
    let frame = obj(&[
        ("cmd", Json::str("submit")),
        ("net", net.clone()),
        ("initials", Json::Array(vec![obj(&[("a", Json::uint(6))])])),
    ]);
    let answer = client.submit(&frame).expect("submit");
    assert_ok(&answer.result);
    assert_eq!(str_field(&answer.result, "completion"), "complete");

    // The same literal, built directly.
    let mut direct_net: pp_petri::PetriNet<String> = pp_petri::PetriNet::new();
    direct_net.add_transition(pp_petri::Transition::new(
        pp_multiset::Multiset::from_pairs([("a".to_string(), 2u64)]),
        pp_multiset::Multiset::from_pairs([("a".to_string(), 1u64), ("b".to_string(), 1)]),
    ));
    direct_net.add_transition(pp_petri::Transition::new(
        pp_multiset::Multiset::from_pairs([("a".to_string(), 1u64), ("b".to_string(), 1)]),
        pp_multiset::Multiset::from_pairs([("b".to_string(), 2u64)]),
    ));
    let initial = pp_multiset::Multiset::from_pairs([("a".to_string(), 6u64)]);
    let report = Batch::new()
        .job(
            BatchJob::reachability("d", direct_net.clone(), [initial.clone()])
                .limits(final_limits_of(&answer.result)),
        )
        .run();
    let places: Vec<String> = direct_net.places().iter().cloned().collect();
    let direct = hex(outcome_fingerprint(&report.jobs[0].outcome, &places));
    assert_eq!(str_field(&answer.result, "fingerprint"), direct);

    // A covering word on the same inline net, checked end to end: the
    // word must actually fire from the initial and cover the target.
    let frame = obj(&[
        ("cmd", Json::str("submit")),
        ("net", net),
        ("initials", Json::Array(vec![obj(&[("a", Json::uint(6))])])),
        ("query", Json::str("covering-word")),
        ("target", obj(&[("b", Json::uint(6))])),
    ]);
    let answer = client.submit(&frame).expect("submit");
    assert_ok(&answer.result);
    assert_eq!(str_field(&answer.result, "verdict"), "covered");
    let word: Vec<usize> = field(&answer.result, "word")
        .as_array()
        .expect("word array")
        .iter()
        .map(|t| t.as_usize().expect("transition index"))
        .collect();
    let reached = direct_net
        .fire_word(&initial, &word)
        .expect("wire word must fire");
    assert!(pp_multiset::Multiset::from_pairs([("b".to_string(), 6u64)]).le(&reached));
    handle.shutdown();
}

#[test]
fn net_dsl_payloads_run_error_with_spans_and_dedup_onto_inline_sessions() {
    let handle = spawn(ServerConfig::default());
    let mut client = connect(&handle);

    // 1. A valid `.pnet` payload runs; its answer is bit-identical to a
    //    direct batch run of the same net at the reported watermark.
    let dsl = "net doubling\nplace a b\ninit 6*a\ntrans 2*a -> a + b\ntrans a + b -> 2*b\n";
    let frame = obj(&[("cmd", Json::str("submit")), ("net_dsl", Json::str(dsl))]);
    let answer = client.submit(&frame).expect("submit");
    assert_ok(&answer.result);
    assert_eq!(str_field(&answer.result, "completion"), "complete");
    let mut direct_net: pp_petri::PetriNet<String> = pp_petri::PetriNet::new();
    direct_net.add_transition(pp_petri::Transition::new(
        pp_multiset::Multiset::from_pairs([("a".to_string(), 2u64)]),
        pp_multiset::Multiset::from_pairs([("a".to_string(), 1u64), ("b".to_string(), 1)]),
    ));
    direct_net.add_transition(pp_petri::Transition::new(
        pp_multiset::Multiset::from_pairs([("a".to_string(), 1u64), ("b".to_string(), 1)]),
        pp_multiset::Multiset::from_pairs([("b".to_string(), 2u64)]),
    ));
    let initial = pp_multiset::Multiset::from_pairs([("a".to_string(), 6u64)]);
    let report = Batch::new()
        .job(
            BatchJob::reachability("d", direct_net.clone(), [initial])
                .limits(final_limits_of(&answer.result)),
        )
        .run();
    let places: Vec<String> = direct_net.places().iter().cloned().collect();
    assert_eq!(
        str_field(&answer.result, "fingerprint"),
        hex(outcome_fingerprint(&report.jobs[0].outcome, &places))
    );

    // 2. A malformed payload gets the stable code and a line:col span,
    //    and the connection survives to serve the next frame.
    let bad = obj(&[
        ("cmd", Json::str("submit")),
        ("net_dsl", Json::str("place a\ninit 2*\n")),
        ("id", Json::str("bad-net")),
    ]);
    let answer = client.submit(&bad).expect("submit");
    assert_error(&answer.result, "net-dsl-error");
    assert!(
        str_field(&answer.result, "message").starts_with("line 2, column 8"),
        "span missing: {}",
        answer.result
    );
    assert_eq!(str_field(&answer.result, "id"), "bad-net");

    // 3. The equivalent inline literal — submitted from a different
    //    connection — lands on the SAME cached session: the DSL payload
    //    canonicalizes to the inline source before keying.
    let inline = obj(&[
        ("cmd", Json::str("submit")),
        (
            "net",
            obj(&[(
                "transitions",
                Json::Array(vec![
                    obj(&[
                        ("pre", obj(&[("a", Json::uint(2))])),
                        ("post", obj(&[("a", Json::uint(1)), ("b", Json::uint(1))])),
                    ]),
                    obj(&[
                        ("pre", obj(&[("a", Json::uint(1)), ("b", Json::uint(1))])),
                        ("post", obj(&[("b", Json::uint(2))])),
                    ]),
                ]),
            )]),
        ),
        ("initials", Json::Array(vec![obj(&[("a", Json::uint(6))])])),
    ]);
    let mut other = connect(&handle);
    let second = other.submit(&inline).expect("submit");
    assert_ok(&second.result);
    assert_eq!(
        field(&second.result, "cache"),
        &obj(&[("seeded", Json::Bool(true))]),
        "inline literal must hit the session the DSL payload seeded"
    );
    assert_eq!(
        str_field(&answer.result, "id"),
        "bad-net",
        "error frames echo ids"
    );
    assert_eq!(
        str_field(&second.result, "fingerprint"),
        str_field(
            &client.submit(&frame).expect("submit").result,
            "fingerprint"
        ),
        "both spellings report one answer"
    );
    handle.shutdown();
}

#[test]
fn over_cap_connections_are_refused_with_server_busy() {
    let handle = spawn(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    });
    let mut first = connect(&handle);
    assert_ok(&first.ping().expect("ping"));
    // The cap is taken; the next connection is refused with a typed frame.
    let mut second = connect(&handle);
    let refusal = second.recv().expect("refusal frame");
    assert_error(&refusal, "server-busy");
    // Freeing the slot lets new connections in again (the accept loop
    // reaps the finished worker on its next iteration).
    drop(first);
    drop(second);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let mut retry = connect(&handle);
        match retry.ping() {
            Ok(frame) if frame.get("ok") == Some(&Json::Bool(true)) => break,
            _ if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            other => panic!("slot never freed: {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn disconnects_refund_tokens_and_the_pool_books_balance() {
    let capacity = 50_000usize;
    let handle = spawn(ServerConfig {
        pool: Some(capacity),
        ..ServerConfig::default()
    });
    // A client runs a job (tokens drawn, result cached) and vanishes.
    {
        let mut client = connect(&handle);
        let answer = client
            .submit(&submit_catalog("flock-unary", 3, 6, &[]))
            .expect("submit");
        assert_ok(&answer.result);
    }
    // The books must balance: capacity = free + cache-held, no draw left
    // open. Poll briefly — the disconnect is asynchronous.
    let mut client = connect(&handle);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let (free, held, active) = pool_books(&client.ping().expect("ping"));
        if active == 0 && free + held == capacity && held > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pool never rebalanced: free={free} held={held} active={active}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    handle.shutdown();
}

#[test]
fn a_capped_pool_evicts_the_other_store_to_fund_a_job() {
    let capacity = 100usize;
    let handle = spawn(ServerConfig {
        pool: Some(capacity),
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);
    // The inline chain `p -> p + q` never ends: it runs at the whole pool
    // and parks all of it in the inline store.
    let chain = obj(&[
        ("cmd", Json::str("submit")),
        ("budget", Json::uint(100)),
        (
            "net",
            obj(&[(
                "transitions",
                Json::Array(vec![obj(&[
                    ("pre", obj(&[("p", Json::uint(1))])),
                    ("post", obj(&[("p", Json::uint(1)), ("q", Json::uint(1))])),
                ])]),
            )]),
        ),
        ("initials", Json::Array(vec![obj(&[("p", Json::uint(1))])])),
    ]);
    let answer = client.submit(&chain).expect("submit");
    assert_ok(&answer.result);
    assert_eq!(pool_books(&client.ping().expect("ping")), (0, capacity, 0));

    // A catalog job finds its own store empty: it must evict the inline
    // entry, not run at zero.
    let answer = client
        .submit(&submit_catalog(
            "flock-unary",
            3,
            6,
            &[("budget", Json::uint(100))],
        ))
        .expect("submit");
    assert_ok(&answer.result);
    let limits = final_limits_of(&answer.result);
    assert_eq!(limits.max_configurations, 100, "{}", answer.result);
    assert_eq!(
        str_field(&answer.result, "fingerprint"),
        direct_catalog_fingerprint("flock-unary", 3, 6, "reachability", &[], limits)
    );
    let pong = client.ping().expect("ping");
    let (free, held, active) = pool_books(&pong);
    assert_eq!(active, 0);
    assert_eq!(free + held, capacity);
    let inline = field(field(&pong, "sessions"), "inline");
    assert_eq!(
        usize_field(inline, "entries"),
        0,
        "the inline entry was evicted"
    );
    handle.shutdown();
}

#[test]
fn shutdown_acknowledges_then_drains() {
    let handle = spawn(ServerConfig::default());
    let mut client = connect(&handle);
    let ack = client.shutdown().expect("shutdown ack");
    assert_ok(&ack);
    assert_eq!(str_field(&ack, "event"), "shutting-down");
    // Joining the server returns promptly once drained.
    handle.shutdown();
}

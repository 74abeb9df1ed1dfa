//! The per-layer measurements of a traced run.
//!
//! Every probe wraps the benchmark's own calls into one layer's public
//! functions in a span of that layer, and the probes are the same fixed
//! jobs on every workload, so a per-layer number only moves when its layer
//! does. `README.md` maps each metric to the end-to-end metric and
//! workload it should move. The ladder runs one job — flock-unary(n=5)
//! from 34 agents, sequentially — at each layer from a warm session
//! re-query to a request over TCP, so the difference between adjacent
//! rungs is one layer's overhead.

use crate::metrics::Metrics;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{serve, verify};
use pp_diophantine::{HilbertConfig, LinearSystem};
use pp_multiset::Multiset;
use pp_petri::batch::BatchQuery;
use pp_petri::bottom::find_bottom_witness_in;
use pp_petri::control::ControlNet;
use pp_petri::cycles::shrink_multicycle;
use pp_petri::{Analysis, Batch, BatchJob, CompiledNet, ExplorationLimits, Parallelism, PetriNet};
use pp_population::{Protocol, StateId};
use pp_protocols::{catalog, flock, majority, threshold};
use pp_serve::cache::{Entry, SessionStore, StoredJob};
use pp_serve::{Client, Json, Server, ServerConfig};
use pp_sim::{SchedulerKind, Simulation, StepOutcome};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times `f` once.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

fn med(samples: &[f64]) -> f64 {
    median(samples).expect("at least one sample")
}

/// Runs every probe, recording spans into `tracer`.
#[must_use]
pub fn measure(tracer: &Tracer, seed: u64) -> Metrics {
    let mut metrics = Metrics::default();
    let probes: [fn(&Tracer, u64, &mut Metrics); 8] = [
        engine,
        explore_and_session,
        fixpoints,
        pipeline,
        batch_and_verify,
        serving,
        simulation,
        ladder,
    ];
    for (index, probe) in probes.into_iter().enumerate() {
        tracer.span("bench", index as u64, || probe(tracer, seed, &mut metrics));
    }
    metrics
}

/// `engine.compile_us`: compiling every catalog net at n = 8.
fn engine(tracer: &Tracer, _seed: u64, metrics: &mut Metrics) {
    let nets: Vec<PetriNet<StateId>> = catalog::all(8)
        .into_iter()
        .map(|entry| entry.protocol.net().clone())
        .collect();
    let mut samples = Vec::new();
    for round in 0..20 {
        for net in &nets {
            let (engine, took) =
                timed(|| tracer.span("petri.engine", round, || CompiledNet::compile(net)));
            std::hint::black_box(engine);
            samples.push(took.as_secs_f64() * 1e6);
        }
    }
    metrics.set("engine.compile_us", med(&samples), "us");
}

/// A cold reachability build; returns the graph size, bytes per node and
/// the exploration time (compile excluded).
fn cold_reach(
    tracer: &Tracer,
    protocol: &Protocol,
    agents: u64,
    parallelism: Parallelism,
) -> (usize, usize, Duration) {
    let mut analysis = tracer.span("petri.engine", 0, || Analysis::new(protocol.net()));
    let initial = protocol.initial_config_with_count(agents);
    let (graph, took) = timed(|| {
        tracer.span("petri.explore", 0, || {
            analysis
                .reachability([initial])
                .parallelism(parallelism)
                .run()
        })
    });
    (graph.len(), graph.bytes_per_node(), took)
}

/// `explore.*` and `session.*`.
fn explore_and_session(tracer: &Tracer, _seed: u64, metrics: &mut Metrics) {
    let flock5 = flock::flock_of_birds_unary(5);
    let binary6 = threshold::binary_threshold_with_leader(6);
    let auto = Parallelism::auto();
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    let mut flock_seq = Vec::new();
    let (mut nodes, mut bytes) = (0, 0);
    for _ in 0..3 {
        let (n, b, flock_s) = cold_reach(tracer, &flock5, 34, Parallelism::Sequential);
        let (_, _, binary_s) = cold_reach(tracer, &binary6, 50, Parallelism::Sequential);
        let (_, _, flock_p) = cold_reach(tracer, &flock5, 34, auto);
        let (_, _, binary_p) = cold_reach(tracer, &binary6, 50, auto);
        (nodes, bytes) = (n, b);
        flock_seq.push(flock_s.as_secs_f64());
        seq.push((flock_s + binary_s).as_secs_f64());
        par.push((flock_p + binary_p).as_secs_f64());
    }
    metrics.set("explore.nodes_per_s", nodes as f64 / med(&flock_seq), "1/s");
    metrics.set("explore.bytes_per_node", bytes as f64, "count");
    metrics.set("explore.parallel_speedup", med(&seq) / med(&par), "ratio");

    // Warm re-queries on a session holding the full graph.
    let initial = flock5.initial_config_with_count(34);
    let mut analysis = Analysis::new(flock5.net());
    std::hint::black_box(analysis.reachability([initial.clone()]).run());
    let warm: Vec<f64> = (0..200)
        .map(|round| {
            let (graph, took) = timed(|| {
                tracer.span("petri.session", round, || {
                    analysis.reachability([initial.clone()]).run()
                })
            });
            std::hint::black_box(graph);
            took.as_secs_f64() * 1e6
        })
        .collect();
    metrics.set("session.warm_query_us", med(&warm), "us");

    // Resuming a half-budget graph against a cold build at the full one.
    let full = ExplorationLimits::default();
    let half = ExplorationLimits::with_max_configurations(nodes / 2);
    let (mut cold, mut resumed) = (Vec::new(), Vec::new());
    for round in 0..3 {
        cold.push(
            cold_reach(tracer, &flock5, 34, Parallelism::Sequential)
                .2
                .as_secs_f64(),
        );
        let mut analysis = Analysis::new(flock5.net());
        std::hint::black_box(analysis.reachability([initial.clone()]).limits(half).run());
        let (graph, took) = timed(|| {
            tracer.span("petri.session", round, || {
                analysis.reachability([initial.clone()]).limits(full).run()
            })
        });
        assert_eq!(graph.len(), nodes, "a resumed graph matches the cold one");
        resumed.push(took.as_secs_f64());
    }
    metrics.set("session.resume_ratio", med(&resumed) / med(&cold), "ratio");
}

/// `cover.query_ms` and `km.nodes_per_s`.
fn fixpoints(tracer: &Tracer, _seed: u64, metrics: &mut Metrics) {
    let auto = Parallelism::auto();
    let flock16 = flock::flock_of_birds_unary(16);
    let target = Multiset::from_pairs([(flock16.state_id("a16").expect("state a16"), 2u64)]);
    let binary6 = threshold::binary_threshold_with_leader(6);
    let (mut cover, mut km) = (Vec::new(), Vec::new());
    let mut km_nodes = 0;
    for round in 0..3 {
        let mut analysis = Analysis::new(flock16.net()).parallelism(auto);
        let (_, took) = timed(|| {
            tracer.span("petri.cover", round, || {
                analysis.coverability(target.clone()).run()
            })
        });
        cover.push(ms(took));
        let mut analysis = Analysis::new(binary6.net()).parallelism(auto);
        let (tree, took) = timed(|| {
            tracer.span("petri.karp_miller", round, || {
                analysis
                    .karp_miller(binary6.initial_config_with_count(18))
                    .max_nodes(20_000)
                    .run()
            })
        });
        km_nodes = tree.markings().len();
        km.push(took.as_secs_f64());
    }
    metrics.set("cover.query_ms", med(&cover), "ms");
    metrics.set("km.nodes_per_s", km_nodes as f64 / med(&km), "1/s");
}

/// The Section 8 steps one by one on flock-unary(n=6) (`bottom.*`,
/// `control.*`, `cycles.*`), Pottier's Hilbert basis on a fixed system
/// (`diophantine.*`) and the whole pipeline on binary-threshold(n=4).
fn pipeline(tracer: &Tracer, _seed: u64, metrics: &mut Metrics) {
    let limits = ExplorationLimits::default();
    let protocol = flock::flock_of_birds_unary(6);
    let net = protocol.net();
    let non_initial: BTreeSet<StateId> = protocol
        .states()
        .filter(|state| !protocol.initial_states().contains(state))
        .collect();
    let restricted = net.restrict(&non_initial);
    let leaders = protocol.leaders().restrict(&non_initial);
    let (witness, took) = timed(|| {
        tracer.span("petri.bottom", 0, || {
            find_bottom_witness_in(&mut Analysis::new(&restricted), &leaders, &limits)
        })
    });
    metrics.set("bottom.witness_ms", ms(took), "ms");
    let witness = witness.expect("flock-unary(6) has a bottom witness");
    let mut control = None;
    let mut builds = Vec::new();
    for round in 0..5 {
        let (built, took) = timed(|| {
            tracer.span("petri.control", round, || {
                ControlNet::from_component(net, &witness.q_places, &witness.alpha, &limits)
            })
        });
        builds.push(took.as_secs_f64() * 1e6);
        control = built;
    }
    metrics.set("control.build_us", med(&builds), "us");
    let control = control.expect("the witness component is finite");
    let anchor = control
        .control_state_index(&witness.alpha)
        .expect("the witness is a control state");
    let cycle = control.total_cycle(anchor).expect("a total cycle exists");
    let parikh: Vec<u64> = control
        .parikh(&cycle)
        .iter()
        .map(|count| count * 8)
        .collect();
    let (shrunk, took) = timed(|| {
        tracer.span("petri.cycles", 0, || {
            shrink_multicycle(
                &control,
                &parikh,
                &BTreeSet::new(),
                4,
                &HilbertConfig::default(),
            )
        })
    });
    assert!(shrunk.is_ok(), "Lemma 7.3 shrinks the flock-unary(6) cycle");
    metrics.set("cycles.shrink_ms", ms(took), "ms");

    let system =
        LinearSystem::from_rows(vec![vec![1, 2, 3, -4, -5]]).expect("a well-formed system");
    let hilbert: Vec<f64> = (0..50)
        .map(|round| {
            let (basis, took) = timed(|| {
                tracer.span("diophantine", round, || {
                    system.hilbert_basis(&HilbertConfig::default())
                })
            });
            assert!(basis.is_ok_and(|basis| !basis.is_empty()));
            took.as_secs_f64() * 1e6
        })
        .collect();
    metrics.set("diophantine.hilbert_us", med(&hilbert), "us");

    let binary4 = threshold::binary_threshold_with_leader(4);
    let (report, took) = timed(|| {
        tracer.span("core.pipeline", 0, || {
            pp_statecomplexity::analyze_protocol(&binary4, &limits)
        })
    });
    assert!(
        report.is_complete(),
        "the binary-threshold(4) pipeline completes"
    );
    metrics.set("pipeline.analyze_ms", ms(took), "ms");
}

/// `batch.*` on the `verify` workload's inputs, submitted twice (a second
/// researcher asking the same), and `verify.*` on flock-unary(n=8).
fn batch_and_verify(tracer: &Tracer, _seed: u64, metrics: &mut Metrics) {
    let mut jobs = Vec::new();
    for call in verify::calls() {
        let inputs: Vec<Multiset<String>> = match &call.inputs {
            verify::Inputs::Counting(max) => {
                let state = call
                    .protocol
                    .initial_states()
                    .iter()
                    .next()
                    .map(|&state| call.protocol.state_name(state).to_string())
                    .expect("a counting protocol has one initial state");
                (0..=*max)
                    .map(|count| Multiset::from_pairs([(state.clone(), count)]))
                    .collect()
            }
            verify::Inputs::List(list) => list.clone(),
        };
        for input in inputs {
            let initial = call
                .protocol
                .initial_config(&input)
                .expect("verify inputs name initial states");
            jobs.push(BatchJob::reachability(
                call.protocol.name(),
                call.protocol.net().clone(),
                [initial],
            ));
        }
    }
    let twice: Vec<BatchJob<StateId>> = jobs.clone().into_iter().chain(jobs).collect();
    let (report, took) = timed(|| {
        tracer.span("petri.batch", 0, || {
            Batch::new()
                .parallelism(Parallelism::auto())
                .jobs(twice)
                .run()
        })
    });
    assert!(
        report.all_complete(),
        "every verify input explores completely"
    );
    metrics.set("batch.run_ms", ms(took), "ms");
    metrics.set(
        "batch.compile_cache_hits",
        report.compile_cache_hits as f64,
        "count",
    );
    metrics.set(
        "batch.result_cache_hits",
        report.result_cache_hits as f64,
        "count",
    );

    let entry = catalog::counting_entries(8)
        .into_iter()
        .find(|entry| entry.family == "flock-unary")
        .expect("flock-unary is in the catalog");
    let (report, took) = timed(|| {
        tracer.span("population.verify", 0, || {
            pp_population::verify::verify_counting_inputs(
                &entry.protocol,
                &entry.predicate,
                30,
                &ExplorationLimits::default(),
            )
        })
    });
    assert!(report.all_correct(), "flock-unary(8) verifies");
    let explored: usize = report
        .inputs
        .iter()
        .map(|input| input.explored_configurations)
        .sum();
    metrics.set("verify.explored", explored as f64, "count");
    metrics.set(
        "verify.inputs_per_s",
        report.inputs.len() as f64 / took.as_secs_f64(),
        "1/s",
    );
}

/// `serve.*`, `json.*` and `cache.*`: two passes of the `serve` workload.
fn serving(tracer: &Tracer, seed: u64, metrics: &mut Metrics) {
    let lists = serve::request_lists(seed);
    let logs: Vec<serve::PassLog> = (0..2)
        .map(|pass| serve::run_pass(&lists, pass, tracer))
        .collect();
    let answers: Vec<&serve::Answer> = logs
        .iter()
        .flat_map(|log| log.answers.iter().flatten())
        .collect();
    let wall: Vec<f64> = answers.iter().map(|a| a.wall_us() as f64).collect();
    let queue: Vec<f64> = answers.iter().map(|a| a.queue_us() as f64).collect();
    let wire: Vec<f64> = answers
        .iter()
        .map(|a| a.latency_us - (a.wall_us() + a.queue_us()) as f64)
        .collect();
    let latency_ms: Vec<f64> = answers.iter().map(|a| a.latency_us / 1e3).collect();
    let hits = answers.iter().filter(|a| a.cache_hit()).count();
    metrics.set("serve.wall_us_p50", med(&wall), "us");
    metrics.set("serve.queue_us_p50", med(&queue), "us");
    metrics.set("serve.wire_us_p50", med(&wire), "us");
    metrics.set(
        "serve.latency_p99_ms",
        percentile(&latency_ms, 0.99).expect("two passes give over 1000 requests"),
        "ms",
    );
    metrics.set("serve.latency_samples", latency_ms.len() as f64, "count");
    metrics.set(
        "serve.cache_hit_ratio",
        hits as f64 / answers.len() as f64,
        "ratio",
    );
    metrics.set(
        "serve.sessions_held",
        logs.last().map_or(0, |log| log.sessions_held) as f64,
        "count",
    );

    let frames: Vec<&Json> = answers.iter().filter_map(|a| a.frame.as_ref()).collect();
    let (mut encode, mut parse) = (Vec::new(), Vec::new());
    for round in 0..3 {
        let (texts, took) = timed(|| {
            tracer.span("serve.json", round, || {
                frames
                    .iter()
                    .map(|frame| frame.to_text())
                    .collect::<Vec<String>>()
            })
        });
        let bytes: usize = texts.iter().map(String::len).sum();
        encode.push(took.as_nanos() as f64 / bytes as f64);
        let (parsed, took) = timed(|| {
            tracer.span("serve.json", round, || {
                texts
                    .iter()
                    .map(|text| pp_serve::json::parse(text.as_bytes()))
                    .collect::<Vec<_>>()
            })
        });
        assert!(parsed.iter().all(Result::is_ok), "server frames parse");
        parse.push(took.as_nanos() as f64 / bytes as f64);
    }
    metrics.set("json.encode_ns_per_byte", med(&encode), "ns");
    metrics.set("json.parse_ns_per_byte", med(&parse), "ns");

    // The session store alone: take and re-insert entries of a full store.
    let protocol = majority::majority();
    let net = protocol.net().clone();
    let session = Analysis::new(&net);
    let job = StoredJob {
        name: "majority".to_string(),
        net: net.clone(),
        query: BatchQuery::Reachability {
            initials: vec![pp_protocols::batch::spread_input(&protocol, 6)],
        },
        base_limits: ExplorationLimits::default(),
        exploration: Parallelism::Sequential,
        places: net.places().iter().copied().collect(),
        namer: Arc::new(|state: &StateId| format!("{state:?}")),
        meta: Vec::new(),
    };
    let mut store = SessionStore::new();
    let keys: Vec<String> = (0..1000).map(|k| format!("c:{k:016x}")).collect();
    for key in &keys {
        store.put(
            key.clone(),
            Entry::new(
                job.clone(),
                session.clone(),
                1,
                ExplorationLimits::default(),
            ),
        );
    }
    let rounds: Vec<f64> = (0..5)
        .map(|round| {
            let ((), took) = timed(|| {
                tracer.span("serve.cache", round, || {
                    for key in &keys {
                        let entry = store.take(key).expect("cached");
                        store.put(key.clone(), entry);
                    }
                })
            });
            took.as_nanos() as f64 / keys.len() as f64
        })
        .collect();
    metrics.set("cache.put_take_ns", med(&rounds), "ns");
}

/// Fires up to `max` steps of one simulation; returns the steps fired.
fn fire(sim: &mut Simulation<'_>, max: u64) -> u64 {
    let mut fired = 0;
    while fired < max {
        match sim.step() {
            StepOutcome::Fired(_) => fired += 1,
            StepOutcome::Silent => break,
        }
    }
    fired
}

/// `sim.*`: scheduler step cost under both schedulers, and the exact
/// convergence checks of one flock-unary(n=5) trial at 10⁴ agents.
fn simulation(tracer: &Tracer, seed: u64, metrics: &mut Metrics) {
    let flock5 = flock::flock_of_birds_unary(5);
    let flock_initial = flock5.initial_config_with_count(10_000);
    let majority = majority::majority();
    let majority_initial = majority
        .initial_config(&Multiset::from_pairs([
            ("A".to_string(), 5_001u64),
            ("B".to_string(), 4_999),
        ]))
        .expect("majority inputs");
    let step_ns = |protocol: &Protocol, initial: &Multiset<StateId>, kind: SchedulerKind| {
        let (mut fired, mut busy) = (0u64, Duration::ZERO);
        let mut trial = seed;
        while fired < 200_000 {
            trial += 1;
            let mut sim = Simulation::new(protocol, initial, trial).with_scheduler(kind);
            let (steps, took) = timed(|| tracer.span("sim", trial, || fire(&mut sim, 50_000)));
            fired += steps;
            busy += took;
        }
        busy.as_nanos() as f64 / fired as f64
    };
    metrics.set(
        "sim.step_ns",
        step_ns(
            &flock5,
            &flock_initial,
            SchedulerKind::UniformEnabledTransition,
        ),
        "ns",
    );
    metrics.set(
        "sim.step_ns_weighted",
        step_ns(
            &majority,
            &majority_initial,
            SchedulerKind::InstanceWeighted,
        ),
        "ns",
    );

    // The loop of `Simulation::run`, with its convergence checks timed.
    let mut sim = Simulation::new(&flock5, &flock_initial, seed);
    let window = flock_initial.total();
    let (mut checks, mut checking) = (0u64, Duration::ZERO);
    loop {
        let (converged, took) = timed(|| tracer.span("sim", seed, || sim.is_converged()));
        checks += 1;
        checking += took;
        if converged.is_some() || fire(&mut sim, window) == 0 {
            break;
        }
    }
    metrics.set(
        "sim.converge_check_us",
        checking.as_secs_f64() * 1e6 / checks as f64,
        "us",
    );
    metrics.set("sim.converge_checks", checks as f64, "count");
}

/// The ladder: flock-unary(n=5) from 34 agents, sequential, as a warm
/// session re-query, a cold session, a single-job batch and a request over
/// TCP to a fresh server.
fn ladder(tracer: &Tracer, _seed: u64, metrics: &mut Metrics) {
    let protocol = flock::flock_of_birds_unary(5);
    let initial = protocol.initial_config_with_count(34);
    let (mut warm, mut cold, mut batch, mut tcp) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let submit = Json::object([
        ("cmd".to_string(), Json::str("submit")),
        ("protocol".to_string(), Json::str("flock-unary")),
        ("n".to_string(), Json::uint(5)),
        ("agents".to_string(), Json::uint(34)),
        ("query".to_string(), Json::str("reachability")),
    ]);
    for round in 0..5 {
        let (mut analysis, took) = timed(|| {
            let mut analysis = tracer.span("petri.engine", round, || Analysis::new(protocol.net()));
            tracer.span("petri.explore", round, || {
                std::hint::black_box(analysis.reachability([initial.clone()]).run());
            });
            analysis
        });
        cold.push(ms(took));
        let (_, took) = timed(|| {
            tracer.span("petri.session", round, || {
                std::hint::black_box(analysis.reachability([initial.clone()]).run());
            })
        });
        warm.push(ms(took));
        let (report, took) = timed(|| {
            tracer.span("petri.batch", round, || {
                Batch::new()
                    .job(BatchJob::reachability(
                        "ladder",
                        protocol.net().clone(),
                        [initial.clone()],
                    ))
                    .run()
            })
        });
        assert!(report.all_complete());
        batch.push(ms(took));
        let handle = Server::spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        })
        .expect("bind a loopback port");
        let mut client = Client::connect(handle.addr()).expect("connect to the server");
        let (answer, took) =
            timed(|| tracer.span("serve.client", round, || client.submit(&submit)));
        let answer = answer.expect("the server answers");
        assert_eq!(answer.result.get("ok"), Some(&Json::Bool(true)));
        tcp.push(ms(took));
        drop(client);
        handle.shutdown();
    }
    let (warm, cold, batch, tcp) = (med(&warm), med(&cold), med(&batch), med(&tcp));
    metrics.set("ladder.warm_ms", warm, "ms");
    metrics.set("ladder.cold_ms", cold, "ms");
    metrics.set("ladder.batch_ms", batch, "ms");
    metrics.set("ladder.tcp_ms", tcp, "ms");
    metrics.set("ladder.explore_ms", cold - warm, "ms");
    metrics.set("ladder.batch_overhead_ms", batch - cold, "ms");
    metrics.set("ladder.wire_overhead_ms", tcp - batch, "ms");
}

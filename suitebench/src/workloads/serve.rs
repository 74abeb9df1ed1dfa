//! `serve`: `pp_serve` over loopback with the default [`ServerConfig`].
//!
//! Two clients (= `nproc` on the reference host) run a closed loop, each
//! over its own seeded request list of [`LIST_LEN`] frames:
//!
//! * about 60% reachability on a hot set of catalog identities both
//!   clients share (cache reads after the first miss);
//! * about 20% fresh catalog identities, each used once per pass (cold
//!   compiles and cache writes) — the fresh space is split between the
//!   clients, so the pass's total work does not depend on the seed;
//! * about 8% coverability, budgeted Karp–Miller and covering-word
//!   queries;
//! * about 10% budget-truncated reachability, each answered frame followed
//!   by a `resume` at a raised budget (in-place cache updates). Every
//!   truncated identity is private to one client: `SessionStore::take`
//!   removes a cache entry while its job runs, so a resume racing another
//!   client's job on the same identity can be answered `unknown-session`.
//!
//! A pass is one server lifetime: spawn, both lists, a `ping`, shutdown.
//! The default configuration never evicts, so restarting per pass keeps
//! the cache (and the process's memory) the same size in every pass. An
//! operation is one answered frame; after timing, every answer's
//! fingerprint is checked against a solo [`Batch`] run at its
//! `final_limits`.

use super::Workload;
use crate::rng::SeedRng;
use crate::trace::Tracer;
use crate::{Tally, Unit};
use pp_multiset::Multiset;
use pp_petri::fingerprint::{hex, outcome_fingerprint};
use pp_petri::{Batch, BatchJob, ExplorationLimits};
use pp_population::StateId;
use pp_protocols::batch::spread_input;
use pp_protocols::catalog;
use pp_serve::{Client, Json, Server, ServerConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Concurrent client connections.
pub const CLIENTS: usize = 2;
/// Frames per client per pass.
pub const LIST_LEN: usize = 500;

/// The query of a submit frame.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Query {
    /// Forward reachability.
    Reachability,
    /// Backward coverability of a target (state name → count).
    Coverability(Vec<(&'static str, u64)>),
    /// A Karp–Miller tree.
    KarpMiller,
    /// A shortest covering word to a target.
    CoveringWord(Vec<(&'static str, u64)>),
}

/// A catalog job identity plus its budget.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Job {
    /// Catalog family.
    pub family: &'static str,
    /// Catalog threshold.
    pub n: u64,
    /// Input agents.
    pub agents: u64,
    /// Query shape.
    pub query: Query,
    /// Requested budget (`None`: the server default).
    pub budget: Option<usize>,
}

/// One request frame of a client's list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A new job.
    Submit(Job),
    /// Resume the session of the client's previous answer (a truncated
    /// submit of `Job`) at a raised budget.
    Resume(Job, usize),
}

const FAMILIES: [&str; 6] = [
    "example-4.1",
    "example-4.2",
    "flock-unary",
    "binary-threshold",
    "majority",
    "modulo-3",
];

/// The hot reachability identities both clients share.
const HOT: [(&str, u64, u64); 8] = [
    ("majority", 2, 6),
    ("flock-unary", 3, 6),
    ("example-4.2", 2, 5),
    ("flock-unary", 3, 8),
    ("majority", 2, 8),
    ("binary-threshold", 4, 8),
    ("example-4.1", 3, 7),
    ("modulo-3", 2, 9),
];

fn reach(family: &'static str, n: u64, agents: u64) -> Job {
    Job {
        family,
        n,
        agents,
        query: Query::Reachability,
        budget: None,
    }
}

/// The non-reachability queries of the mix.
fn other_queries() -> Vec<Job> {
    vec![
        Job {
            query: Query::Coverability(vec![("a3", 2)]),
            ..reach("flock-unary", 3, 6)
        },
        Job {
            query: Query::Coverability(vec![("A", 1), ("b", 2)]),
            ..reach("majority", 2, 6)
        },
        Job {
            query: Query::Coverability(vec![("L1", 1)]),
            ..reach("binary-threshold", 4, 8)
        },
        Job {
            query: Query::KarpMiller,
            budget: Some(300),
            ..reach("binary-threshold", 4, 8)
        },
        Job {
            query: Query::KarpMiller,
            budget: Some(2_000),
            ..reach("example-4.2", 2, 5)
        },
        Job {
            query: Query::CoveringWord(vec![("a3", 1)]),
            ..reach("flock-unary", 3, 6)
        },
        Job {
            query: Query::CoveringWord(vec![("q", 2)]),
            ..reach("example-4.2", 2, 4)
        },
    ]
}

/// Fresh identities: every family × n ∈ {2, 3, 4} × agents ∈ 4..=15
/// outside the hot set.
fn fresh_space() -> Vec<Job> {
    let mut space = Vec::new();
    for family in FAMILIES {
        for n in 2..=4u64 {
            for agents in 4..=15u64 {
                if !HOT.contains(&(family, n, agents)) {
                    space.push(reach(family, n, agents));
                }
            }
        }
    }
    space
}

/// Budget of a truncated submit, and the budget its resume raises it to.
const TRUNCATED_BUDGET: usize = 40;
/// See [`TRUNCATED_BUDGET`].
const RESUMED_BUDGET: usize = 100_000;

/// Each client's seeded request list (the same seed always yields the
/// same lists).
#[must_use]
pub fn request_lists(seed: u64) -> Vec<Vec<Request>> {
    let mut fresh = fresh_space();
    SeedRng::new(seed, 0).shuffle(&mut fresh);
    let per_client = fresh.len() / CLIENTS;
    (0..CLIENTS)
        .map(|client| {
            let mut rng = SeedRng::new(seed, 1 + client as u64);
            // Items are single frames, or a truncate → resume pair kept
            // adjacent.
            let mut items: Vec<Vec<Request>> = fresh
                [client * per_client..(client + 1) * per_client]
                .iter()
                .cloned()
                .map(|job| vec![Request::Submit(job)])
                .collect();
            for k in 0..25u64 {
                // Private to this client: n = 5 lies outside the shared
                // hot and fresh spaces, and the agent counts are disjoint.
                let job = Job {
                    budget: Some(TRUNCATED_BUDGET),
                    ..reach("flock-unary", 5, 12 + 2 * (k % 3) + client as u64)
                };
                items.push(vec![
                    Request::Submit(job.clone()),
                    Request::Resume(job, RESUMED_BUDGET),
                ]);
            }
            // Every other query and every hot identity equally often, so
            // the seed changes the order of a pass but not its work.
            let others = other_queries();
            for job in others.iter().cycle().take(6 * others.len()) {
                items.push(vec![Request::Submit(job.clone())]);
            }
            let frames: usize = items.iter().map(Vec::len).sum();
            for &(family, n, agents) in HOT.iter().cycle().take(LIST_LEN - frames) {
                items.push(vec![Request::Submit(reach(family, n, agents))]);
            }
            rng.shuffle(&mut items);
            items.into_iter().flatten().collect()
        })
        .collect()
}

fn target_json(target: &[(&str, u64)]) -> Json {
    Json::object(
        target
            .iter()
            .map(|&(state, count)| (state.to_string(), Json::uint(count))),
    )
}

/// The wire frame of a request; `session` is the token of the client's
/// previous answer (used by resumes).
#[must_use]
pub fn frame(request: &Request, session: Option<&str>) -> Json {
    match request {
        Request::Submit(job) => {
            let mut fields = vec![
                ("cmd".to_string(), Json::str("submit")),
                ("protocol".to_string(), Json::str(job.family)),
                ("n".to_string(), Json::uint(job.n)),
                ("agents".to_string(), Json::uint(job.agents)),
            ];
            let (name, target) = match &job.query {
                Query::Reachability => ("reachability", None),
                Query::Coverability(target) => ("coverability", Some(target)),
                Query::KarpMiller => ("karp-miller", None),
                Query::CoveringWord(target) => ("covering-word", Some(target)),
            };
            fields.push(("query".to_string(), Json::str(name)));
            if let Some(target) = target {
                fields.push(("target".to_string(), target_json(target)));
            }
            if let Some(budget) = job.budget {
                fields.push(("budget".to_string(), Json::uint(budget as u64)));
            }
            Json::object(fields)
        }
        Request::Resume(_, budget) => Json::object([
            ("cmd".to_string(), Json::str("resume")),
            ("session".to_string(), Json::str(session.unwrap_or(""))),
            ("budget".to_string(), Json::uint(*budget as u64)),
        ]),
    }
}

/// What the client saw for one request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Index of the request in its client's list.
    pub index: usize,
    /// Submit-to-terminal-frame latency, microseconds.
    pub latency_us: f64,
    /// The terminal frame (`None` on a transport error).
    pub frame: Option<Json>,
}

impl Answer {
    fn uint(&self, key: &str) -> u64 {
        self.frame
            .as_ref()
            .and_then(|frame| frame.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    /// Whether the server answered with a success frame.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.frame
            .as_ref()
            .is_some_and(|frame| frame.get("ok") == Some(&Json::Bool(true)))
    }

    /// Server-side run time (`wall_us`).
    #[must_use]
    pub fn wall_us(&self) -> u64 {
        self.uint("wall_us")
    }

    /// Server-side queueing time (`queue_us`).
    #[must_use]
    pub fn queue_us(&self) -> u64 {
        self.uint("queue_us")
    }

    /// Configurations (or tree nodes / basis elements) in the answer.
    #[must_use]
    pub fn explored(&self) -> u64 {
        self.uint("explored")
    }

    /// Whether the server seeded the job from its session cache.
    #[must_use]
    pub fn cache_hit(&self) -> bool {
        self.frame
            .as_ref()
            .and_then(|frame| frame.get("cache"))
            .and_then(|cache| cache.get("seeded"))
            == Some(&Json::Bool(true))
    }
}

/// One pass: every client's answers plus the sessions the server held
/// at the end.
pub struct PassLog {
    /// Answers per client, in list order.
    pub answers: Vec<Vec<Answer>>,
    /// Cached sessions reported by the final `ping`.
    pub sessions_held: u64,
}

/// Runs one server lifetime over `lists`.
pub fn run_pass(lists: &[Vec<Request>], pass: u64, tracer: &Tracer) -> PassLog {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    let handle = tracer.span("serve.server", pass << 20, || {
        Server::spawn(config).expect("bind a loopback port")
    });
    let addr = handle.addr();
    let pass_span = tracer.open_span();
    let answers = std::thread::scope(|scope| {
        let workers: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(client_index, list)| {
                scope.spawn(move || {
                    tracer.within(pass_span, || {
                        let mut client = Client::connect(addr).expect("connect to the server");
                        let mut session: Option<String> = None;
                        let mut answers = Vec::with_capacity(list.len());
                        for (index, request) in list.iter().enumerate() {
                            let id = pass << 20 | (client_index as u64) << 16 | index as u64;
                            let out = frame(request, session.as_deref());
                            let started = Instant::now();
                            let reply = tracer.span("serve.client", id, || client.submit(&out));
                            let latency_us = started.elapsed().as_secs_f64() * 1e6;
                            let frame = reply.ok().map(|answer| answer.result);
                            session = frame
                                .as_ref()
                                .and_then(|frame| frame.get("session"))
                                .and_then(Json::as_str)
                                .map(str::to_string);
                            answers.push(Answer {
                                index,
                                latency_us,
                                frame,
                            });
                        }
                        answers
                    })
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let sessions_held = Client::connect(addr)
        .and_then(|mut client| client.ping())
        .ok()
        .and_then(|pong| {
            let sessions = pong.get("sessions")?;
            let count = |store: &str| {
                sessions
                    .get(store)
                    .and_then(|s| s.get("entries"))
                    .and_then(Json::as_u64)
            };
            Some(count("catalog")? + count("inline")?)
        })
        .unwrap_or(0);
    tracer.span("serve.server", pass << 20, || handle.shutdown());
    PassLog {
        answers,
        sessions_held,
    }
}

fn limits_of(frame: &Json) -> Option<ExplorationLimits> {
    let limits = frame.get("final_limits")?;
    Some(ExplorationLimits {
        max_configurations: limits.get("max_configurations")?.as_usize()?,
        max_agents: limits.get("max_agents").and_then(Json::as_u64),
        max_depth: limits.get("max_depth").and_then(Json::as_usize),
    })
}

/// The fingerprint a solo [`Batch`] run of `job` at `limits` produces.
#[must_use]
pub fn direct_fingerprint(job: &Job, limits: ExplorationLimits) -> String {
    let entry = catalog::all(job.n)
        .into_iter()
        .find(|entry| entry.family == job.family)
        .expect("catalog family");
    let protocol = entry.protocol;
    let net = protocol.net().clone();
    let initial = spread_input(&protocol, job.agents);
    let resolve = |target: &[(&str, u64)]| {
        Multiset::from_pairs(
            target
                .iter()
                .map(|&(state, count)| (protocol.state_id(state).expect("catalog state"), count)),
        )
    };
    let batch_job = match &job.query {
        Query::Reachability => BatchJob::reachability("direct", net.clone(), [initial]),
        Query::Coverability(target) => {
            BatchJob::coverability("direct", net.clone(), resolve(target))
        }
        Query::KarpMiller => BatchJob::karp_miller("direct", net.clone(), initial),
        Query::CoveringWord(target) => {
            BatchJob::covering_word("direct", net.clone(), initial, resolve(target))
        }
    };
    let report = Batch::new().job(batch_job.limits(limits)).run();
    let places: Vec<StateId> = net.places().iter().copied().collect();
    hex(outcome_fingerprint(&report.jobs[0].outcome, &places))
}

/// A distinct answer to one list position: (client, index, final limits,
/// fingerprint).
type Seen = (usize, usize, String, String);

/// The `serve` workload.
pub struct Serve {
    lists: Vec<Vec<Request>>,
    /// Every distinct successful answer, with its limits and how often it
    /// was seen. All passes send the same lists, so this stays as small
    /// as one pass however many passes run.
    seen: BTreeMap<Seen, (ExplorationLimits, u64)>,
}

impl Serve {
    /// Generates the request lists and warms up with one full pass.
    #[must_use]
    pub fn setup(seed: u64) -> Self {
        let lists = request_lists(seed);
        std::hint::black_box(run_pass(&lists, 0, &Tracer::new(false)));
        Serve {
            lists,
            seen: BTreeMap::new(),
        }
    }
}

/// The job a request of a list runs.
fn job_of(request: &Request) -> &Job {
    match request {
        Request::Submit(job) | Request::Resume(job, _) => job,
    }
}

impl Workload for Serve {
    fn pass(&mut self, pass: u64, tracer: &Tracer, tally: &mut Tally) {
        let started = Instant::now();
        let log = run_pass(&self.lists, pass, tracer);
        // Requests run concurrently, so the pass as a whole is the rate
        // unit; every request is a latency sample.
        let mut unit = Unit {
            kind: 0,
            ops: 0,
            steps: 0,
            wall: started.elapsed(),
        };
        for (client, answers) in log.answers.iter().enumerate() {
            for answer in answers {
                unit.ops += 1;
                tally.attempted += 1;
                tally.latencies_ms.push(answer.latency_us / 1e3);
                let answered = answer
                    .frame
                    .as_ref()
                    .filter(|_| answer.ok())
                    .and_then(|frame| {
                        Some((
                            limits_of(frame)?,
                            frame.get("fingerprint")?.as_str()?.to_string(),
                        ))
                    });
                let Some((limits, fingerprint)) = answered else {
                    eprintln!(
                        "serve: request {} ({:?}) answered {}",
                        answer.index,
                        job_of(&self.lists[client][answer.index]),
                        answer
                            .frame
                            .as_ref()
                            .map_or_else(|| "a transport error".to_string(), Json::to_text)
                    );
                    tally.failed += 1;
                    continue;
                };
                let key = (client, answer.index, format!("{limits:?}"), fingerprint);
                self.seen.entry(key).or_insert((limits, 0)).1 += 1;
                unit.steps += answer.explored();
            }
        }
        tally.units.push(unit);
    }

    fn finish(&mut self, tally: &mut Tally) {
        let mut direct: BTreeMap<(Job, String), String> = BTreeMap::new();
        for ((client, index, limits_key, fingerprint), (limits, count)) in &self.seen {
            let job = job_of(&self.lists[*client][*index]);
            let expected = direct
                .entry((job.clone(), limits_key.clone()))
                .or_insert_with(|| direct_fingerprint(job, *limits));
            if expected != fingerprint {
                eprintln!(
                    "serve: request {index} of client {client} ({job:?}) answered fingerprint \
                     {fingerprint} at {limits_key}; a solo batch run gives {expected}"
                );
                tally.failed += count;
            }
        }
    }
}

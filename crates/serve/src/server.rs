//! The analysis daemon: thread-per-connection TCP over cached sessions.
//!
//! # Architecture
//!
//! One accept loop ([`Server::run`]) spawns one worker per connection,
//! capped at [`ServerConfig::max_connections`] (excess connections are
//! refused with a `server-busy` frame). Each connection runs **two**
//! threads: a *reader* that splits the stream into newline-delimited
//! frames (enforcing [`MAX_FRAME_BYTES`] with resynchronization at the
//! next newline), and an *executor* that parses, dispatches and answers
//! them in order. The split is what makes disconnects prompt: the reader
//! notices EOF even while the executor is deep in a state-space build and
//! sets the connection's disconnect flag, which the executor checks
//! before a job starts and between its rounds — the orphaned job stops
//! drawing tokens, its unused ones return to the pool, and its result is
//! parked warm in the cache.
//!
//! # Determinism
//!
//! The server adds *no* result-affecting state of its own. Every round of
//! a job is one [`BatchQuery::run_on`] — the batch layer's executor — on
//! the job's cached session at an explicit budget; the response reports
//! that budget back as `final_limits` plus a [fingerprint](pp_petri::fingerprint)
//! of the result, and the session layer guarantees the result is
//! bit-identical to a solo run at those limits — under any packing mode
//! and any number of concurrent clients. What concurrency *can*
//! change is only how many tokens a capped pool grants a particular
//! request (and therefore which budget gets reported); never the result
//! at a reported budget.
//!
//! # Sessions and resume
//!
//! Results stay hot: each completed job parks its
//! [`Analysis`] session in
//! a keyed [`SessionStore`], so an identical net+query submitted again —
//! by anyone — reuses the compiled engine, and a raised budget *resumes*
//! the cached graph instead of rebuilding it. Truncated responses carry
//! `"resumable": true` plus a `session` token; `{"cmd":"resume"}`
//! re-runs the cached identity at a new budget.
//!
//! Lock discipline: `catalog_sessions`, `inline_sessions`, `conns` and
//! the pool's internal lock are each taken strictly one-at-a-time —
//! every helper returns before the next lock is touched, so no ordering
//! cycle can exist.

use crate::cache::{Entry, SessionStore, StoredJob};
use crate::json::{parse, Json};
use crate::proto::{
    completion_wire_name, error_frame, limits_frame, parse_request, QuerySpec, Request, Source,
    Submission, WireConfig, WireError, MAX_FRAME_BYTES,
};
use pp_petri::batch::{BatchOutcome, BatchQuery, QueryRun};
use pp_petri::cover::CoveringWordOutcome;
use pp_petri::fingerprint::{hex, outcome_fingerprint, Fnv};
use pp_petri::{gates, Analysis, Completion, ExplorationLimits, Parallelism, PetriNet, Transition};
use pp_population::StateId;
use pp_protocols::batch::spread_input;
use pp_protocols::catalog;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::pool::{PoolStats, TokenPool};

/// The fallback listen/connect address when [`gates::PP_SERVE_ADDR`] is
/// unset.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7929";

/// The fallback connection cap when [`gates::PP_SERVE_THREADS`] is unset
/// or unparsable.
pub const DEFAULT_MAX_CONNECTIONS: usize = 64;

/// The default address, honoring the `PP_SERVE_ADDR` gate.
#[must_use]
pub fn addr_from_gates() -> String {
    gates::read(gates::PP_SERVE_ADDR).unwrap_or_else(|| DEFAULT_ADDR.to_string())
}

/// The connection cap, honoring the `PP_SERVE_THREADS` gate.
#[must_use]
pub fn max_connections_from_gates() -> usize {
    gates::read(gates::PP_SERVE_THREADS)
        .and_then(|value| value.trim().parse::<usize>().ok())
        .filter(|&cap| cap >= 1)
        .unwrap_or(DEFAULT_MAX_CONNECTIONS)
}

/// Server tunables. All of them are deployment knobs: none can change
/// the result of any analysis (the README gates table says the same of
/// the two environment-derived ones).
#[derive(Clone)]
pub struct ServerConfig {
    /// Address to bind (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Concurrent-connection cap; excess connections get `server-busy`.
    pub max_connections: usize,
    /// Shared token pool capacity (`None` = uncapped): the total number
    /// of configurations the server holds in memory, session cache
    /// included.
    pub pool: Option<usize>,
    /// Budget used when a submit frame names none.
    pub default_budget: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: DEFAULT_ADDR.to_string(),
            max_connections: DEFAULT_MAX_CONNECTIONS,
            pool: None,
            default_budget: ExplorationLimits::default().max_configurations,
        }
    }
}

impl ServerConfig {
    /// The default configuration with `addr` and `max_connections` read
    /// from the registered environment gates.
    #[must_use]
    pub fn from_gates() -> Self {
        ServerConfig {
            addr: addr_from_gates(),
            max_connections: max_connections_from_gates(),
            ..ServerConfig::default()
        }
    }
}

/// Shared state behind every connection thread.
struct Core {
    config: ServerConfig,
    addr: SocketAddr,
    pool: TokenPool,
    catalog_sessions: Mutex<SessionStore<StateId>>,
    inline_sessions: Mutex<SessionStore<String>>,
    conns: Mutex<BTreeMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    stopping: AtomicBool,
    live: AtomicUsize,
    jobs_done: AtomicUsize,
    started: Instant,
}

impl Core {
    fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Flips the server into draining mode exactly once: stop accepting,
    /// EOF every connected reader (executors finish and answer their
    /// queued frames first — writes stay open), unblock the accept loop.
    fn begin_shutdown(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let conns = self.conns.lock().expect("conns");
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        // A throwaway connection so the blocking accept wakes up and
        // observes the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Draws up to `want` tokens for the job under `key`, evicting
    /// least-recently-used sessions from `store` (never `key` itself)
    /// while the pool cannot cover the draw. Locks are taken one at a
    /// time throughout.
    fn acquire_tokens<P: Clone + Ord>(
        &self,
        store: &Mutex<SessionStore<P>>,
        key: &str,
        want: usize,
    ) -> usize {
        let mut grant = self.pool.draw(want);
        while grant < want {
            let evicted = store.lock().expect("sessions").evict_lru(key);
            match evicted {
                Some(freed) => {
                    self.pool.release(freed);
                    grant += self.pool.draw(want - grant);
                }
                None => break,
            }
        }
        grant
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    core: Arc<Core>,
}

impl Server {
    /// Binds the configured address.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let core = Arc::new(Core {
            pool: TokenPool::new(config.pool),
            config,
            addr,
            catalog_sessions: Mutex::new(SessionStore::new()),
            inline_sessions: Mutex::new(SessionStore::new()),
            conns: Mutex::new(BTreeMap::new()),
            next_conn: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            jobs_done: AtomicUsize::new(0),
            started: Instant::now(),
        });
        Ok(Server { listener, core })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.core.addr
    }

    /// Runs the accept loop on the calling thread until a shutdown is
    /// requested (by a `{"cmd":"shutdown"}` frame or a
    /// [`ServerHandle`]), then drains: every connection worker is joined
    /// before this returns, with worker panics re-raised here.
    pub fn run(self) {
        let Server { listener, core } = self;
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
            if core.is_stopping() {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Reap workers that already finished, re-raising any panic.
            let mut index = 0;
            while index < workers.len() {
                if workers[index].is_finished() {
                    workers
                        .swap_remove(index)
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                } else {
                    index += 1;
                }
            }
            if core.live.load(Ordering::SeqCst) >= core.config.max_connections {
                refuse_busy(stream);
                continue;
            }
            core.live.fetch_add(1, Ordering::SeqCst);
            let worker_core = core.clone();
            workers.push(std::thread::spawn(move || {
                serve_connection(&worker_core, stream);
                worker_core.live.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for worker in workers {
            worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
    }

    /// Binds and runs on a background thread, returning a handle that can
    /// shut the server down and join it.
    pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let server = Server::bind(config)?;
        let addr = server.local_addr();
        let core = server.core.clone();
        let thread = std::thread::spawn(move || {
            // Contain worker panics here; ServerHandle re-raises them on
            // the joining thread (shutdown), never inside this worker.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || server.run())).err()
        });
        Ok(ServerHandle {
            addr,
            core,
            thread: Some(thread),
        })
    }
}

fn refuse_busy(mut stream: TcpStream) {
    let frame = error_frame(
        &WireError::new("server-busy", "connection cap reached; retry later"),
        None,
    );
    let _ = stream.write_all(frame.to_text().as_bytes());
    let _ = stream.write_all(b"\n");
}

/// A running server on a background thread (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    core: Arc<Core>,
    thread: Option<JoinHandle<Option<Box<dyn std::any::Any + Send>>>>,
}

impl ServerHandle {
    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful shutdown (drain in-flight jobs, answer queued
    /// frames, stop accepting) and joins the server thread, re-raising
    /// any worker panic.
    pub fn shutdown(mut self) {
        self.core.begin_shutdown();
        if let Some(thread) = self.thread.take() {
            let contained = thread
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            if let Some(panic) = contained {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.core.begin_shutdown();
            // Best effort in drop: never panic while unwinding.
            let _ = thread.join();
        }
    }
}

/// One frame (or frame-sized event) from the reader thread.
enum ReadEvent {
    Frame { bytes: Vec<u8>, received: Instant },
    Oversized,
}

/// Reads newline-delimited frames, forwarding them to the executor. On
/// EOF or error: during a graceful shutdown the executor is simply left
/// to drain; on a client disconnect the connection's disconnect flag is
/// set, so an in-flight job stops after its current round.
fn read_frames(
    stream: TcpStream,
    events: &Sender<ReadEvent>,
    disconnected: &AtomicBool,
    core: &Core,
) {
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        let n = (&mut reader)
            .take(MAX_FRAME_BYTES as u64 + 1)
            .read_until(b'\n', &mut buf)
            .unwrap_or_default();
        if n == 0 {
            if !core.is_stopping() {
                disconnected.store(true, Ordering::SeqCst);
            }
            return;
        }
        if buf.last() != Some(&b'\n') && buf.len() > MAX_FRAME_BYTES {
            // Oversized frame: report it, then resynchronize at the next
            // newline without buffering the excess.
            if events.send(ReadEvent::Oversized).is_err() {
                return;
            }
            loop {
                buf.clear();
                let skipped = (&mut reader)
                    .take(MAX_FRAME_BYTES as u64)
                    .read_until(b'\n', &mut buf)
                    .unwrap_or_default();
                if skipped == 0 {
                    if !core.is_stopping() {
                        disconnected.store(true, Ordering::SeqCst);
                    }
                    return;
                }
                if buf.last() == Some(&b'\n') {
                    break;
                }
            }
            continue;
        }
        while matches!(buf.last(), Some(b'\n' | b'\r')) {
            buf.pop();
        }
        if buf.is_empty() {
            continue;
        }
        let frame = ReadEvent::Frame {
            bytes: std::mem::take(&mut buf),
            received: Instant::now(),
        };
        if events.send(frame).is_err() {
            return;
        }
    }
}

fn serve_connection(core: &Arc<Core>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let conn_id = core.next_conn.fetch_add(1, Ordering::SeqCst);
    if let Ok(clone) = stream.try_clone() {
        core.conns.lock().expect("conns").insert(conn_id, clone);
    }
    let disconnected = Arc::new(AtomicBool::new(false));
    let (events_tx, events_rx): (Sender<ReadEvent>, Receiver<ReadEvent>) = mpsc::channel();
    let reader = match stream.try_clone() {
        Ok(read_half) => {
            let reader_core = core.clone();
            let reader_disconnected = disconnected.clone();
            Some(std::thread::spawn(move || {
                read_frames(read_half, &events_tx, &reader_disconnected, &reader_core);
            }))
        }
        Err(_) => None,
    };
    if reader.is_some() {
        let mut writer = std::io::BufWriter::new(&stream);
        while let Ok(event) = events_rx.recv() {
            match handle_event(core, &disconnected, event, &mut writer) {
                Flow::Continue => {}
                Flow::Stop => break,
            }
        }
    }
    // Unblock the reader (it may still be parked in read) and join it,
    // re-raising its panics on this thread.
    let _ = stream.shutdown(Shutdown::Both);
    if let Some(reader) = reader {
        reader
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    }
    core.conns.lock().expect("conns").remove(&conn_id);
}

enum Flow {
    Continue,
    Stop,
}

fn write_frame(writer: &mut impl Write, frame: &Json) -> std::io::Result<()> {
    writer.write_all(frame.to_text().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn handle_event(
    core: &Arc<Core>,
    disconnected: &AtomicBool,
    event: ReadEvent,
    writer: &mut impl Write,
) -> Flow {
    let (bytes, received) = match event {
        ReadEvent::Oversized => {
            let error = WireError::new(
                "frame-too-large",
                format!("frames are capped at {MAX_FRAME_BYTES} bytes"),
            );
            return flow_of(write_frame(writer, &error_frame(&error, None)));
        }
        ReadEvent::Frame { bytes, received } => (bytes, received),
    };
    let frame = match parse(&bytes) {
        Ok(frame) => frame,
        Err(err) => {
            let error = WireError::new("parse-error", err.to_string());
            return flow_of(write_frame(writer, &error_frame(&error, None)));
        }
    };
    let id = frame
        .get("id")
        .and_then(Json::as_str)
        .map(ToString::to_string);
    let request = match parse_request(&frame) {
        Ok(request) => request,
        Err(err) => return flow_of(write_frame(writer, &error_frame(&err, id.as_deref()))),
    };
    match request {
        Request::Ping => flow_of(write_frame(writer, &pong_frame(core))),
        Request::Shutdown => {
            let ack = Json::object([
                ("ok".to_string(), Json::Bool(true)),
                ("event".to_string(), Json::str("shutting-down")),
            ]);
            let _ = write_frame(writer, &ack);
            core.begin_shutdown();
            Flow::Stop
        }
        Request::Submit(sub) => {
            let id = sub.id.clone().or(id);
            let budget = sub.budget.unwrap_or(core.config.default_budget);
            let outcome = match &sub.source {
                Source::Catalog { .. } => prepare_catalog(&sub).and_then(|(job, key)| {
                    run_prepared(
                        core,
                        &core.catalog_sessions,
                        job,
                        key,
                        budget,
                        disconnected,
                        writer,
                        id.as_deref(),
                        received,
                    )
                }),
                Source::Inline { .. } => prepare_inline(&sub).and_then(|(job, key)| {
                    run_prepared(
                        core,
                        &core.inline_sessions,
                        job,
                        key,
                        budget,
                        disconnected,
                        writer,
                        id.as_deref(),
                        received,
                    )
                }),
            };
            match outcome {
                Ok(flow) => flow,
                Err(err) => flow_of(write_frame(writer, &error_frame(&err, id.as_deref()))),
            }
        }
        Request::Resume {
            session,
            budget,
            id: resume_id,
        } => {
            let id = resume_id.or(id);
            let outcome = if let Some(key) = session.strip_prefix("c:") {
                resume_prepared(
                    core,
                    &core.catalog_sessions,
                    format!("c:{key}"),
                    budget,
                    disconnected,
                    writer,
                    id.as_deref(),
                    received,
                )
            } else if let Some(key) = session.strip_prefix("i:") {
                resume_prepared(
                    core,
                    &core.inline_sessions,
                    format!("i:{key}"),
                    budget,
                    disconnected,
                    writer,
                    id.as_deref(),
                    received,
                )
            } else {
                Err(WireError::new(
                    "unknown-session",
                    format!("malformed session token {session:?}"),
                ))
            };
            match outcome {
                Ok(flow) => flow,
                Err(err) => flow_of(write_frame(writer, &error_frame(&err, id.as_deref()))),
            }
        }
    }
}

fn flow_of(result: std::io::Result<()>) -> Flow {
    match result {
        Ok(()) => Flow::Continue,
        Err(_) => Flow::Stop,
    }
}

fn pong_frame(core: &Core) -> Json {
    let pool = core.pool.stats();
    let (catalog_entries, catalog_held) = {
        let store = core.catalog_sessions.lock().expect("sessions");
        (store.len(), store.held_total())
    };
    let (inline_entries, inline_held) = {
        let store = core.inline_sessions.lock().expect("sessions");
        (store.len(), store.held_total())
    };
    let store_frame = |entries: usize, held: usize| {
        Json::object([
            ("entries".to_string(), Json::uint(entries as u64)),
            ("held".to_string(), Json::uint(held as u64)),
        ])
    };
    Json::object([
        ("ok".to_string(), Json::Bool(true)),
        ("event".to_string(), Json::str("pong")),
        (
            "uptime_us".to_string(),
            Json::uint(duration_us(core.started.elapsed())),
        ),
        (
            "jobs_done".to_string(),
            Json::uint(core.jobs_done.load(Ordering::SeqCst) as u64),
        ),
        (
            "connections".to_string(),
            Json::uint(core.live.load(Ordering::SeqCst) as u64),
        ),
        (
            "pool".to_string(),
            Json::object([
                (
                    "capacity".to_string(),
                    pool.capacity.map_or(Json::Null, |c| Json::uint(c as u64)),
                ),
                ("free".to_string(), Json::uint(pool.free as u64)),
                ("active".to_string(), Json::uint(pool.active as u64)),
            ]),
        ),
        (
            "sessions".to_string(),
            Json::object([
                (
                    "catalog".to_string(),
                    store_frame(catalog_entries, catalog_held),
                ),
                (
                    "inline".to_string(),
                    store_frame(inline_entries, inline_held),
                ),
            ]),
        ),
    ])
}

fn duration_us(duration: Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Job preparation: wire submission → typed StoredJob + session key + demand.
// ---------------------------------------------------------------------------

fn config_json(config: &WireConfig) -> Json {
    Json::object(
        config
            .iter()
            .map(|(place, count)| (place.clone(), Json::uint(*count))),
    )
}

fn key_of(prefix: &str, material: &Json) -> String {
    let mut h = Fnv::new();
    h.write_str(&material.to_text());
    format!("{prefix}:{}", hex(h.finish()))
}

fn prepare_catalog(sub: &Submission) -> Result<(StoredJob<StateId>, String), WireError> {
    let Source::Catalog { family, n, agents } = &sub.source else {
        return Err(WireError::bad("not a catalog submission"));
    };
    let entries = catalog::all(*n);
    let Some(entry) = entries.into_iter().find(|e| e.family == family.as_str()) else {
        let known: Vec<&str> = catalog::all(*n).iter().map(|e| e.family).collect();
        return Err(WireError::new(
            "unknown-protocol",
            format!(
                "no catalog family {family:?} at n={n}; known: {}",
                known.join(", ")
            ),
        ));
    };
    let protocol = entry.protocol;
    let resolve = |config: &WireConfig| -> Result<Vec<(StateId, u64)>, WireError> {
        config
            .iter()
            .map(|(name, count)| {
                protocol
                    .state_id(name)
                    .map(|id| (id, *count))
                    .ok_or_else(|| {
                        WireError::new(
                            "unknown-place",
                            format!("protocol {family:?} has no state {name:?}"),
                        )
                    })
            })
            .collect()
    };
    let initial = spread_input(&protocol, *agents);
    let query = match &sub.query {
        QuerySpec::Reachability => BatchQuery::Reachability {
            initials: vec![initial],
        },
        QuerySpec::KarpMiller => BatchQuery::KarpMiller { initial },
        QuerySpec::Coverability { target } => BatchQuery::Coverability {
            target: multiset_of(resolve(target)?),
        },
        QuerySpec::CoveringWord { target } => BatchQuery::CoveringWord {
            from: initial,
            target: multiset_of(resolve(target)?),
        },
    };
    let mut material = vec![
        ("domain".to_string(), Json::str("catalog")),
        ("protocol".to_string(), Json::str(family.clone())),
        ("n".to_string(), Json::uint(*n)),
        ("agents".to_string(), Json::uint(*agents)),
        ("query".to_string(), Json::str(sub.query.wire_name())),
    ];
    if let QuerySpec::Coverability { target } | QuerySpec::CoveringWord { target } = &sub.query {
        material.push(("target".to_string(), config_json(target)));
    }
    let key = key_of("c", &Json::object(material));
    let net = protocol.net().clone();
    let places: Vec<StateId> = net.places().iter().copied().collect();
    let name = format!("{family}(n={n})[{agents}]/{}", sub.query.wire_name());
    let namer_protocol = protocol.clone();
    let job = StoredJob {
        name,
        net,
        query,
        base_limits: base_limits(sub),
        exploration: Parallelism::Sequential,
        places,
        namer: Arc::new(move |state: &StateId| namer_protocol.state_name(*state).to_string()),
        meta: vec![
            ("protocol".to_string(), Json::str(family.clone())),
            ("n".to_string(), Json::uint(*n)),
            ("agents".to_string(), Json::uint(*agents)),
        ],
    };
    Ok((job, key))
}

fn prepare_inline(sub: &Submission) -> Result<(StoredJob<String>, String), WireError> {
    let Source::Inline {
        transitions,
        initials,
    } = &sub.source
    else {
        return Err(WireError::bad("not an inline submission"));
    };
    let mut net: PetriNet<String> = PetriNet::new();
    for t in transitions {
        net.add_transition(Transition::new(
            multiset_of(t.pre.clone()),
            multiset_of(t.post.clone()),
        ));
    }
    // Declare every mentioned place up front so each query runs on the
    // shared, cacheable engine (never the widened slow path).
    for config in initials {
        for (place, _) in config {
            net.add_place(place.clone());
        }
    }
    if let QuerySpec::Coverability { target } | QuerySpec::CoveringWord { target } = &sub.query {
        for (place, _) in target {
            net.add_place(place.clone());
        }
    }
    let initial_sets: Vec<_> = initials.iter().cloned().map(multiset_of).collect();
    let single_initial = || {
        if initial_sets.len() == 1 {
            Ok(initial_sets[0].clone())
        } else {
            Err(WireError::bad(format!(
                "query {:?} requires exactly one initial configuration",
                sub.query.wire_name()
            )))
        }
    };
    let query = match &sub.query {
        QuerySpec::Reachability => {
            if initial_sets.is_empty() {
                return Err(WireError::bad(
                    "reachability requires at least one initial configuration",
                ));
            }
            BatchQuery::Reachability {
                initials: initial_sets.clone(),
            }
        }
        QuerySpec::KarpMiller => BatchQuery::KarpMiller {
            initial: single_initial()?,
        },
        QuerySpec::Coverability { target } => BatchQuery::Coverability {
            target: multiset_of(target.clone()),
        },
        QuerySpec::CoveringWord { target } => BatchQuery::CoveringWord {
            from: single_initial()?,
            target: multiset_of(target.clone()),
        },
    };
    let mut material = vec![
        ("domain".to_string(), Json::str("inline")),
        (
            "transitions".to_string(),
            Json::Array(
                transitions
                    .iter()
                    .map(|t| {
                        Json::object([
                            ("pre".to_string(), config_json(&t.pre)),
                            ("post".to_string(), config_json(&t.post)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "initials".to_string(),
            Json::Array(initials.iter().map(config_json).collect()),
        ),
        ("query".to_string(), Json::str(sub.query.wire_name())),
    ];
    if let QuerySpec::Coverability { target } | QuerySpec::CoveringWord { target } = &sub.query {
        material.push(("target".to_string(), config_json(target)));
    }
    let key = key_of("i", &Json::object(material));
    let places: Vec<String> = net.places().iter().cloned().collect();
    let job = StoredJob {
        name: format!("inline/{}", sub.query.wire_name()),
        net,
        query,
        base_limits: base_limits(sub),
        exploration: Parallelism::Sequential,
        places,
        namer: Arc::new(|place: &String| place.clone()),
        meta: vec![("inline".to_string(), Json::Bool(true))],
    };
    Ok((job, key))
}

fn multiset_of<P: Clone + Ord>(pairs: Vec<(P, u64)>) -> pp_multiset::Multiset<P> {
    pp_multiset::Multiset::from_pairs(pairs.into_iter().filter(|&(_, count)| count > 0))
}

/// The submission's caps; each run replaces `max_configurations` with its
/// budget.
fn base_limits(sub: &Submission) -> ExplorationLimits {
    ExplorationLimits {
        max_agents: sub.max_agents,
        max_depth: sub.max_depth,
        ..ExplorationLimits::default()
    }
}

// ---------------------------------------------------------------------------
// Execution: the generic engine path both stores share.
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn resume_prepared<P>(
    core: &Core,
    store: &Mutex<SessionStore<P>>,
    key: String,
    budget: usize,
    disconnected: &AtomicBool,
    writer: &mut impl Write,
    id: Option<&str>,
    received: Instant,
) -> Result<Flow, WireError>
where
    P: Clone + Ord + Send + Sync + 'static,
{
    let Some(job) = store.lock().expect("sessions").stored_job(&key) else {
        return Err(WireError::new(
            "unknown-session",
            format!("no cached session {key:?} (expired or evicted)"),
        ));
    };
    run_prepared(
        core,
        store,
        job,
        key,
        budget,
        disconnected,
        writer,
        id,
        received,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_prepared<P>(
    core: &Core,
    store: &Mutex<SessionStore<P>>,
    stored: StoredJob<P>,
    key: String,
    requested: usize,
    disconnected: &AtomicBool,
    writer: &mut impl Write,
    id: Option<&str>,
    received: Instant,
) -> Result<Flow, WireError>
where
    P: Clone + Ord + Send + Sync + 'static,
{
    // Client already gone before the job started: leave the cache as it
    // is and do nothing.
    if disconnected.load(Ordering::SeqCst) && !core.is_stopping() {
        return Ok(Flow::Stop);
    }
    // Take custody of the cached entry (session + its held tokens).
    let entry = {
        let mut sessions = store.lock().expect("sessions");
        sessions.take(&key)
    };
    let queue = received.elapsed();
    let wall_start = Instant::now();
    let (mut session, held, seeded) = match entry {
        Some(entry) => (entry.session, entry.held, true),
        None => (Analysis::new(&stored.net), 0, false),
    };
    let demand = stored.query.demand(requested);
    core.pool.begin();
    let mut drawn = 0usize;
    let mut budget = held.min(demand);
    let mut rounds = 0u32;
    let mut write_result: std::io::Result<()> = Ok(());
    let (run, limits) = loop {
        rounds += 1;
        let want = demand.saturating_sub(budget);
        if want > 0 {
            let grant = core.acquire_tokens(store, &key, want);
            drawn += grant;
            budget += grant;
        }
        let limits = ExplorationLimits {
            max_configurations: budget,
            ..stored.base_limits
        };
        let run = stored.query.run_on(&mut session, limits);
        if disconnected.load(Ordering::SeqCst) {
            break (run, limits);
        }
        // Pool-truncated and more tokens available now: stream a progress
        // frame and extend.
        if run.completion == Completion::ConfigBudget && budget < demand {
            let grant = core.acquire_tokens(store, &key, demand - budget);
            if grant > 0 {
                drawn += grant;
                budget += grant;
                let frame = job_frame(
                    "progress",
                    id,
                    &key,
                    &stored,
                    &run,
                    &limits,
                    true,
                    seeded,
                    rounds,
                    queue,
                    wall_start.elapsed(),
                );
                write_result = write_frame(writer, &frame);
                if write_result.is_err() {
                    break (run, limits);
                }
                // The session now holds the only handle on its graph, so
                // the next round extends it in place.
                drop(run);
                continue;
            }
        }
        break (run, limits);
    };
    core.jobs_done.fetch_add(1, Ordering::SeqCst);
    // Tokens that stay checked out: the state space the parked session
    // caches.
    let kept = session.cached_nodes();
    core.pool.settle((held + drawn).saturating_sub(kept));
    let wall = wall_start.elapsed();
    // Park the session — even for an orphaned job, whose completed work
    // stays warm for whoever asks next.
    let entry = Entry::new(stored.clone(), session, kept, limits);
    let displaced = store.lock().expect("sessions").put(key.clone(), entry);
    core.pool.release(displaced);
    if disconnected.load(Ordering::SeqCst) || write_result.is_err() {
        return Ok(Flow::Stop);
    }
    let resumable = run.completion == Completion::ConfigBudget;
    let frame = job_frame(
        "result", id, &key, &stored, &run, &limits, resumable, seeded, rounds, queue, wall,
    );
    Ok(flow_of(write_frame(writer, &frame)))
}

#[allow(clippy::too_many_arguments)]
fn job_frame<P: Clone + Ord>(
    event: &str,
    id: Option<&str>,
    key: &str,
    stored: &StoredJob<P>,
    run: &QueryRun<P>,
    limits: &ExplorationLimits,
    resumable: bool,
    seeded: bool,
    rounds: u32,
    queue: Duration,
    wall: Duration,
) -> Json {
    let mut fields = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("event".to_string(), Json::str(event)),
        ("session".to_string(), Json::str(key)),
        ("name".to_string(), Json::str(stored.name.clone())),
        (
            "query".to_string(),
            Json::str(query_wire_name(&stored.query)),
        ),
        (
            "completion".to_string(),
            Json::str(completion_wire_name(run.completion)),
        ),
        ("explored".to_string(), Json::uint(run.used as u64)),
        ("final_limits".to_string(), limits_frame(limits)),
        ("watermark".to_string(), limits_frame(limits)),
        ("resumable".to_string(), Json::Bool(resumable)),
        (
            "fingerprint".to_string(),
            Json::str(hex(outcome_fingerprint(&run.outcome, &stored.places))),
        ),
        (
            "cache".to_string(),
            Json::object([("seeded".to_string(), Json::Bool(seeded))]),
        ),
        ("rounds".to_string(), Json::uint(u64::from(rounds))),
        ("queue_us".to_string(), Json::uint(duration_us(queue))),
        ("wall_us".to_string(), Json::uint(duration_us(wall))),
    ];
    if let Some(id) = id {
        fields.push(("id".to_string(), Json::str(id)));
    }
    for (name, value) in &stored.meta {
        fields.push((name.clone(), value.clone()));
    }
    match &run.outcome {
        BatchOutcome::Reachability(graph) => {
            fields.push(("nodes".to_string(), Json::uint(graph.len() as u64)));
            fields.push((
                "bytes_per_node".to_string(),
                Json::uint(graph.bytes_per_node() as u64),
            ));
        }
        BatchOutcome::Coverability(oracle) => {
            fields.push((
                "basis_size".to_string(),
                Json::uint(oracle.basis().len() as u64),
            ));
            // Small bases travel inline (handy for `nc` exploration).
            if oracle.basis().len() <= 32 {
                let basis: Vec<Json> = oracle
                    .basis()
                    .iter()
                    .map(|element| {
                        Json::object(
                            element
                                .iter()
                                .map(|(place, count)| ((stored.namer)(place), Json::uint(count))),
                        )
                    })
                    .collect();
                fields.push(("basis".to_string(), Json::Array(basis)));
            }
        }
        BatchOutcome::KarpMiller(tree) => {
            fields.push((
                "nodes".to_string(),
                Json::uint(tree.markings().len() as u64),
            ));
            fields.push(("bounded".to_string(), Json::Bool(tree.is_bounded())));
        }
        BatchOutcome::CoveringWord(outcome) => {
            let verdict = match outcome {
                CoveringWordOutcome::Covered(_) => "covered",
                CoveringWordOutcome::NotCoverable => "not-coverable",
                CoveringWordOutcome::Truncated => "truncated",
            };
            fields.push(("verdict".to_string(), Json::str(verdict)));
            if let CoveringWordOutcome::Covered(word) = outcome {
                fields.push((
                    "word".to_string(),
                    Json::Array(word.iter().map(|&t| Json::uint(t as u64)).collect()),
                ));
            }
        }
    }
    Json::object(fields)
}

fn query_wire_name<P: Ord>(query: &BatchQuery<P>) -> &'static str {
    match query {
        BatchQuery::Reachability { .. } => "reachability",
        BatchQuery::Coverability { .. } => "coverability",
        BatchQuery::KarpMiller { .. } => "karp-miller",
        BatchQuery::CoveringWord { .. } => "covering-word",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    #[test]
    fn a_job_that_streams_progress_counts_once_in_jobs_done() {
        let handle = Server::spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            pool: Some(100),
            ..ServerConfig::default()
        })
        .expect("bind an ephemeral port");
        // Another tenant's open draw halves every fair share: the job
        // below gets 50 of its 60 tokens, is truncated, draws the other
        // 10 and streams one `progress` frame before its result.
        handle.core.pool.begin();
        let mut client = Client::connect(handle.addr()).expect("connect");
        // The chain `p -> p + q` never ends, so every run is truncated.
        let submit = parse(
            br#"{"cmd":"submit","budget":60,"initials":[{"p":1}],
                "net":{"transitions":[{"pre":{"p":1},"post":{"p":1,"q":1}}]}}"#,
        )
        .expect("a valid frame");
        let answer = client.submit(&submit).expect("submit");
        let budget = |frame: &Json| {
            frame
                .get("final_limits")
                .and_then(|limits| limits.get("max_configurations"))
                .and_then(Json::as_u64)
        };
        assert_eq!(answer.progress.len(), 1, "{:?}", answer.progress);
        assert_eq!(budget(&answer.progress[0]), Some(50));
        assert_eq!(budget(&answer.result), Some(60), "{}", answer.result);
        let pong = client.ping().expect("ping");
        assert_eq!(pong.get("jobs_done").and_then(Json::as_u64), Some(1));
        handle.core.pool.settle(0);
        handle.shutdown();
    }
}

//! The wire protocol: newline-delimited JSON frames.
//!
//! One request frame per line, one or more response frames per request
//! (zero or more `"progress"` events followed by exactly one terminal
//! `"result"` / error frame). The full grammar lives in `DESIGN.md`,
//! chapter "The analysis server"; in short:
//!
//! ```text
//! {"cmd":"ping"}
//! {"cmd":"submit","protocol":"example-4.2","n":3,"agents":6,
//!  "query":"reachability","budget":5000,"id":"job-1"}
//! {"cmd":"submit","net":{"transitions":[{"pre":{"a":2},"post":{"a":1,"b":1}}]},
//!  "initials":[{"a":4}],"query":"coverability","target":{"b":2}}
//! {"cmd":"submit","net_dsl":"place a b\ninit 4*a\ntrans 2*a -> a + b\n",
//!  "params":{"agents":8},"query":"reachability"}
//! {"cmd":"resume","session":"c:74a1…","budget":20000}
//! {"cmd":"shutdown"}
//! ```
//!
//! This module is pure frame grammar: it turns parsed [`Json`] into a
//! typed [`Request`] (rejecting anything malformed with a stable error
//! code) and renders the error/status frames. Everything that touches an
//! engine lives in [`server`](crate::server).

use crate::json::Json;
use pp_petri::Completion;
use std::fmt;

/// Upper bound on one frame line, request or response (bytes, newline
/// included). Oversized requests are refused with `frame-too-large` and
/// the stream resynchronizes at the next newline.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Caps on inline-net and catalog parameters, keeping a single frame from
/// requesting an astronomically large construction.
pub const MAX_THRESHOLD: u64 = 4096;
/// Maximum `agents` accepted for catalog jobs.
pub const MAX_AGENTS: u64 = 1_000_000;
/// Maximum transitions accepted in an inline net.
pub const MAX_INLINE_TRANSITIONS: usize = 4096;

/// A machine-readable protocol error: a stable `code` plus a free-form
/// human `message`. Codes are part of the wire contract:
/// `parse-error`, `bad-request`, `unknown-command`, `unknown-protocol`,
/// `unknown-place`, `unknown-session`, `frame-too-large`, `server-busy`,
/// `shutting-down`, `net-dsl-error` (a `.pnet` payload failed to parse or
/// instantiate; the message carries the `line L, column C` span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The stable error code.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds an error with the given code and message.
    #[must_use]
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }

    /// The `bad-request` shorthand (malformed but parseable frames).
    #[must_use]
    pub fn bad(message: impl Into<String>) -> Self {
        Self::new("bad-request", message)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// A sparse configuration on the wire: place name → count, in name order.
pub type WireConfig = Vec<(String, u64)>;

/// The query shape of a submission. Initial configurations come from the
/// source (catalog input spreading, or the inline `initials` field), so
/// only targets ride on the query itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuerySpec {
    /// Forward exploration from the source's initial configurations.
    Reachability,
    /// Exact backward coverability of `target`.
    Coverability {
        /// The target configuration (state/place names).
        target: WireConfig,
    },
    /// A Karp–Miller tree from the source's initial configuration.
    KarpMiller,
    /// A shortest covering word from the source's initial configuration
    /// to `target`.
    CoveringWord {
        /// The configuration the word must cover.
        target: WireConfig,
    },
}

impl QuerySpec {
    /// The wire name of the shape (`"reachability"`, …).
    #[must_use]
    pub fn wire_name(&self) -> &'static str {
        match self {
            QuerySpec::Reachability => "reachability",
            QuerySpec::Coverability { .. } => "coverability",
            QuerySpec::KarpMiller => "karp-miller",
            QuerySpec::CoveringWord { .. } => "covering-word",
        }
    }
}

/// One inline transition: `pre → post` over string places.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireTransition {
    /// Tokens consumed.
    pub pre: WireConfig,
    /// Tokens produced.
    pub post: WireConfig,
}

/// Where a submission's net comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// A named entry of the `pp_protocols` catalog.
    Catalog {
        /// The family name (`"example-4.2"`, `"majority"`, …).
        family: String,
        /// The counting threshold the catalog is instantiated at.
        n: u64,
        /// Input agents, spread over the protocol's initial states.
        agents: u64,
    },
    /// A net literal supplied in the frame.
    Inline {
        /// The transitions of the net.
        transitions: Vec<WireTransition>,
        /// Initial configurations (exploration roots / query sources).
        initials: Vec<WireConfig>,
    },
}

/// A fully parsed submit frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// Client-chosen id, echoed on every response frame for this job.
    pub id: Option<String>,
    /// Net source.
    pub source: Source,
    /// Query shape.
    pub query: QuerySpec,
    /// Requested configuration/node budget (demand; the server's pool
    /// decides the grant). `None` falls back to the server default.
    pub budget: Option<usize>,
    /// Optional agent cap forwarded into the job's limits.
    pub max_agents: Option<u64>,
    /// Optional depth cap forwarded into the job's limits.
    pub max_depth: Option<usize>,
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness + stats probe.
    Ping,
    /// Graceful shutdown: drain in-flight jobs, then stop accepting.
    Shutdown,
    /// A new job.
    Submit(Submission),
    /// Re-run a cached session at a (usually raised) budget.
    Resume {
        /// The session token a previous response carried.
        session: String,
        /// The new configuration/node budget.
        budget: usize,
        /// Client-chosen id echoed on the response.
        id: Option<String>,
    },
}

/// Parses one request frame.
pub fn parse_request(frame: &Json) -> Result<Request, WireError> {
    let Some(cmd) = frame.get("cmd").and_then(Json::as_str) else {
        return Err(WireError::bad(
            "frame must be an object with a string `cmd`",
        ));
    };
    match cmd {
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "submit" => parse_submit(frame).map(Request::Submit),
        "resume" => {
            let session = frame
                .get("session")
                .and_then(Json::as_str)
                .ok_or_else(|| WireError::bad("resume requires a string `session`"))?
                .to_string();
            let budget = frame
                .get("budget")
                .and_then(Json::as_usize)
                .ok_or_else(|| WireError::bad("resume requires an integer `budget`"))?;
            Ok(Request::Resume {
                session,
                budget,
                id: opt_string(frame, "id")?,
            })
        }
        other => Err(WireError::new(
            "unknown-command",
            format!("unknown cmd {other:?}; expected ping, submit, resume or shutdown"),
        )),
    }
}

fn opt_string(frame: &Json, key: &str) -> Result<Option<String>, WireError> {
    match frame.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(WireError::bad(format!("`{key}` must be a string"))),
    }
}

fn opt_u64(frame: &Json, key: &str) -> Result<Option<u64>, WireError> {
    match frame.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => value
            .as_u64()
            .map(Some)
            .ok_or_else(|| WireError::bad(format!("`{key}` must be a non-negative integer"))),
    }
}

fn opt_usize(frame: &Json, key: &str) -> Result<Option<usize>, WireError> {
    match frame.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => value
            .as_usize()
            .map(Some)
            .ok_or_else(|| WireError::bad(format!("`{key}` must be a non-negative integer"))),
    }
}

/// Reads a `{place: count}` object into a name-ordered [`WireConfig`].
fn parse_config(value: &Json, what: &str) -> Result<WireConfig, WireError> {
    let Some(map) = value.as_object() else {
        return Err(WireError::bad(format!(
            "{what} must be an object of place → count"
        )));
    };
    let mut config = Vec::with_capacity(map.len());
    for (place, count) in map {
        let count = count.as_u64().ok_or_else(|| {
            WireError::bad(format!("{what}[{place:?}] must be a non-negative integer"))
        })?;
        config.push((place.clone(), count));
    }
    Ok(config)
}

/// Parses the query shape. `fallback_target` (a `.pnet` `target` stanza)
/// stands in when a coverability-flavored query gives no explicit
/// `target` — so a shrunk fuzzer repro submits as-is.
fn parse_query(frame: &Json, fallback_target: Option<WireConfig>) -> Result<QuerySpec, WireError> {
    let name = match frame.get("query") {
        None => "reachability",
        Some(Json::Str(s)) => s.as_str(),
        Some(_) => return Err(WireError::bad("`query` must be a string")),
    };
    match name {
        "reachability" => Ok(QuerySpec::Reachability),
        "karp-miller" => Ok(QuerySpec::KarpMiller),
        "coverability" | "covering-word" => {
            let target = match frame.get("target") {
                Some(value) => parse_config(value, "`target`")?,
                None => fallback_target.ok_or_else(|| {
                    WireError::bad(format!("query {name:?} requires a `target`"))
                })?,
            };
            if name == "coverability" {
                Ok(QuerySpec::Coverability { target })
            } else {
                Ok(QuerySpec::CoveringWord { target })
            }
        }
        other => Err(WireError::bad(format!(
            "unknown query {other:?}; expected reachability, coverability, karp-miller or covering-word"
        ))),
    }
}

fn parse_submit(frame: &Json) -> Result<Submission, WireError> {
    let id = opt_string(frame, "id")?;
    let budget = opt_usize(frame, "budget")?;
    let mut max_agents = opt_u64(frame, "max_agents")?;
    let max_depth = opt_usize(frame, "max_depth")?;
    let mut dsl_target: Option<WireConfig> = None;
    let source = match (
        frame.get("protocol"),
        frame.get("net"),
        frame.get("net_dsl"),
    ) {
        (Some(protocol), None, None) => {
            let family = protocol
                .as_str()
                .ok_or_else(|| WireError::bad("`protocol` must be a string"))?
                .to_string();
            let n = opt_u64(frame, "n")?.unwrap_or(2);
            let agents = opt_u64(frame, "agents")?.unwrap_or(2 * n);
            if n == 0 || n > MAX_THRESHOLD {
                return Err(WireError::bad(format!(
                    "`n` must be in 1..={MAX_THRESHOLD}"
                )));
            }
            if agents > MAX_AGENTS {
                return Err(WireError::bad(format!(
                    "`agents` must be at most {MAX_AGENTS}"
                )));
            }
            Source::Catalog { family, n, agents }
        }
        (None, Some(net), None) => parse_inline(frame, net)?,
        (None, None, Some(text)) => {
            let (source, cap, target) = parse_net_dsl(frame, text)?;
            if max_agents.is_none() {
                max_agents = cap;
            }
            dsl_target = target;
            source
        }
        (None, None, None) => {
            return Err(WireError::bad(
                "submit requires a catalog `protocol`, an inline `net` or a `net_dsl` text",
            ))
        }
        _ => {
            return Err(WireError::bad(
                "give exactly one of `protocol`, `net` and `net_dsl`",
            ))
        }
    };
    let query = parse_query(frame, dsl_target)?;
    Ok(Submission {
        id,
        source,
        query,
        budget,
        max_agents,
        max_depth,
    })
}

/// Converts a sorted multiset into the wire's name-ordered sparse form.
fn multiset_to_config(config: &pp_multiset::Multiset<String>) -> WireConfig {
    config
        .iter()
        .map(|(place, count)| (place.clone(), count))
        .collect()
}

/// Parses and instantiates a `.pnet` payload, canonicalizing it into
/// [`Source::Inline`]. Because the canonical form is exactly what an
/// equivalent inline-literal frame carries, the server's session-cache
/// keying deduplicates the two spellings onto one session for free.
/// Returns the source plus the definition's `cap` (folded into
/// `max_agents` unless the frame sets one) and `target` stanza (the
/// default coverability target).
fn parse_net_dsl(
    frame: &Json,
    text: &Json,
) -> Result<(Source, Option<u64>, Option<WireConfig>), WireError> {
    let text = text
        .as_str()
        .ok_or_else(|| WireError::bad("`net_dsl` must be a string"))?;
    let mut overrides: Vec<(String, u64)> = Vec::new();
    match frame.get("params") {
        None | Some(Json::Null) => {}
        Some(value) => {
            let map = value
                .as_object()
                .ok_or_else(|| WireError::bad("`params` must be an object of name → count"))?;
            for (name, count) in map {
                let count = count.as_u64().ok_or_else(|| {
                    WireError::bad(format!("`params`[{name:?}] must be a non-negative integer"))
                })?;
                overrides.push((name.clone(), count));
            }
        }
    }
    let def = pp_netdsl::parse_str(text)
        .map_err(|err| WireError::new("net-dsl-error", err.to_string()))?;
    let overrides: Vec<(&str, u64)> = overrides.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let spec = pp_netdsl::instantiate(&def, &overrides)
        .map_err(|err| WireError::new("net-dsl-error", err.to_string()))?;
    if spec.net.num_transitions() > MAX_INLINE_TRANSITIONS {
        return Err(WireError::bad(format!(
            "inline nets are capped at {MAX_INLINE_TRANSITIONS} transitions"
        )));
    }
    let transitions = spec
        .net
        .transitions()
        .iter()
        .map(|t| WireTransition {
            pre: multiset_to_config(t.pre()),
            post: multiset_to_config(t.post()),
        })
        .collect();
    let initials = spec.initials.iter().map(multiset_to_config).collect();
    Ok((
        Source::Inline {
            transitions,
            initials,
        },
        spec.cap,
        spec.target.as_ref().map(multiset_to_config),
    ))
}

fn parse_inline(frame: &Json, net: &Json) -> Result<Source, WireError> {
    let transitions_json = net
        .get("transitions")
        .and_then(Json::as_array)
        .ok_or_else(|| WireError::bad("`net.transitions` must be an array"))?;
    if transitions_json.len() > MAX_INLINE_TRANSITIONS {
        return Err(WireError::bad(format!(
            "inline nets are capped at {MAX_INLINE_TRANSITIONS} transitions"
        )));
    }
    let mut transitions = Vec::with_capacity(transitions_json.len());
    for (index, t) in transitions_json.iter().enumerate() {
        let pre = t
            .get("pre")
            .ok_or_else(|| WireError::bad(format!("transition {index} lacks `pre`")))?;
        let post = t
            .get("post")
            .ok_or_else(|| WireError::bad(format!("transition {index} lacks `post`")))?;
        transitions.push(WireTransition {
            pre: parse_config(pre, "`pre`")?,
            post: parse_config(post, "`post`")?,
        });
    }
    let initials = match frame.get("initials") {
        None => Vec::new(),
        Some(value) => {
            let items = value
                .as_array()
                .ok_or_else(|| WireError::bad("`initials` must be an array of configurations"))?;
            items
                .iter()
                .map(|item| parse_config(item, "`initials[..]`"))
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    Ok(Source::Inline {
        transitions,
        initials,
    })
}

/// The wire name of a completion reason. Every variant is enumerated: a
/// new completion cannot ship without a wire name.
#[must_use]
pub fn completion_wire_name(completion: Completion) -> &'static str {
    match completion {
        Completion::Complete => "complete",
        Completion::ConfigBudget => "config-budget",
        Completion::AgentCap => "agent-cap",
        Completion::DepthCap => "depth-cap",
        Completion::IdSpace => "id-space",
        Completion::OmegaOverflow => "omega-overflow",
    }
}

/// Renders an error frame, echoing the request `id` when known.
#[must_use]
pub fn error_frame(error: &WireError, id: Option<&str>) -> Json {
    let mut fields = vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::str(error.code)),
        ("message".to_string(), Json::str(error.message.clone())),
    ];
    if let Some(id) = id {
        fields.push(("id".to_string(), Json::str(id)));
    }
    Json::object(fields)
}

/// Serializes limits for `final_limits` / `watermark` response fields.
#[must_use]
pub fn limits_frame(limits: &pp_petri::ExplorationLimits) -> Json {
    let mut fields = vec![(
        "max_configurations".to_string(),
        Json::uint(limits.max_configurations as u64),
    )];
    if let Some(agents) = limits.max_agents {
        fields.push(("max_agents".to_string(), Json::uint(agents)));
    }
    if let Some(depth) = limits.max_depth {
        fields.push(("max_depth".to_string(), Json::uint(depth as u64)));
    }
    Json::object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn req(text: &str) -> Result<Request, WireError> {
        parse_request(&parse(text.as_bytes()).expect(text))
    }

    #[test]
    fn commands_parse() {
        assert_eq!(req(r#"{"cmd":"ping"}"#), Ok(Request::Ping));
        assert_eq!(req(r#"{"cmd":"shutdown"}"#), Ok(Request::Shutdown));
        let resume = req(r#"{"cmd":"resume","session":"c:00ff","budget":100}"#).unwrap();
        assert_eq!(
            resume,
            Request::Resume {
                session: "c:00ff".into(),
                budget: 100,
                id: None
            }
        );
        assert_eq!(
            req(r#"{"cmd":"nope"}"#).unwrap_err().code,
            "unknown-command"
        );
        assert_eq!(req(r#"{"no":"cmd"}"#).unwrap_err().code, "bad-request");
        assert_eq!(req("[]").unwrap_err().code, "bad-request");
    }

    #[test]
    fn catalog_submissions_parse_with_defaults_and_caps() {
        let Request::Submit(sub) =
            req(r#"{"cmd":"submit","protocol":"majority","query":"reachability"}"#).unwrap()
        else {
            panic!("expected submit");
        };
        assert_eq!(
            sub.source,
            Source::Catalog {
                family: "majority".into(),
                n: 2,
                agents: 4
            }
        );
        assert_eq!(sub.query, QuerySpec::Reachability);
        assert!(req(r#"{"cmd":"submit","protocol":"majority","n":0}"#).is_err());
        assert!(req(r#"{"cmd":"submit","protocol":"majority","n":99999}"#).is_err());
        assert!(req(r#"{"cmd":"submit","protocol":"majority","agents":2000000}"#).is_err());
        assert!(req(r#"{"cmd":"submit"}"#).is_err());
    }

    #[test]
    fn inline_submissions_parse() {
        let Request::Submit(sub) = req(
            r#"{"cmd":"submit","net":{"transitions":[{"pre":{"a":2},"post":{"a":1,"b":1}}]},
                "initials":[{"a":4}],"query":"coverability","target":{"b":2}}"#,
        )
        .unwrap() else {
            panic!("expected submit");
        };
        let Source::Inline {
            transitions,
            initials,
        } = sub.source
        else {
            panic!("expected inline");
        };
        assert_eq!(transitions.len(), 1);
        assert_eq!(transitions[0].pre, vec![("a".to_string(), 2)]);
        assert_eq!(initials, vec![vec![("a".to_string(), 4)]]);
        assert_eq!(
            sub.query,
            QuerySpec::Coverability {
                target: vec![("b".to_string(), 2)]
            }
        );
    }

    #[test]
    fn net_dsl_submissions_canonicalize_to_inline() {
        // The same net, spelled as a `.pnet` text and as an inline
        // literal, must parse to the SAME source — that equality is what
        // makes the server's cache key dedup the two spellings.
        let dsl = req(
            r#"{"cmd":"submit","net_dsl":"place a b\ninit 4*a\ntrans 2*a -> a + b\n",
                "query":"reachability"}"#,
        )
        .unwrap();
        let inline = req(
            r#"{"cmd":"submit","net":{"transitions":[{"pre":{"a":2},"post":{"a":1,"b":1}}]},
                "initials":[{"a":4}],"query":"reachability"}"#,
        )
        .unwrap();
        let (Request::Submit(dsl), Request::Submit(inline)) = (dsl, inline) else {
            panic!("expected submits");
        };
        assert_eq!(dsl.source, inline.source);
    }

    #[test]
    fn net_dsl_params_cap_and_target_stanzas_apply() {
        let Request::Submit(sub) = req(r#"{"cmd":"submit",
                "net_dsl":"agents 2\nplace a b\ninit agents*a\ntrans a -> b\ncap 9\ntarget 2*b\n",
                "params":{"agents":6},"query":"coverability"}"#)
        .unwrap() else {
            panic!("expected submit");
        };
        let Source::Inline { initials, .. } = &sub.source else {
            panic!("expected inline");
        };
        assert_eq!(
            initials,
            &vec![vec![("a".to_string(), 6)]],
            "params override"
        );
        assert_eq!(sub.max_agents, Some(9), "cap stanza folds into max_agents");
        assert_eq!(
            sub.query,
            QuerySpec::Coverability {
                target: vec![("b".to_string(), 2)]
            },
            "target stanza is the default coverability target"
        );
        // An explicit frame `max_agents` wins over the cap stanza.
        let Request::Submit(sub) = req(
            r#"{"cmd":"submit","net_dsl":"place a\ninit a\ntrans a -> 2*a\ncap 9\n",
                "max_agents":5}"#,
        )
        .unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(sub.max_agents, Some(5));
    }

    #[test]
    fn net_dsl_errors_carry_spans_and_a_stable_code() {
        let err = req(r#"{"cmd":"submit","net_dsl":"place a\ninit 2*\n"}"#).unwrap_err();
        assert_eq!(err.code, "net-dsl-error");
        assert!(
            err.message.starts_with("line 2, column 8"),
            "span missing: {}",
            err.message
        );
        // Instantiation failures use the same code.
        let err = req(r#"{"cmd":"submit","net_dsl":"param n = 1\nplace a\ninit (n - 2)*a\n"}"#)
            .unwrap_err();
        assert_eq!(err.code, "net-dsl-error");
        // Frame-shape failures stay `bad-request`.
        assert_eq!(
            req(r#"{"cmd":"submit","net_dsl":7}"#).unwrap_err().code,
            "bad-request"
        );
        assert_eq!(
            req(r#"{"cmd":"submit","net_dsl":"place a\ninit a\ntrans a -> a + a\n","params":[]}"#)
                .unwrap_err()
                .code,
            "bad-request"
        );
        assert_eq!(
            req(r#"{"cmd":"submit","protocol":"majority","net_dsl":"place a\ninit a\n"}"#)
                .unwrap_err()
                .code,
            "bad-request",
            "sources are mutually exclusive"
        );
    }

    #[test]
    fn query_targets_are_required_and_typed() {
        assert!(req(r#"{"cmd":"submit","protocol":"majority","query":"covering-word"}"#).is_err());
        assert!(
            req(r#"{"cmd":"submit","protocol":"majority","query":"coverability","target":3}"#)
                .is_err()
        );
        assert!(req(r#"{"cmd":"submit","protocol":"majority","query":"frobnicate"}"#).is_err());
        assert!(
            req(
                r#"{"cmd":"submit","protocol":"x","net":{"transitions":[]},"query":"reachability"}"#
            )
            .is_err(),
            "protocol and net are mutually exclusive"
        );
    }

    #[test]
    fn every_completion_has_a_wire_name() {
        let all = [
            Completion::Complete,
            Completion::ConfigBudget,
            Completion::AgentCap,
            Completion::DepthCap,
            Completion::IdSpace,
            Completion::OmegaOverflow,
        ];
        let mut names: Vec<&str> = all.iter().map(|&c| completion_wire_name(c)).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "wire names must be distinct");
    }

    #[test]
    fn error_frames_echo_ids() {
        let frame = error_frame(&WireError::bad("nope"), Some("j1"));
        assert_eq!(frame.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            frame.get("error").and_then(Json::as_str),
            Some("bad-request")
        );
        assert_eq!(frame.get("id").and_then(Json::as_str), Some("j1"));
    }
}

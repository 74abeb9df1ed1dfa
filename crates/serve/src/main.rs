//! The `pp_serve` CLI: run the analysis daemon, or talk to one.
//!
//! ```text
//! pp_serve serve    [--addr HOST:PORT] [--pool TOKENS] [--max-conns N]
//!                   [--runner N]
//! pp_serve submit   [--addr HOST:PORT] --protocol FAMILY [--n N]
//!                   [--agents N] [--query QUERY] [--budget N]
//!                   [--target PLACE=COUNT[,PLACE=COUNT…]]
//! pp_serve resume   [--addr HOST:PORT] --session TOKEN --budget N
//! pp_serve ping     [--addr HOST:PORT]
//! pp_serve shutdown [--addr HOST:PORT]
//! ```
//!
//! `QUERY` is one of `reachability` (default), `coverability`,
//! `karp-miller`, `covering-word`. The default address honors the
//! `PP_SERVE_ADDR` gate; `serve` also honors `PP_SERVE_THREADS` for its
//! connection cap. Every server frame is printed as one JSON line, so
//! the output composes with line-oriented tooling exactly like the wire.

use pp_petri::Parallelism;
use pp_serve::json::Json;
use pp_serve::server::{addr_from_gates, Server, ServerConfig};
use pp_serve::Client;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "serve" => cmd_serve(&args[1..]),
        "submit" => cmd_submit(&args[1..]),
        "resume" => cmd_resume(&args[1..]),
        "ping" => cmd_roundtrip(&args[1..], "ping"),
        "shutdown" => cmd_roundtrip(&args[1..], "shutdown"),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("pp_serve: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  pp_serve serve    [--addr HOST:PORT] [--pool TOKENS] [--max-conns N] [--runner N]
  pp_serve submit   [--addr HOST:PORT] --protocol FAMILY [--n N] [--agents N]
                    [--query reachability|coverability|karp-miller|covering-word]
                    [--budget N] [--target PLACE=COUNT[,PLACE=COUNT...]]
  pp_serve resume   [--addr HOST:PORT] --session TOKEN --budget N
  pp_serve ping     [--addr HOST:PORT]
  pp_serve shutdown [--addr HOST:PORT]";

/// A single pass over `--flag value` pairs; every flag takes a value.
fn parse_flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut flags = Vec::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, found {flag:?}"));
        };
        let Some(value) = iter.next() else {
            return Err(format!("--{name} needs a value"));
        };
        flags.push((name, value.as_str()));
    }
    Ok(flags)
}

fn lookup<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(flag, _)| *flag == name)
        .map(|(_, value)| *value)
}

fn parse_number<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{what} must be a number, got {value:?}"))
}

fn addr_of(flags: &[(&str, &str)]) -> String {
    lookup(flags, "addr").map_or_else(addr_from_gates, ToString::to_string)
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let mut config = ServerConfig::from_gates();
    if let Some(addr) = lookup(&flags, "addr") {
        config.addr = addr.to_string();
    }
    if let Some(pool) = lookup(&flags, "pool") {
        config.pool = Some(parse_number(pool, "--pool")?);
    }
    if let Some(cap) = lookup(&flags, "max-conns") {
        config.max_connections = parse_number(cap, "--max-conns")?;
    }
    if let Some(runner) = lookup(&flags, "runner") {
        config.runner = parallelism_of(runner, "--runner")?;
    }
    let server = Server::bind(config).map_err(|err| format!("bind failed: {err}"))?;
    eprintln!("pp_serve: listening on {}", server.local_addr());
    server.run();
    eprintln!("pp_serve: drained, stopping");
    Ok(())
}

fn parallelism_of(value: &str, what: &str) -> Result<Parallelism, String> {
    let workers: usize = parse_number(value, what)?;
    Ok(if workers <= 1 {
        Parallelism::Sequential
    } else {
        Parallelism::Parallel(workers)
    })
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let Some(family) = lookup(&flags, "protocol") else {
        return Err("submit needs --protocol FAMILY".to_string());
    };
    let mut fields = vec![
        ("cmd".to_string(), Json::str("submit")),
        ("protocol".to_string(), Json::str(family)),
    ];
    if let Some(n) = lookup(&flags, "n") {
        fields.push(("n".to_string(), Json::uint(parse_number(n, "--n")?)));
    }
    if let Some(agents) = lookup(&flags, "agents") {
        fields.push((
            "agents".to_string(),
            Json::uint(parse_number(agents, "--agents")?),
        ));
    }
    if let Some(query) = lookup(&flags, "query") {
        fields.push(("query".to_string(), Json::str(query)));
    }
    if let Some(budget) = lookup(&flags, "budget") {
        fields.push((
            "budget".to_string(),
            Json::uint(parse_number(budget, "--budget")?),
        ));
    }
    if let Some(target) = lookup(&flags, "target") {
        let mut pairs = Vec::new();
        for part in target.split(',') {
            let Some((place, count)) = part.split_once('=') else {
                return Err(format!("--target entries are PLACE=COUNT, got {part:?}"));
            };
            pairs.push((
                place.trim().to_string(),
                Json::uint(parse_number(count.trim(), "--target count")?),
            ));
        }
        fields.push(("target".to_string(), Json::object(pairs)));
    }
    let mut client = connect(&flags)?;
    let answer = client
        .submit(&Json::object(fields))
        .map_err(|err| err.to_string())?;
    for frame in &answer.progress {
        println!("{frame}");
    }
    println!("{}", answer.result);
    frame_status(&answer.result)
}

fn cmd_resume(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let Some(session) = lookup(&flags, "session") else {
        return Err("resume needs --session TOKEN".to_string());
    };
    let Some(budget) = lookup(&flags, "budget") else {
        return Err("resume needs --budget N".to_string());
    };
    let frame = Json::object([
        ("cmd".to_string(), Json::str("resume")),
        ("session".to_string(), Json::str(session)),
        (
            "budget".to_string(),
            Json::uint(parse_number(budget, "--budget")?),
        ),
    ]);
    let mut client = connect(&flags)?;
    let answer = client.submit(&frame).map_err(|err| err.to_string())?;
    for frame in &answer.progress {
        println!("{frame}");
    }
    println!("{}", answer.result);
    frame_status(&answer.result)
}

fn cmd_roundtrip(args: &[String], cmd: &str) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let mut client = connect(&flags)?;
    let frame = Json::object([("cmd".to_string(), Json::str(cmd))]);
    let reply = client.roundtrip(&frame).map_err(|err| err.to_string())?;
    println!("{reply}");
    frame_status(&reply)
}

fn connect(flags: &[(&str, &str)]) -> Result<Client, String> {
    let addr = addr_of(flags);
    Client::connect(&addr).map_err(|err| format!("cannot reach {addr}: {err}"))
}

fn frame_status(frame: &Json) -> Result<(), String> {
    match frame.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(()),
        _ => Err("server reported an error (see frame above)".to_string()),
    }
}

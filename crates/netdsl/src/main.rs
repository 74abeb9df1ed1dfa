//! Command-line front end for the `.pnet` DSL and the differential fuzzer.
//!
//! ```text
//! pp_netdsl check <file.pnet> [name=value ...]   parse + instantiate, report errors
//! pp_netdsl fmt <file.pnet>                      canonical form to stdout
//! pp_netdsl fuzz [--cases N] [--seed S] [--budget B] [--check]
//!                [--inject-fault] [--repro-dir DIR]
//! ```
//!
//! `fuzz` exits non-zero when a divergence is found — unless
//! `--inject-fault` is given, where the success condition inverts: the run
//! *must* catch the injected engine fault and shrink it to a repro, and
//! exits non-zero if it does not. CI runs both directions (`fuzz-smoke`).

use pp_netdsl::fuzz::{run_fuzz, FuzzOptions};
use pp_netdsl::{instantiate, parse_bytes};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("fmt") => cmd_fmt(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some(other) => usage(&format!("unknown command `{other}`")),
        None => usage("missing command"),
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("pp_netdsl: {message}");
    eprintln!("usage: pp_netdsl check <file.pnet> [name=value ...]");
    eprintln!("       pp_netdsl fmt <file.pnet>");
    eprintln!(
        "       pp_netdsl fuzz [--cases N] [--seed S] [--budget B] [--check] \
         [--inject-fault] [--repro-dir DIR]"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<pp_netdsl::NetDef, String> {
    let bytes = std::fs::read(path).map_err(|err| format!("{path}: {err}"))?;
    parse_bytes(&bytes).map_err(|err| format!("{path}: {err}"))
}

fn cmd_check(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage("check needs a file");
    };
    let mut overrides: Vec<(String, u64)> = Vec::new();
    for arg in &args[1..] {
        let Some((name, value)) = arg.split_once('=') else {
            return usage(&format!("expected name=value, got `{arg}`"));
        };
        let Ok(value) = value.parse::<u64>() else {
            return usage(&format!("`{value}` is not a count"));
        };
        overrides.push((name.to_string(), value));
    }
    let def = match load(path) {
        Ok(def) => def,
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::FAILURE;
        }
    };
    let overrides: Vec<(&str, u64)> = overrides.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    match instantiate(&def, &overrides) {
        Ok(spec) => {
            println!(
                "{}: {} places, {} transitions, {} initial configuration(s), cap {}",
                spec.name,
                spec.net.num_places(),
                spec.net.num_transitions(),
                spec.initials.len(),
                spec.cap
                    .map_or_else(|| "none".to_string(), |c| c.to_string()),
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("{path}: {err}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_fmt(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage("fmt needs a file");
    };
    match load(path) {
        Ok(def) => {
            print!("{}", def.print());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("{err}");
            ExitCode::FAILURE
        }
    }
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn cmd_fuzz(args: &[String]) -> ExitCode {
    let mut options = FuzzOptions::default();
    let mut repro_dir: Option<PathBuf> = None;
    let mut check_only = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--cases" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(value) => options.cases = value,
                None => return usage("--cases needs a number"),
            },
            "--seed" => match iter.next().and_then(|v| parse_seed(v)) {
                Some(value) => options.seed = value,
                None => return usage("--seed needs a number (decimal or 0x-hex)"),
            },
            "--budget" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(value) => options.budget = value,
                None => return usage("--budget needs a number"),
            },
            "--check" => check_only = true,
            "--inject-fault" => options.inject_fault = true,
            "--repro-dir" => match iter.next() {
                Some(dir) => repro_dir = Some(PathBuf::from(dir)),
                None => return usage("--repro-dir needs a directory"),
            },
            other => return usage(&format!("unknown fuzz option `{other}`")),
        }
    }
    let outcome = run_fuzz(&options);
    println!(
        "fuzz: {} case(s), {} comparison(s), resumes {} in place / {} cold, {} divergence(s){}",
        outcome.cases,
        outcome.comparisons,
        outcome.resumes_in_place,
        outcome.resumes_cold,
        outcome.divergences.len(),
        if options.inject_fault {
            " [fault injection active]"
        } else {
            ""
        },
    );
    let mut repro_failure = false;
    for (index, divergence) in outcome.divergences.iter().enumerate() {
        println!(
            "divergence {index}: case {} axis {} query {} ({} vs {}), shrunk to {} transition(s) / {} place(s) in {} step(s)",
            divergence.case,
            divergence.axis.name(),
            divergence.query.name(),
            pp_petri::fingerprint::hex(divergence.baseline),
            pp_petri::fingerprint::hex(divergence.divergent),
            divergence.shrunk.transitions.len(),
            divergence.shrunk.places.len(),
            divergence.shrink_steps,
        );
        let document = divergence.repro_document(options.seed);
        match &repro_dir {
            Some(dir) => {
                let path = dir.join(format!(
                    "repro-{}-{}-case{}.pnet",
                    divergence.axis.name(),
                    divergence.query.name(),
                    divergence.case
                ));
                let written =
                    std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &document));
                match written {
                    Ok(()) => println!("repro written to {}", path.display()),
                    Err(err) => {
                        eprintln!("failed to write {}: {err}", path.display());
                        repro_failure = true;
                    }
                }
            }
            None => print!("{document}"),
        }
    }
    if check_only && outcome.divergences.is_empty() && !options.inject_fault {
        println!("check: all engine configurations agree bit-for-bit");
    }
    let caught = !outcome.divergences.is_empty();
    let ok = if options.inject_fault {
        // Inverted: the injected fault must be caught (and not lost while
        // writing repros).
        caught && !repro_failure
    } else {
        !caught && !repro_failure
    };
    if options.inject_fault && !caught {
        eprintln!("fuzz: injected engine fault was NOT caught — the harness is blind");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

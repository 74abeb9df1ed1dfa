//! Differential fuzzing of the dense engine over generated nets.
//!
//! For every generated case the harness runs three queries — budgeted
//! reachability, backward coverability and a budgeted Karp–Miller tree —
//! first under a fixed *baseline* engine configuration (packed rows as in
//! production, cold, direct [`Analysis`]), then once per differential
//! *axis*:
//!
//! * **packed** — the uncompressed `u64` reference rows
//!   ([`Analysis::u64_rows`]) instead of packed ones;
//! * **resume** — truncate below the budget, then resume to the full
//!   budget (reachability only: the other queries have no resume path).
//!   The truncation budget is half the budget when that keeps the full
//!   build's row layout, else the smallest larger budget that does, so
//!   the resume extends the graph in place instead of rebuilding it cold;
//! * **batch** — the same query as a single-job [`Batch`] run.
//!
//! Each axis must reproduce the baseline [fingerprint](pp_petri::fingerprint)
//! bit for bit; the engine documents all three as observably identical, so
//! *any* difference is a bug. On divergence the harness greedily shrinks
//! the case — dropping transitions, initial configurations and places,
//! then lowering counts — while the divergence persists, and renders the
//! shrunk definition as a self-contained `.pnet` repro (the coverability
//! target rides along in the `target` stanza).
//!
//! `--inject-fault` flips the thread-local
//! [`fault_injection::SKIP_FIRST_DIRTY_ON_RESUME`](pp_petri::explore)
//! around the resume-axis runs, which run on the fuzzer's own thread. The
//! hook makes the resume leave its first re-expandable dirty node
//! unexpanded, so a graph resumed from a budget-truncated half-budget
//! build loses edges the cold baseline has — an observable engine fault
//! that CI uses to prove the harness actually catches and shrinks
//! divergences (the run *fails* if nothing is caught).

use crate::ast::NetDef;
use crate::eval::{concretize, instantiate, EvalError, NetSpec};
use crate::generate::{preset, random_def, random_target, NUM_PRESETS};
use pp_multiset::Multiset;
use pp_petri::explore::fault_injection;
use pp_petri::fingerprint::{hex, outcome_fingerprint};
use pp_petri::{Analysis, Batch, BatchJob, BatchOutcome, ExplorationLimits, Parallelism, PetriNet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The queries every case is checked under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Budgeted forward exploration.
    Reachability,
    /// Exact backward coverability of the generated target.
    Coverability,
    /// Budgeted Karp–Miller tree from the first initial configuration.
    KarpMiller,
}

impl QueryKind {
    /// All queries, in the order they run per case.
    pub const ALL: [QueryKind; 3] = [
        QueryKind::Reachability,
        QueryKind::Coverability,
        QueryKind::KarpMiller,
    ];

    /// Stable lowercase name (used in reports and repro headers).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Reachability => "reachability",
            QueryKind::Coverability => "coverability",
            QueryKind::KarpMiller => "karp-miller",
        }
    }
}

/// The engine configurations differentially checked against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Packed vs unpacked `u64` rows.
    Packed,
    /// Cold full-budget run vs truncate-then-resume.
    Resume,
    /// Direct [`Analysis`] query vs a single-job [`Batch`].
    Batch,
}

impl Axis {
    /// All axes, in checking order.
    pub const ALL: [Axis; 3] = [Axis::Packed, Axis::Resume, Axis::Batch];

    /// Stable lowercase name (used in reports and repro headers).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Axis::Packed => "packed",
            Axis::Resume => "resume",
            Axis::Batch => "batch",
        }
    }

    /// Resume only exists for reachability; every other axis applies to
    /// every query.
    #[must_use]
    pub fn applies_to(self, query: QueryKind) -> bool {
        !matches!(self, Axis::Resume) || query == QueryKind::Reachability
    }
}

/// Options for [`run_fuzz`].
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of generated cases.
    pub cases: u32,
    /// Base seed; case `i` derives its own generator from `seed` and `i`.
    pub seed: u64,
    /// Configuration budget for reachability and node budget for
    /// Karp–Miller (coverability is exact and needs none).
    pub budget: usize,
    /// Enable the skipped-dirty-node fault on resume-axis runs.
    pub inject_fault: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            cases: 64,
            seed: 0,
            budget: 600,
            inject_fault: false,
        }
    }
}

/// One confirmed divergence, already shrunk.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index of the generated case.
    pub case: u32,
    /// The axis that disagreed with the baseline.
    pub axis: Axis,
    /// The query it disagreed on.
    pub query: QueryKind,
    /// Baseline fingerprint at detection time.
    pub baseline: u64,
    /// Divergent fingerprint at detection time.
    pub divergent: u64,
    /// The original generated definition (concretized).
    pub original: NetDef,
    /// The shrunk definition still exhibiting the divergence.
    pub shrunk: NetDef,
    /// Number of successful shrink steps applied.
    pub shrink_steps: u32,
}

impl Divergence {
    /// Renders the shrunk case as a self-contained `.pnet` repro document
    /// with a provenance header.
    #[must_use]
    pub fn repro_document(&self, seed: u64) -> String {
        let mut out = String::new();
        out.push_str("# pp_netdsl fuzz repro (auto-shrunk)\n");
        out.push_str(&format!(
            "# divergence: axis={} query={} case={} base-seed={seed:#x}\n",
            self.axis.name(),
            self.query.name(),
            self.case,
        ));
        out.push_str(&format!(
            "# baseline fingerprint {} vs divergent {}\n",
            hex(self.baseline),
            hex(self.divergent),
        ));
        out.push_str(&format!(
            "# shrunk in {} steps from {} transitions / {} places\n",
            self.shrink_steps,
            self.original.transitions.len(),
            self.original.places.len(),
        ));
        out.push_str(&self.shrunk.print());
        out
    }
}

/// The result of a fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Cases generated and checked.
    pub cases: u32,
    /// Individual `(axis, query)` comparisons performed.
    pub comparisons: u64,
    /// Resume-axis cases whose truncated graph the resume extends in place.
    pub resumes_in_place: u32,
    /// Resume-axis cases whose resume rebuilds cold: no budget below the
    /// full one keeps the full build's row layout.
    pub resumes_cold: u32,
    /// All confirmed divergences (empty on a healthy engine).
    pub divergences: Vec<Divergence>,
}

/// The path a resume-axis resume takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResumePath {
    /// The truncated graph keeps the full build's row layout and is
    /// extended in place.
    InPlace,
    /// The row layout changes with the budget, so the resume rebuilds cold.
    Cold,
}

/// Engine configuration for one run: which axis deviation to apply.
#[derive(Debug, Clone, Copy)]
struct RunMode {
    axis: Option<Axis>,
    inject_fault: bool,
}

impl RunMode {
    const BASELINE: RunMode = RunMode {
        axis: None,
        inject_fault: false,
    };
}

/// Clears the fault hook on scope exit, so a panicking engine cannot leak
/// fuzzer state into later tests.
struct EngineModeGuard;

impl EngineModeGuard {
    fn set(mode: RunMode) -> EngineModeGuard {
        fault_injection::SKIP_FIRST_DIRTY_ON_RESUME
            .set(mode.inject_fault && matches!(mode.axis, Some(Axis::Resume)));
        EngineModeGuard
    }
}

impl Drop for EngineModeGuard {
    fn drop(&mut self) {
        fault_injection::SKIP_FIRST_DIRTY_ON_RESUME.set(false);
    }
}

fn limits_for(spec: &NetSpec, budget: usize) -> ExplorationLimits {
    ExplorationLimits {
        max_configurations: budget,
        max_agents: spec.cap,
        max_depth: None,
    }
}

/// The resume axis's truncated limits under the full `limits`, and the
/// path its resume takes (`None` when the truncated build is already
/// complete, leaving nothing to resume).
///
/// The packed row layout depends on the node budget
/// ([`CompiledNet::row_layout`](pp_petri::CompiledNet::row_layout)), and
/// a resume whose layout changes rebuilds cold instead of extending the
/// graph. The truncation budget is half the budget when that keeps the
/// full build's layout; otherwise the smallest larger budget that keeps
/// it. Cell widths only grow with the budget, so no budget below half can
/// keep a layout that half loses. When only the full budget has its
/// layout, the truncation stays at half and the resume goes cold.
fn resume_plan(
    spec: &NetSpec,
    limits: ExplorationLimits,
) -> (ExplorationLimits, Option<ResumePath>) {
    let budget = limits.max_configurations;
    let half = (budget / 2).max(1);
    let full = Analysis::new(&spec.net)
        .reachability(spec.initials.clone())
        .limits(limits)
        .run();
    let max_initial_total = spec.initials.iter().map(Multiset::total).max().unwrap_or(0);
    let keeps_layout = |truncation: usize| {
        full.engine()
            .row_layout(max_initial_total, limits.max_agents, truncation)
            == *full.row_layout()
    };
    let (truncation, path) = match (half..budget).find(|&b| keeps_layout(b)) {
        Some(b) => (b, ResumePath::InPlace),
        None => (half, ResumePath::Cold),
    };
    let truncated = ExplorationLimits {
        max_configurations: truncation,
        ..limits
    };
    (truncated, (full.len() > truncation).then_some(path))
}

/// Sorted place universe of the net (the canonical order every
/// basis/marking fingerprint reads counts in).
fn place_order(net: &PetriNet<String>) -> Vec<String> {
    net.places().iter().cloned().collect()
}

/// Runs `query` over `spec` under `mode`, or `None` when the query does
/// not apply (no initial configurations, or no target).
fn run_query(
    spec: &NetSpec,
    query: QueryKind,
    mode: RunMode,
    budget: usize,
) -> Option<BatchOutcome<String>> {
    let limits = limits_for(spec, budget);
    let _guard = EngineModeGuard::set(mode);
    if matches!(mode.axis, Some(Axis::Batch)) {
        return run_query_batch(spec, query, limits);
    }
    let mut analysis = Analysis::new(&spec.net);
    if matches!(mode.axis, Some(Axis::Packed)) {
        analysis = analysis.u64_rows();
    }
    Some(match query {
        QueryKind::Reachability => {
            if spec.initials.is_empty() {
                return None;
            }
            if matches!(mode.axis, Some(Axis::Resume)) {
                // Truncate below the budget, then resume to the full
                // budget; the graph must match a cold full-budget build.
                let (truncated, _) = resume_plan(spec, limits);
                let _ = analysis
                    .reachability(spec.initials.clone())
                    .limits(truncated)
                    .run();
            }
            BatchOutcome::Reachability(
                analysis
                    .reachability(spec.initials.clone())
                    .limits(limits)
                    .run(),
            )
        }
        QueryKind::Coverability => {
            BatchOutcome::Coverability(analysis.coverability(spec.target.clone()?).run())
        }
        QueryKind::KarpMiller => {
            let initial = spec.initials.first()?.clone();
            BatchOutcome::KarpMiller(analysis.karp_miller(initial).max_nodes(budget).run())
        }
    })
}

/// The same query as a single-job [`Batch`]. The batch layer uses
/// `limits.max_configurations` as the Karp–Miller node budget, so the tree
/// runs under the baseline's budget.
fn run_query_batch(
    spec: &NetSpec,
    query: QueryKind,
    limits: ExplorationLimits,
) -> Option<BatchOutcome<String>> {
    let job = match query {
        QueryKind::Reachability => {
            if spec.initials.is_empty() {
                return None;
            }
            BatchJob::reachability("fuzz", spec.net.clone(), spec.initials.clone())
        }
        QueryKind::Coverability => {
            BatchJob::coverability("fuzz", spec.net.clone(), spec.target.clone()?)
        }
        QueryKind::KarpMiller => {
            BatchJob::karp_miller("fuzz", spec.net.clone(), spec.initials.first()?.clone())
        }
    };
    let report = Batch::new()
        .parallelism(Parallelism::Sequential)
        .job(job.limits(limits))
        .run();
    report.jobs.into_iter().next().map(|job| job.outcome)
}

/// The fingerprint of [`run_query`]'s result, with basis and marking
/// counts read in the net's sorted place order.
fn fingerprint(spec: &NetSpec, query: QueryKind, mode: RunMode, budget: usize) -> Option<u64> {
    let outcome = run_query(spec, query, mode, budget)?;
    Some(outcome_fingerprint(&outcome, &place_order(&spec.net)))
}

/// Compares one axis against the baseline; `Some((base, other))` when they
/// disagree.
fn compare(
    spec: &NetSpec,
    query: QueryKind,
    axis: Axis,
    budget: usize,
    inject_fault: bool,
) -> Option<(u64, u64)> {
    let baseline = fingerprint(spec, query, RunMode::BASELINE, budget)?;
    let mode = RunMode {
        axis: Some(axis),
        inject_fault,
    };
    let other = fingerprint(spec, query, mode, budget)?;
    (baseline != other).then_some((baseline, other))
}

/// `true` when `def` still exhibits the divergence on `(axis, query)`.
fn still_diverges(
    def: &NetDef,
    query: QueryKind,
    axis: Axis,
    budget: usize,
    inject_fault: bool,
) -> bool {
    match instantiate(def, &[]) {
        Ok(spec) => compare(&spec, query, axis, budget, inject_fault).is_some(),
        Err(EvalError { .. }) => false,
    }
}

/// Greedy shrinking: repeatedly tries the reductions below and keeps any
/// that preserve the divergence, until a full pass makes no progress.
///
/// 1. drop one transition;
/// 2. drop one initial configuration (keeping at least one);
/// 3. drop one place (removing every term that mentions it);
/// 4. halve one count, then decrement one count.
fn shrink(
    def: &NetDef,
    query: QueryKind,
    axis: Axis,
    budget: usize,
    inject_fault: bool,
) -> (NetDef, u32) {
    let mut current = def.clone();
    let mut steps = 0u32;
    let max_steps = 400;
    loop {
        let mut progressed = false;
        for candidate in shrink_candidates(&current) {
            if steps >= max_steps {
                return (current, steps);
            }
            if still_diverges(&candidate, query, axis, budget, inject_fault) {
                current = candidate;
                steps += 1;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return (current, steps);
        }
    }
}

/// The one-step reductions of `def`, smallest-first.
fn shrink_candidates(def: &NetDef) -> Vec<NetDef> {
    use crate::ast::{Expr, Term};
    let mut out = Vec::new();
    for index in 0..def.transitions.len() {
        let mut candidate = def.clone();
        candidate.transitions.remove(index);
        out.push(candidate);
    }
    if def.inits.len() > 1 {
        for index in 0..def.inits.len() {
            let mut candidate = def.clone();
            candidate.inits.remove(index);
            out.push(candidate);
        }
    }
    for place in &def.places {
        let mut candidate = def.clone();
        candidate.places.remove(place);
        let strip = |terms: &mut Vec<Term>| terms.retain(|t| t.place != *place);
        for init in &mut candidate.inits {
            strip(init);
        }
        for trans in &mut candidate.transitions {
            strip(&mut trans.pre);
            strip(&mut trans.post);
        }
        if let Some(target) = &mut candidate.target {
            strip(target);
            if target.is_empty() {
                candidate.target = None;
            }
        }
        out.push(candidate);
    }
    // Count lowering works on concretized definitions (all counts are
    // integer literals there).
    let mut lower = |edit: fn(u64) -> u64| {
        let mut edits = Vec::new();
        let mut visit = |terms: &[Term], location: usize, which: usize| {
            for (slot, term) in terms.iter().enumerate() {
                if let Expr::Int(value) = term.count {
                    let lowered = edit(value);
                    if lowered < value {
                        edits.push((location, which, slot, lowered));
                    }
                }
            }
        };
        for (index, init) in def.inits.iter().enumerate() {
            visit(init, index, 0);
        }
        for (index, trans) in def.transitions.iter().enumerate() {
            visit(&trans.pre, index, 1);
            visit(&trans.post, index, 2);
        }
        for (location, which, slot, lowered) in edits {
            let mut candidate = def.clone();
            let terms = match which {
                0 => &mut candidate.inits[location],
                1 => &mut candidate.transitions[location].pre,
                _ => &mut candidate.transitions[location].post,
            };
            if lowered == 0 {
                terms.remove(slot);
            } else {
                terms[slot].count = Expr::Int(lowered);
            }
            out.push(candidate);
        }
    };
    lower(|v| v / 2);
    lower(|v| v.saturating_sub(1));
    out
}

/// Mixes the base seed with the case index (SplitMix64 finalizer) so
/// consecutive cases draw unrelated nets.
fn case_seed(seed: u64, case: u32) -> u64 {
    let mut z = seed ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the differential fuzzer; see the module docs for the axes.
///
/// Every divergence is shrunk before being reported. With
/// `inject_fault` the engine is *expected* to diverge on the resume
/// axis — callers invert the success condition.
#[must_use]
pub fn run_fuzz(options: &FuzzOptions) -> FuzzOutcome {
    let mut outcome = FuzzOutcome {
        cases: options.cases,
        comparisons: 0,
        resumes_in_place: 0,
        resumes_cold: 0,
        divergences: Vec::new(),
    };
    for case in 0..options.cases {
        let mut rng = StdRng::seed_from_u64(case_seed(options.seed, case));
        let knobs = preset(case as usize % NUM_PRESETS);
        let mut def = random_def(&mut rng, &knobs);
        def.target = Some(random_target(&mut rng, &def));
        // Freeze parameters up front: the shrinker edits integer counts.
        let Ok(def) = concretize(&def, &[]) else {
            continue;
        };
        let Ok(spec) = instantiate(&def, &[]) else {
            continue;
        };
        if !spec.initials.is_empty() {
            match resume_plan(&spec, limits_for(&spec, options.budget)).1 {
                Some(ResumePath::InPlace) => outcome.resumes_in_place += 1,
                Some(ResumePath::Cold) => outcome.resumes_cold += 1,
                None => {}
            }
        }
        for query in QueryKind::ALL {
            for axis in Axis::ALL {
                if !axis.applies_to(query) {
                    continue;
                }
                outcome.comparisons += 1;
                let Some((baseline, divergent)) =
                    compare(&spec, query, axis, options.budget, options.inject_fault)
                else {
                    continue;
                };
                let (shrunk, shrink_steps) =
                    shrink(&def, query, axis, options.budget, options.inject_fault);
                outcome.divergences.push(Divergence {
                    case,
                    axis,
                    query,
                    baseline,
                    divergent,
                    original: def.clone(),
                    shrunk,
                    shrink_steps,
                });
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_petri::CellWidth;

    #[test]
    fn a_healthy_engine_survives_a_small_run() {
        let outcome = run_fuzz(&FuzzOptions {
            cases: 12,
            seed: 0xFEED,
            budget: 300,
            inject_fault: false,
        });
        assert_eq!(outcome.cases, 12);
        assert!(outcome.comparisons >= 12 * 7, "axes actually ran");
        assert!(
            outcome.divergences.is_empty(),
            "unexpected divergences: {:?}",
            outcome
                .divergences
                .iter()
                .map(|d| (d.case, d.axis, d.query))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn the_resume_axis_reaches_the_in_place_resume() {
        // The CLI's default budget and seed 1, as in CI's self-test.
        let outcome = run_fuzz(&FuzzOptions {
            cases: 8,
            seed: 1,
            ..FuzzOptions::default()
        });
        assert!(outcome.divergences.is_empty());
        assert!(
            outcome.resumes_in_place >= 1,
            "in place {}, cold {}",
            outcome.resumes_in_place,
            outcome.resumes_cold
        );
    }

    #[test]
    fn injected_faults_are_caught_and_shrunk() {
        // The CLI's default budget, as in CI's self-test: the fault sits
        // in the in-place resume, so it shows only where the truncated
        // build keeps the full build's row layout.
        let budget = FuzzOptions::default().budget;
        let outcome = run_fuzz(&FuzzOptions {
            cases: 8,
            seed: 1,
            budget,
            inject_fault: true,
        });
        assert!(
            !outcome.divergences.is_empty(),
            "the skipped-dirty-node fault must be observable"
        );
        for divergence in &outcome.divergences {
            assert_eq!(divergence.axis, Axis::Resume, "fault is resume-only");
            assert!(divergence.shrunk.transitions.len() <= divergence.original.transitions.len());
            // The shrunk definition still parses, instantiates and still
            // exhibits the divergence (the shrinker only keeps reducers
            // that preserve it).
            let reparsed = crate::parse::parse_str(&divergence.shrunk.print()).unwrap();
            assert!(still_diverges(
                &reparsed,
                divergence.query,
                divergence.axis,
                budget,
                true
            ));
            let doc = divergence.repro_document(1);
            assert!(doc.contains("axis=resume"));
        }
    }

    /// The production default is what gets fuzzed: the baseline and the
    /// resume and batch axes all store packed rows, and only the packed
    /// axis runs on the `u64` reference rows.
    #[test]
    fn only_the_packed_axis_runs_on_u64_rows() {
        let def = crate::parse::parse_str(
            "place a b\ninit 4*a\ntrans 2*a -> a + b\ntrans a + b -> 2*b\n",
        )
        .unwrap();
        let spec = instantiate(&def, &[]).unwrap();
        let modes = [
            (None, true),
            (Some(Axis::Resume), true),
            (Some(Axis::Batch), true),
            (Some(Axis::Packed), false),
        ];
        for (axis, packed) in modes {
            let mode = RunMode {
                axis,
                inject_fault: false,
            };
            let Some(BatchOutcome::Reachability(graph)) =
                run_query(&spec, QueryKind::Reachability, mode, 300)
            else {
                panic!("{axis:?}: reachability applies to a net with an initial configuration");
            };
            let width = graph.row_layout().uniform_width();
            assert_eq!(width != CellWidth::U64, packed, "{axis:?}: {width:?}");
        }
    }

    #[test]
    fn case_seeds_are_spread() {
        let seeds: std::collections::BTreeSet<u64> =
            (0..32).map(|case| case_seed(7, case)).collect();
        assert_eq!(seeds.len(), 32);
    }
}

//! `qbench` — the repository benchmark: OpenQASM text to equivalence
//! verdict, end to end and layer by layer.
//!
//! ```text
//! qbench --workload <flow_equiv|flow_faulty|wide_auto|service_resubmit>
//!        --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run builds the workload's pairs from the seed, checks one untimed
//! warm-up round, then checks whole rounds in a closed loop (one caller,
//! no threads of its own) until `--seconds` have passed and at least 100
//! pair-checks were made. Set-up is repeated seven times, spread over the
//! run, and `setup_s` is its fastest repeat. Every verdict is checked
//! against its pair's ground truth, and every round must reproduce the
//! warm-up's verdicts and work counts exactly; a traced round must count
//! the same work as an untraced one.
//!
//! With `--trace 0` it prints the end-to-end metrics. Latencies are each
//! pair-check's best repeat across the run's rounds: on a shared host the
//! processor's speed can shift by more than 1.5× for seconds at a time, and
//! interference only adds time, so the best repeat is the steadiest
//! estimate. With `--trace 1` it
//! alternates untraced rounds with traced rounds, which re-drive the same
//! pairs one public layer call at a time (see `trace`), prints the
//! per-layer metrics, and writes the first traced round's spans to
//! `qbench.out/spans-<workload>-<seed>.jsonl`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The exit code is 0 when every verdict was right and every round
//! repeated, 1 otherwise, and 2 for a usage or set-up error (no JSON).
//!
//! Build and run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path qbench/Cargo.toml -- \
//!     --workload flow_equiv --seed 1 --seconds 10 --trace 0
//! ```

mod pairs;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pairs::{Case, Expect, Workload};
use qcec::service::Provenance;
use qcec::{BackendKind, Config, EquivalenceCheckingManager, FlowResult, Outcome};
use qcirc::{qasm, Circuit};
use trace::Tracer;

/// A run keeps checking rounds until it holds at least this many
/// pair-checks, so even the slowest workload repeats every pair.
const MIN_CHECKS: usize = 100;
/// Set-up is repeated this many times, spread over the run; `setup_s` is
/// the fastest repeat, for the reason latencies are.
const SETUPS: usize = 7;
/// Where a traced run writes its spans, relative to the working directory.
const SPANS_DIR: &str = "qbench.out";
/// Queue workers of the service workload's manager.
const SERVICE_WORKERS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

/// One pair-check's verdict, reduced to what the run checks and reports.
#[derive(Debug, Clone, PartialEq)]
struct Verdict {
    /// The full outcome (counterexample stimulus and overlap bits
    /// included), or the error: rounds must reproduce it exactly.
    key: String,
    /// The verdict class matches the pair's ground truth.
    ok: bool,
    /// A decisive verdict, not `ProbablyEquivalent`.
    proven: bool,
    /// Simulations run: the counterexample's run when simulation convicted.
    sims: usize,
}

impl Verdict {
    fn of(expect: Expect, outcome: &Outcome, sims: usize) -> Self {
        let ok = match expect {
            Expect::Equivalent => !outcome.is_not_equivalent(),
            Expect::Fault => outcome.is_not_equivalent(),
        };
        Verdict {
            key: format!("{outcome:?}"),
            ok,
            proven: !matches!(outcome, Outcome::ProbablyEquivalent { .. }),
            sims,
        }
    }

    fn failed(reason: String) -> Self {
        Verdict {
            key: format!("error: {reason}"),
            ok: false,
            proven: false,
            sims: 0,
        }
    }
}

/// One round: every case once, or every service pass.
#[derive(Debug, Default)]
struct Round {
    wall: Duration,
    /// Wall time of each unit of work: a pair-check, or a service pass.
    units: Vec<Duration>,
    latencies: Vec<Duration>,
    verdicts: Vec<Verdict>,
    /// Work counts that must repeat exactly from round to round.
    counters: BTreeMap<String, f64>,
    /// Per-layer span times of a traced round.
    times: BTreeMap<String, f64>,
}

impl Round {
    fn count(&mut self, name: &str, value: f64) {
        *self.counters.entry(name.to_string()).or_default() += value;
    }

    fn push(&mut self, latency: Duration, verdict: Verdict) {
        self.count("checks.sims", verdict.sims as f64);
        self.latencies.push(latency);
        self.verdicts.push(verdict);
    }

    /// The work counts of an untraced pair-check, under the names the
    /// traced flow gives them. The `Auto` pick and the peeled gates are
    /// recomputed here, outside the timed call, from the same pure
    /// functions the flow calls.
    fn count_check(&mut self, g: &Circuit, g_prime: &Circuit, r: &FlowResult, config: &Config) {
        self.count("qcirc.parse.gates", (g.len() + g_prime.len()) as f64);
        self.count("qcec.sim_check.probes", r.stats.simulations_run as f64);
        if config.backend == BackendKind::Auto {
            self.count(trace::pick_counter(qcec::auto_backend(g, g_prime)), 1.0);
        }
        if config.peel {
            let peeled = qcec::peel::peel(g, g_prime);
            let stripped = g.len() + g_prime.len() - peeled.g.len() - peeled.g_prime.len();
            self.count("qcec.peel.gates_stripped", stripped as f64);
        }
        let convicted = matches!(
            r.outcome,
            Outcome::NotEquivalent {
                counterexample: Some(_)
            }
        );
        if !convicted {
            self.count("qcec.functional.calls", 1.0);
        }
    }

    /// Folds a tracer's totals in: times apart, counts with the counters.
    fn absorb(&mut self, tracer: &Tracer) {
        for (name, value) in tracer.totals() {
            if name.ends_with("ms") {
                self.times.insert(name, value);
            } else {
                self.count(&name, value);
            }
        }
    }
}

/// Parses both sides and widens them to one register, as `check_qasm`
/// does.
fn parse_pair(case: &Case, tracer: Option<&Tracer>) -> Result<(Circuit, Circuit), String> {
    let parse = |text: &str| {
        let parsed = match tracer {
            None => qasm::parse(text),
            Some(t) => {
                let parsed = t.span("qcirc.parse", || qasm::parse(text));
                t.add("qcirc.parse.bytes", text.len() as f64);
                if let Ok(c) = &parsed {
                    t.add("qcirc.parse.gates", c.len() as f64);
                }
                parsed
            }
        };
        parsed.map_err(|e| format!("{}: {e}", case.name))
    };
    let (g, g_prime) = (parse(&case.g)?, parse(&case.g_prime)?);
    let n = g.n_qubits().max(g_prime.n_qubits());
    Ok((g.widened(n), g_prime.widened(n)))
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        Err(format!("panic: {message}"))
    })
}

/// Runs `f` inside a span when tracing.
fn in_span<T>(tracer: Option<&Tracer>, layer: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        None => f(),
        Some(t) => t.span(layer, f),
    }
}

/// One round of a one-shot workload: every case, QASM text to verdict.
fn flow_round(workload: &Workload, tracer: Option<&Tracer>) -> Round {
    let mut round = Round::default();
    let start = Instant::now();
    for (id, case) in workload.cases.iter().enumerate() {
        if let Some(t) = tracer {
            t.set_pair(id);
        }
        let t0 = Instant::now();
        let result = in_span(tracer, "pair", || {
            guarded(|| {
                let (g, g_prime) = parse_pair(case, tracer)?;
                let result = match tracer {
                    None => qcec::check_equivalence(&g, &g_prime, &workload.config),
                    Some(t) => trace::check_equivalence(t, &g, &g_prime, &workload.config),
                };
                result.map(|r| (r, g, g_prime)).map_err(|e| e.to_string())
            })
        });
        let latency = t0.elapsed();
        round.units.push(latency);
        let verdict = match result {
            Ok((r, g, g_prime)) => {
                if tracer.is_none() {
                    round.count_check(&g, &g_prime, &r, &workload.config);
                }
                Verdict::of(case.expect, &r.outcome, r.stats.simulations_run)
            }
            Err(e) => Verdict::failed(e),
        };
        round.push(latency, verdict);
    }
    round.wall = start.elapsed();
    if let Some(t) = tracer {
        round.absorb(t);
    }
    round
}

/// One round of the service workload: a fresh manager and cache, then
/// every pass submitted and run. Each job's verdict lands when its pass's
/// `run()` returns; its latency starts when its QASM text is parsed.
fn service_round(workload: &Workload, passes: &[Vec<usize>], tracer: Option<&Tracer>) -> Round {
    let mut round = Round::default();
    let start = Instant::now();
    let mut manager =
        EquivalenceCheckingManager::new(workload.config.clone()).with_workers(SERVICE_WORKERS);
    for (id, pass) in passes.iter().enumerate() {
        if let Some(t) = tracer {
            t.set_pair(id);
        }
        let pass_start = Instant::now();
        let first_result = manager.results().len();
        let (submitted, ran) = in_span(tracer, "pass", || {
            let mut submitted = Vec::with_capacity(pass.len());
            for &index in pass {
                let case = &workload.cases[index];
                let t0 = Instant::now();
                match guarded(|| parse_pair(case, tracer)) {
                    Ok((g, g_prime)) => {
                        if tracer.is_none() {
                            round.count("qcirc.parse.gates", (g.len() + g_prime.len()) as f64);
                        }
                        in_span(tracer, "qcec.fingerprint", || {
                            manager.submit(case.name.clone(), g, g_prime)
                        });
                        submitted.push((index, t0));
                    }
                    Err(e) => round.push(t0.elapsed(), Verdict::failed(e)),
                }
            }
            let ran = in_span(tracer, "qcec.service.run", || {
                guarded(|| manager.run().map(|_| ()).map_err(|e| e.to_string()))
            });
            (submitted, ran)
        });
        let done = Instant::now();
        round.units.push(done - pass_start);
        let results = &manager.results()[first_result..];
        for (i, (index, t0)) in submitted.iter().enumerate() {
            let expect = workload.cases[*index].expect;
            let verdict = match (&ran, results.get(i)) {
                (Ok(()), Some(result)) => {
                    round.count(
                        match result.provenance {
                            Provenance::Computed => "qcec.service.misses",
                            Provenance::CacheHit => "qcec.service.hits",
                            Provenance::Deduped => "qcec.service.deduped",
                        },
                        1.0,
                    );
                    let cached = &result.verdict;
                    Verdict::of(expect, &cached.outcome, cached.simulations_run)
                }
                (Err(e), _) => Verdict::failed(e.clone()),
                (Ok(()), None) => Verdict::failed("no result".to_string()),
            };
            round.push(done - *t0, verdict);
        }
    }
    round.count(
        "qcec.service.evictions",
        manager.cache_stats().evictions as f64,
    );
    round.wall = start.elapsed();
    if let Some(t) = tracer {
        round.absorb(t);
    }
    round
}

fn run_round(workload: &Workload, tracer: Option<&Tracer>) -> Round {
    match &workload.passes {
        None => flow_round(workload, tracer),
        Some(passes) => service_round(workload, passes, tracer),
    }
}

/// The `q`-quantile by nearest rank.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// FNV-1a over the ordered verdict list.
fn digest(verdicts: &[Verdict]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in verdicts {
        for b in v.key.bytes().chain(std::iter::once(b'\n')) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// The process's resident-set high-water mark in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Each position's fastest time across rounds, in seconds: every round
/// repeats the same work, so a position's best repeat is its time with the
/// least interference.
fn best_of_rounds(rounds: &[Round], times: impl Fn(&Round) -> &[Duration]) -> Vec<f64> {
    let n = rounds.iter().map(|r| times(r).len()).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            rounds
                .iter()
                .map(|r| times(r)[i].as_secs_f64())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// End-to-end metrics: latency percentiles over the pair-checks of a
/// round, each at its best repeat; throughput as one round's pair-checks
/// over the sum of its units' best times; shares over every check.
fn end_to_end(rounds: &[Round], setup_s: f64) -> Metrics {
    let mut latencies: Vec<f64> = best_of_rounds(rounds, |r| &r.latencies)
        .into_iter()
        .map(|s| s * 1e3)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let per_round = rounds[0].verdicts.len() as f64;
    let wall: f64 = best_of_rounds(rounds, |r| &r.units).iter().sum();
    let verdicts: Vec<&Verdict> = rounds.iter().flat_map(|r| &r.verdicts).collect();
    let checks = verdicts.len() as f64;
    let share =
        |f: &dyn Fn(&Verdict) -> bool| verdicts.iter().filter(|v| f(v)).count() as f64 / checks;
    let mut m = Metrics(Vec::new());
    m.put("verdict_latency_p50_ms", quantile(&latencies, 0.5), "ms");
    m.put("verdict_latency_p90_ms", quantile(&latencies, 0.9), "ms");
    m.put("pairs_per_s", per_round / wall, "1/s");
    m.put("correct_frac", share(&|v| v.ok), "ratio");
    m.put("proven_frac", share(&|v| v.proven), "ratio");
    m.put(
        "sims_per_check_mean",
        verdicts.iter().map(|v| v.sims as f64).sum::<f64>() / checks,
        "count",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m.put("setup_s", setup_s, "s");
    m
}

/// Per-layer span times, reported in ms per traced round.
const LAYER_TIMES: [&str; 14] = [
    "qcirc.parse.ms",
    "qcec.fingerprint.ms",
    "qcec.auto.ms",
    "qcec.peel.ms",
    "qstim.draw.ms",
    "qsim.probe.ms",
    "qdd.probe.ms",
    "qstab.probe.ms",
    "qmpo.probe.ms",
    "qcec.sim_check.self_ms",
    "qcec.functional.ms",
    "qdd.check.ms",
    "qmpo.check.ms",
    "qcec.service.run.ms",
];

/// Per-layer counts of one round (they repeat exactly), with their units.
const LAYER_COUNTS: [(&str, &str); 25] = [
    ("qcirc.parse.calls", "count"),
    ("qcirc.parse.gates", "count"),
    ("qcirc.parse.bytes", "bytes"),
    ("qcec.fingerprint.calls", "count"),
    ("qcec.auto.pick.sv", "count"),
    ("qcec.auto.pick.dd", "count"),
    ("qcec.auto.pick.stab", "count"),
    ("qcec.auto.pick.mps", "count"),
    ("qcec.peel.gates_stripped", "count"),
    ("qstim.draw.stimuli", "count"),
    ("qsim.probe.calls", "count"),
    ("qdd.probe.calls", "count"),
    ("qstab.probe.calls", "count"),
    ("qmpo.probe.calls", "count"),
    ("qdd.probe.peak_nodes_max", "count"),
    ("qmpo.probe.peak_bond_max", "count"),
    ("qmpo.probe.truncation_error_sum", "ratio"),
    ("qcec.sim_check.probes", "count"),
    ("qcec.functional.calls", "count"),
    ("qcec.functional.proven", "count"),
    ("qcec.functional.aborted", "count"),
    ("qcec.service.hits", "count"),
    ("qcec.service.misses", "count"),
    ("qcec.service.deduped", "count"),
    ("qcec.service.evictions", "count"),
];

/// Per-layer metrics: span times averaged per traced round, counts of one
/// round, ratios of those counts, and the tracing overhead against the
/// interleaved untraced rounds. A layer a workload never calls reads 0.
fn per_layer(traced: &[Round], untraced: &[Round]) -> Metrics {
    let ms = |name: &str| {
        traced
            .iter()
            .map(|r| r.times.get(name).copied().unwrap_or(0.0))
            .sum::<f64>()
            / traced.len() as f64
    };
    let count = |name: &str| traced[0].counters.get(name).copied().unwrap_or(0.0);
    let ratio = |a: &str, b: f64| if b > 0.0 { count(a) / b } else { 0.0 };
    let wall = |rounds: &[Round]| {
        median(
            &rounds
                .iter()
                .map(|r| r.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let mut m = Metrics(Vec::new());
    for name in LAYER_TIMES {
        m.put(name, ms(name), "ms");
    }
    for (name, unit) in LAYER_COUNTS {
        m.put(name, count(name), unit);
    }
    m.put(
        "qcec.sim_check.useful_ratio",
        ratio("qcec.sim_check.useful", count("qcec.sim_check.probes")),
        "ratio",
    );
    m.put(
        "qcec.sim_check.sims_to_detect_mean",
        ratio(
            "qcec.sim_check.decisive_runs",
            count("qcec.sim_check.convicted"),
        ),
        "count",
    );
    m.put(
        "qcec.service.hit_ratio",
        ratio(
            "qcec.service.hits",
            count("qcec.service.hits") + count("qcec.service.misses"),
        ),
        "ratio",
    );
    m.put(
        "trace.overhead_frac",
        wall(traced) / wall(untraced) - 1.0,
        "ratio",
    );
    m.put(
        "trace.unattributed_ms",
        ms("pair.self_ms") + ms("pass.self_ms"),
        "ms",
    );
    m
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("qbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let set_up = || -> Result<(Workload, f64), String> {
        let t0 = Instant::now();
        let built =
            pairs::build(&args.workload, args.seed).map_err(|e| format!("set-up failed: {e}"))?;
        Ok((built, t0.elapsed().as_secs_f64()))
    };
    let (workload, first_setup) = set_up()?;
    let mut setup_times = vec![first_setup];
    // Set-up is repeated at evenly spaced moments of the run, so its best
    // repeat samples the host as the rounds do; every repeat must build the
    // same pairs.
    let mut set_up_again = || -> Result<(), String> {
        let (again, seconds) = set_up()?;
        if !pairs::same_inputs(&workload, &again) {
            return Err("set-up is not deterministic".to_string());
        }
        setup_times.push(seconds);
        Ok(())
    };

    // Warm-up: caches fill and lazy allocations happen before timing.
    let reference = run_round(&workload, None);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut spans = None;
    let mut setups = 1;
    let start = Instant::now();
    let checks = |rounds: &[Round]| rounds.iter().map(|r| r.verdicts.len()).sum::<usize>();
    while start.elapsed().as_secs_f64() < args.seconds
        || checks(&untraced) < MIN_CHECKS
        || (args.trace && traced.is_empty())
    {
        untraced.push(run_round(&workload, None));
        if args.trace {
            let tracer = Tracer::default();
            traced.push(run_round(&workload, Some(&tracer)));
            spans.get_or_insert_with(|| tracer.spans_jsonl());
        }
        let due = setups as f64 * args.seconds / SETUPS as f64;
        if setups < SETUPS && start.elapsed().as_secs_f64() >= due {
            set_up_again()?;
            setups += 1;
        }
    }
    for _ in setups..SETUPS {
        set_up_again()?;
    }
    let setup_s = setup_times.iter().copied().fold(f64::INFINITY, f64::min);

    // Every round must repeat the warm-up's verdicts pair for pair, and
    // its counters exactly; traced rounds must repeat each other's and
    // count every untraced counter alike.
    let mut repeat_failures = Vec::new();
    for (i, round) in untraced.iter().enumerate() {
        if round.verdicts != reference.verdicts || round.counters != reference.counters {
            repeat_failures.push(format!("untraced round {i} differs from the warm-up"));
        }
    }
    for (i, round) in traced.iter().enumerate() {
        if round.verdicts != reference.verdicts {
            repeat_failures.push(format!("traced round {i} verdicts differ from untraced"));
        }
        if round.counters != traced[0].counters {
            repeat_failures.push(format!("traced round {i} counters differ"));
        }
        for (name, value) in &reference.counters {
            if round.counters.get(name) != Some(value) {
                repeat_failures.push(format!("traced round {i} counts {name} differently"));
            }
        }
    }
    for failure in &repeat_failures {
        eprintln!("qbench: {failure}");
    }
    let all: Vec<&Verdict> = reference
        .verdicts
        .iter()
        .chain(untraced.iter().chain(&traced).flat_map(|r| &r.verdicts))
        .collect();
    let failed = all.iter().filter(|v| !v.ok).count();
    for (case, v) in workload.case_names().zip(&reference.verdicts) {
        if !v.ok {
            eprintln!("qbench: wrong verdict on {case}: {}", v.key);
        }
    }
    let correct = failed == 0 && repeat_failures.is_empty();

    let metrics = if args.trace {
        if let Some(spans) = spans {
            let dir = Path::new(SPANS_DIR);
            let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans))
            {
                eprintln!("qbench: cannot write {}: {e}", path.display());
            }
        }
        per_layer(&traced, &untraced)
    } else {
        end_to_end(&untraced, setup_s)
    };
    println!(
        "# workload={} seed={} cases={} rounds={} traced_rounds={} checks={} verdict_digest={:016x}",
        args.workload,
        args.seed,
        workload.cases.len(),
        untraced.len(),
        traced.len(),
        checks(&untraced),
        digest(&reference.verdicts),
    );
    // The per-round work counts: identical across runs of one seed.
    let counters: Vec<String> = reference
        .counters
        .iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    println!("# counters {}", counters.join(" "));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        all.len(),
        metrics.json()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

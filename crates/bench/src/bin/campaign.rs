//! Runs a fault-injection campaign: the paper's detection-power
//! evaluation, automated end-to-end.
//!
//! Compiled benchmark pairs (mapped, optimized, decomposed — at least
//! three families) are seeded with faults from every `qfault` error class;
//! each faulty pair runs through the full checking flow and the per-class
//! detection statistics are aggregated by [`qcec::campaign`].
//!
//! Output: deterministic JSON on stdout (byte-identical across runs with
//! the same seed — wall-clock timings only appear with `--timings`), a
//! human-readable Markdown report on stderr (or in `--out FILE`).
//!
//! ```text
//! cargo run --release -p bench --bin campaign -- \
//!     --seed 7 --trials 5 --faults 1 --sims 10 --threads 2 --scale 0
//! ```
//!
//! Four flags set the ablation axes ([`qcec::campaign::Axis`]):
//! `--stimuli basis,product,stabilizer` (stimulus strategies), `--backend
//! sv,dd,stab,mps` (simulation engines), `--scheme
//! sequential,onetoone,proportional,gatecost` (the alternating check's
//! gate-application schemes) and `--chi 1,16,64` (the MPS engine's
//! bond-dimension cap). Every trial is checked once per combination of
//! arms, and every arm sees the identical faults, so a detection
//! difference is attributable to the axis alone.
//! `--compose K` stacks `K − 1` extra mixed-class faults on top of each
//! trial's own (modelling multi-fault compiler bugs); `--peel` strips the
//! shared Clifford rim off every pair before checking. `--pair
//! golden,faulty` (repeatable; `.qasm` or `.real` files) switches to
//! *pair-audit* mode: instead of the synthetic campaign, each explicit
//! pair is labelled by the guard and checked `--trials` times per strategy
//! with the simulation stage alone, measuring raw detection power. Pair
//! mode ablates stimuli only: a second value of any other axis flag exits
//! with status 2.
//!
//! `--inject CLASS[,CLASS...]` (or `--inject all`) switches `--pair` to
//! single-file form: each `--pair FILE` names one imported netlist used as
//! its own golden, and the campaign synthesizes guard-labelled mutants of
//! the chosen classes from it — fault-injection sweeps over external
//! netlists instead of the built-in generator set. Without `--pair`,
//! `--inject` filters the synthetic campaign to the given classes (seeds
//! stay aligned with the full run).

use std::io::Write as _;
use std::process::exit;

use qcec::campaign::{
    audit_pair, run_campaign, Axis, CampaignBenchmark, CampaignConfig, CompileRoute,
};
use qcirc::generators;
use qcirc::mapping::CouplingMap;
use qfault::MutationKind;

struct Args {
    seed: u64,
    trials: usize,
    faults: usize,
    compose: usize,
    peel: bool,
    sims: usize,
    threads: usize,
    trial_threads: usize,
    scale: usize,
    epsilon: f64,
    timings: bool,
    out: Option<String>,
    axes: Vec<Axis>,
    pairs: Vec<String>,
    inject: Option<Vec<MutationKind>>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            seed: 7,
            trials: 5,
            faults: 1,
            compose: 1,
            peel: false,
            sims: 10,
            threads: 2,
            trial_threads: 1,
            scale: bench::scale_from_env(),
            epsilon: 0.1,
            timings: false,
            out: None,
            axes: Vec::new(),
            pairs: Vec::new(),
            inject: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: campaign [--seed N] [--trials N] [--faults N] [--compose K] \
         [--sims N] [--threads N] [--trial-threads N] \
         [--scale 0|1] [--epsilon X] [--peel] [--timings] [--out FILE] \
         [--stimuli S[,S...]] [--backend B[,B...]] [--scheme A[,A...]] \
         [--chi N[,N...]] [--pair GOLDEN,FAULTY]... \
         [--inject CLASS[,CLASS...]|all [--pair FILE]...]\n\
         stimulus strategies: basis|sequential|product|stabilizer\n\
         backends: sv|dd|stab|mps|auto\n\
         application schemes: sequential|onetoone|proportional|gatecost\n\
         fault classes: remove_gate|add_gate|remove_control|add_control|\
         swap_targets|perturb_angle|swap_adjacent_gates|relabel_qubits"
    );
    exit(2);
}

fn parse_inject(spec: &str) -> Vec<MutationKind> {
    if spec.trim().eq_ignore_ascii_case("all") {
        return MutationKind::ALL.to_vec();
    }
    let classes: Vec<MutationKind> = spec
        .split(',')
        .map(|s| {
            MutationKind::from_slug(s.trim()).unwrap_or_else(|| {
                eprintln!("unknown fault class `{s}`");
                usage()
            })
        })
        .collect();
    if classes.is_empty() {
        usage();
    }
    classes
}

/// Parses a count flag's value, refusing zero.
fn count(flag: &str, value: &str) -> usize {
    match value.parse() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("{flag} needs a count of at least 1");
            usage()
        }
    }
}

fn parse_pair(spec: &str) -> (String, String) {
    match spec.split_once(',') {
        Some((golden, faulty)) if !golden.is_empty() && !faulty.is_empty() => {
            (golden.to_string(), faulty.to_string())
        }
        _ => {
            eprintln!("--pair expects GOLDEN,FAULTY file paths");
            usage()
        }
    }
}

fn load_circuit(path: &str) -> qcirc::Circuit {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let parsed = if path.ends_with(".real") {
        qcirc::real::parse(&text).map_err(|e| e.to_string())
    } else {
        qcirc::qasm::parse(&text).map_err(|e| e.to_string())
    };
    parsed.unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        exit(1);
    })
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--trials" => args.trials = count("--trials", &val("--trials")),
            "--faults" => args.faults = count("--faults", &val("--faults")),
            "--compose" => args.compose = count("--compose", &val("--compose")),
            "--peel" => args.peel = true,
            "--sims" => args.sims = val("--sims").parse().unwrap_or_else(|_| usage()),
            "--threads" => args.threads = count("--threads", &val("--threads")),
            "--trial-threads" => {
                args.trial_threads = val("--trial-threads").parse().unwrap_or_else(|_| usage());
            }
            "--scale" => args.scale = val("--scale").parse().unwrap_or_else(|_| usage()),
            "--epsilon" => args.epsilon = val("--epsilon").parse().unwrap_or_else(|_| usage()),
            "--timings" => args.timings = true,
            "--out" => args.out = Some(val("--out")),
            "--pair" => args.pairs.push(val("--pair")),
            "--inject" => args.inject = Some(parse_inject(&val("--inject"))),
            "--help" | "-h" => usage(),
            other => {
                let Some(axis) = other.strip_prefix("--").and_then(Axis::named) else {
                    eprintln!("unknown flag {other}");
                    usage();
                };
                let arms = axis.parse_arms(&val(other)).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                });
                args.axes.push(arms);
            }
        }
    }
    args
}

/// The campaign's benchmark set: every compile route, ≥ 3 circuit
/// families, registers small enough that the guard's complete check stays
/// instant. `scale ≥ 1` widens the sweep; `scale ≥ 2` adds the 16-qubit
/// adder used for the backend comparison.
fn benchmarks(scale: usize) -> Vec<CampaignBenchmark> {
    let mut set = vec![
        CampaignBenchmark::compile(
            "ghz 5",
            "ghz",
            &generators::ghz(5),
            &CompileRoute::Map(CouplingMap::linear(5)),
        ),
        CampaignBenchmark::compile(
            "qft 5",
            "qft",
            &generators::qft(5, true),
            &CompileRoute::Optimize,
        ),
        CampaignBenchmark::compile(
            "grover 3",
            "grover",
            &generators::grover(3, 5, generators::optimal_grover_iterations(3)),
            &CompileRoute::Decompose,
        ),
    ];
    if scale >= 1 {
        set.push(CampaignBenchmark::compile(
            "bv 6",
            "bv",
            &generators::bernstein_vazirani(6, 0b101101),
            &CompileRoute::Map(CouplingMap::linear(7)),
        ));
        set.push(CampaignBenchmark::compile(
            "qft 8",
            "qft",
            &generators::qft(8, true),
            &CompileRoute::Map(CouplingMap::ring(8)),
        ));
        set.push(CampaignBenchmark::compile(
            "toffnet 8",
            "toffnet",
            &generators::toffoli_network(8, 30, 3, 11),
            &CompileRoute::Decompose,
        ));
    }
    if scale >= 2 {
        // 16-qubit arithmetic: the structured register the DD backend keeps
        // polynomially small while the dense path burns two 2¹⁶ buffers per
        // probe — the fixture behind the backend comparison in
        // EXPERIMENTS.md.
        set.push(CampaignBenchmark::compile(
            "adder 16",
            "adder",
            &generators::cuccaro_adder(7),
            &CompileRoute::Optimize,
        ));
    }
    set
}

/// Pair-audit mode: label each explicit golden/faulty pair with the guard,
/// then measure each stimulus strategy's raw (simulation-only) detection
/// power on it. Markdown → stderr/`--out`, JSON array → stdout.
fn run_pair_audits(args: &Args, config: &CampaignConfig) {
    let mut markdown = String::new();
    let mut json = Vec::new();
    for spec in &args.pairs {
        let (golden_path, faulty_path) = &parse_pair(spec);
        let golden = load_circuit(golden_path);
        let faulty = load_circuit(faulty_path);
        if golden.n_qubits() != faulty.n_qubits() {
            eprintln!(
                "pair {golden_path},{faulty_path}: qubit counts differ ({} vs {})",
                golden.n_qubits(),
                faulty.n_qubits()
            );
            exit(1);
        }
        let name = faulty_path
            .rsplit('/')
            .next()
            .unwrap_or(faulty_path)
            .to_string();
        let audit = audit_pair(&name, &golden, &faulty, config);
        markdown.push_str(&audit.to_markdown());
        markdown.push('\n');
        json.push(audit.to_json());
    }

    match &args.out {
        Some(path) => {
            let mut f = std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            });
            f.write_all(markdown.as_bytes()).expect("write report");
            eprintln!("report written to {path}");
        }
        None => eprint!("{markdown}"),
    }
    println!("[{}]", json.join(","));
}

/// `--inject` + `--pair FILE` mode: each imported netlist is its own
/// golden, and the campaign synthesizes guard-labelled mutants of the
/// selected classes from it.
fn netlist_benchmarks(paths: &[String]) -> Vec<CampaignBenchmark> {
    paths
        .iter()
        .map(|path| {
            if path.contains(',') {
                eprintln!("--inject expects single-file --pair FILE arguments (got `{path}`)");
                usage();
            }
            let circuit = load_circuit(path);
            let name = path.rsplit('/').next().unwrap_or(path).to_string();
            let family = name
                .trim_end_matches(".qasm")
                .trim_end_matches(".real")
                .to_string();
            CampaignBenchmark {
                name,
                family,
                original: circuit.clone(),
                alternative: circuit,
            }
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let mut config = CampaignConfig::default()
        .with_seed(args.seed)
        .with_trials(args.trials)
        .with_faults(args.faults)
        .with_compose(args.compose)
        .with_peel(args.peel)
        .with_simulations(args.sims)
        .with_threads(args.threads)
        .with_trial_threads(args.trial_threads)
        .with_epsilon(args.epsilon);
    for axis in &args.axes {
        config = config.with_axis(axis.clone());
    }
    if let Some(classes) = &args.inject {
        config = config.with_classes(classes.clone());
    }

    if !args.pairs.is_empty() && args.inject.is_none() {
        if let Some(axis) = config.pair_audit_conflict() {
            eprintln!("--{} takes one value in pair mode", axis.flag());
            exit(2);
        }
        run_pair_audits(&args, &config);
        return;
    }

    let set = if args.inject.is_some() && !args.pairs.is_empty() {
        netlist_benchmarks(&args.pairs)
    } else {
        benchmarks(args.scale)
    };
    eprintln!(
        "campaign: {} benchmarks x {} arm combination(s) x {} classes x {} trials (seed {})",
        set.len(),
        config.axes.iter().map(Axis::arm_count).product::<usize>(),
        config.classes.len(),
        config.trials,
        config.seed,
    );

    let result = run_campaign(&set, &config);

    let markdown = result.to_markdown();
    match &args.out {
        Some(path) => {
            let mut f = std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            });
            f.write_all(markdown.as_bytes()).expect("write report");
            eprintln!("report written to {path}");
        }
        None => eprint!("{markdown}"),
    }

    println!("{}", result.to_json(args.timings));

    // A campaign that confirmed no fault at all is a broken campaign.
    let faults: usize = result.classes.iter().map(|(_, s)| s.faults).sum();
    if faults == 0 {
        eprintln!("error: no guard-confirmed fault in the whole campaign");
        exit(1);
    }
}

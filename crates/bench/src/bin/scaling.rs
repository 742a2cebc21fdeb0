//! Crossover sweep: which engine makes the flow fastest, per circuit
//! family and register width — the data behind `qcec::auto_backend`.
//!
//! For every family, width and engine the sweep times two costs,
//! separately and through qcec's public calls at `threads = 1`, on the
//! peeled pair (as `Auto` with peeling runs it):
//!
//! * the probes: one probe per stimulus of the flow's default draw
//!   (`r = 10` basis states), summed;
//! * the complete check: one `run_functional_check`, which runs the DD
//!   check behind `sv`, `dd` and `stab` and the MPO check behind `mps`.
//!
//! An engine's total is its probes plus its complete check: what an
//! equivalent pair costs in the flow. Each row then names the fastest
//! engine, `Auto`'s pick and the ratio of their totals, and the fastest
//! mix of one engine's probes with the other complete check (`split`).
//!
//! Every cell runs under the deadline (`QCEC_BENCH_DEADLINE` seconds,
//! default 10) and a DD budget of [`NODE_LIMIT`] nodes; a cell under
//! 0.1 s is timed best of three. `sv` stops at n = 20 (its two `2ⁿ`
//! buffers reach 2 GiB at n = 26), `stab` runs on all-Clifford pairs
//! only (elsewhere it is the `sv` engine), and an engine that fails at
//! one width is not run on the family's wider rows (`skip`).
//!
//! Regenerate the committed data with:
//!
//! ```sh
//! cargo run --release -p bench --bin scaling > crates/bench/data/crossover.tsv
//! ```

use std::time::{Duration, Instant};

use bench::{deadline_from_env, mapped};
use qcec::backend::dd_for_flow;
use qcec::{
    auto_backend, AbortReason, BackendKind, Config, FunctionalVerdict, MpsBackend, SimBackend,
    StabBackend, StatevectorBackend, Stimulus,
};
use qcirc::mapping::CouplingMap;
use qcirc::{decompose, generators, optimize, Circuit};

/// Register widths of the sweep: every even width around the dense and
/// decision-diagram crossovers, then the wide rows.
const WIDTHS: [usize; 14] = [8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 32, 40, 48];

/// The widest register the dense engine is timed on.
const SV_MAX: usize = 20;

/// DD node budget of every DD cell (~200 MB of nodes at most).
const NODE_LIMIT: usize = 2_000_000;

/// The probe engines, in column order.
const ENGINES: [BackendKind; 4] = [
    BackendKind::Statevector,
    BackendKind::DecisionDiagram,
    BackendKind::Stab,
    BackendKind::Mps,
];

/// One circuit family: its name and the equivalent pair at width `n`.
struct Family {
    name: &'static str,
    pair: fn(usize) -> (Circuit, Circuit),
}

/// The families of the `wide_auto` benchmark workload, plus a Toffoli
/// network against its dirty-ancilla lowering.
const FAMILIES: [Family; 7] = [
    Family {
        name: "ghz_t",
        pair: |n| padded(&ghz_t(n), 4),
    },
    Family {
        name: "cuccaro",
        pair: |n| {
            let adder = generators::cuccaro_adder(n / 2 - 1);
            let lowered = decompose::decompose_to_cx_and_single_qubit(&adder);
            (adder, lowered)
        },
    },
    Family {
        name: "qft",
        pair: |n| {
            let g = generators::qft(n, false);
            let mut alt = optimize::optimize(&g);
            for q in 0..n {
                alt.h(q).h(q);
            }
            (g, alt)
        },
    },
    Family {
        name: "rct",
        pair: |n| {
            let g = generators::random_clifford_t(n, 20 * n, 1);
            let opt = optimize::optimize(&g);
            (g, opt)
        },
    },
    Family {
        name: "clifford_adder",
        pair: |n| padded(&generators::clifford_adder(n / 2 - 1), 8),
    },
    Family {
        name: "ghz_routed",
        pair: |n| {
            let rows = (1..=n)
                .rev()
                .find(|r| n % r == 0 && r * r <= n)
                .unwrap_or(1);
            let g = generators::ghz(n);
            let routed = mapped(&g, &CouplingMap::grid(rows, n / rows)).expect("GHZ fits its grid");
            (g, routed)
        },
    },
    Family {
        name: "toffnet",
        pair: |n| {
            // Four controls cost two dirty ancillas.
            let g = generators::toffoli_network(n - 2, 4 * (n - 2), 4, 1);
            let lowered = decompose::decompose_with_dirty_ancillas(&g);
            (g.widened(n), lowered.widened(n))
        },
    },
];

/// GHZ behind a T on qubit 0, with a T on every eighth qubit after it
/// (the `wide_auto` workload's non-Clifford GHZ).
fn ghz_t(n: usize) -> Circuit {
    let mut g = Circuit::with_name(n, format!("ghz_t_{n}"));
    g.t(0).append(&generators::ghz(n));
    for q in (0..n).step_by(8) {
        g.t(q);
    }
    g
}

/// `g` against a copy that repeats every `every`-th gate as
/// `gate · gate⁻¹ · gate`.
fn padded(g: &Circuit, every: usize) -> (Circuit, Circuit) {
    let mut padded = Circuit::with_name(g.n_qubits(), g.name());
    for (i, gate) in g.gates().iter().enumerate() {
        padded.push(gate.clone());
        if i % every == every - 1 {
            padded.push(gate.inverse()).push(gate.clone());
        }
    }
    (g.clone(), padded)
}

/// One timed cell.
#[derive(Clone, Copy)]
enum Cell {
    /// Finished, in milliseconds.
    Ms(f64),
    /// Stopped without an answer: `timeout`, `nodes` or `trunc`.
    Failed(&'static str),
    /// Not run: `-` where the engine does not apply, `skip` after it
    /// failed on a narrower row of the family.
    NotRun(&'static str),
}

impl Cell {
    fn ms(self) -> Option<f64> {
        match self {
            Cell::Ms(ms) => Some(ms),
            _ => None,
        }
    }

    fn plus(self, other: Cell) -> Option<f64> {
        Some(self.ms()? + other.ms()?)
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Ms(ms) => write!(f, "{ms:.3}"),
            Cell::Failed(why) | Cell::NotRun(why) => f.write_str(why),
        }
    }
}

/// Times `run`, best of three while a run takes under 0.1 s.
fn best_of(mut run: impl FnMut() -> Result<(), &'static str>) -> Cell {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        if let Err(why) = run() {
            return Cell::Failed(why);
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        best = best.min(ms);
        if ms >= 100.0 {
            break;
        }
    }
    Cell::Ms(best)
}

/// The `r` probes of an equivalent pair on `backend`, all within
/// `deadline`.
fn probes<B: SimBackend>(
    backend: &B,
    g: &Circuit,
    g_prime: &Circuit,
    stimuli: &[Stimulus],
    deadline: Duration,
) -> Cell {
    let mut workspace = backend.workspace(g.n_qubits());
    best_of(|| {
        let start = Instant::now();
        let keep_going = || start.elapsed() < deadline;
        for stimulus in stimuli {
            match backend.probe_while(g, g_prime, stimulus, &mut workspace, &keep_going) {
                Ok(Some(out)) if out.metrics.truncation_error > 0.0 => return Err("trunc"),
                Ok(Some(out)) => assert!(
                    (out.overlap.norm_sqr() - 1.0).abs() < 1e-6,
                    "{}: an equivalent pair probed apart on {}",
                    g.name(),
                    backend.kind()
                ),
                Ok(None) => return Err("timeout"),
                Err(_) => return Err("nodes"),
            }
        }
        Ok(())
    })
}

/// One complete check of an equivalent pair on `config`'s checker.
fn check(g: &Circuit, g_prime: &Circuit, config: &Config) -> Cell {
    best_of(|| match qcec::run_functional_check(g, g_prime, config) {
        FunctionalVerdict::Equivalent | FunctionalVerdict::EquivalentUpToGlobalPhase { .. } => {
            Ok(())
        }
        FunctionalVerdict::NotEquivalent => panic!("{}: an equivalent pair refuted", g.name()),
        FunctionalVerdict::Aborted(AbortReason::Timeout) => Err("timeout"),
        FunctionalVerdict::Aborted(AbortReason::NodeLimit) => Err("nodes"),
        FunctionalVerdict::Aborted(_) => Err("trunc"),
    })
}

/// The `r` probes on the engine `config.backend` names.
fn engine_probes(
    config: &Config,
    g: &Circuit,
    g_prime: &Circuit,
    stimuli: &[Stimulus],
    deadline: Duration,
) -> Cell {
    match config.backend {
        BackendKind::Statevector => probes(
            &StatevectorBackend::for_flow(config),
            g,
            g_prime,
            stimuli,
            deadline,
        ),
        BackendKind::DecisionDiagram => probes(&dd_for_flow(config), g, g_prime, stimuli, deadline),
        BackendKind::Stab => probes(
            &StabBackend::for_flow(config),
            g,
            g_prime,
            stimuli,
            deadline,
        ),
        BackendKind::Mps => probes(&MpsBackend::for_flow(config), g, g_prime, stimuli, deadline),
        BackendKind::Auto => unreachable!("the sweep times concrete engines"),
    }
}

/// Runs `time` unless `failed` says the cell failed on a narrower row,
/// and records a failure for the wider ones.
fn unless_failed(failed: &mut bool, time: impl FnOnce() -> Cell) -> Cell {
    if *failed {
        return Cell::NotRun("skip");
    }
    let cell = time();
    *failed = matches!(cell, Cell::Failed(_));
    cell
}

/// The cheap structure `auto_backend` may read: whether both sides are
/// all-Clifford, how many gates carry two or more controls, and the
/// widest span of a multi-qubit gate.
fn structure(g: &Circuit, g_prime: &Circuit) -> (bool, usize, usize) {
    let gates = || g.gates().iter().chain(g_prime.gates());
    let clifford = gates().all(qcirc::Gate::is_clifford);
    let multi_controlled = gates().filter(|gate| gate.controls().len() >= 2).count();
    let span = gates()
        .filter(|gate| gate.qubits().count() >= 2)
        .map(|gate| gate.max_qubit() - gate.qubits().min().unwrap_or(0))
        .max()
        .unwrap_or(0);
    (clifford, multi_controlled, span)
}

/// The fastest finished entry of `totals`, by name.
fn fastest(totals: impl IntoIterator<Item = (String, Option<f64>)>) -> Option<(String, f64)> {
    totals
        .into_iter()
        .filter_map(|(name, ms)| Some((name, ms?)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

/// A total in milliseconds, or `-` when it did not finish.
fn show(ms: Option<f64>) -> String {
    ms.map_or_else(|| "-".to_string(), |ms| format!("{ms:.3}"))
}

fn main() {
    let deadline = deadline_from_env(10);
    let config = Config::default()
        .with_deadline(Some(deadline))
        .with_dd_node_limit(NODE_LIMIT);
    println!(
        "# crossover sweep: r = {} basis stimuli, threads = 1, deadline {} s per cell, DD budget {NODE_LIMIT} nodes; times in ms",
        config.simulations,
        deadline.as_secs()
    );
    println!(
        "family\tn\tgates\tclifford\tmc2\tspan\tsv\tdd\tstab\tmps\tdd_check\tmpo_check\tbest\tbest_ms\tauto\tauto_ms\tratio\tsplit\tsplit_ms"
    );
    for family in &FAMILIES {
        let mut probe_failed = [false; 4];
        let mut check_failed = [false; 2];
        for n in WIDTHS {
            let (g, g_prime) = (family.pair)(n);
            assert_eq!(
                (g.n_qubits(), g_prime.n_qubits()),
                (n, n),
                "{}",
                family.name
            );
            let (clifford, multi_controlled, span) = structure(&g, &g_prime);
            let peeled = qcec::peel::peel(&g, &g_prime);
            let (g_peeled, g_prime_peeled) = (&peeled.g, &peeled.g_prime);
            let stimuli = qcec::draw_stimuli(n, &config);

            let probe: [Cell; 4] = std::array::from_fn(|i| {
                let applies = match ENGINES[i] {
                    BackendKind::Statevector => n <= SV_MAX,
                    BackendKind::Stab => clifford,
                    _ => true,
                };
                if !applies {
                    return Cell::NotRun("-");
                }
                let config = config.clone().with_backend(ENGINES[i]);
                unless_failed(&mut probe_failed[i], || {
                    engine_probes(&config, g_peeled, g_prime_peeled, &stimuli, deadline)
                })
            });
            // The DD check, then the MPO check.
            let check: [Cell; 2] = std::array::from_fn(|i| {
                let kind = [BackendKind::DecisionDiagram, BackendKind::Mps][i];
                let config = config.clone().with_backend(kind);
                unless_failed(&mut check_failed[i], || {
                    check(g_peeled, g_prime_peeled, &config)
                })
            });
            // The complete check follows the probe engine: the MPO behind
            // `mps`, the DD behind the others.
            let checker = |i: usize| usize::from(ENGINES[i] == BackendKind::Mps);
            let total = |i: usize| probe[i].plus(check[checker(i)]);
            let best = fastest((0..4).map(|i| (ENGINES[i].slug().to_string(), total(i))));
            let split = fastest((0..4).map(|i| {
                let other = 1 - checker(i);
                let name = format!("{}+{}", ENGINES[i].slug(), ["dd", "mpo"][other]);
                (name, probe[i].plus(check[other]))
            }));
            let auto = auto_backend(&g, &g_prime);
            let auto_ms = total(
                ENGINES
                    .iter()
                    .position(|&k| k == auto)
                    .expect("a concrete engine"),
            );
            let ratio = match (&best, auto_ms) {
                (Some((_, best)), Some(ms)) => format!("{:.2}", ms / best),
                (Some(_), None) => "fail".to_string(),
                (None, _) => "-".to_string(),
            };
            let (best, best_ms) = best.map_or(("-".to_string(), None), |(k, ms)| (k, Some(ms)));
            let (split, split_ms) = split.map_or(("-".to_string(), None), |(k, ms)| (k, Some(ms)));
            println!(
                "{}\t{n}\t{}\t{}\t{multi_controlled}\t{span}\t{}\t{}\t{}\t{}\t{}\t{}\t{best}\t{}\t{}\t{}\t{ratio}\t{split}\t{}",
                family.name,
                g.len() + g_prime.len(),
                if clifford { "y" } else { "n" },
                probe[0],
                probe[1],
                probe[2],
                probe[3],
                check[0],
                check[1],
                show(best_ms),
                auto.slug(),
                show(auto_ms),
                show(split_ms),
            );
        }
    }
}

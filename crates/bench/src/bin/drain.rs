//! Measures stage-event *drain latency* under cancellation.
//!
//! When a scheduled run is cancelled, the worker pool winds down:
//! in-flight simulations either observe the token and abort or run to
//! completion. The gap between the `Cancelled` event landing in the sink
//! and [`qcec::check_equivalence`] returning is the **drain latency** —
//! the time a caller keeps waiting after the verdict is already decided,
//! and the window in which late `SimulationFinished`/`SimulationAborted`
//! events still arrive. Deterministic post-cancellation event *counters*
//! (a ROADMAP item) need this window quantified first; this bin measures
//! it.
//!
//! Two arms, because the scheduler has two cancellation paths:
//!
//! - `counterexample`: a faulty pair, no portfolio. The scheduler posts
//!   `Cancelled { SimulationCounterexample }` only *after* the pool has
//!   joined (the judge reads the overlaps in stimulus order as they land;
//!   `scheduler/mod.rs`), so the measured drain is just the return
//!   epilogue and no late events can arrive.
//! - `portfolio`: an equivalent pair with `portfolio` enabled. The
//!   functional racer posts `Cancelled { FunctionalVerdict }` mid-flight
//!   from its own thread, so the drain covers the real worker wind-down
//!   and late `SimulationFinished`/`SimulationAborted` events land in the
//!   sink during it.
//!
//! For each thread count, the pair is checked `--trials` times; the
//! per-trial drain is `t_return − t_cancelled`. Stats go to stdout as
//! JSON (wall-clock numbers — this bin is a measurement, not a
//! reproducibility fixture).
//!
//! ```text
//! cargo run --release -p bench --bin drain -- --trials 20 --threads 2,4
//! ```

use std::process::exit;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qcec::report::json::{self, Obj};
use qcec::scheduler::{EventSink, RunEvent};
use qcec::Config;
use qcirc::{generators, Circuit};

/// Stamps the arrival time of the first `Cancelled` event and counts the
/// events that land after it.
#[derive(Debug, Default)]
struct CancelStamp {
    cancelled_at: Mutex<Option<Instant>>,
    late_events: Mutex<usize>,
}

impl EventSink for CancelStamp {
    fn record(&self, event: RunEvent) {
        let mut at = self.cancelled_at.lock().expect("stamp lock");
        match (&*at, &event) {
            (None, RunEvent::Cancelled { .. }) => *at = Some(Instant::now()),
            (Some(_), _) => {
                *self.late_events.lock().expect("stamp lock") += 1;
            }
            _ => {}
        }
    }
}

struct Args {
    trials: usize,
    sims: usize,
    threads: Vec<usize>,
}

fn usage() -> ! {
    eprintln!("usage: drain [--trials N] [--sims N] [--threads T[,T...]]");
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        trials: 20,
        sims: 32,
        threads: vec![2, 4],
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--trials" => args.trials = val("--trials").parse().unwrap_or_else(|_| usage()),
            "--sims" => args.sims = val("--sims").parse().unwrap_or_else(|_| usage()),
            "--threads" => {
                args.threads = val("--threads")
                    .split(',')
                    .map(|t| t.parse().unwrap_or_else(|_| usage()))
                    .collect();
                if args.threads.is_empty() {
                    usage();
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    args
}

/// Runs one measurement arm: `trials` checks of `(golden, other)` per
/// thread count, returning one rendered JSON row per thread count.
fn run_arm(
    mode: &str,
    golden: &Circuit,
    other: &Circuit,
    portfolio: bool,
    args: &Args,
) -> Vec<String> {
    let mut rows = Vec::new();
    for &threads in &args.threads {
        let mut drains: Vec<Duration> = Vec::with_capacity(args.trials);
        let mut late_total = 0usize;
        let mut cancels = 0usize;
        for trial in 0..args.trials {
            let stamp = Arc::new(CancelStamp::default());
            let config = Config::new()
                .with_simulations(args.sims)
                .with_seed(trial as u64)
                .with_threads(threads)
                .with_portfolio(portfolio)
                .with_event_sink(stamp.clone());
            let _result =
                qcec::check_equivalence(golden, other, &config).expect("well-formed pair");
            let returned_at = Instant::now();
            let cancelled_at = *stamp.cancelled_at.lock().expect("stamp lock");
            if let Some(at) = cancelled_at {
                cancels += 1;
                drains.push(returned_at.duration_since(at));
                late_total += *stamp.late_events.lock().expect("stamp lock");
            }
        }
        drains.sort_unstable();
        // An empty f64 sum is -0.0; keep zero-cancellation rows at plain 0.
        let mean = if drains.is_empty() {
            0.0
        } else {
            drains.iter().map(Duration::as_secs_f64).sum::<f64>() / drains.len() as f64
        };
        let max = drains.last().copied().unwrap_or_default().as_secs_f64();
        let median = drains
            .get(drains.len() / 2)
            .copied()
            .unwrap_or_default()
            .as_secs_f64();
        let mut o = Obj::new();
        o.str("mode", mode)
            .int("threads", threads as u64)
            .int("trials", args.trials as u64)
            .int("cancellations", cancels as u64)
            .num("drain_mean_s", mean)
            .num("drain_median_s", median)
            .num("drain_max_s", max)
            .num(
                "late_events_per_cancel",
                late_total as f64 / cancels.max(1) as f64,
            );
        eprintln!(
            "{mode} threads {threads}: {cancels}/{} cancelled, mean drain {:.1} us, \
             median {:.1} us, max {:.1} us, {:.1} post-cancel events/run",
            args.trials,
            mean * 1e6,
            median * 1e6,
            max * 1e6,
            late_total as f64 / cancels.max(1) as f64,
        );
        rows.push(o.render());
    }
    rows
}

fn main() {
    let args = parse_args();
    // A wide supremacy-style circuit: expensive enough per stimulus that
    // pool wind-down is observable, small enough that trials stay fast.
    let golden = generators::supremacy_2d(3, 4, 8, 11);
    let mut faulty = golden.clone();
    faulty.x(5);
    let equivalent = golden.clone();

    let mut rows = Vec::new();
    // Arm 1: simulation counterexample. The Cancelled event is posted
    // after the pool join, so this measures the return epilogue only.
    rows.extend(run_arm("counterexample", &golden, &faulty, false, &args));
    // Arm 2: portfolio racer. The functional check proves equivalence and
    // cancels the still-running simulations from its own thread, so this
    // measures the real wind-down window.
    rows.extend(run_arm("portfolio", &golden, &equivalent, true, &args));

    let mut root = Obj::new();
    root.int("sims", args.sims as u64)
        .raw("rows", json::array(rows));
    println!("{}", root.render());
}

//! Workload inputs: circuit families, seeded guard-labelled faults, and the
//! OpenQASM text every pair-check starts from.
//!
//! Set-up is a pure function of the workload seed. The circuit families
//! and injected faults are fixed (see [`FAULT_SEED`]); the seed picks the
//! stimulus seed on `flow_equiv` and the check order on the other
//! workloads, so every seed costs the same work. Mutants are labelled
//! with [`GuardCache`] under a node budget and no deadline, so a label
//! never depends on machine speed; a mutant the guard cannot confirm as a
//! fault is redrawn from the next seed index.
//!
//! The four workloads, and why each exists:
//!
//! - `flow_equiv` (paper Table Ib): equivalent design-flow pairs at
//!   n = 7–16 under the default configuration. Every pair runs all `r = 10`
//!   statevector probes and the complete DD check, so those two layers do
//!   almost all the work.
//! - `flow_faulty` (Table Ia): guard-confirmed mutants of the `n ≤ 14`
//!   families plus the committed escapee corpus. Simulation convicts
//!   within a few runs, so parsing and the first probes dominate and the
//!   complete check is nearly idle (two escapees fall through to it). A
//!   change to the complete check should not move this workload.
//! - `wide_auto`: pairs past the dense wall under `BackendKind::Auto` with
//!   peeling, one faulted twin per engine. The stabilizer, decision-diagram
//!   and tensor-network engines and the `Auto` choice do everything; the
//!   statevector engine does nothing.
//! - `service_resubmit`: the CI service smoke's pattern through one
//!   `EquivalenceCheckingManager` and its verdict cache: a manifest, then
//!   the same manifest resubmitted with a share of `G′` swapped for fresh
//!   mutants, so the second pass mixes cache hits with computed misses.
//!
//! Left out on purpose, each for a program defect to fix first:
//!
//! - `supremacy_2d` pairs cannot enter through QASM: `qasm::write` emits
//!   `sy`/`sydg`, which `qasm::parse` rejects.
//! - `wide_auto` stays below n = 64: `qstim::BasisSource::draw` panics at
//!   n = 64 ("cannot sample empty range": `1u128 << 64` cast to `u64` is 0).
//! - QFT at n ≥ 26 under `Auto` goes to the tensor-network engine and takes
//!   more than 150 s per pair.

use qcec::{auto_backend, BackendKind, CircuitId, Config};
use qcirc::mapping::{route, CouplingMap, RouterOptions};
use qcirc::{decompose, generators, optimize, qasm, Circuit};
use qfault::{mutator_for, GuardCache, GuardOptions, GuardVerdict, MutationKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The verdict class a pair must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Equivalent by construction (a verified design-flow step).
    Equivalent,
    /// A fault the guard's complete check confirmed.
    Fault,
}

/// One pair-check input: both circuits as OpenQASM text.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub g: String,
    pub g_prime: String,
    pub expect: Expect,
}

/// Everything one workload run checks.
#[derive(Debug)]
pub struct Workload {
    pub config: Config,
    pub cases: Vec<Case>,
    /// For the service workload: the case indices submitted in each pass
    /// (an entry in a later pass is a resubmission). `None` for the
    /// one-shot workloads, which check every case once per round.
    pub passes: Option<Vec<Vec<usize>>>,
}

impl Workload {
    /// The case name of every pair-check of one round, in check order.
    pub fn case_names(&self) -> impl Iterator<Item = &str> + '_ {
        let order: Vec<usize> = match &self.passes {
            None => (0..self.cases.len()).collect(),
            Some(passes) => passes.concat(),
        };
        order.into_iter().map(|i| self.cases[i].name.as_str())
    }
}

/// Whether two set-ups produced exactly the same pairs and passes.
pub fn same_inputs(a: &Workload, b: &Workload) -> bool {
    let key = |w: &Workload| -> Vec<(String, String, String, Expect)> {
        w.cases
            .iter()
            .map(|c| (c.name.clone(), c.g.clone(), c.g_prime.clone(), c.expect))
            .collect()
    };
    key(a) == key(b) && a.passes == b.passes
}

pub const WORKLOADS: [&str; 4] = ["flow_equiv", "flow_faulty", "wide_auto", "service_resubmit"];

/// Builds the named workload from `seed`.
///
/// # Errors
///
/// Returns a message for an unknown workload name or a set-up step that
/// failed (a QASM round trip that does not reproduce its circuit, or a
/// fault slot with no guard-confirmed mutant).
pub fn build(workload: &str, seed: u64) -> Result<Workload, String> {
    match workload {
        "flow_equiv" => flow_equiv(seed),
        "flow_faulty" => flow_faulty(seed),
        "wide_auto" => wide_auto(seed),
        "service_resubmit" => service_resubmit(seed),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// A golden pair `(G, G′)`, equivalent by construction.
struct Family {
    name: String,
    g: Circuit,
    g_prime: Circuit,
}

impl Family {
    fn new(name: impl Into<String>, g: Circuit, g_prime: Circuit) -> Self {
        let n = g.n_qubits().max(g_prime.n_qubits());
        Family {
            name: name.into(),
            g: g.widened(n),
            g_prime: g_prime.widened(n),
        }
    }

    /// Lowered to `{1q, CX}` and routed onto `device`.
    fn mapped(name: impl Into<String>, g: Circuit, device: &CouplingMap) -> Self {
        let lowered = decompose::decompose_to_cx_and_single_qubit(&g);
        let routed = route(&lowered, device, RouterOptions::default())
            .expect("family circuits fit their devices");
        Family::new(name, g, routed.circuit)
    }

    /// Multi-controlled gates lowered with dirty ancillas.
    fn dirty_ancillas(name: impl Into<String>, g: Circuit) -> Self {
        let lowered = decompose::decompose_with_dirty_ancillas(&g);
        Family::new(name, g, lowered)
    }

    /// `g` against a copy that repeats every `every`-th gate as
    /// `gate · gate⁻¹ · gate`: the redundancy an unoptimized flow leaves.
    fn padded(name: impl Into<String>, g: Circuit, every: usize) -> Self {
        let mut padded = Circuit::with_name(g.n_qubits(), g.name());
        for (i, gate) in g.gates().iter().enumerate() {
            padded.push(gate.clone());
            if i % every == every - 1 {
                padded.push(gate.inverse()).push(gate.clone());
            }
        }
        Family::new(name, g, padded)
    }

    /// QFT against its optimized form plus one cancelling H·H per qubit.
    fn qft(n: usize) -> Self {
        let g = generators::qft(n, false);
        let mut alt = optimize::optimize(&g);
        for q in 0..n {
            alt.h(q).h(q);
        }
        Family::new(format!("qft{n}"), g, alt)
    }

    fn case(&self) -> Result<Case, String> {
        Ok(Case {
            name: self.name.clone(),
            g: serialize(&self.g)?.1,
            g_prime: serialize(&self.g_prime)?.1,
            expect: Expect::Equivalent,
        })
    }
}

/// SplitMix64 over the inputs: decorrelated per-slot seeds from one
/// workload seed.
fn mix(parts: &[u64]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for &p in parts {
        h = h.wrapping_add(p).wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = h;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

/// Writes `circuit` as OpenQASM and parses it back; the text must parse,
/// and a second trip must reproduce the parsed circuit exactly.
fn serialize(circuit: &Circuit) -> Result<(Circuit, String), String> {
    let text = qasm::write(circuit);
    let parsed = qasm::parse(&text).map_err(|e| format!("{}: {e}", circuit.name()))?;
    let again = qasm::parse(&qasm::write(&parsed)).map_err(|e| e.to_string())?;
    if CircuitId::of(&again) != CircuitId::of(&parsed) {
        return Err(format!("{}: QASM round trip is not stable", circuit.name()));
    }
    Ok((parsed, text))
}

/// The Table Ib design-flow families. `with_qft16` adds the one family
/// wider than 14 qubits.
fn flow_families(with_qft16: bool) -> Vec<Family> {
    let grover = generators::grover(5, 30, generators::optimal_grover_iterations(5));
    let cuccaro = generators::cuccaro_adder(6);
    let mut families = vec![
        Family::mapped(
            "chem2x4",
            generators::trotter_heisenberg(2, 4, 2, 0.1, 0.5),
            &CouplingMap::grid(2, 4),
        ),
        Family::mapped(
            "chem3x4",
            generators::trotter_heisenberg(3, 4, 2, 0.1, 0.5),
            &CouplingMap::grid(3, 4),
        ),
    ];
    for (n, m, circuit_seed) in [(10, 200, 1), (12, 240, 2)] {
        let g = generators::random_clifford_t(n, m, circuit_seed);
        let opt = optimize::optimize(&g);
        families.push(Family::new(format!("rct{n}"), g, opt));
    }
    families.push(Family::dirty_ancillas("grover5", grover));
    families.push(Family::qft(12));
    families.push(Family::qft(14));
    if with_qft16 {
        families.push(Family::qft(16));
    }
    families.push(Family::dirty_ancillas(
        "toffnet10",
        generators::toffoli_network(10, 40, 4, 1),
    ));
    let lowered = optimize::optimize(&decompose::decompose_to_cx_and_single_qubit(&cuccaro));
    families.push(Family::new("cuccaro6", cuccaro, lowered));
    families.push(Family::mapped(
        "bv12",
        generators::bernstein_vazirani(12, 0b1011_0110_1001),
        &CouplingMap::linear(13),
    ));
    families.push(Family::mapped(
        "qpe8",
        generators::phase_estimation(8, 37.0 / 256.0),
        &CouplingMap::linear(9),
    ));
    families
}

/// Guard budget: complete checks up to 48 qubits, bounded by DD nodes
/// only, so labels are a pure function of the circuits. A mutant shares
/// all but a few gates with its golden circuit, so the guard checks only
/// the tiny differing middles; the small budget mainly stops the guard's
/// eager build of the whole golden diagram, which would otherwise take
/// seconds per family and dominate set-up.
fn guard_options() -> GuardOptions {
    GuardOptions {
        max_qubits: 48,
        deadline: None,
        node_limit: 2_000,
    }
}

/// Seed indices tried per fault slot before the slot is given up.
const MAX_DRAWS: u64 = 24;

/// Draws the first guard-confirmed fault of `kind` in `golden` (already
/// round-tripped), trying seed indices `0, 1, …` derived from `slot`, and
/// keeping only mutants `accept` allows. Returns `None` when no draw
/// within [`MAX_DRAWS`] qualifies (the mutator has no site, or every draw
/// was benign or unlabelled).
fn draw_fault(
    guard: &GuardCache,
    kind: MutationKind,
    slot: &[u64],
    accept: &dyn Fn(&Circuit) -> bool,
) -> Result<Option<(String, String)>, String> {
    let mutator = mutator_for(kind, 0.1);
    for index in 0..MAX_DRAWS {
        let mut parts = slot.to_vec();
        parts.push(index);
        let mut rng = StdRng::seed_from_u64(mix(&parts));
        let Ok((mutant, _)) = mutator.apply(guard.golden(), &mut rng) else {
            continue;
        };
        let (parsed, text) = serialize(&mutant)?;
        if !accept(&parsed) {
            continue;
        }
        if guard.classify(&parsed) == GuardVerdict::Fault {
            return Ok(Some((format!("{}@{index}", kind.slug()), text)));
        }
    }
    Ok(None)
}

/// A family's round-tripped `G′` behind a guard, with `G`'s text.
fn guarded(family: &Family) -> Result<(GuardCache, String), String> {
    let (golden, _) = serialize(&family.g_prime)?;
    let g_text = serialize(&family.g)?.1;
    Ok((GuardCache::new(&golden, &guard_options()), g_text))
}

/// One fault case per mutator kind for `family`: `G` against a mutant of
/// `G′`.
fn fault_cases(
    family: &Family,
    guard: &GuardCache,
    g_text: &str,
    kinds: &[MutationKind],
    slot: &[u64],
) -> Result<Vec<Case>, String> {
    let mut cases = Vec::new();
    for (k, &kind) in kinds.iter().enumerate() {
        let slot = [slot, &[k as u64]].concat();
        if let Some((label, text)) = draw_fault(guard, kind, &slot, &|_| true)? {
            cases.push(Case {
                name: format!("{}/{label}", family.name),
                g: g_text.to_string(),
                g_prime: text,
                expect: Expect::Fault,
            });
        }
    }
    Ok(cases)
}

/// `relabel_qubits` rewrites a whole suffix, which defeats the guard's
/// trimming; keep it to families whose complete check stays cheap.
fn kinds_for(family: &Family) -> Vec<MutationKind> {
    MutationKind::ALL
        .into_iter()
        .filter(|&k| k != MutationKind::RelabelQubits || family.g_prime.len() <= 220)
        .collect()
}

fn flow_equiv(seed: u64) -> Result<Workload, String> {
    let cases = flow_families(true)
        .iter()
        .map(Family::case)
        .collect::<Result<_, _>>()?;
    Ok(Workload {
        config: Config::default().with_seed(seed),
        cases,
        passes: None,
    })
}

/// The committed escapee corpus: guard-confirmed faults that `r = 10`
/// basis-state simulations miss on some stimulus seeds.
const ESCAPEES: [(&str, &str, &str); 4] = [
    (
        "mcx6_vchain_add_control_22",
        include_str!("../fixtures/escapees/mcx6_vchain_add_control_22.golden.qasm"),
        include_str!("../fixtures/escapees/mcx6_vchain_add_control_22.faulty.qasm"),
    ),
    (
        "toffnet8_vchain_drop_306",
        include_str!("../fixtures/escapees/toffnet8_vchain_drop_306.golden.qasm"),
        include_str!("../fixtures/escapees/toffnet8_vchain_drop_306.faulty.qasm"),
    ),
    (
        "toffnet8_vchain_drop_32",
        include_str!("../fixtures/escapees/toffnet8_vchain_drop_32.golden.qasm"),
        include_str!("../fixtures/escapees/toffnet8_vchain_drop_32.faulty.qasm"),
    ),
    (
        "vchain_cx_drop",
        include_str!("../fixtures/escapees/vchain_cx_drop.golden.qasm"),
        include_str!("../fixtures/escapees/vchain_cx_drop.faulty.qasm"),
    ),
];

fn escapee_cases() -> Result<Vec<Case>, String> {
    ESCAPEES
        .iter()
        .map(|&(name, golden, faulty)| {
            let parse = |text: &str| qasm::parse(text).map_err(|e| format!("{name}: {e}"));
            let (g, g_prime) = (parse(golden)?, parse(faulty)?);
            if GuardCache::new(&g, &guard_options()).classify(&g_prime) != GuardVerdict::Fault {
                return Err(format!("escapee {name} is not a guard-confirmed fault"));
            }
            Ok(Case {
                name: format!("escapee/{name}"),
                g: golden.to_string(),
                g_prime: faulty.to_string(),
                expect: Expect::Fault,
            })
        })
        .collect()
}

/// The draw seed of every workload's mutants. A mutant that happens to
/// escape all `r` simulations sends its pair to the complete check, which
/// costs 10–100× a conviction; drawing such escapes afresh per seed would
/// make a workload's cost a lottery. The mutants are therefore one fixed
/// draw (in which, on `flow_faulty`, only the escapee corpus reaches the
/// complete check), and the workload seed orders the checks.
const FAULT_SEED: u64 = 0;

fn flow_faulty(seed: u64) -> Result<Workload, String> {
    let mut cases = Vec::new();
    for (slot, family) in flow_families(false).iter().enumerate() {
        let (guard, g_text) = guarded(family)?;
        let kinds = kinds_for(family);
        cases.extend(fault_cases(
            family,
            &guard,
            &g_text,
            &kinds,
            &[FAULT_SEED, slot as u64],
        )?);
    }
    cases.extend(escapee_cases()?);
    cases.shuffle(&mut StdRng::seed_from_u64(seed));
    Ok(Workload {
        config: Config::default(),
        cases,
        passes: None,
    })
}

/// GHZ behind a T on qubit 0 and with a T on every eighth qubit after it:
/// non-Clifford, so `Auto` sends it to the tensor-network engine. The
/// leading T keeps peeling (which strips only a shared Clifford rim) from
/// removing the Hadamard, so every probe builds the GHZ entanglement
/// (bond dimension 2) instead of pushing product states through CXs.
fn ghz_t(n: usize) -> Circuit {
    let mut g = Circuit::with_name(n, format!("ghz_t_{n}"));
    g.t(0).append(&generators::ghz(n));
    for q in (0..n).step_by(8) {
        g.t(q);
    }
    g
}

fn wide_auto(seed: u64) -> Result<Workload, String> {
    let mut families = Vec::new();
    for (n, rows, cols) in [(32, 4, 8), (40, 5, 8), (48, 6, 8)] {
        families.push(Family::mapped(
            format!("ghz{n}"),
            generators::ghz(n),
            &CouplingMap::grid(rows, cols),
        ));
    }
    for k in [10, 15, 20] {
        let g = generators::clifford_adder(k);
        families.push(Family::padded(
            format!("clifford_adder{}", g.n_qubits()),
            g,
            8,
        ));
    }
    for n in [32, 48] {
        families.push(Family::padded(format!("ghz_t{n}"), ghz_t(n), 4));
    }
    let adder = generators::cuccaro_adder(12);
    let lowered = decompose::decompose_to_cx_and_single_qubit(&adder);
    families.push(Family::new("cuccaro26", adder, lowered));
    families.push(Family::qft(20));
    families.push(Family::qft(24));
    let g = generators::random_clifford_t(10, 200, 1);
    let opt = optimize::optimize(&g);
    families.push(Family::new("rct10", g, opt));

    let mut cases: Vec<Case> = families
        .iter()
        .map(Family::case)
        .collect::<Result<_, _>>()?;
    // One faulted twin per probe engine, so stab, mps and dd each convict.
    for (slot, name, engine) in [
        (0, "ghz40", BackendKind::Stab),
        (1, "ghz_t32", BackendKind::Mps),
        (2, "qft20", BackendKind::DecisionDiagram),
    ] {
        let family = families
            .iter()
            .find(|f| f.name == name)
            .expect("twin family exists");
        cases.push(engine_twin(family, engine, mix(&[FAULT_SEED, 3, slot]))?);
    }
    cases.shuffle(&mut StdRng::seed_from_u64(seed));
    Ok(Workload {
        config: Config::default()
            .with_backend(BackendKind::Auto)
            .with_peel(true),
        cases,
        passes: None,
    })
}

/// A guard-confirmed fault in `family` that `Auto` still sends to
/// `engine` (a fault may add a non-Clifford gate, which moves a pair off
/// the stabilizer engine).
fn engine_twin(family: &Family, engine: BackendKind, seed: u64) -> Result<Case, String> {
    let (guard, g_text) = guarded(family)?;
    let g = qasm::parse(&g_text).map_err(|e| e.to_string())?;
    for (k, kind) in MutationKind::ALL.into_iter().enumerate() {
        let accept = |m: &Circuit| auto_backend(&g, m) == engine;
        if let Some((label, text)) = draw_fault(&guard, kind, &[seed, k as u64], &accept)? {
            return Ok(Case {
                name: format!("{}/{label}", family.name),
                g: g_text,
                g_prime: text,
                expect: Expect::Fault,
            });
        }
    }
    Err(format!(
        "no {} fault twin for {}",
        engine.slug(),
        family.name
    ))
}

/// Passes the service workload runs per round, as the repository's CI
/// service smoke does (`serve --manifest tests/fixtures/serve/manifest.txt
/// --passes 2`): the manifest, then the same manifest resubmitted.
const SERVICE_PASSES: usize = 2;
/// On the resubmission, the `G′` of one family entry in this many is
/// swapped for a fresh mutant. The rate is chosen, not observed (the CI
/// smoke swaps nothing): it makes the second pass mix cache hits with
/// computed misses.
const SWAP_EVERY: usize = 4;

/// The CI service smoke's manifest: the escapee corpus plus an
/// equivalent self-pair.
fn serve_manifest() -> Result<Vec<Case>, String> {
    let mut cases = escapee_cases()?;
    let (name, golden, _) = ESCAPEES[3];
    cases.push(Case {
        name: format!("escapee/{name}/self"),
        g: golden.to_string(),
        g_prime: golden.to_string(),
        expect: Expect::Equivalent,
    });
    Ok(cases)
}

fn service_resubmit(seed: u64) -> Result<Workload, String> {
    const SMALL: [&str; 8] = [
        "chem2x4", "rct10", "rct12", "grover5", "qft12", "cuccaro6", "bv12", "qpe8",
    ];
    let families: Vec<Family> = flow_families(false)
        .into_iter()
        .filter(|f| SMALL.contains(&f.name.as_str()))
        .collect();
    // The manifest: per family the golden pair and two faulted pairs.
    let kinds: Vec<MutationKind> = MutationKind::ALL
        .into_iter()
        .filter(|&k| k != MutationKind::RelabelQubits)
        .collect();
    let mut cases = Vec::new();
    let mut entry_family = Vec::new();
    let mut guards = Vec::new();
    for (slot, family) in families.iter().enumerate() {
        let (guard, g_text) = guarded(family)?;
        cases.push(family.case()?);
        entry_family.push(slot);
        let pair = [kinds[slot % kinds.len()], kinds[(slot + 3) % kinds.len()]];
        for case in fault_cases(
            family,
            &guard,
            &g_text,
            &pair,
            &[FAULT_SEED, 100, slot as u64],
        )? {
            cases.push(case);
            entry_family.push(slot);
        }
        guards.push(guard);
    }
    let family_entries = cases.len();
    cases.extend(serve_manifest()?);
    let mut order: Vec<usize> = (0..cases.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut passes = Vec::with_capacity(SERVICE_PASSES);
    for pass in 0..SERVICE_PASSES {
        let mut jobs = Vec::with_capacity(order.len());
        for &entry in &order {
            let mut job = entry;
            if pass > 0 && entry < family_entries && entry % SWAP_EVERY == pass % SWAP_EVERY {
                // A fresh mutant of the entry's family replaces its G′.
                let slot = entry_family[entry];
                let kind = kinds[(pass + entry) % kinds.len()];
                let draw_slot = [FAULT_SEED, 200, entry as u64, pass as u64];
                if let Some((label, text)) = draw_fault(&guards[slot], kind, &draw_slot, &|_| true)?
                {
                    cases.push(Case {
                        name: format!("{}/pass{pass}/{label}", families[slot].name),
                        g: cases[entry].g.clone(),
                        g_prime: text,
                        expect: Expect::Fault,
                    });
                    job = cases.len() - 1;
                }
            }
            jobs.push(job);
        }
        passes.push(jobs);
    }
    Ok(Workload {
        config: Config::default(),
        cases,
        passes: Some(passes),
    })
}

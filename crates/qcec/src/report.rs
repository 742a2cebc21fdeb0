//! Tabular reporting of flow results — the shape of the paper's Table I —
//! plus per-stage timing summaries assembled from scheduler events.
//!
//! Every report shape renders both for humans (`Display`, [`Report::to_csv`])
//! and as structured JSON ([`Report::to_json`], [`StageTimings::to_json`])
//! through the tiny [`json`] builder, so campaign output and ad-hoc bench
//! runs share one reporting path.

use std::fmt;
use std::time::Duration;

use crate::config::BackendKind;
use crate::outcome::{FlowResult, Outcome};
use crate::scheduler::{RunEvent, Stage};

pub mod json {
    //! A minimal, dependency-free JSON emitter.
    //!
    //! The build environment vendors no serialization crates, and the
    //! campaign's reproducibility contract needs full control over field
    //! order and number formatting anyway (two runs with the same seed must
    //! produce *byte-identical* output). Fields render in insertion order;
    //! floats use Rust's shortest round-trip `Display` form.

    /// Escapes a string for use inside a JSON string literal (quotes not
    /// included).
    #[must_use]
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Renders an `f64` as a JSON number (shortest round-trip form; JSON
    /// has no non-finite numbers, so those become `null`).
    #[must_use]
    pub fn number(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    /// Joins pre-rendered JSON values into an array literal.
    #[must_use]
    pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
        let items: Vec<String> = items.into_iter().collect();
        format!("[{}]", items.join(","))
    }

    /// An insertion-ordered JSON object builder.
    ///
    /// # Examples
    ///
    /// ```
    /// use qcec::report::json::Obj;
    ///
    /// let mut o = Obj::new();
    /// o.str("name", "qft 4").num("n", 4.0).raw("tags", "[]");
    /// assert_eq!(o.render(), r#"{"name":"qft 4","n":4,"tags":[]}"#);
    /// ```
    #[derive(Debug, Clone, Default)]
    pub struct Obj {
        fields: Vec<(String, String)>,
    }

    impl Obj {
        /// Creates an empty object.
        #[must_use]
        pub fn new() -> Self {
            Obj::default()
        }

        /// Adds a string field.
        pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
            self.fields
                .push((key.to_string(), format!("\"{}\"", escape(value))));
            self
        }

        /// Adds a numeric field.
        pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
            self.fields.push((key.to_string(), number(value)));
            self
        }

        /// Adds an unsigned integer field (rendered without a decimal
        /// point, unlike [`Obj::num`] on whole floats — both are stable).
        pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
            self.fields.push((key.to_string(), value.to_string()));
            self
        }

        /// Adds a boolean field.
        pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
            self.fields.push((key.to_string(), value.to_string()));
            self
        }

        /// Adds a pre-rendered JSON value (object, array, `null`).
        pub fn raw(&mut self, key: &str, rendered: impl Into<String>) -> &mut Self {
            self.fields.push((key.to_string(), rendered.into()));
            self
        }

        /// Renders the object.
        #[must_use]
        pub fn render(&self) -> String {
            let rendered: Vec<String> = self
                .fields
                .iter()
                .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
                .collect();
            format!("{{{}}}", rendered.join(","))
        }
    }
}

/// One row of a benchmark report.
#[derive(Debug, Clone)]
pub struct ReportRow {
    /// Benchmark name.
    pub name: String,
    /// Register size `n`.
    pub n_qubits: usize,
    /// `|G|`.
    pub g_len: usize,
    /// `|G'|`.
    pub g_prime_len: usize,
    /// Which probe backend checked this row, when the caller recorded it
    /// ([`Report::push_with_backend`]). `None` keeps the rendered JSON
    /// byte-identical to reports that predate backend selection.
    pub backend: Option<BackendKind>,
    /// The flow result.
    pub result: FlowResult,
}

/// A collection of rows renderable as a text table or CSV.
///
/// # Examples
///
/// ```
/// use qcec::report::Report;
///
/// # fn main() -> Result<(), qcec::FlowError> {
/// let g = qcirc::generators::ghz(3);
/// let result = qcec::check_equivalence_default(&g, &g)?;
/// let mut report = Report::new();
/// report.push("ghz3", 3, g.len(), g.len(), result);
/// assert!(report.to_csv().contains("ghz3"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Report {
    rows: Vec<ReportRow>,
}

impl Report {
    /// Creates an empty report.
    #[must_use]
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends a row.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        n_qubits: usize,
        g_len: usize,
        g_prime_len: usize,
        result: FlowResult,
    ) {
        self.rows.push(ReportRow {
            name: name.into(),
            n_qubits,
            g_len,
            g_prime_len,
            backend: None,
            result,
        });
    }

    /// Appends a row annotated with the backend that checked it; the JSON
    /// rendering then carries a stable `"backend"` field for the row.
    pub fn push_with_backend(
        &mut self,
        name: impl Into<String>,
        n_qubits: usize,
        g_len: usize,
        g_prime_len: usize,
        backend: BackendKind,
        result: FlowResult,
    ) {
        self.rows.push(ReportRow {
            name: name.into(),
            n_qubits,
            g_len,
            g_prime_len,
            backend: Some(backend),
            result,
        });
    }

    /// The rows collected so far.
    #[must_use]
    pub fn rows(&self) -> &[ReportRow] {
        &self.rows
    }

    /// Renders the report as CSV with a header line
    /// (`name,n,gates_g,gates_g_prime,verdict,sims,t_sim_s,t_ec_s,counterexample`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "name,n,gates_g,gates_g_prime,verdict,sims,t_sim_s,t_ec_s,counterexample\n",
        );
        for row in &self.rows {
            let (verdict, witness) = verdict_and_witness(&row.result.outcome);
            out.push_str(&format!(
                "{},{},{},{},{},{},{:.6},{:.6},{}\n",
                csv_escape(&row.name),
                row.n_qubits,
                row.g_len,
                row.g_prime_len,
                verdict,
                row.result.stats.simulations_run,
                row.result.stats.simulation_time.as_secs_f64(),
                row.result.stats.functional_time.as_secs_f64(),
                witness,
            ));
        }
        out
    }

    /// Renders the report as a JSON array of row objects, mirroring the
    /// CSV columns. Timing fields can be suppressed for byte-reproducible
    /// output (wall-clock times differ between otherwise identical runs).
    #[must_use]
    pub fn to_json(&self, with_timings: bool) -> String {
        json::array(self.rows.iter().map(|row| {
            let (verdict, witness) = verdict_and_witness(&row.result.outcome);
            let mut o = json::Obj::new();
            o.str("name", &row.name)
                .int("n", row.n_qubits as u64)
                .int("gates_g", row.g_len as u64)
                .int("gates_g_prime", row.g_prime_len as u64)
                .str("verdict", verdict)
                .int("sims", row.result.stats.simulations_run as u64);
            if let Some(backend) = row.backend {
                o.str("backend", backend.slug());
            }
            if with_timings {
                o.num("t_sim_s", row.result.stats.simulation_time.as_secs_f64())
                    .num("t_ec_s", row.result.stats.functional_time.as_secs_f64());
            }
            if witness.is_empty() {
                o.raw("counterexample", "null");
            } else {
                o.str("counterexample", &witness);
            }
            o.render()
        }))
    }
}

impl fmt::Display for Report {
    /// Renders an aligned text table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<24} {:>4} {:>8} {:>8} {:<22} {:>5} {:>10} {:>10}",
            "benchmark", "n", "|G|", "|G'|", "verdict", "sims", "t_sim [s]", "t_ec [s]"
        )?;
        for row in &self.rows {
            let (verdict, _) = verdict_and_witness(&row.result.outcome);
            writeln!(
                f,
                "{:<24} {:>4} {:>8} {:>8} {:<22} {:>5} {:>10.4} {:>10.4}",
                row.name,
                row.n_qubits,
                row.g_len,
                row.g_prime_len,
                verdict,
                row.result.stats.simulations_run,
                row.result.stats.simulation_time.as_secs_f64(),
                row.result.stats.functional_time.as_secs_f64(),
            )?;
        }
        Ok(())
    }
}

/// Per-stage effort totals distilled from a stream of scheduler
/// [`RunEvent`]s — what a bench binary prints next to its timings.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use qcec::report::StageTimings;
/// use qcec::scheduler::CollectingSink;
///
/// let sink = Arc::new(CollectingSink::new());
/// let config = qcec::Config::default()
///     .with_threads(2)
///     .with_event_sink(sink.clone());
/// let g = qcirc::generators::ghz(3);
/// qcec::check_equivalence(&g, &g, &config).unwrap();
/// let timings = StageTimings::from_events(&sink.events());
/// assert_eq!(timings.simulations_finished, 8); // 2³ ≤ r: full enumeration
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Total wall time of simulation stages.
    pub simulation_time: Duration,
    /// Total wall time of functional (complete-check) stages.
    pub functional_time: Duration,
    /// Wall time spent inside statevector probes (summed per finished
    /// simulation, so overlapping workers count their time in full).
    pub sv_probe_time: Duration,
    /// Wall time spent inside decision-diagram probes.
    pub dd_probe_time: Duration,
    /// Wall time spent inside stabilizer-tableau probes (including any
    /// per-probe dense fallbacks the stab engine ran).
    pub stab_probe_time: Duration,
    /// Wall time spent inside matrix-product-state probes.
    pub mps_probe_time: Duration,
    /// Simulations that ran to completion.
    pub simulations_finished: usize,
    /// Simulations abandoned after a cancellation.
    pub simulations_aborted: usize,
    /// Simulation stages a counterexample ended (one `Cancelled` event
    /// each).
    pub cancellations: usize,
    /// Flow invocations whose [`BackendKind::Auto`] selector was resolved
    /// to a concrete engine (one `BackendSelected` event each).
    pub auto_selections: usize,
}

impl StageTimings {
    /// Accumulates the totals from recorded events.
    #[must_use]
    pub fn from_events(events: &[RunEvent]) -> Self {
        let mut t = StageTimings::default();
        for event in events {
            match event {
                RunEvent::StageFinished { stage, wall_time } => match stage {
                    Stage::Simulation => t.simulation_time += *wall_time,
                    Stage::Functional => t.functional_time += *wall_time,
                },
                RunEvent::SimulationFinished {
                    wall_time, backend, ..
                } => {
                    t.simulations_finished += 1;
                    match backend {
                        BackendKind::Statevector => t.sv_probe_time += *wall_time,
                        BackendKind::DecisionDiagram => t.dd_probe_time += *wall_time,
                        BackendKind::Stab => t.stab_probe_time += *wall_time,
                        BackendKind::Mps => t.mps_probe_time += *wall_time,
                        // `Auto` is resolved before any probe runs, so no
                        // finished simulation ever carries it.
                        BackendKind::Auto => {}
                    }
                }
                RunEvent::BackendSelected { .. } => t.auto_selections += 1,
                RunEvent::SimulationAborted { .. } => t.simulations_aborted += 1,
                RunEvent::Cancelled => t.cancellations += 1,
                _ => {}
            }
        }
        t
    }

    /// Field-wise sum of two summaries — aggregating per-run summaries
    /// into a campaign or batch total.
    #[must_use]
    pub fn merged(self, other: StageTimings) -> StageTimings {
        StageTimings {
            simulation_time: self.simulation_time + other.simulation_time,
            functional_time: self.functional_time + other.functional_time,
            sv_probe_time: self.sv_probe_time + other.sv_probe_time,
            dd_probe_time: self.dd_probe_time + other.dd_probe_time,
            stab_probe_time: self.stab_probe_time + other.stab_probe_time,
            mps_probe_time: self.mps_probe_time + other.mps_probe_time,
            simulations_finished: self.simulations_finished + other.simulations_finished,
            simulations_aborted: self.simulations_aborted + other.simulations_aborted,
            cancellations: self.cancellations + other.cancellations,
            auto_selections: self.auto_selections + other.auto_selections,
        }
    }

    /// Probe wall time spent in one backend's engine.
    #[must_use]
    pub fn probe_time(&self, backend: BackendKind) -> Duration {
        match backend {
            BackendKind::Statevector => self.sv_probe_time,
            BackendKind::DecisionDiagram => self.dd_probe_time,
            BackendKind::Stab => self.stab_probe_time,
            BackendKind::Mps => self.mps_probe_time,
            // The selector never probes itself.
            BackendKind::Auto => Duration::ZERO,
        }
    }

    /// Renders the summary as a JSON object. Wall-clock times can be
    /// suppressed; note the counters themselves are still scheduling
    /// dependent under `threads > 1` (how many in-flight runs finish
    /// before a cancellation lands varies), so byte-reproducible outputs
    /// should omit the summary altogether.
    #[must_use]
    pub fn to_json(&self, with_timings: bool) -> String {
        let mut o = json::Obj::new();
        if with_timings {
            o.num("t_sim_s", self.simulation_time.as_secs_f64())
                .num("t_ec_s", self.functional_time.as_secs_f64())
                .num("t_probe_sv_s", self.sv_probe_time.as_secs_f64())
                .num("t_probe_dd_s", self.dd_probe_time.as_secs_f64())
                .num("t_probe_stab_s", self.stab_probe_time.as_secs_f64())
                .num("t_probe_mps_s", self.mps_probe_time.as_secs_f64());
        }
        o.int("sims_finished", self.simulations_finished as u64)
            .int("sims_aborted", self.simulations_aborted as u64)
            .int("cancellations", self.cancellations as u64);
        if self.auto_selections > 0 {
            // Rendered conditionally: runs with a concrete backend stay
            // byte-identical to pre-selector goldens.
            o.int("auto_selections", self.auto_selections as u64);
        }
        o.render()
    }
}

impl fmt::Display for StageTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t_sim {:?}, t_ec {:?}, {} sims finished, {} aborted, {} cancellations",
            self.simulation_time,
            self.functional_time,
            self.simulations_finished,
            self.simulations_aborted,
            self.cancellations
        )
    }
}

/// The stable verdict slug and ASCII witness string for an outcome — the
/// one vocabulary shared by CSV rows, report JSON, and the service layer's
/// cached verdict lines.
pub(crate) fn verdict_and_witness(outcome: &Outcome) -> (&'static str, String) {
    match outcome {
        Outcome::Equivalent => ("equivalent", String::new()),
        Outcome::EquivalentUpToGlobalPhase { .. } => ("equivalent_up_to_phase", String::new()),
        Outcome::NotEquivalent {
            counterexample: Some(ce),
        } => {
            // ASCII-safe witness for CSV/JSON consumers: the basis index
            // for classical stimuli, the strategy kind otherwise (the full
            // preparation recipe lives on the `Counterexample` itself).
            let witness = match &ce.stimulus {
                qstim::Stimulus::Basis(b) => format!("|{b}>"),
                other => other.kind().to_string(),
            };
            ("not_equivalent", witness)
        }
        Outcome::NotEquivalent {
            counterexample: None,
        } => ("not_equivalent", String::new()),
        Outcome::ProbablyEquivalent { .. } => ("probably_equivalent", String::new()),
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_equivalence_default;

    fn sample_report() -> Report {
        let g = qcirc::generators::ghz(3);
        let mut buggy = g.clone();
        buggy.x(1);
        let mut report = Report::new();
        report.push(
            "same",
            3,
            g.len(),
            g.len(),
            check_equivalence_default(&g, &g).unwrap(),
        );
        report.push(
            "buggy, with comma",
            3,
            g.len(),
            buggy.len(),
            check_equivalence_default(&g, &buggy).unwrap(),
        );
        report
    }

    #[test]
    fn csv_has_header_and_rows() {
        let report = sample_report();
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("name,n,"));
        assert!(lines[1].contains("equivalent"));
        assert!(lines[2].contains("not_equivalent"));
        assert!(lines[2].starts_with("\"buggy, with comma\""));
    }

    #[test]
    fn json_mirrors_csv_fields() {
        let report = sample_report();
        let js = report.to_json(false);
        assert!(js.starts_with('[') && js.ends_with(']'));
        assert!(js.contains(r#""name":"same""#));
        assert!(js.contains(r#""verdict":"not_equivalent""#));
        assert!(js.contains(r#""counterexample":"|"#));
        assert!(!js.contains("t_sim_s"));
        // Deterministic: the timing-free form is identical across renders.
        assert_eq!(js, report.to_json(false));
        let timed = report.to_json(true);
        assert!(timed.contains("t_sim_s") && timed.contains("t_ec_s"));
    }

    #[test]
    fn stage_timings_serialize() {
        let t = StageTimings {
            simulation_time: Duration::from_millis(1500),
            functional_time: Duration::from_millis(250),
            sv_probe_time: Duration::from_millis(900),
            simulations_finished: 7,
            simulations_aborted: 1,
            cancellations: 1,
            ..StageTimings::default()
        };
        assert_eq!(
            t.to_json(false),
            r#"{"sims_finished":7,"sims_aborted":1,"cancellations":1}"#
        );
        let timed = t.to_json(true);
        assert!(timed.starts_with(r#"{"t_sim_s":1.5,"t_ec_s":0.25,"#));
        assert!(timed.contains(r#""t_probe_sv_s":0.9"#));
        assert_eq!(t.probe_time(BackendKind::Statevector), t.sv_probe_time);
    }

    #[test]
    fn stage_timings_track_mps_and_auto() {
        let events = vec![
            RunEvent::BackendSelected {
                backend: BackendKind::Mps,
            },
            RunEvent::SimulationFinished {
                index: 0,
                wall_time: Duration::from_millis(40),
                fidelity: 1.0,
                backend: BackendKind::Mps,
            },
        ];
        let t = StageTimings::from_events(&events);
        assert_eq!(t.auto_selections, 1);
        assert_eq!(t.mps_probe_time, Duration::from_millis(40));
        assert_eq!(t.probe_time(BackendKind::Mps), Duration::from_millis(40));
        assert_eq!(t.probe_time(BackendKind::Auto), Duration::ZERO);
        assert!(t.to_json(true).contains(r#""t_probe_mps_s":0.04"#));
        assert!(t.to_json(false).contains(r#""auto_selections":1"#));
        // Without a selector event the key disappears, keeping goldens.
        assert!(!StageTimings::default()
            .to_json(false)
            .contains("auto_selections"));
        let merged = t.merged(t);
        assert_eq!(merged.auto_selections, 2);
        assert_eq!(merged.mps_probe_time, Duration::from_millis(80));
    }

    #[test]
    fn json_escaping_and_numbers() {
        assert_eq!(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json::number(0.25), "0.25");
        assert_eq!(json::number(f64::NAN), "null");
        assert_eq!(json::array(vec!["1".to_string(), "2".to_string()]), "[1,2]");
    }

    #[test]
    fn text_table_aligns() {
        let report = sample_report();
        let text = report.to_string();
        assert!(text.contains("benchmark"));
        assert!(text.contains("not_equivalent"));
        assert_eq!(report.rows().len(), 2);
    }
}

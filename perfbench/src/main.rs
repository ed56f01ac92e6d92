//! `perfbench` — the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench run --workload <spec-plain|spec-observed>
//!               --seed <n> --seconds <s> --trace <0|1>
//! perfbench record-reference           rewrite reference.json (tick-accurate)
//! perfbench self-check                 re-derive reference.json and compare
//! ```
//!
//! `run --trace 0` measures the workload's end-to-end metrics; `--trace 1`
//! measures every per-layer metric in one traced process and reports the
//! tracing overhead against untraced runs of the same cells. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. The exit code is nonzero when any output check failed.

mod calib;
mod cells;
mod host;
mod layers;
mod matrix;
mod tracer;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use imo_cpu::{InOrderConfig, OooConfig};
use imo_util::json::Json;

use calib::Calibrator;
use cells::{machine_key, CellRun, Inputs, Mode, SCHEME_LABELS};
use host::{median, quantile};
use tracer::Tracer;

/// Set-up repetitions per process; `setup_s` is their median.
const SETUP_REPS: usize = 151;
/// Scheduler probe: pushes through the 32-deep queue.
const SCHED_PUSHES: u64 = 2_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SpecPlain,
    SpecObserved,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "spec-plain" => Some(Workload::SpecPlain),
            "spec-observed" => Some(Workload::SpecObserved),
            _ => None,
        }
    }

    /// How this workload runs each cell.
    fn mode(self) -> Mode {
        match self {
            Workload::SpecPlain => Mode::Plain,
            Workload::SpecObserved => Mode::Observed,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SpecPlain => "spec-plain",
            Workload::SpecObserved => "spec-observed",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed: not an integer")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "--seconds: not a number")?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Where runs leave their traces and scratch stores.
pub fn out_dir() -> PathBuf {
    imo_bench::report::repo_root().join(".bench_build").join("perfbench-out")
}

/// A run's outcome: the operation accounting and its metrics.
#[derive(Default)]
struct Report {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn note(&mut self, what: String) {
        self.notes.push(what);
    }

    fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    fn json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(n, v, u)| {
            (n.clone(), Json::obj([("value", Json::from(*v)), ("unit", Json::from(*u))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failures.len() as u64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Prints every metric by name and unit, the failures, and then the
    /// result object as the last line.
    fn print(&self, workload: Workload) {
        let failed_pct = 100.0 * self.failures.len() as f64 / self.attempted.max(1) as f64;
        println!("workload {}", workload.name());
        for n in &self.notes {
            println!("  {n}");
        }
        for (n, v, u) in &self.metrics {
            println!("  {n:<36} {v:>14.6} {u}");
        }
        println!(
            "  {:<36} {failed_pct:>14.6} % ({} of {})",
            "failed_pct",
            self.failures.len(),
            self.attempted
        );
        for f in self.failures.iter().take(20) {
            println!("  FAILED {f}");
        }
        println!("{}", self.json().compact());
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => parse_args(&argv[1..]).map(|a| {
            let report = if a.trace { traced(&a) } else { spec_run(&a) };
            report.print(a.workload);
            report.correct()
        }),
        Some("record-reference") => record_reference().map(|()| true),
        Some("self-check") => self_check(),
        _ => Err("usage: perfbench run --workload W --seed N --seconds S --trace 0|1".to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------- set-up

/// Prepares the spec inputs `SETUP_REPS` times, each followed by a
/// calibration sample; returns the last inputs and the median set-up
/// seconds (reference-host units).
fn spec_setup(seed: u64, report: &mut Report, cal: &mut Calibrator) -> Option<(Inputs, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    cal.sample();
    for _ in 0..SETUP_REPS {
        let (inputs, s) = scaled(cal, || cells::prepare(seed, &mut Tracer::new(false, 0)));
        times.push(s);
        last = Some(inputs);
    }
    match last.expect("SETUP_REPS > 0") {
        Ok(inputs) => Some((inputs, median(&times))),
        Err(e) => {
            report.attempted += 1;
            report.fail(format!("set-up: {e}"));
            None
        }
    }
}

/// Runs `f` followed by a calibration sample; returns its result and its
/// host seconds in reference-host units.
fn scaled<R>(cal: &mut Calibrator, f: impl FnOnce() -> R) -> (R, f64) {
    let start = cal.now();
    let out = f();
    let end = cal.now();
    cal.sample();
    (out, (end - start) * cal.scale_at((start + end) / 2.0))
}

// ---------------------------------------------------------- untraced runs

/// How many passes fill `seconds`, judged by the first pass's wall: the
/// count that lands nearest to `seconds` without passing it by more than
/// 15%, and at least one.
fn pass_count(seconds: f64, walls: &[f64]) -> usize {
    match walls.first() {
        None => 1,
        Some(&first) => {
            ((seconds / first).round().min((1.15 * seconds / first).floor()) as usize).max(1)
        }
    }
}

/// Per-cell summary over a run's passes.
struct CellStats {
    instructions: u64,
    /// Median over the run's passes of the cell's host ns, in
    /// reference-host units.
    ns: f64,
}

fn summarize(
    inputs: &Inputs,
    passes: &[Vec<CellRun>],
    cal: &Calibrator,
    report: &mut Report,
) -> Vec<Option<CellStats>> {
    let mut out = Vec::with_capacity(inputs.cells.len());
    for i in 0..inputs.cells.len() {
        let mut ns = Vec::new();
        let mut instructions = None;
        for p in passes {
            report.attempted += 1;
            match &p[i].result {
                Ok(r) => {
                    ns.push(p[i].scaled_ns(cal));
                    instructions = Some(r.instructions);
                }
                Err(e) => report.fail(e.clone()),
            }
        }
        out.push(instructions.map(|instructions| CellStats { instructions, ns: median(&ns) }));
    }
    out
}

/// `(instructions, ns)` summed over one machine's cells.
fn machine_totals(inputs: &Inputs, stats: &[Option<CellStats>], machine: &str) -> (f64, f64) {
    let mut t = (0.0, 0.0);
    for (c, s) in inputs.cells.iter().zip(stats) {
        if let (true, Some(s)) = (machine_key(&c.machine) == machine, s) {
            t.0 += s.instructions as f64;
            t.1 += s.ns;
        }
    }
    t
}

fn spec_run(a: &Args) -> Report {
    let mode = a.workload.mode();
    let mut report = Report::default();
    let mut cal = Calibrator::new();
    let Some((inputs, setup_s)) = spec_setup(a.seed, &mut report, &mut cal) else { return report };
    let mut tr = Tracer::new(false, 0);
    let mut passes = Vec::new();
    let mut pass_walls = Vec::new();
    while passes.len() < pass_count(a.seconds, &pass_walls) {
        let t = Instant::now();
        passes.push(cells::run_pass(&inputs, mode, &mut tr, &mut cal));
        pass_walls.push(t.elapsed().as_secs_f64());
    }
    let stats = summarize(&inputs, &passes, &cal, &mut report);
    // The machines are separate simulators, a cluster each; pooled, the
    // median cell falls in the gap between them.
    for m in ["ooo", "inorder"] {
        let (instr, ns) = machine_totals(&inputs, &stats, m);
        report.metric(format!("{m}_minstr_per_s"), instr * 1e3 / ns.max(1.0), "Minstr/s");
        let per_instr: Vec<f64> = inputs
            .cells
            .iter()
            .zip(&stats)
            .filter(|(c, _)| machine_key(&c.machine) == m)
            .filter_map(|(_, s)| s.as_ref().map(|s| s.ns / s.instructions.max(1) as f64))
            .collect();
        if per_instr.is_empty() {
            return report;
        }
        report.metric(format!("{m}_cell_ns_per_instr_p50"), quantile(&per_instr, 0.5), "ns");
        report.metric(format!("{m}_cell_ns_per_instr_p75"), quantile(&per_instr, 0.75), "ns");
    }
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
    report.note(format!(
        "{} passes, {:.1} s; calibration kernel median {:.3} ms",
        passes.len(),
        pass_walls.iter().sum::<f64>(),
        cal.median_ms()
    ));
    report
}

// ------------------------------------------------------------- traced run

/// Host seconds the first span named `name` took.
fn span_s(tr: &Tracer, name: &str) -> f64 {
    tr.spans().iter().find(|s| s.name == name).map_or(0.0, |s| s.dur_ns() as f64 / 1e9)
}

fn traced(a: &Args) -> Report {
    let mut report = Report::default();
    let store = matrix::scratch_store_dir();
    matrix::isolate_store(&store);
    let mut tr = Tracer::new(true, a.seed as u32);
    let mut cal = Calibrator::new();
    let overhead = tr.span("perfbench", &format!("traced run {}", a.workload.name()), |tr| {
        traced_suite(a, &mut report, tr, &mut cal)
    });
    let _ = std::fs::remove_dir_all(&store);

    if let Some((x, t, u)) = overhead {
        println!(
            "tracing overhead: {x:.4}x, geometric mean over the {} cells of traced / untraced \
             (traced {t:.3} s, untraced {u:.3} s, each cell run both ways in turn)",
            a.workload.name()
        );
        report.metric("trace.overhead_x", x, "x");
    }
    println!("self time by layer, host seconds ({} spans):", tr.spans().len());
    for (layer, (ns, n)) in tr.self_time_by_layer() {
        println!("  {layer:<16} {:>10.3} s  {n:>5} spans", ns as f64 / 1e9);
    }
    let path = out_dir().join(format!("trace-{}-{}.json", a.workload.name(), a.seed));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, tr.chrome_trace().compact()));
    match written {
        Ok(()) => println!("chrome trace: {}", path.display()),
        Err(e) => report.fail(format!("writing {}: {e}", path.display())),
    }
    report
}

/// Sums over the successful cells of one machine (and scheme, if given):
/// `(instructions, cycles, reference-host ns)`.
fn cell_sums(
    inputs: &Inputs,
    pass: &[CellRun],
    cal: &Calibrator,
    machine: &str,
    scheme: Option<&str>,
) -> (f64, f64, f64) {
    let mut t = (0.0, 0.0, 0.0);
    for r in pass {
        let c = &inputs.cells[r.cell];
        if machine_key(&c.machine) != machine || scheme.is_some_and(|s| s != c.scheme) {
            continue;
        }
        if let Ok(res) = &r.result {
            t.0 += res.instructions as f64;
            t.1 += res.cycles as f64;
            t.2 += r.scaled_ns(cal);
        }
    }
    t
}

/// Every layer probe, one plain, one tick-accurate and one observed pass
/// over the 84 cells, and one cold paper matrix. This workload's own pass
/// runs each cell a second time untraced; returns the geometric mean of
/// the per-cell traced / untraced ratios, and the traced and untraced host
/// seconds of those cells.
fn traced_suite(
    a: &Args,
    report: &mut Report,
    tr: &mut Tracer,
    cal: &mut Calibrator,
) -> Option<(f64, f64, f64)> {
    cal.sample();
    let inputs = match cells::prepare(a.seed, tr) {
        Ok(i) => i,
        Err(e) => {
            report.fail(format!("set-up: {e}"));
            return None;
        }
    };
    let k = scale_now(cal);
    report.metric("workloads.build_ms", span_s(tr, "Spec::build x14") * k * 1e3, "ms");
    report.metric("core.instrument_ms", span_s(tr, "instrument x42") * k * 1e3, "ms");

    // Stand-alone layer probes; each probe is one attempted operation.
    report.attempted += 3;
    let none: Vec<&imo_isa::Program> =
        inputs.programs.iter().step_by(SCHEME_LABELS.len()).collect();
    let exec = layers::executor(&none, 3, tr);
    let k = scale_now(cal);
    let exec_s = exec.as_ref().map_or(0.0, |&(_, s)| s * k);
    match exec {
        Ok((n, _)) => report.metric("isa.exec.minstr_per_s", n as f64 / exec_s / 1e6, "Minstr/s"),
        Err(e) => report.fail(format!("executor: {e}")),
    }
    let us = layers::block_build_us(&inputs.programs, 5, tr);
    report.metric("isa.block_build_us", us * scale_now(cal), "us");
    let streams: Result<Vec<_>, String> = none.iter().map(|p| layers::data_stream(p)).collect();
    let streams = streams.unwrap_or_else(|e| {
        report.fail(format!("data stream: {e}"));
        Vec::new()
    });
    let hierarchies = [("ooo", OooConfig::paper().hier), ("inorder", InOrderConfig::paper().hier)];
    for (m, cfg) in hierarchies {
        let (probes, misses, s) =
            layers::mem_replay(&streams, cfg, 3, &format!("{m} probe_data+schedule_data"), tr);
        report.metric(
            format!("mem.{m}.mprobes_per_s"),
            probes as f64 / (s * scale_now(cal)) / 1e6,
            "Mprobes/s",
        );
        report.metric(
            format!("mem.{m}.l1d_miss_pct"),
            100.0 * misses as f64 / probes.max(1) as f64,
            "%",
        );
    }
    let (ops, s) = layers::scheduler(a.seed, SCHED_PUSHES, tr);
    report.metric("cpu.sched.mops_per_s", ops as f64 / (s * scale_now(cal)) / 1e6, "Mops/s");
    match layers::frontend(&inputs.programs, tr) {
        Ok((n, s)) => report.metric(
            "cpu.frontend.minstr_per_s",
            n as f64 / (s * scale_now(cal)) / 1e6,
            "Minstr/s",
        ),
        Err(e) => report.fail(format!("front end: {e}")),
    }
    let traces = layers::traces(a.seed, tr);
    report.metric(
        "workloads.trace_ms",
        span_s(tr, "parallel::all_apps") * scale_now(cal) * 1e3,
        "ms",
    );
    let (ops, s) = layers::coherence(&traces, tr);
    report.metric("coherence.mops_per_s", ops as f64 / (s * scale_now(cal)) / 1e6, "Mops/s");
    drop(traces);

    // One plain, one tick-accurate and one observed pass; this workload's
    // own pass is paired with an untraced one.
    let own = a.workload.mode();
    let mut pass = |mode| {
        if mode == own {
            cells::run_pass_paired(&inputs, mode, tr, cal)
        } else {
            (cells::run_pass(&inputs, mode, tr, cal), Vec::new())
        }
    };
    let (plain, plain_off) = pass(Mode::Plain);
    let (tick, _) = pass(Mode::TickAccurate);
    let (observed, observed_off) = pass(Mode::Observed);
    for r in plain.iter().chain(&plain_off).chain(&tick).chain(&observed).chain(&observed_off) {
        report.attempted += 1;
        if let Err(e) = &r.result {
            report.fail(e.clone());
        }
    }
    // Raw host times: each traced cell ran next to its untraced twin. A
    // per-cell ratio weighs every cell alike, so which of the two ran first
    // (alternating from cell to cell) cancels out.
    let (on, off) =
        if own == Mode::Observed { (&observed, &observed_off) } else { (&plain, &plain_off) };
    let log_ratio: f64 =
        on.iter().zip(off).map(|(t, u)| (t.ns as f64 / u.ns.max(1) as f64).ln()).sum();
    let raw_s = |pass: &[CellRun]| pass.iter().map(|r| r.ns as f64).sum::<f64>() / 1e9;
    let overhead = ((log_ratio / on.len().max(1) as f64).exp(), raw_s(on), raw_s(off));

    for m in ["ooo", "inorder"] {
        for s in SCHEME_LABELS {
            let (instr, _, ns) = cell_sums(&inputs, &plain, cal, m, Some(s));
            report.metric(
                format!("cpu.{m}.{s}.minstr_per_s"),
                instr * 1e3 / ns.max(1.0),
                "Minstr/s",
            );
        }
        let (_, cycles, ns) = cell_sums(&inputs, &plain, cal, m, None);
        report.metric(format!("cpu.{m}.mcycles_per_s"), cycles * 1e3 / ns.max(1.0), "Mcycles/s");
        // Only cells whose fast result matched the tick-accurate reference.
        let (mut fast_ns, mut tick_ns) = (0.0, 0.0);
        for (p, t) in plain.iter().zip(&tick) {
            if machine_key(&inputs.cells[p.cell].machine) == m
                && p.result.is_ok()
                && p.result == t.result
            {
                fast_ns += p.scaled_ns(cal);
                tick_ns += t.scaled_ns(cal);
            }
        }
        report.metric(format!("cpu.{m}.vs_tick_x"), tick_ns / fast_ns.max(1.0), "x");
        let mine = plain.iter().filter(|r| machine_key(&inputs.cells[r.cell].machine) == m);
        let f = mine.fold([0u64; 4], |f, r| {
            [
                f[0] + r.fast.groups,
                f[1] + r.fast.block_groups,
                f[2] + r.fast.plain_instrs,
                f[3] + r.fast.instrs,
            ]
        });
        report.metric(
            format!("cpu.{m}.block_hit_pct"),
            100.0 * f[1] as f64 / f[0].max(1) as f64,
            "%",
        );
        report.metric(
            format!("cpu.{m}.batched_instr_pct"),
            100.0 * f[2] as f64 / f[3].max(1) as f64,
            "%",
        );
        let (_, _, none_ns) = cell_sums(&inputs, &plain, cal, m, Some("none"));
        report.metric(
            format!("cpu.{m}.exec_share_pct"),
            100.0 * exec_s * 1e9 / none_ns.max(1.0),
            "%",
        );
        let (_, _, obs_ns) = cell_sums(&inputs, &observed, cal, m, None);
        report.metric(format!("obs.{m}.observed_over_plain_x"), obs_ns / ns.max(1.0), "x");
    }
    report.metric(
        "obs.attrib.classified_misses",
        observed.iter().map(|r| r.classified).sum::<u64>() as f64,
        "count",
    );

    // One cold paper matrix on the default pool.
    let targets = matrix::targets(a.seed);
    let baselines = matrix::load_baselines(&targets, tr);
    let run = matrix::run_matrix(&targets, &baselines, tr, cal);
    report.attempted += run.attempted;
    for f in &run.failures {
        report.fail(f.clone());
    }
    for (i, (name, _)) in run.target_wall_s.iter().enumerate() {
        if !matches!(*name, "table1" | "table2") {
            report.metric(format!("bench.{name}.wall_s"), run.scaled_target_s(i, cal), "s");
        }
    }
    report.metric("bench.matrix.wall_s", run.scaled_wall_s(cal), "s");
    report.metric("bench.memo.requested", run.memo.requested as f64, "count");
    report.metric("bench.memo.simulated", run.memo.simulated as f64, "count");
    let threads = imo_util::pool::default_threads() as f64;
    report.metric("util.pool.busy_pct", 100.0 * run.cpu_s / (run.wall_s * threads), "%");
    report.metric("util.store.writes", run.memo.disk_writes as f64, "count");

    Some(overhead)
}

/// Takes a calibration sample and returns the scale around now, for a
/// probe that just ended.
fn scale_now(cal: &mut Calibrator) -> f64 {
    cal.sample();
    cal.scale_at(cal.now())
}

// ------------------------------------------------------------- reference

fn record_reference() -> Result<(), String> {
    let inputs = cells::prepare(0, &mut Tracer::new(false, 0))?;
    let doc = cells::record_reference(&inputs)?;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference.json");
    std::fs::write(&path, doc.pretty() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {} ({} cells)", path.display(), inputs.cells.len());
    Ok(())
}

/// Re-derives every reference digest tick-accurately and compares it with
/// the committed one.
fn self_check() -> Result<bool, String> {
    let inputs = cells::prepare(0, &mut Tracer::new(false, 0))?;
    let pass = cells::run_pass(
        &inputs,
        Mode::TickAccurate,
        &mut Tracer::new(false, 0),
        &mut Calibrator::new(),
    );
    let bad: Vec<&String> = pass.iter().filter_map(|r| r.result.as_ref().err()).collect();
    for e in &bad {
        println!("MISMATCH {e}");
    }
    println!(
        "self-check: {} of {} reference digests re-derived",
        pass.len() - bad.len(),
        pass.len()
    );
    Ok(bad.is_empty() && inputs.reference.len() == pass.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_count_fills_the_budget_without_overshooting() {
        assert_eq!(pass_count(50.0, &[]), 1);
        assert_eq!(pass_count(50.0, &[8.5]), 6);
        assert_eq!(pass_count(50.0, &[19.0]), 3);
        assert_eq!(pass_count(50.0, &[20.0]), 2);
        assert_eq!(pass_count(50.0, &[80.0]), 1);
        assert_eq!(pass_count(0.0, &[5.0]), 1);
    }
}

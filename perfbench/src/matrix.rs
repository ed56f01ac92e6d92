//! The paper matrix of the traced run: the 12 deterministic targets of
//! `imo_bench::targets::registry()` regenerated cold — empty in-process
//! memo, fresh on-disk store — on the default pool, each payload gated the
//! way `ci_gate --skip-wall` gates it.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use imo_bench::gate;
use imo_bench::report::repo_root;
use imo_bench::sweep::{memo_stats, MemoStats};
use imo_bench::targets::{registry, Target};
use imo_util::json::{parse, Json};

use crate::calib::Calibrator;
use crate::cells::shuffle;
use crate::host;
use crate::tracer::Tracer;

/// Points the process's sweep store at a fresh, empty directory and pins
/// the pool to its default width. Must run before the first sweep.
pub fn isolate_store(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
    std::env::set_var("IMO_STORE", "rw");
    std::env::set_var("IMO_STORE_DIR", dir);
    std::env::remove_var("IMO_SERVE_ADDR");
    std::env::remove_var("IMO_THREADS");
}

/// A scratch directory under the checkout for this process's store.
pub fn scratch_store_dir() -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    crate::out_dir().join(format!("store-{}-{nanos}", std::process::id()))
}

/// The 12 deterministic targets, in the seed's order.
pub fn targets(seed: u64) -> Vec<Target> {
    let mut t: Vec<Target> = registry().into_iter().filter(|t| !t.wall_clock).collect();
    shuffle(&mut t, seed);
    t
}

/// The committed baselines the targets are gated against, parsed.
pub fn load_baselines(targets: &[Target], tr: &mut Tracer) -> Vec<Result<Json, String>> {
    tr.span("imo-util", "json::parse BENCH_*.json x12", |_| {
        targets
            .iter()
            .map(|t| {
                let path = repo_root().join(format!("BENCH_{}.json", t.name));
                let text =
                    fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                parse(&text).map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect()
    })
}

/// What one cold matrix did.
pub struct MatrixRun {
    /// Host seconds inside the targets' payloads (gating excluded).
    pub wall_s: f64,
    /// `(target, wall seconds)` in run order.
    pub target_wall_s: Vec<(&'static str, f64)>,
    /// When each target ran, in the calibrator's seconds.
    pub target_at: Vec<f64>,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub memo: MemoStats,
    /// Process CPU seconds spent inside the targets' payloads.
    pub cpu_s: f64,
}

impl MatrixRun {
    /// Target `i`'s wall in reference-host seconds (see [`crate::calib`]).
    pub fn scaled_target_s(&self, i: usize, cal: &Calibrator) -> f64 {
        self.target_wall_s[i].1 * cal.scale_at(self.target_at[i])
    }

    /// The matrix wall in reference-host seconds.
    pub fn scaled_wall_s(&self, cal: &Calibrator) -> f64 {
        (0..self.target_wall_s.len()).map(|i| self.scaled_target_s(i, cal)).sum()
    }
}

/// `ci_gate`'s envelope around a payload.
fn envelope(name: &str, payload: Json) -> Json {
    match payload {
        obj @ Json::Obj(_) if obj.get("bench").is_some() => obj,
        other => Json::obj([("bench", Json::from(name)), ("data", other)]),
    }
}

/// Regenerates every target and gates it: the payload must satisfy its
/// schema and show no drift against the committed baseline. A panicking
/// target is a failed operation; the remaining targets still run. A
/// calibration sample is taken before each target and after the last.
pub fn run_matrix(
    targets: &[Target],
    baselines: &[Result<Json, String>],
    tr: &mut Tracer,
    cal: &mut Calibrator,
) -> MatrixRun {
    cal.sample();
    let memo0 = memo_stats();
    let mut cpu_s = 0.0;
    let mut wall_s = 0.0;
    let mut target_wall_s = Vec::new();
    let mut target_at = Vec::new();
    let mut failures = Vec::new();
    for (t, base) in targets.iter().zip(baselines) {
        let at = cal.now();
        let cpu0 = host::cpu_time_s();
        let start = Instant::now();
        let payload = tr.span("imo-bench", &format!("{}::payload", t.name), |_| {
            catch_unwind(AssertUnwindSafe(t.payload))
        });
        let wall = start.elapsed().as_secs_f64();
        cpu_s += host::cpu_time_s() - cpu0;
        wall_s += wall;
        target_wall_s.push((t.name, wall));
        target_at.push(at + wall / 2.0);
        cal.sample();
        let problems = match (payload, base) {
            (Err(_), _) => vec!["payload panicked".to_string()],
            (_, Err(e)) => vec![format!("baseline: {e}")],
            (Ok(p), Ok(base)) => gate_payload(t.name, p, base),
        };
        failures.extend(problems.into_iter().map(|p| format!("{}: {p}", t.name)));
    }
    let memo1 = memo_stats();
    MatrixRun {
        wall_s,
        target_wall_s,
        target_at,
        attempted: targets.len() as u64,
        failures,
        memo: MemoStats {
            requested: memo1.requested - memo0.requested,
            simulated: memo1.simulated - memo0.simulated,
            served_disk: memo1.served_disk - memo0.served_disk,
            disk_writes: memo1.disk_writes - memo0.disk_writes,
            disk_rejected: memo1.disk_rejected - memo0.disk_rejected,
        },
        cpu_s,
    }
}

fn gate_payload(name: &str, payload: Json, baseline: &Json) -> Vec<String> {
    let Some(schema) = gate::schema_for(name) else {
        return vec!["no schema".to_string()];
    };
    let current = envelope(name, payload);
    let mut problems: Vec<String> = gate::validate(baseline, schema)
        .into_iter()
        .map(|e| format!("committed baseline: {e}"))
        .collect();
    problems
        .extend(gate::validate(&current, schema).into_iter().map(|e| format!("regenerated: {e}")));
    let drifts = gate::diff(baseline, &current, gate::wall_tolerance());
    if let Some(d) = drifts.first() {
        problems.push(format!("{} drifts, first at {}", drifts.len(), d.path));
    }
    problems
}

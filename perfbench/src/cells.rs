//! The 84 `spec-*` cells: 14 kernels at `Scale::Small` × 2 machines × the
//! paper's three mechanisms (`none`, `trap-10S`, `cc-10S`), their set-up,
//! and the reference digests every cell result is checked against.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use imo_core::instrument::{instrument, HandlerBody, HandlerKind, Scheme};
use imo_core::Machine;
use imo_cpu::speed::{speed_stats, SpeedStats};
use imo_cpu::{RunLimits, RunResult};
use imo_isa::Program;
use imo_obs::Recorder;
use imo_util::hash::fnv1a_64;
use imo_util::json::{parse, Json};
use imo_util::rng::SmallRng;
use imo_workloads::{all, Scale};

use crate::calib::Calibrator;
use crate::tracer::Tracer;

/// The committed reference digests, recorded from tick-accurate runs.
pub const REFERENCE_JSON: &str = include_str!("../reference.json");

pub const SCHEME_LABELS: [&str; 3] = ["none", "trap-10S", "cc-10S"];

pub fn scheme(label: &str) -> Scheme {
    let body = HandlerBody::Generic { len: 10 };
    match label {
        "none" => Scheme::None,
        "trap-10S" => Scheme::Trap { handlers: HandlerKind::Single, body },
        "cc-10S" => Scheme::ConditionCode { handlers: HandlerKind::Single, body },
        other => panic!("unknown scheme label {other}"),
    }
}

/// `"ooo"` / `"inorder"`: the machine's name as used in metric names.
pub fn machine_key(m: &Machine) -> &'static str {
    match m {
        Machine::OutOfOrder(_) => "ooo",
        Machine::InOrder(_) => "inorder",
    }
}

pub fn machines() -> [Machine; 2] {
    [Machine::default_ooo(), Machine::default_in_order()]
}

/// A stable 64-bit digest of every field of a run result.
pub fn digest(r: &RunResult) -> String {
    format!("{:016x}", fnv1a_64(format!("{r:?}").as_bytes()))
}

/// One kernel × machine × scheme cell.
pub struct Cell {
    pub kernel: &'static str,
    pub machine: Machine,
    pub scheme: &'static str,
    /// Index into [`Inputs::programs`].
    pub program: usize,
}

impl Cell {
    pub fn id(&self) -> String {
        format!("{}/{}/{}", self.kernel, machine_key(&self.machine), self.scheme)
    }
}

/// Everything a `spec-*` pass needs, built by [`prepare`].
pub struct Inputs {
    /// 14 kernels × 3 programs, kernel-major in registry order, scheme
    /// order as [`SCHEME_LABELS`].
    pub programs: Vec<Program>,
    /// Cells in the seed's order.
    pub cells: Vec<Cell>,
    /// Cell id → reference digest.
    pub reference: BTreeMap<String, String>,
}

/// Builds the kernels, instruments them under the three schemes, loads the
/// reference digests and lays the 84 cells out in the seed's order.
pub fn prepare(seed: u64, tr: &mut Tracer) -> Result<Inputs, String> {
    let kernels = tr.span("imo-workloads", "Spec::build x14", |_| {
        all().into_iter().map(|s| (s.name, (s.build)(Scale::Small))).collect::<Vec<_>>()
    });
    let programs = tr.span("imo-core", "instrument x42", |_| {
        let mut out = Vec::with_capacity(kernels.len() * SCHEME_LABELS.len());
        for (name, p) in &kernels {
            for label in SCHEME_LABELS {
                let inst = instrument(p, &scheme(label))
                    .map_err(|e| format!("instrument {name} {label}: {e}"))?;
                out.push(inst.program);
            }
        }
        Ok::<_, String>(out)
    })?;
    let reference =
        tr.span("imo-util", "json::parse reference", |_| load_reference(REFERENCE_JSON))?;
    let mut cells = Vec::with_capacity(programs.len() * 2);
    for (k, (name, _)) in kernels.iter().enumerate() {
        for machine in machines() {
            for (s, label) in SCHEME_LABELS.iter().enumerate() {
                cells.push(Cell {
                    kernel: name,
                    machine: machine.clone(),
                    scheme: label,
                    program: k * SCHEME_LABELS.len() + s,
                });
            }
        }
    }
    shuffle(&mut cells, seed);
    Ok(Inputs { programs, cells, reference })
}

/// Fisher–Yates with the benchmark's seeded generator.
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
}

fn load_reference(text: &str) -> Result<BTreeMap<String, String>, String> {
    let doc = parse(text).map_err(|e| format!("reference.json: {e}"))?;
    let cells = doc.get("cells").and_then(Json::as_arr).ok_or("reference.json: no `cells`")?;
    let mut out = BTreeMap::new();
    for c in cells {
        let id = c.get("cell").and_then(Json::as_str).ok_or("reference cell without `cell`")?;
        let d = c.get("digest").and_then(Json::as_str).ok_or("reference cell without `digest`")?;
        out.insert(id.to_string(), d.to_string());
    }
    Ok(out)
}

/// How a pass runs each cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Machine::run_limited` with default limits, no recorder.
    Plain,
    /// `Machine::run_observed` under a disabled recorder with miss
    /// attribution enabled.
    Observed,
    /// `Machine::run_limited` with `RunLimits::tick_accurate()`.
    TickAccurate,
}

/// One cell's outcome in one pass.
pub struct CellRun {
    pub cell: usize,
    /// Host nanoseconds of the simulate call.
    pub ns: u64,
    /// When it ran, in the pass's calibrator's seconds.
    pub at: f64,
    /// Fast-path counter deltas around the call (exact when the cell runs
    /// alone, as every pass runs it).
    pub fast: SpeedStats,
    /// The result, or why the cell failed.
    pub result: Result<RunResult, String>,
    /// Classified misses (observed mode only).
    pub classified: u64,
}

/// Runs one cell and checks it: the result must equal the reference digest;
/// an observed run must also reconcile its CPI stack and miss classes.
/// A `SimError` or a panic is a failed cell, not a lost run.
pub fn run_cell(inputs: &Inputs, idx: usize, mode: Mode) -> CellRun {
    let cell = &inputs.cells[idx];
    let program = &inputs.programs[cell.program];
    let s0 = speed_stats();
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| match mode {
        Mode::Plain => cell.machine.run_limited(program, RunLimits::default()).map(|r| (r, None)),
        Mode::TickAccurate => {
            cell.machine.run_limited(program, RunLimits::tick_accurate()).map(|r| (r, None))
        }
        Mode::Observed => {
            let mut rec = Recorder::disabled();
            rec.enable_attribution(cell.machine.attrib_config());
            cell.machine.run_observed(program, &mut rec).map(|(r, _)| (r, Some(rec)))
        }
    }));
    let ns = t.elapsed().as_nanos() as u64;
    let s1 = speed_stats();
    let fast = SpeedStats {
        groups: s1.groups - s0.groups,
        block_groups: s1.block_groups - s0.block_groups,
        plain_instrs: s1.plain_instrs - s0.plain_instrs,
        instrs: s1.instrs - s0.instrs,
    };
    let mut classified = 0;
    let result = match out {
        Err(_) => Err("panicked".to_string()),
        Ok(Err(e)) => Err(format!("SimError: {e}")),
        Ok(Ok((r, rec))) => check(inputs, cell, &r, rec.as_ref(), &mut classified).map(|()| r),
    };
    let result = result.map_err(|e| format!("{}: {e}", cell.id()));
    CellRun { cell: idx, ns, at: 0.0, fast, result, classified }
}

impl CellRun {
    /// Host ns in reference-host units (see [`crate::calib`]).
    pub fn scaled_ns(&self, cal: &Calibrator) -> f64 {
        self.ns as f64 * cal.scale_at(self.at)
    }
}

fn check(
    inputs: &Inputs,
    cell: &Cell,
    r: &RunResult,
    rec: Option<&Recorder>,
    classified: &mut u64,
) -> Result<(), String> {
    let want = inputs.reference.get(&cell.id()).ok_or("no reference digest")?;
    let got = digest(r);
    if &got != want {
        return Err(format!("digest {got} differs from reference {want}"));
    }
    if let Some(rec) = rec {
        if rec.cpi.total() != r.cycles {
            return Err(format!("CPI stack totals {} != {} cycles", rec.cpi.total(), r.cycles));
        }
        let attrib = rec.attribution().ok_or("attribution missing")?;
        if !attrib.reconciles_cpu(r.mem.l1d_misses, r.mem.l2_misses) {
            return Err("miss classes do not reconcile with the cache counters".to_string());
        }
        *classified = attrib.cpu_classified_total();
    }
    Ok(())
}

/// Runs every cell once, in the seed's order, with a calibration sample
/// after each cell.
pub fn run_pass(
    inputs: &Inputs,
    mode: Mode,
    tr: &mut Tracer,
    cal: &mut Calibrator,
) -> Vec<CellRun> {
    cal.sample();
    (0..inputs.cells.len()).map(|i| run_timed(inputs, i, mode, tr, cal)).collect()
}

/// Runs every cell twice in one pass, once traced by `tr` and once with
/// tracing off, alternating which goes first so that host drift falls on
/// both alike. Returns `(traced, untraced)`.
pub fn run_pass_paired(
    inputs: &Inputs,
    mode: Mode,
    tr: &mut Tracer,
    cal: &mut Calibrator,
) -> (Vec<CellRun>, Vec<CellRun>) {
    let mut off = Tracer::new(false, 0);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    cal.sample();
    for i in 0..inputs.cells.len() {
        if i % 2 == 0 {
            traced.push(run_timed(inputs, i, mode, tr, cal));
            untraced.push(run_timed(inputs, i, mode, &mut off, cal));
        } else {
            untraced.push(run_timed(inputs, i, mode, &mut off, cal));
            traced.push(run_timed(inputs, i, mode, tr, cal));
        }
    }
    (traced, untraced)
}

/// Runs cell `i` inside a span of `tr`, stamps when it ran and takes a
/// calibration sample after it.
fn run_timed(
    inputs: &Inputs,
    i: usize,
    mode: Mode,
    tr: &mut Tracer,
    cal: &mut Calibrator,
) -> CellRun {
    let label = match mode {
        Mode::Plain => "Machine::run_limited",
        Mode::Observed => "Machine::run_observed",
        Mode::TickAccurate => "Machine::run_limited(tick_accurate)",
    };
    let layer = if mode == Mode::Observed { "imo-obs" } else { "imo-cpu" };
    let start = cal.now();
    let mut run =
        tr.span(layer, &format!("{label} {}", inputs.cells[i].id()), |_| run_cell(inputs, i, mode));
    run.at = (start + cal.now()) / 2.0;
    cal.sample();
    run
}

/// Runs every cell tick-accurately and renders the reference document.
pub fn record_reference(inputs: &Inputs) -> Result<Json, String> {
    let mut rows: Vec<(String, RunResult)> = Vec::new();
    for cell in &inputs.cells {
        let r = cell
            .machine
            .run_limited(&inputs.programs[cell.program], RunLimits::tick_accurate())
            .map_err(|e| format!("{}: {e}", cell.id()))?;
        rows.push((cell.id(), r));
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let cells = rows.iter().map(|(id, r)| {
        Json::obj([
            ("cell", Json::from(id.as_str())),
            ("cycles", Json::from(r.cycles)),
            ("instructions", Json::from(r.instructions)),
            ("digest", Json::from(digest(r))),
        ])
    });
    Ok(Json::obj([
        (
            "about",
            Json::from(
                "FNV-1a 64 digests of the Debug rendering of each spec-* cell's RunResult, \
                 recorded from RunLimits::tick_accurate() runs",
            ),
        ),
        ("cells", Json::arr(cells)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..84).collect();
        let mut b = a.clone();
        shuffle(&mut a, 3);
        shuffle(&mut b, 3);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..84).collect();
        shuffle(&mut c, 4);
        assert_ne!(a, c);
        c.sort_unstable();
        assert_eq!(c, (0..84).collect::<Vec<_>>());
    }

    #[test]
    fn reference_covers_every_cell() {
        let inputs = prepare(1, &mut Tracer::new(false, 0)).expect("prepares");
        assert_eq!(inputs.cells.len(), 84);
        for c in &inputs.cells {
            assert!(inputs.reference.contains_key(&c.id()), "{} has no reference", c.id());
        }
    }
}

//! Observability-overhead bench: proves the recorder is free when disabled
//! and measures what it costs when enabled.
//!
//! 1. **Identity** — a workload × machine sweep (fanned out across the
//!    pool): runs under a disabled and a fully-enabled recorder must return
//!    results *bit-identical* to the unobserved run, and likewise for the
//!    coherence simulator on every scheme.
//! 2. **Wall-clock overhead** — host time for the plain, disabled-recorder,
//!    full-recorder and attribution-on runs of a representative kernel on
//!    each machine; serial, for timing fidelity. The attribution column is
//!    additionally bounded by a hard ceiling ([`ATTRIB_CEILING`]), and
//!    `fast_path_engaged` records whether the disabled-recorder and
//!    attribution runs took the block-batched fast path (read from the
//!    process-global `imo_cpu::speed` counters around them).

use imo_coherence::{simulate_baseline, simulate_observed, MachineParams, Scheme};
use imo_core::Machine;
use imo_cpu::speed::speed_stats;
use imo_faults::FaultPlan;
use imo_obs::Recorder;
use imo_util::json::Json;
use imo_util::Bench;
use imo_workloads::parallel::{migratory, TraceConfig};
use imo_workloads::{spec, Scale};

use crate::report::{emit, Table};
use crate::sweep::SweepSpec;

/// Hard ceiling on the attribution-on / plain wall-clock ratio. The
/// streaming analyzer is O(log window) per access, so anything past this
/// is a real regression, not host noise.
pub const ATTRIB_CEILING: f64 = 10.0;

/// A disabled recorder with the miss-attribution analyzer attached —
/// the `why_miss` configuration.
fn attrib_recorder(m: &Machine) -> Recorder {
    let mut rec = Recorder::disabled();
    rec.enable_attribution(m.attrib_config());
    rec
}

/// The identity proofs and host timings.
pub struct Output {
    /// Per-workload CPU identity failures (`workload/machine recorder`).
    pub cpu_mismatches: Vec<String>,
    /// Per-scheme coherence identity failures.
    pub coh_mismatches: Vec<String>,
    /// The host-time bench runner.
    pub bench: Bench,
    /// Per machine (ooo, in-order): whether the disabled-recorder and
    /// attribution runs both took the block-batched fast path.
    pub fast_path_engaged: Vec<bool>,
}

/// Checks one workload on both machines under both recorder modes,
/// returning mismatch descriptions (empty = bit-identical).
fn cpu_identity(name: &'static str) -> Vec<String> {
    let s = spec::by_name(name).expect("workload exists");
    let p = (s.build)(Scale::Test);
    let mut mismatches = Vec::new();
    for m in [Machine::default_ooo(), Machine::default_in_order()] {
        let plain = m.run(&p).expect("runs");
        let modes = [
            ("disabled", Recorder::disabled()),
            ("full", Recorder::all()),
            ("attrib", attrib_recorder(&m)),
        ];
        for (label, mut rec) in modes {
            let (o, _) = m.run_observed(&p, &mut rec).expect("runs");
            if o != plain {
                mismatches.push(format!("{name}/{} differs under the {label} recorder", m.name()));
            }
        }
    }
    mismatches
}

/// Runs the identity sweeps and the serial wall-clock section.
#[must_use]
pub fn compute() -> Output {
    // 1. Identity: one sweep cell per workload (each checks both machines
    //    and both recorder modes).
    let names: Vec<&'static str> = spec::all().into_iter().map(|s| s.name).collect();
    let cpu_mismatches = SweepSpec::new("obs_identity", names)
        .run(|_, name| cpu_identity(name))
        .into_iter()
        .flatten()
        .collect();

    let cfg = TraceConfig { procs: 8, ops_per_proc: 4_000, seed: 0x1996 };
    let trace = migratory(&cfg);
    let params = MachineParams::table2();
    let coh_mismatches = SweepSpec::new("obs_identity_coh", Scheme::all().to_vec())
        .run(|_, scheme| {
            let base = simulate_baseline(&trace, scheme, &params);
            let mut rec = Recorder::all();
            let (o, _) = simulate_observed(&trace, scheme, &params, &FaultPlan::none(), &mut rec)
                .expect("zero-fault run completes");
            (o != base).then(|| format!("coherence/{} differs under the recorder", scheme.name()))
        })
        .into_iter()
        .flatten()
        .collect();

    // 2. Host-time overhead on a representative kernel per machine (serial),
    //    with the fast-path counters read around the disabled and
    //    attribution runs: neither asks for pipeline events, so both must
    //    batch instructions.
    let mut b = Bench::new("obs_overhead");
    let mut fast_path_engaged = Vec::new();
    let p = (spec::by_name("compress").expect("compress exists").build)(Scale::Test);
    for (key, m) in [("ooo", Machine::default_ooo()), ("inorder", Machine::default_in_order())] {
        let observed = |mut rec: Recorder| m.run_observed(&p, &mut rec).expect("runs").0;
        b.bench_sampled(&format!("{key}/plain"), 5, || m.run(&p).expect("runs"));
        let before = speed_stats();
        b.bench_sampled(&format!("{key}/disabled_recorder"), 5, || observed(Recorder::disabled()));
        let disabled = speed_stats().plain_instrs > before.plain_instrs;
        b.bench_sampled(&format!("{key}/full_recorder"), 5, || observed(Recorder::all()));
        let before = speed_stats();
        b.bench_sampled(&format!("{key}/attrib_recorder"), 5, || observed(attrib_recorder(&m)));
        let attrib = speed_stats().plain_instrs > before.plain_instrs;
        fast_path_engaged.push(disabled && attrib);
    }

    Output { cpu_mismatches, coh_mismatches, bench: b, fast_path_engaged }
}

fn overheads(out: &Output) -> Vec<(String, f64, f64, f64, bool)> {
    let median = |id: &str| -> f64 {
        out.bench.results().iter().find(|r| r.id == id).map_or(0.0, |r| r.median_ns)
    };
    let ratio = |num: &str, den: &str| -> f64 {
        let d = median(den);
        if d == 0.0 {
            0.0
        } else {
            median(num) / d
        }
    };
    ["ooo", "inorder"]
        .iter()
        .zip(&out.fast_path_engaged)
        .map(|(m, &engaged)| {
            (
                (*m).to_string(),
                ratio(&format!("{m}/disabled_recorder"), &format!("{m}/plain")),
                ratio(&format!("{m}/full_recorder"), &format!("{m}/plain")),
                ratio(&format!("{m}/attrib_recorder"), &format!("{m}/plain")),
                engaged,
            )
        })
        .collect()
}

/// The baseline payload, including the identity proof obligations.
#[must_use]
pub fn payload(out: &Output) -> Json {
    let identical = out.cpu_mismatches.is_empty();
    let coh_identical = out.coh_mismatches.is_empty();
    let within_ceiling =
        overheads(out).iter().all(|&(_, _, _, attrib, _)| attrib > 0.0 && attrib <= ATTRIB_CEILING);
    let rows = overheads(out).into_iter().map(|(m, disabled, full, attrib, engaged)| {
        Json::obj([
            ("machine", Json::from(m)),
            ("disabled_over_plain", Json::from(disabled)),
            ("full_over_plain", Json::from(full)),
            ("attrib_over_plain", Json::from(attrib)),
            ("fast_path_engaged", Json::Bool(engaged)),
        ])
    });
    Json::obj([
        ("disabled_identical", Json::Bool(identical)),
        ("full_identical", Json::Bool(identical)),
        ("attrib_identical", Json::Bool(identical)),
        ("coherence_identical", Json::Bool(coh_identical)),
        ("attrib_within_ceiling", Json::Bool(within_ceiling)),
        ("attrib_ceiling", Json::from(ATTRIB_CEILING)),
        ("overheads", Json::arr(rows)),
        ("timings", out.bench.to_json()),
    ])
}

/// Prints the identity verdicts and the timing/overhead tables.
///
/// # Panics
///
/// Panics if any observed run differed from its unobserved twin.
pub fn print(out: &Output) {
    println!("OBSERVABILITY OVERHEAD. Recorder identity + host-time cost.\n");
    for m in out.cpu_mismatches.iter().chain(&out.coh_mismatches) {
        eprintln!("MISMATCH: {m}");
    }
    assert!(out.cpu_mismatches.is_empty(), "observed CPU runs must be bit-identical to plain runs");
    assert!(
        out.coh_mismatches.is_empty(),
        "observed coherence runs must be bit-identical to baseline"
    );
    println!("identity: all workloads x machines bit-identical under the recorder\n");

    print!("{}", out.bench.render());
    let mut t =
        Table::new(["machine", "disabled / plain", "full / plain", "attrib / plain", "fast path"]);
    for (m, disabled, full, attrib, engaged) in overheads(out) {
        assert!(
            attrib > 0.0 && attrib <= ATTRIB_CEILING,
            "{m}: attribution overhead {attrib:.3}x exceeds the {ATTRIB_CEILING}x ceiling"
        );
        t.row([
            m,
            format!("{disabled:.3}x"),
            format!("{full:.3}x"),
            format!("{attrib:.3}x"),
            if engaged { "engaged" } else { "OFF" }.to_string(),
        ]);
    }
    println!();
    print!("{}", t.render());
    println!("\nattribution overhead within the hard {ATTRIB_CEILING}x ceiling on both machines");
}

/// The whole bench target: compute, print, write the baseline.
pub fn run() {
    let out = compute();
    print(&out);
    emit("obs_overhead", payload(&out));
}

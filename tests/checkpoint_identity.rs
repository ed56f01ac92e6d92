//! Checkpoint identity: pausing a run at a cycle boundary and resuming it —
//! in-process or from the JSON wire — is invisible to the simulation.
//!
//! `RunLimits::stop_at(c)` makes a `SimSession` run halt at the first cycle
//! boundary at or after `c` and emit a [`Checkpoint`] instead of a result.
//! Every test here demands that resuming the checkpoint produces a
//! `RunResult` bit-identical to the uninterrupted run: counters, slot
//! accounting, trap and misprediction totals, branch accuracy, all of it.
//! The observed variants additionally demand that the CPI stack of a resumed
//! run reconciles exactly with the uninterrupted one (and therefore with
//! `RunResult::cycles`).

use imo_faults::{FaultConfig, FaultPlan};
use imo_util::check::Checker;
use imo_util::ensure_eq;
use imo_util::snapshot::{Snapshot, SnapshotError};
use informing_memops::core::instrument::{instrument, HandlerBody, HandlerKind, Scheme};
use informing_memops::core::Machine;
use informing_memops::cpu::{
    Checkpoint, OooConfig, Outcome, RunLimits, RunResult, SimError, SimSession, TrapModel,
};
use informing_memops::mem::MshrMode;
use informing_memops::obs::Recorder;
use informing_memops::util::json::{parse, Json};
use informing_memops::workloads::{all, by_name, Scale};

fn schemes() -> [(&'static str, Scheme); 3] {
    let body = HandlerBody::Generic { len: 10 };
    [
        ("none", Scheme::None),
        ("trap-10S", Scheme::Trap { handlers: HandlerKind::Single, body }),
        ("cc-10S", Scheme::ConditionCode { handlers: HandlerKind::Single, body }),
    ]
}

/// Serializes a checkpoint to pretty JSON text and decodes it back, as a
/// worker process handing work to another would.
fn wire_trip(ckpt: &Checkpoint) -> (Checkpoint, Json) {
    let text = ckpt.to_wire().pretty();
    let json = parse(&text).expect("checkpoint wire text parses");
    let back = Checkpoint::from_wire(&json).expect("checkpoint wire decodes");
    assert_eq!(back.to_wire().pretty(), text, "re-encoding is byte-stable");
    (back, json)
}

/// True if the checkpoint was taken mid-miss: the out-of-order core's MSHR
/// file has at least one non-free entry on the wire.
fn mshrs_in_flight(wire: &Json) -> bool {
    let states = wire
        .get("data")
        .and_then(|d| d.get("body"))
        .and_then(|b| b.get("mshrs"))
        .and_then(|m| m.get("data"))
        .and_then(|d| d.get("states"))
        .and_then(Json::as_str);
    states.is_some_and(|s| s.bytes().any(|b| b != b'0'))
}

/// All 14 workloads x both machines x 3 schemes: pause at mid-run, cross the
/// JSON wire, resume, and land on the uninterrupted result bit-for-bit. The
/// matrix must include checkpoints taken with MSHRs in flight.
#[test]
fn all_workloads_machines_schemes_resume_bit_identically() {
    let mut paused_cells = 0u32;
    let mut mid_miss_cells = 0u32;
    for spec in all() {
        let p = (spec.build)(Scale::Test);
        for (label, scheme) in &schemes() {
            let inst = instrument(&p, scheme).expect("instruments");
            for machine in [Machine::default_ooo(), Machine::default_in_order()] {
                let baseline = machine
                    .run_limited(&inst.program, RunLimits::default())
                    .unwrap_or_else(|e| panic!("{}/{label}: {e}", spec.name));
                let outcome = SimSession::new(&inst.program, machine.core_config())
                    .limits(RunLimits::stop_at(baseline.cycles / 2))
                    .run()
                    .unwrap_or_else(|e| panic!("{}/{label} (stop): {e}", spec.name));
                let resumed = match outcome {
                    Outcome::Paused(ckpt) => {
                        paused_cells += 1;
                        let (back, wire) = wire_trip(&ckpt);
                        if machine == Machine::default_ooo() && mshrs_in_flight(&wire) {
                            mid_miss_cells += 1;
                        }
                        complete(
                            SimSession::new(&inst.program, machine.core_config())
                                .resume(&back)
                                .unwrap_or_else(|e| panic!("{}/{label} (resume): {e}", spec.name)),
                        )
                    }
                    // Tiny runs can finish before the midpoint boundary.
                    Outcome::Complete { result, .. } => result,
                };
                assert_eq!(
                    resumed,
                    baseline,
                    "{}/{}/{label}: checkpoint/resume must not change the simulation",
                    spec.name,
                    machine.name()
                );
            }
        }
    }
    assert!(paused_cells > 50, "the matrix must actually exercise pauses ({paused_cells})");
    assert!(
        mid_miss_cells > 0,
        "at least one checkpoint must be taken mid-miss with MSHRs in flight"
    );
}

fn complete(outcome: Outcome) -> RunResult {
    match outcome {
        Outcome::Complete { result, .. } => result,
        Outcome::Paused(c) => panic!("unexpected second pause at cycle {}", c.cycle()),
    }
}

/// Observed runs: a resumed run's CPI stack must equal the uninterrupted
/// run's exactly, and both must total `RunResult::cycles`.
#[test]
fn observed_resume_reconciles_cpi_exactly() {
    let p = (by_name("compress").expect("workload exists").build)(Scale::Test);
    let scheme =
        Scheme::Trap { handlers: HandlerKind::Single, body: HandlerBody::Generic { len: 10 } };
    let inst = instrument(&p, &scheme).expect("instruments");
    for machine in [Machine::default_ooo(), Machine::default_in_order()] {
        let mut base_rec = Recorder::all();
        let (baseline, _) =
            machine.run_observed(&inst.program, &mut base_rec).expect("observed baseline");
        assert_eq!(base_rec.cpi.total(), baseline.cycles, "baseline CPI covers every cycle");

        let mut first_rec = Recorder::all();
        let outcome = SimSession::new(&inst.program, machine.core_config())
            .limits(RunLimits::stop_at(baseline.cycles / 2))
            .recorder(&mut first_rec)
            .run()
            .expect("observed run pauses");
        let Outcome::Paused(ckpt) = outcome else { panic!("must pause at midpoint") };

        let mut resume_rec = Recorder::all();
        let resumed = complete(
            SimSession::new(&inst.program, machine.core_config())
                .recorder(&mut resume_rec)
                .resume(&ckpt)
                .expect("observed resume completes"),
        );
        assert_eq!(resumed, baseline, "{}: observed resume result", machine.name());
        // The CPI accumulator rides inside the checkpoint, so the recorder
        // that witnesses completion reconciles the *whole* run, not just the
        // tail: stack equality is exact, category by category.
        assert_eq!(resume_rec.cpi, base_rec.cpi, "{}: CPI stacks reconcile", machine.name());
        assert_eq!(resume_rec.cpi.total(), resumed.cycles, "{}: CPI total", machine.name());
    }
}

/// Fault injection rides the same loops: three seeded plans pause mid-run
/// (mid-fault-stream) on both cores, cross the wire, and resume identically.
#[test]
fn seeded_faulty_checkpoints_resume_identically() {
    let p = (by_name("compress").expect("workload exists").build)(Scale::Test);
    let scheme =
        Scheme::Trap { handlers: HandlerKind::Single, body: HandlerBody::Generic { len: 10 } };
    let inst = instrument(&p, &scheme).expect("instruments");
    for seed in [1u64, 2, 3] {
        let mut fc = FaultConfig::none(seed);
        fc.handler_overrun_rate = 0.2;
        fc.handler_overrun_cycles = 40;
        fc.stale_mhar_rate = 0.1;
        fc.stale_mhar_cycles = 25;
        let plan = FaultPlan::new(fc);
        for machine in [Machine::default_ooo(), Machine::default_in_order()] {
            let baseline = complete(
                SimSession::new(&inst.program, machine.core_config())
                    .faults(plan)
                    .run()
                    .expect("faulty baseline"),
            );
            assert!(baseline.handler_faults > 0, "seed {seed} must actually inject faults");
            let outcome = SimSession::new(&inst.program, machine.core_config())
                .faults(plan)
                .limits(RunLimits::stop_at(baseline.cycles / 2))
                .run()
                .expect("faulty run pauses");
            let Outcome::Paused(ckpt) = outcome else { panic!("must pause at midpoint") };
            let (back, _) = wire_trip(&ckpt);
            let resumed = complete(
                SimSession::new(&inst.program, machine.core_config())
                    .faults(plan)
                    .resume(&back)
                    .expect("faulty resume completes"),
            );
            assert_eq!(resumed, baseline, "seed {seed} on {}", machine.name());
        }
    }
}

/// Pauses landing inside the fast path's split plain-run queue: the compact
/// run descriptors must rematerialize into the exact fetch-queue entries the
/// generic loop would hold, byte-stably across the wire, and resume onto the
/// uninterrupted result — probed at a dense band of consecutive stop cycles
/// so some checkpoints are guaranteed to catch partially drained runs
/// mid-block.
#[test]
fn fast_path_pauses_with_plain_runs_pending_resume_identically() {
    let p = (by_name("mdljsp2").expect("workload exists").build)(Scale::Test);
    for machine in [Machine::default_in_order(), Machine::default_ooo()] {
        let baseline = machine.run_limited(&p, RunLimits::default()).expect("uninterrupted run");
        let mid = baseline.cycles / 2;
        // A dense band of consecutive boundaries plus spread-out points:
        // consecutive stops cannot all land on run boundaries.
        let stops: Vec<u64> =
            (mid..mid + 8).chain([baseline.cycles / 4, 3 * baseline.cycles / 4]).collect();
        for stop in stops {
            let outcome = SimSession::new(&p, machine.core_config())
                .limits(RunLimits::stop_at(stop))
                .run()
                .expect("paused run");
            let Outcome::Paused(ckpt) = outcome else {
                panic!("{}: run must pause at {stop}", machine.name())
            };
            let (back, _) = wire_trip(&ckpt);
            let resumed = complete(
                SimSession::new(&p, machine.core_config()).resume(&back).expect("resume completes"),
            );
            assert_eq!(
                resumed,
                baseline,
                "{}: pause at {stop} with plain runs pending",
                machine.name()
            );
        }
    }
}

/// 32 random (workload, scheme, machine, stop-cycle) draws: arbitrary cycle
/// boundaries, not just the midpoint, resume bit-identically.
#[test]
fn random_stop_cycles_resume_identically() {
    let names: Vec<&'static str> = all().iter().map(|s| s.name).collect();
    Checker::new("checkpoint_identity_random").cases(32).run(|g| {
        let name = *g.pick(&names);
        let p = (by_name(name).expect("workload exists").build)(Scale::Test);
        let handlers = *g.pick(&[HandlerKind::Single, HandlerKind::PerReference]);
        let body = HandlerBody::Generic { len: *g.pick(&[1u32, 10, 100]) };
        let scheme = *g.pick(&[
            Scheme::None,
            Scheme::Trap { handlers, body },
            Scheme::ConditionCode { handlers, body },
        ]);
        let inst = instrument(&p, &scheme).map_err(|e| format!("{name}: {e}"))?;
        let machine = if g.bool() { Machine::default_ooo() } else { Machine::default_in_order() };
        let baseline = machine
            .run_limited(&inst.program, RunLimits::default())
            .map_err(|e| format!("{name} on {}: {e}", machine.name()))?;
        let stop = g.int(1..baseline.cycles.max(2));
        let outcome = SimSession::new(&inst.program, machine.core_config())
            .limits(RunLimits::stop_at(stop))
            .run()
            .map_err(|e| format!("{name} stop {stop}: {e}"))?;
        let resumed = match outcome {
            Outcome::Paused(ckpt) => {
                ensure_eq!(ckpt.cycle() >= stop, true, "{name}: pause respects the boundary");
                let (back, _) = wire_trip(&ckpt);
                match SimSession::new(&inst.program, machine.core_config())
                    .resume(&back)
                    .map_err(|e| format!("{name} resume: {e}"))?
                {
                    Outcome::Complete { result, .. } => result,
                    Outcome::Paused(c) => {
                        return Err(format!("{name}: second pause at {}", c.cycle()))
                    }
                }
            }
            Outcome::Complete { result, .. } => result,
        };
        ensure_eq!(resumed, baseline, "{name} on {} stopped at {stop}", machine.name());
        Ok(())
    });
}

/// A fast-path pause and a tick-accurate pause at the same cycle encode
/// byte-identical checkpoints: the split plain-run queue, the in-order
/// core's lazily cleared miss flags and the out-of-order core's slim ROB
/// entries (whose `instr`, `cc_dep` and `is_cond_branch` are re-derived at
/// encode time) leave no trace on the wire. Stops at every twelfth of each
/// run plus a dense mid-run band. Each fast pause is a fresh run; the
/// tick-accurate reference resumes from its previous pause, which the tests
/// above prove equal to a straight run.
#[test]
fn fast_path_checkpoints_equal_tick_accurate_ones() {
    let mut compared = 0u32;
    for name in ["mdljsp2", "compress", "xlisp", "su2cor"] {
        let p = (by_name(name).expect("workload exists").build)(Scale::Test);
        for (label, scheme) in &schemes() {
            let inst = instrument(&p, scheme).expect("instruments");
            for machine in [Machine::default_ooo(), Machine::default_in_order()] {
                let ctx = format!("{name}/{label} on {}", machine.name());
                let cycles =
                    machine.run_limited(&inst.program, RunLimits::default()).unwrap().cycles;
                let pause = |limits: RunLimits, from: Option<&Checkpoint>| {
                    let session =
                        SimSession::new(&inst.program, machine.core_config()).limits(limits);
                    let outcome = match from {
                        Some(c) => session.resume(c),
                        None => session.run(),
                    };
                    match outcome {
                        Ok(Outcome::Paused(ckpt)) => ckpt,
                        other => panic!("{ctx}: no pause under {limits:?}: {:?}", other.err()),
                    }
                };
                let mut stops: Vec<u64> =
                    (1..12).map(|k| k * cycles / 12).chain(cycles / 2..cycles / 2 + 6).collect();
                stops.sort_unstable();
                let mut tick: Option<Checkpoint> = None;
                for stop in stops {
                    let fast = pause(RunLimits::stop_at(stop), None);
                    let limits =
                        RunLimits { stop_at: Some(fast.cycle()), ..RunLimits::tick_accurate() };
                    let t = pause(limits, tick.as_ref());
                    // Equal trees print equal texts; print only to show a diff.
                    if fast.to_wire() != t.to_wire() {
                        let (f_text, t_text) = (fast.to_wire().pretty(), t.to_wire().pretty());
                        let diff = f_text.lines().zip(t_text.lines()).find(|(f, t)| f != t);
                        panic!("{ctx}: stop {stop}: fast vs tick-accurate line {diff:?}");
                    }
                    tick = Some(t);
                    compared += 1;
                }
            }
        }
    }
    assert_eq!(compared, 4 * 3 * 2 * 17);
}

/// Random out-of-order configurations, drawn as
/// `tests/fastforward_identity.rs` draws them (ROBs of 1 to 128 entries,
/// issue width, units, checkpoints, trap model, write buffer, MSHR mode): a
/// fast-path pause and a tick-accurate pause at the same cycle print the
/// same wire text, and resuming from either lands on the uninterrupted
/// result. This carries the reorder-buffer ring's non-power-of-two and
/// over-64-entry sizes through checkpoints.
#[test]
fn random_ooo_configurations_checkpoint_identically() {
    let names: Vec<&'static str> = all().iter().map(|s| s.name).collect();
    Checker::new("checkpoint_ooo_configs").cases(24).run(|g| {
        let mut cfg = OooConfig::paper();
        cfg.rob_entries = *g.pick(&[1, 8, 32, 64, 65, 128]);
        cfg.issue_width = g.int(1..9);
        cfg.int_units = g.int(1..4);
        cfg.fp_units = g.int(1..4);
        cfg.mem_units = g.int(1..4);
        cfg.branch_units = g.int(1..4);
        cfg.max_checkpoints = g.int(1..13);
        cfg.trap_model = *g.pick(&[TrapModel::Branch, TrapModel::Exception]);
        cfg.write_buffer = g.int(1..9);
        cfg.mshr_mode = *g.pick(&[MshrMode::Standard, MshrMode::ExtendedLifetime]);
        let name = *g.pick(&names);
        let (label, scheme) = *g.pick(&schemes());
        let p = (by_name(name).expect("workload exists").build)(Scale::Test);
        let inst = instrument(&p, &scheme).map_err(|e| format!("{name}: {e}"))?;
        let machine = Machine::OutOfOrder(cfg);
        let ctx = format!("{name}/{label} under {cfg:?}");
        let baseline = machine
            .run_limited(&inst.program, RunLimits::default())
            .map_err(|e| format!("{ctx}: {e}"))?;
        let session = || SimSession::new(&inst.program, machine.core_config());
        let pause = |limits: RunLimits| match session().limits(limits).run() {
            Ok(Outcome::Paused(ckpt)) => Ok(ckpt),
            other => Err(format!("{ctx}: no pause under {limits:?}: {:?}", other.err())),
        };
        let fast = pause(RunLimits::stop_at(g.int(1..baseline.cycles.max(2))))?;
        let tick = pause(RunLimits { stop_at: Some(fast.cycle()), ..RunLimits::tick_accurate() })?;
        ensure_eq!(
            fast.to_wire().pretty(),
            tick.to_wire().pretty(),
            "{ctx}: fast vs tick-accurate"
        );
        for ckpt in [&fast, &tick] {
            let (back, _) = wire_trip(ckpt);
            match session().resume(&back).map_err(|e| format!("{ctx} resume: {e}"))? {
                Outcome::Complete { result, .. } => ensure_eq!(result, baseline, "{ctx}"),
                Outcome::Paused(c) => return Err(format!("{ctx}: second pause at {}", c.cycle())),
            }
        }
        Ok(())
    });
}

/// The object member `key` of `j`, for editing wire JSON in place.
fn member<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
    match j {
        Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).expect("member exists").1,
        _ => panic!("{key}: not an object"),
    }
}

/// A checkpoint whose instruction window no longer runs contiguously up to
/// the front end's next sequence number — an out-of-order ROB longer than
/// the machine's, or with duplicated or rotated entries; a fetch queue that
/// repeats a ROB entry; an in-order queue with duplicates or rotated — or
/// whose register last-writer table names an instruction not yet
/// dispatched, is refused with a typed error on resume, never a panic,
/// while the untampered checkpoint still resumes onto the uninterrupted
/// result.
#[test]
fn tampered_instruction_windows_are_rejected() {
    let p = (by_name("compress").expect("workload exists").build)(Scale::Test);
    let scheme =
        Scheme::Trap { handlers: HandlerKind::Single, body: HandlerBody::Generic { len: 10 } };
    let inst = instrument(&p, &scheme).expect("instruments");
    // Each tamper edits the checkpoint body; `window` reaches one of its
    // instruction arrays.
    type Tamper = fn(&mut Json);
    fn window<'a>(body: &'a mut Json, key: &str) -> &'a mut Vec<Json> {
        let Json::Arr(v) = member(body, key) else { panic!("{key} is an array") };
        assert!(v.len() >= 2, "{key} holds {} entries, too few to tamper", v.len());
        v
    }
    fn dup_last(v: &mut Vec<Json>, n: usize) {
        let last = v.last().expect("window is not empty").clone();
        v.extend(std::iter::repeat_n(last, n));
    }
    let ooo: [(&str, Tamper); 5] = [
        ("rob: 60 duplicates", |b| dup_last(window(b, "rob"), 60)),
        ("rob: one duplicate", |b| dup_last(window(b, "rob"), 1)),
        ("rob: rotated", |b| window(b, "rob").rotate_left(1)),
        ("fetch_q: repeats the ROB's last entry", |b| {
            let last = window(b, "rob").last().and_then(|e| e.get("f")).cloned();
            let Json::Arr(q) = member(b, "fetch_q") else { panic!("fetch_q is an array") };
            q.insert(0, last.expect("ROB entries carry a fetch record"));
        }),
        ("last_writer: names an instruction not yet dispatched", |b| {
            window(b, "last_writer")[1] = Json::Str("7fffffffffff".to_string());
        }),
    ];
    let in_order: [(&str, Tamper); 2] = [
        ("queue: 100 duplicates", |b| dup_last(window(b, "queue"), 100)),
        ("queue: rotated", |b| window(b, "queue").rotate_left(1)),
    ];
    for (machine, cases) in
        [(Machine::default_ooo(), &ooo[..]), (Machine::default_in_order(), &in_order[..])]
    {
        let session = || SimSession::new(&inst.program, machine.core_config());
        let baseline = complete(session().run().expect("uninterrupted run"));
        let Ok(Outcome::Paused(ckpt)) = session().limits(RunLimits::stop_at(3000)).run() else {
            panic!("{}: must pause at cycle 3000", machine.name())
        };
        let wire = ckpt.to_wire();
        for &(label, tamper) in cases {
            let mut w = wire.clone();
            tamper(member(member(&mut w, "data"), "body"));
            let back = Checkpoint::from_wire(&w).expect("the envelope still decodes");
            match session().resume(&back) {
                Err(SimError::Checkpoint(SnapshotError::Bad(_))) => {}
                other => panic!("{} {label}: {:?}", machine.name(), other.map(|_| ())),
            }
        }
        let resumed = session().resume(&ckpt).expect("untampered checkpoint resumes");
        assert_eq!(complete(resumed), baseline, "{}: untampered resume", machine.name());
    }
}

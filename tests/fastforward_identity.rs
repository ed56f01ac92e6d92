//! Fast-forward identity: the event-driven cores' no-progress cycle
//! skipping is a pure wall-clock optimization.
//!
//! `RunLimits::tick_accurate()` sets `force_tick_accurate`, which keeps the
//! wakeup-horizon computation (so deadlock detection is unchanged) but
//! advances time one cycle at a time instead of jumping to the next event.
//! Every run here must produce a bit-identical `RunResult` either way —
//! counters, slot accounting, trap and misprediction totals, all of it.

use imo_faults::FaultConfig;
use imo_faults::FaultPlan;
use imo_util::check::Checker;
use imo_util::ensure_eq;
use informing_memops::core::instrument::{instrument, HandlerBody, HandlerKind, Scheme};
use informing_memops::core::Machine;
use informing_memops::cpu::{
    inorder, ooo, InOrderConfig, OooConfig, Outcome, RunLimits, SimSession, TrapModel,
};
use informing_memops::mem::MshrMode;
use informing_memops::obs::{Category, CategoryMask, Recorder};
use informing_memops::workloads::{all, by_name, Scale};

fn schemes() -> [(&'static str, Scheme); 3] {
    let body = HandlerBody::Generic { len: 10 };
    [
        ("none", Scheme::None),
        ("trap-10S", Scheme::Trap { handlers: HandlerKind::Single, body }),
        ("cc-10S", Scheme::ConditionCode { handlers: HandlerKind::Single, body }),
    ]
}

/// All 14 workloads x both machines x 3 schemes: event-driven equals
/// tick-accurate bit-for-bit.
#[test]
fn all_workloads_machines_schemes_are_tick_identical() {
    for spec in all() {
        let p = (spec.build)(Scale::Test);
        for (label, scheme) in &schemes() {
            let inst = instrument(&p, scheme).expect("instruments");
            for machine in [Machine::default_ooo(), Machine::default_in_order()] {
                let event = machine
                    .run_limited(&inst.program, RunLimits::default())
                    .unwrap_or_else(|e| panic!("{}/{label}: {e}", spec.name));
                let tick = machine
                    .run_limited(&inst.program, RunLimits::tick_accurate())
                    .unwrap_or_else(|e| panic!("{}/{label} (tick): {e}", spec.name));
                assert_eq!(
                    event,
                    tick,
                    "{}/{}/{label}: fast-forward must not change the simulation",
                    spec.name,
                    machine.name()
                );
            }
        }
    }
}

/// Handler-fault injection goes through the same timing loops; three seeded
/// plans must also be tick-identical on both cores.
#[test]
fn seeded_faulty_runs_are_tick_identical() {
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

        let ev =
            ooo::simulate_faulty(&inst.program, &OooConfig::paper(), RunLimits::default(), &plan)
                .expect("faulty ooo run");
        let tk = ooo::simulate_faulty(
            &inst.program,
            &OooConfig::paper(),
            RunLimits::tick_accurate(),
            &plan,
        )
        .expect("faulty ooo tick run");
        assert_eq!(ev, tk, "ooo faulty seed {seed}");
        assert!(ev.handler_faults > 0, "seed {seed} must actually inject faults");

        let ev = inorder::simulate_faulty(
            &inst.program,
            &InOrderConfig::paper(),
            RunLimits::default(),
            &plan,
        )
        .expect("faulty inorder run");
        let tk = inorder::simulate_faulty(
            &inst.program,
            &InOrderConfig::paper(),
            RunLimits::tick_accurate(),
            &plan,
        )
        .expect("faulty inorder tick run");
        assert_eq!(ev, tk, "inorder faulty seed {seed}");
    }
}

/// Block-batch property sweep: 32 seeded random configurations, each run in
/// one of the four modes that interact with the block-batched fast paths —
/// a full recorder (whose `Pipeline` events keep the generic loop engaged),
/// an `observed` recorder without `Pipeline` events, with or without miss
/// attribution and optionally paused and resumed (which rides the batch
/// path), a seeded fault plan (which rides through it), and a `stop_at`
/// landing mid-run (which forces the split plain-run queue to rematerialize
/// into a checkpoint and resume). Every mode must end bit-identical to the
/// tick-accurate reference; the `observed` mode compares the whole recorder
/// output with the same recorder run tick-accurately.
#[test]
fn block_batch_modes_are_tick_identical() {
    let names: Vec<&'static str> = all().iter().map(|s| s.name).collect();
    Checker::new("fastforward_block_batch_modes").cases(32).run(|g| {
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
        let ctx = format!("{name} on {} under {scheme:?}", machine.name());
        let tick = machine
            .run_limited(&inst.program, RunLimits::tick_accurate())
            .map_err(|e| format!("{ctx} (tick): {e}"))?;
        match *g.pick(&["recorder", "observed", "faulty", "stop_at"]) {
            "recorder" => {
                let mut rec = Recorder::all();
                let (res, _) = machine
                    .run_observed(&inst.program, &mut rec)
                    .map_err(|e| format!("{ctx} (recorder): {e}"))?;
                ensure_eq!(res, tick, "{ctx}: recorder on");
                ensure_eq!(rec.cpi.total(), res.cycles, "{ctx}: CPI covers every cycle");
            }
            "observed" => {
                let mask = *g.pick(&[
                    CategoryMask::NONE,
                    CategoryMask::of(&[
                        Category::Cache,
                        Category::Trap,
                        Category::Mshr,
                        Category::Fault,
                    ]),
                ]);
                let attrib = g.bool();
                let stop = g.bool().then(|| g.int(1..tick.cycles.max(2)));
                let ctx = format!("{ctx} observed (mask {mask}, attrib {attrib}, stop {stop:?})");
                let recorder = || {
                    let mut rec = Recorder::new(mask);
                    if attrib {
                        rec.enable_attribution(machine.attrib_config());
                    }
                    rec
                };
                let mut fast = recorder();
                let outcome = SimSession::new(&inst.program, machine.core_config())
                    .recorder(&mut fast)
                    .limits(RunLimits { stop_at: stop, ..RunLimits::default() })
                    .run()
                    .map_err(|e| format!("{ctx}: {e}"))?;
                let res = match outcome {
                    Outcome::Paused(ckpt) => run_to_completion(
                        SimSession::new(&inst.program, machine.core_config())
                            .recorder(&mut fast)
                            .resume(&ckpt)
                            .map_err(|e| format!("{ctx} resume: {e}"))?,
                    )?,
                    Outcome::Complete { result, .. } => result,
                };
                let mut reference = recorder();
                let ref_res = run_to_completion(
                    SimSession::new(&inst.program, machine.core_config())
                        .recorder(&mut reference)
                        .limits(RunLimits::tick_accurate())
                        .run()
                        .map_err(|e| format!("{ctx} (tick): {e}"))?,
                )?;
                ensure_eq!(res, tick, "{ctx}: result");
                ensure_eq!(ref_res, tick, "{ctx}: tick-accurate observed result");
                ensure_eq!(fast.cpi, reference.cpi, "{ctx}: CPI stack");
                ensure_eq!(fast.metrics, reference.metrics, "{ctx}: metrics");
                let (events, ref_events) = (fast.events(), reference.events());
                if let Some(i) = (0..events.len().max(ref_events.len()))
                    .find(|&i| events.get(i) != ref_events.get(i))
                {
                    return Err(format!(
                        "{ctx}: event {i} differs: {:?} vs {:?}",
                        events.get(i),
                        ref_events.get(i)
                    ));
                }
                ensure_eq!(
                    (fast.total_recorded(), fast.dropped()),
                    (reference.total_recorded(), reference.dropped()),
                    "{ctx}: recorded/dropped"
                );
                let profile = |r: &Recorder| r.attribution().map(|a| a.profile(name).to_json());
                ensure_eq!(profile(&fast), profile(&reference), "{ctx}: attribution profile");
            }
            "faulty" => {
                let mut fc = FaultConfig::none(g.int(1..u64::MAX));
                fc.handler_overrun_rate = 0.2;
                fc.handler_overrun_cycles = 40;
                fc.stale_mhar_rate = 0.1;
                fc.stale_mhar_cycles = 25;
                let plan = FaultPlan::new(fc);
                let ev = run_to_completion(
                    SimSession::new(&inst.program, machine.core_config())
                        .faults(plan)
                        .run()
                        .map_err(|e| format!("{ctx} (faulty): {e}"))?,
                )?;
                let tk = run_to_completion(
                    SimSession::new(&inst.program, machine.core_config())
                        .faults(plan)
                        .limits(RunLimits::tick_accurate())
                        .run()
                        .map_err(|e| format!("{ctx} (faulty tick): {e}"))?,
                )?;
                ensure_eq!(ev, tk, "{ctx}: faulty plan");
            }
            mode => {
                debug_assert_eq!(mode, "stop_at");
                let stop = g.int(1..tick.cycles.max(2));
                let outcome = SimSession::new(&inst.program, machine.core_config())
                    .limits(RunLimits::stop_at(stop))
                    .run()
                    .map_err(|e| format!("{ctx} stop {stop}: {e}"))?;
                let resumed = match outcome {
                    Outcome::Paused(ckpt) => run_to_completion(
                        SimSession::new(&inst.program, machine.core_config())
                            .resume(&ckpt)
                            .map_err(|e| format!("{ctx} resume: {e}"))?,
                    )?,
                    Outcome::Complete { result, .. } => result,
                };
                ensure_eq!(resumed, tick, "{ctx}: stop_at {stop} mid-run");
            }
        }
        Ok(())
    });
}

fn run_to_completion(outcome: Outcome) -> Result<informing_memops::cpu::RunResult, String> {
    match outcome {
        Outcome::Complete { result, .. } => Ok(result),
        Outcome::Paused(c) => Err(format!("unexpected pause at cycle {}", c.cycle())),
    }
}

/// 32 random (workload, scheme, machine) triples — including the 1- and
/// 100-instruction handler bodies and per-reference handlers the fixed
/// matrix above does not cover.
#[test]
fn random_configurations_are_tick_identical() {
    let names: Vec<&'static str> = all().iter().map(|s| s.name).collect();
    Checker::new("fastforward_identity_random").cases(32).run(|g| {
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
        let event = machine
            .run_limited(&inst.program, RunLimits::default())
            .map_err(|e| format!("{name} on {}: {e}", machine.name()))?;
        let tick = machine
            .run_limited(&inst.program, RunLimits::tick_accurate())
            .map_err(|e| format!("{name} on {} (tick): {e}", machine.name()))?;
        ensure_eq!(event, tick, "{name} on {} under {scheme:?}", machine.name());
        Ok(())
    });
}

/// 32 random out-of-order configurations across the three schemes. Every
/// other identity test runs `OooConfig::paper()`; these draw ROB sizes on
/// both sides of the 64-entry limit of the occupancy masks and wakeup lists
/// (65 and 128 keep the full-scan path covered), narrow to wide issue,
/// scarce functional units, checkpoints and write-buffer slots, both trap
/// models and both MSHR modes. Event-driven must equal tick-accurate.
#[test]
fn random_ooo_configurations_are_tick_identical() {
    let names: Vec<&'static str> = all().iter().map(|s| s.name).collect();
    Checker::new("fastforward_ooo_configs").cases(32).run(|g| {
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
        let p = (by_name(name).expect("workload exists").build)(Scale::Test);
        let machine = Machine::OutOfOrder(cfg);
        for (label, scheme) in &schemes() {
            let inst = instrument(&p, scheme).map_err(|e| format!("{name}: {e}"))?;
            let ctx = format!("{name}/{label} under {cfg:?}");
            let event = machine
                .run_limited(&inst.program, RunLimits::default())
                .map_err(|e| format!("{ctx}: {e}"))?;
            let tick = machine
                .run_limited(&inst.program, RunLimits::tick_accurate())
                .map_err(|e| format!("{ctx} (tick): {e}"))?;
            ensure_eq!(event, tick, "{ctx}");
        }
        Ok(())
    });
}

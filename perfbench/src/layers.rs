//! Stand-alone probes of single layers, each driven through the crate's
//! public API from outside: the functional executor, the block cache, the
//! memory hierarchy, the wakeup scheduler, the front end, and the
//! coherence simulator with its trace generator.

use std::time::Instant;

use imo_coherence::sim::simulate_baseline;
use imo_coherence::{MachineParams, Scheme as CohScheme};
use imo_cpu::frontend::{FrontEnd, Resolve};
use imo_cpu::sched::WakeupQueue;
use imo_cpu::OooConfig;
use imo_isa::exec::{Executor, NeverMiss};
use imo_isa::{BlockCache, Program};
use imo_mem::{HierarchyConfig, HitLevel, MemoryHierarchy};
use imo_util::rng::SmallRng;
use imo_workloads::parallel::{all_apps, ParallelTrace, TraceConfig};

use crate::host::median;
use crate::tracer::Tracer;

/// Step budget for one functional run; far above any kernel's length.
const MAX_STEPS: u64 = 200_000_000;

/// Functional-executor throughput over `programs`: `(instructions,
/// median seconds per sweep)` over `reps` sweeps.
pub fn executor(programs: &[&Program], reps: usize, tr: &mut Tracer) -> Result<(u64, f64), String> {
    let mut times = Vec::new();
    let mut instrs = 0;
    for _ in 0..reps {
        let t = Instant::now();
        instrs = tr.span("imo-isa", "Executor::run(NeverMiss) x14", |_| {
            programs.iter().try_fold(0u64, |acc, p| {
                let mut e = Executor::new(p);
                e.run(&mut NeverMiss, MAX_STEPS).map(|n| acc + n).map_err(|e| e.to_string())
            })
        })?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((instrs, median(&times)))
}

/// Median microseconds to build one program's block cache.
pub fn block_build_us(programs: &[Program], reps: usize, tr: &mut Tracer) -> f64 {
    let cfg = OooConfig::paper();
    let mut per_program = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        tr.span("imo-isa", "BlockCache::build x42", |_| {
            for p in programs {
                std::hint::black_box(BlockCache::build(p, |i| cfg.latency(i)));
            }
        });
        per_program.push(t.elapsed().as_secs_f64() * 1e6 / programs.len() as f64);
    }
    median(&per_program)
}

/// A kernel's demand data-reference stream `(addr, is_store)`, recorded
/// once with `Executor::step`.
pub fn data_stream(p: &Program) -> Result<Vec<(u64, bool)>, String> {
    let mut e = Executor::new(p);
    let mut out = Vec::new();
    for _ in 0..MAX_STEPS {
        if e.state().halted() {
            return Ok(out);
        }
        let step = e.step(&mut NeverMiss).map_err(|e| e.to_string())?;
        if let Some(m) = step.mem.filter(|m| !m.is_prefetch) {
            out.push((m.addr, m.is_store));
        }
    }
    Err("data stream exceeded the step budget".to_string())
}

/// Replays every stream through a fresh hierarchy of `cfg`, one reference
/// per cycle, with `probe_data` + `schedule_data`. Returns `(probes, L1
/// misses, median seconds)`.
pub fn mem_replay(
    streams: &[Vec<(u64, bool)>],
    cfg: HierarchyConfig,
    reps: usize,
    name: &str,
    tr: &mut Tracer,
) -> (u64, u64, f64) {
    let mut times = Vec::new();
    let (mut probes, mut misses) = (0, 0);
    for _ in 0..reps {
        let t = Instant::now();
        (probes, misses) = tr.span("imo-mem", name, |_| {
            let (mut probes, mut misses) = (0u64, 0u64);
            for s in streams {
                let mut h = MemoryHierarchy::new(cfg);
                for (cycle, &(addr, is_store)) in s.iter().enumerate() {
                    let p = h.probe_data(addr, is_store);
                    misses += u64::from(p.level != HitLevel::L1);
                    std::hint::black_box(h.schedule_data(p, cycle as u64));
                }
                probes += s.len() as u64;
            }
            (probes, misses)
        });
        times.push(t.elapsed().as_secs_f64());
    }
    (probes, misses, median(&times))
}

/// A seeded push/pop stream on a `WakeupQueue` held at ROB depth (32
/// entries): every push beyond that depth is matched by popping the
/// earliest event. Returns `(operations, seconds)`.
pub fn scheduler(seed: u64, pushes: u64, tr: &mut Tracer) -> (u64, f64) {
    const DEPTH: usize = 32;
    let t = Instant::now();
    let ops = tr.span("imo-cpu", "WakeupQueue push/pop", |_| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut q: WakeupQueue<u64> = WakeupQueue::with_capacity(DEPTH);
        let mut now = 0u64;
        let mut ops = 0u64;
        for i in 0..pushes {
            q.push(now + rng.gen_range(1u64..64), i);
            ops += 1;
            if q.len() >= DEPTH {
                now = q.next_due().unwrap_or(now);
                while let Some(item) = q.pop_due(now) {
                    std::hint::black_box(item);
                    ops += 1;
                }
            }
        }
        ops
    });
    (ops, t.elapsed().as_secs_f64())
}

/// `FrontEnd::fetch` driven alone at width 4 over `programs`: every
/// instruction the front end blocks on resolves in the cycle it was
/// fetched. Returns `(instructions, seconds)`.
pub fn frontend(programs: &[Program], tr: &mut Tracer) -> Result<(u64, f64), String> {
    let cfg = OooConfig::paper();
    let t = Instant::now();
    let n = tr.span("imo-cpu", "FrontEnd::fetch x42", |_| {
        let mut total = 0u64;
        let mut out = Vec::with_capacity(8);
        for p in programs {
            let mut fe =
                FrontEnd::new(p, cfg.predictor_entries, cfg.trap_model, cfg.hier.l1i.line_bytes);
            let mut hier = MemoryHierarchy::new(cfg.hier);
            let mut cycle = 0u64;
            while !fe.halted() {
                fe.fetch(cycle, cfg.issue_width, &mut hier, &mut out, None)
                    .map_err(|e| e.to_string())?;
                for f in out.drain(..) {
                    if f.resolve != Resolve::None {
                        fe.resolve(f.seq, cycle, 0);
                    }
                    total += 1;
                }
                cycle = (cycle + 1).max(fe.resume_at());
                if total > MAX_STEPS * 2 {
                    return Err("front end exceeded the step budget".to_string());
                }
            }
        }
        Ok(total)
    })?;
    Ok((n, t.elapsed().as_secs_f64()))
}

/// The seeded 16-processor traces of the five parallel applications.
pub fn traces(seed: u64, tr: &mut Tracer) -> Vec<ParallelTrace> {
    tr.span("imo-workloads", "parallel::all_apps", |_| {
        all_apps(&TraceConfig { procs: 16, seed, ..TraceConfig::default() })
    })
}

/// `simulate_baseline` on every trace under the three access-control
/// schemes. Returns `(references simulated, seconds)`.
pub fn coherence(traces: &[ParallelTrace], tr: &mut Tracer) -> (u64, f64) {
    let params = MachineParams::table2();
    let t = Instant::now();
    let ops = tr.span("imo-coherence", "simulate_baseline x15", |_| {
        let mut ops = 0;
        for app in traces {
            for scheme in CohScheme::all() {
                ops += simulate_baseline(app, scheme, &params).ops;
            }
        }
        ops
    });
    (ops, t.elapsed().as_secs_f64())
}

//! The out-of-order-issue processor model (MIPS-R10000-like, §3.2).
//!
//! A renaming, reorder-buffer machine:
//!
//! * **Dispatch** — up to `issue_width` instructions per cycle enter the
//!   32-entry reorder buffer. Conditional branches (and, under
//!   [`TrapModel::Branch`], informing memory operations) each hold one of the
//!   `max_checkpoints` rename shadow checkpoints while unresolved; dispatch
//!   stalls when checkpoints are exhausted — this is the §3.2 "3× shadow
//!   state" pressure, measurable by varying
//!   [`OooConfig::max_checkpoints`].
//! * **Issue** — oldest-ready-first within per-class functional-unit limits
//!   (2 INT, 2 FP, 1 branch, 1 memory). True (RAW) dependences only, as
//!   renaming removes the false ones. Memory operations contend for cache
//!   banks, MSHRs and main-memory bandwidth in `imo-mem`.
//! * **Graduate** — up to `issue_width` completed instructions per cycle, in
//!   order. Stores probe/write at graduation through a finite write buffer.
//!   Graduation-slot accounting follows the paper's Figure 2 methodology.
//! * **Informing traps** — under [`TrapModel::Branch`] the handler is
//!   fetched as soon as the load's miss is detected at execute; under
//!   [`TrapModel::Exception`] fetch waits until the informing operation
//!   reaches the head of the reorder buffer.

use std::collections::VecDeque;

use imo_isa::{BlockCache, Instr, InstrMeta, Program, NO_REG};
use imo_mem::{HitLevel, MemoryHierarchy, MshrFile, MshrId, ProbeResult};
use imo_obs::{CpiCategory, CpiStack, EventKind, Recorder};
use imo_util::json::Json;
use imo_util::snapshot::{self, Snapshot as _, SnapshotError};

use crate::ckpt;
use crate::config::{OooConfig, TrapModel};
use crate::frontend::{FastQueue, FetchSink, Fetched, FrontEnd, Resolve};
use crate::result::{MemCounters, RunLimits, RunOutcome, RunResult, SimError, SlotBreakdown};
use crate::sched::{Horizon, ReleasePool, WakeupQueue};
use crate::trace::InstrTrace;

/// Entry state; the discriminant is its checkpoint encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EState {
    Waiting = 0,
    Issued = 1,
    Complete = 2,
}

/// An empty dependence slot.
const NO_DEP: u64 = u64::MAX;
/// Marks a dependence satisfied by the producer's cache outcome (the
/// condition-code consumers) rather than by its value.
const OUTCOME_DEP: u64 = 1 << 63;

/// Entry flag bits: the entry holds a shadow checkpoint; it took an
/// informing trap; it is a data reference that missed the primary cache.
const HOLDS_CKPT: u8 = 1 << 0;
const TRAPPED: u8 = 1 << 1;
const L1_MISS: u8 = 1 << 2;

fn entry_flags(ckpt: bool, f: &Fetched, meta: &InstrMeta) -> u8 {
    let miss =
        meta.flags & InstrMeta::DATA_REF != 0 && f.probe.is_some_and(|p| p.level.is_l1_miss());
    (u8::from(ckpt) * HOLDS_CKPT)
        | (u8::from(f.informing_trap) * TRAPPED)
        | (u8::from(miss) * L1_MISS)
}

/// The part of a reorder-buffer entry that issue, completion, graduation
/// and the wakeup fold read, in one cache line: the instruction's
/// pre-decoded [`InstrMeta`] plus its timing state. `deps` holds producer
/// sequence numbers — value dependences in source order, then at most one
/// [`OUTCOME_DEP`] — packed ahead of [`NO_DEP`] padding. The entry's own
/// sequence number is implied by its ring slot.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Hot {
    fetch_cycle: u64,
    complete_cycle: u64,
    /// Cycle the hit/miss outcome (memory) or direction (branch) is known.
    outcome_cycle: u64,
    deps: [u64; 3],
    meta: InstrMeta,
    state: EState,
    flags: u8,
    resolve: Resolve,
}

const _: () = assert!(std::mem::size_of::<Hot>() <= 64);

/// The part only memory issue, store graduation, traces, observation and
/// checkpoints read.
#[derive(Debug, Clone, Copy)]
struct Cold {
    pc: u64,
    dispatch_cycle: u64,
    issue_cycle: u64,
    probe: Option<ProbeResult>,
    mshr: Option<MshrId>,
}

impl Hot {
    /// A freshly dispatched entry: no flags or dependences yet.
    fn dispatched(fetch_cycle: u64, meta: InstrMeta) -> Hot {
        let (complete_cycle, outcome_cycle, deps) = (u64::MAX, u64::MAX, [NO_DEP; 3]);
        let (state, flags, resolve) = (EState::Waiting, 0, Resolve::None);
        Hot { fetch_cycle, complete_cycle, outcome_cycle, deps, meta, state, flags, resolve }
    }

    /// The condition-code producer (the outcome dependence), if any.
    fn cc_dep(&self) -> Option<u64> {
        self.deps.iter().find(|&&d| d != NO_DEP && d & OUTCOME_DEP != 0).map(|d| d & !OUTCOME_DEP)
    }
}

impl Cold {
    fn dispatched(pc: u64, now: u64) -> Cold {
        Cold { pc, dispatch_cycle: now, issue_cycle: u64::MAX, probe: None, mshr: None }
    }
}

/// The reorder buffer: a ring indexed by sequence number, each entry split
/// across a [`Hot`] and a [`Cold`] array. Entry `seq` lives in slot
/// `seq & mask` of both; `base` is the head's sequence number and `len` the
/// occupancy, so a producer has graduated iff its sequence number is below
/// `base`. Graduation reads the head in place and dispatch writes the tail
/// slots: no entry is ever moved (DESIGN.md §15.5).
struct Rob {
    hot: Vec<Hot>,
    cold: Vec<Cold>,
    base: u64,
    len: usize,
    mask: u64,
}

impl Rob {
    /// An empty ring whose next entry is `base`, of at least 64 slots: for
    /// ROBs that fit a word a slot is also the `issue_hints` index.
    fn new(entries: u32, base: u64) -> Rob {
        let cap = (entries as usize).next_power_of_two().max(64);
        let meta = InstrMeta { src1: 0, src2: 0, dest: 0, fu: 0, kind: 0, flags: 0, lat: 0 };
        let (hot, cold) = (vec![Hot::dispatched(0, meta); cap], vec![Cold::dispatched(0, 0); cap]);
        Rob { hot, cold, base, len: 0, mask: cap as u64 - 1 }
    }

    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// The slot of the `i`-th oldest entry.
    fn at(&self, i: usize) -> usize {
        self.slot(self.base + i as u64)
    }

    /// Whether the head is an incomplete data reference that missed the
    /// primary cache — what a stall behind it is charged to.
    fn head_misses(&self) -> bool {
        let e = &self.hot[self.slot(self.base)];
        self.len > 0 && e.flags & L1_MISS != 0 && e.state != EState::Complete
    }
}

/// Encodes an entry in the wire format of the fat-entry ROB it replaced:
/// `instr`, `cc_dep` and `is_cond_branch` are re-derived from the program
/// text, the outcome dependence and the metadata.
fn entry_json(program: &Program, seq: u64, e: &Hot, c: &Cold) -> Json {
    let deps = e.deps.iter().filter(|&&d| d != NO_DEP).map(|&d| {
        Json::obj([
            ("kind", snapshot::u64_json(d >> 63)),
            ("seq", snapshot::u64_json(d & !OUTCOME_DEP)),
        ])
    });
    let f = Fetched {
        seq,
        pc: c.pc,
        instr: program.fetch(c.pc).expect("ROB entries hold text addresses"),
        fetch_cycle: e.fetch_cycle,
        probe: c.probe,
        informing_trap: e.flags & TRAPPED != 0,
        resolve: e.resolve,
        cc_dep: e.cc_dep(),
        is_cond_branch: e.meta.flags & InstrMeta::COND_BRANCH != 0,
    };
    Json::obj([
        ("f", ckpt::fetched_json(&f)),
        ("state", snapshot::u64_json(e.state as u64)),
        ("deps", Json::arr(deps)),
        ("complete", snapshot::u64_json(e.complete_cycle)),
        ("outcome", snapshot::u64_json(e.outcome_cycle)),
        ("ckpt", Json::Bool(e.flags & HOLDS_CKPT != 0)),
        ("mshr", snapshot::opt_u64_json(c.mshr.map(|id| id.raw() as u64))),
        ("dispatch", snapshot::u64_json(c.dispatch_cycle)),
        ("issue", snapshot::u64_json(c.issue_cycle)),
    ])
}

/// Decodes an [`entry_json`] record into its sequence number and halves.
/// Dependences must name older entries, so the ring never reads a slot
/// ahead of its consumer.
fn decode_entry(
    program: &Program,
    cache: &BlockCache,
    cfg: &OooConfig,
    j: &Json,
) -> Result<(u64, Hot, Cold), SnapshotError> {
    let f = ckpt::decode_fetched(program, snapshot::field(j, "f")?)?;
    let deps_wire = snapshot::field(j, "deps")?.as_arr().ok_or(SnapshotError::Bad("deps"))?;
    if deps_wire.len() > 3 {
        return Err(SnapshotError::Bad("deps"));
    }
    let mut deps = [NO_DEP; 3];
    for (slot, d) in deps.iter_mut().zip(deps_wire) {
        let seq = snapshot::get_u64(d, "seq")?;
        *slot = match snapshot::get_u64(d, "kind")? {
            0 if seq < f.seq.min(OUTCOME_DEP) => seq,
            1 if seq < f.seq.min(OUTCOME_DEP) => seq | OUTCOME_DEP,
            _ => return Err(SnapshotError::Bad("deps")),
        };
    }
    let mshr = match snapshot::get_opt_u64(j, "mshr")? {
        Some(raw) if raw < u64::from(cfg.hier.mshrs) => Some(MshrId::from_raw(raw as usize)),
        Some(_) => return Err(SnapshotError::Bad("mshr")),
        None => None,
    };
    let ckpt = match snapshot::field(j, "ckpt")? {
        Json::Bool(b) => *b,
        _ => return Err(SnapshotError::Bad("ckpt")),
    };
    let meta = *cache.meta_at(f.pc).ok_or(SnapshotError::Bad("pc"))?;
    let hot = Hot {
        fetch_cycle: f.fetch_cycle,
        complete_cycle: snapshot::get_u64(j, "complete")?,
        outcome_cycle: snapshot::get_u64(j, "outcome")?,
        deps,
        meta,
        state: match snapshot::get_u64(j, "state")? {
            0 => EState::Waiting,
            1 => EState::Issued,
            2 => EState::Complete,
            _ => return Err(SnapshotError::Bad("state")),
        },
        flags: entry_flags(ckpt, &f, &meta),
        resolve: f.resolve,
    };
    let cold = Cold {
        pc: f.pc,
        dispatch_cycle: snapshot::get_u64(j, "dispatch")?,
        issue_cycle: snapshot::get_u64(j, "issue")?,
        probe: f.probe,
        mshr,
    };
    // The re-derived fields must round-trip, or re-encoding would differ.
    let cond_branch = hot.meta.flags & InstrMeta::COND_BRANCH != 0;
    if hot.cc_dep() != f.cc_dep || cond_branch != f.is_cond_branch {
        return Err(SnapshotError::Bad("f"));
    }
    Ok((f.seq, hot, cold))
}

/// Simulates `program` to completion on the out-of-order model.
///
/// # Errors
///
/// Returns [`SimError`] if the configuration is malformed, the program
/// faults, exceeds `limits`, or the model detects a deadlock (which
/// indicates a configuration with zero units or a model bug).
///
/// # Example
///
/// See the crate-level example.
pub fn simulate(
    program: &Program,
    cfg: &OooConfig,
    limits: RunLimits,
) -> Result<RunResult, SimError> {
    simulate_full(program, cfg, limits).map(|(r, _)| r)
}

/// Like [`simulate`], but also returns the final architectural state
/// (registers and data memory) so that tools — e.g. miss-count profilers
/// whose handlers accumulate into memory — can read their results.
///
/// # Errors
///
/// As for [`simulate`].
pub fn simulate_full(
    program: &Program,
    cfg: &OooConfig,
    limits: RunLimits,
) -> Result<(RunResult, imo_isa::exec::ArchState), SimError> {
    run(program, cfg, limits, None, None, None, None)?.expect_done()
}

/// Like [`simulate_full`], but streams typed events into `rec` (gated by its
/// category mask), accumulates the run's named counters and latency
/// histograms into `rec.metrics`, and attributes every cycle into
/// `rec.cpi` — whose total is guaranteed to equal `RunResult::cycles`
/// exactly.
///
/// The recorder is strictly passive: the returned `RunResult` is
/// bit-identical to [`simulate`]'s, whatever the mask.
///
/// # Errors
///
/// As for [`simulate`].
pub fn simulate_observed(
    program: &Program,
    cfg: &OooConfig,
    limits: RunLimits,
    rec: &mut Recorder,
) -> Result<(RunResult, imo_isa::exec::ArchState), SimError> {
    run(program, cfg, limits, None, None, Some(rec), None)?.expect_done()
}

/// Like [`simulate`], but drives the run under a [`imo_faults::FaultPlan`]:
/// informing-trap dispatches draw handler faults (overrun / stale MHAR) from
/// the plan's handler stream, paying their penalty on the trap redirect, and
/// after `degrade_after` consecutive faulty dispatches the machine suppresses
/// informing traps for the rest of the run (`RunResult::degraded`).
///
/// A plan with all-zero handler rates is cycle-identical to [`simulate`].
///
/// # Errors
///
/// As for [`simulate`].
pub fn simulate_faulty(
    program: &Program,
    cfg: &OooConfig,
    limits: RunLimits,
    plan: &imo_faults::FaultPlan,
) -> Result<RunResult, SimError> {
    run(program, cfg, limits, None, Some(plan), None, None)?.expect_done().map(|(r, _)| r)
}

/// Like [`simulate`], but records a per-instruction pipeline trace
/// ([`InstrTrace`]) for every graduated instruction — see
/// [`crate::trace`] for rendering and invariant checking.
///
/// # Errors
///
/// As for [`simulate`].
pub fn simulate_traced(
    program: &Program,
    cfg: &OooConfig,
    limits: RunLimits,
) -> Result<(RunResult, Vec<InstrTrace>), SimError> {
    let mut traces = Vec::new();
    let (result, _) =
        run(program, cfg, limits, Some(&mut traces), None, None, None)?.expect_done()?;
    Ok((result, traces))
}

/// Encodes every `run`-loop local at a cycle boundary (the checkpoint body).
#[allow(clippy::too_many_arguments)]
fn encode_loop(
    program: &Program,
    hier: &MemoryHierarchy,
    fe: &FrontEnd,
    mshrs: &MshrFile,
    rob: &Rob,
    fetch_q: &VecDeque<Fetched>,
    last_writer: &[Option<u64>; 64],
    resolve_q: &WakeupQueue<u64>,
    ckpt_release_q: &WakeupQueue<()>,
    fills: &WakeupQueue<MshrId>,
    checkpoints_in_use: u32,
    wb_release: &ReleasePool,
    now: u64,
    graduated_total: u64,
    slots: SlotBreakdown,
    cpi: &CpiStack,
) -> Json {
    let entries = (0..rob.len).map(|i| {
        let s = rob.at(i);
        entry_json(program, rob.base + i as u64, &rob.hot[s], &rob.cold[s])
    });
    Json::obj([
        ("hier", hier.to_wire()),
        ("fe", fe.encode()),
        ("mshrs", mshrs.to_wire()),
        ("rob", Json::arr(entries)),
        ("rob_base", snapshot::u64_json(rob.base)),
        ("fetch_q", Json::arr(fetch_q.iter().map(ckpt::fetched_json))),
        ("last_writer", Json::arr(last_writer.iter().map(|w| snapshot::opt_u64_json(*w)))),
        ("resolve_q", ckpt::wakeup_json(resolve_q, |&s| s)),
        ("ckpt_release_q", ckpt::wakeup_json(ckpt_release_q, |()| 0)),
        ("fills", ckpt::wakeup_json(fills, |id| id.raw() as u64)),
        ("checkpoints_in_use", snapshot::u64_json(u64::from(checkpoints_in_use))),
        ("wb_release", snapshot::u64s_json(&wb_release.releases())),
        ("now", snapshot::u64_json(now)),
        ("graduated_total", snapshot::u64_json(graduated_total)),
        ("slots", ckpt::slots_json(slots)),
        ("cpi", ckpt::cpi_json(cpi)),
    ])
}

pub(crate) fn run(
    program: &Program,
    cfg: &OooConfig,
    limits: RunLimits,
    trace: Option<&mut Vec<InstrTrace>>,
    faults: Option<&imo_faults::FaultPlan>,
    obs: Option<&mut Recorder>,
    resume: Option<&Json>,
) -> Result<RunOutcome, SimError> {
    cfg.validate()?;
    // Monomorphized on "observed or not", like the in-order core: the
    // unobserved instantiation compiles every recorder hook, trace push and
    // the CPI classification out of the loop.
    if obs.is_some() || trace.is_some() {
        run_loop::<true>(program, cfg, limits, trace, faults, obs, resume)
    } else {
        run_loop::<false>(program, cfg, limits, trace, faults, obs, resume)
    }
}

/// The core loop behind [`run`]; `OBSERVED == obs.is_some() || trace.is_some()`.
#[allow(clippy::too_many_lines)]
fn run_loop<const OBSERVED: bool>(
    program: &Program,
    cfg: &OooConfig,
    limits: RunLimits,
    trace: Option<&mut Vec<InstrTrace>>,
    faults: Option<&imo_faults::FaultPlan>,
    obs: Option<&mut Recorder>,
    resume: Option<&Json>,
) -> Result<RunOutcome, SimError> {
    // Constant `None`s in the unobserved instantiation: every hook folds away.
    let (mut trace, mut obs) = (trace.filter(|_| OBSERVED), obs.filter(|_| OBSERVED));
    let handler_stream = faults
        .filter(|plan| plan.config().has_handler())
        .map(|plan| (plan.handlers(), plan.config().degrade_after));
    // The pre-decoded metadata is the core's only instruction decode, in
    // every mode: dispatch, issue and graduation read `InstrMeta` flags.
    let cache = BlockCache::build(program, |i| cfg.latency(i));

    let mut hier;
    let mut fe;
    let mut mshrs;
    let mut rob: Rob;
    let mut fq: FastQueue;
    let mut last_writer: [Option<u64>; 64];
    // Future-event queues (deterministic min-heaps; see `crate::sched`).
    let mut resolve_q: WakeupQueue<u64>; // seq due at cycle
    let mut ckpt_release_q: WakeupQueue<()>;
    let mut fills: WakeupQueue<MshrId>;
    let mut checkpoints_in_use: u32;
    let mut wb_release;
    let mut now: u64;
    let mut graduated_total: u64;
    let mut slots;
    let mut cpi;
    if let Some(body) = resume {
        hier = MemoryHierarchy::from_wire(snapshot::field(body, "hier")?)?;
        fe = FrontEnd::restore(
            program,
            cfg.predictor_entries,
            cfg.trap_model,
            cfg.hier.l1i.line_bytes,
            handler_stream,
            snapshot::field(body, "fe")?,
        )?;
        mshrs = MshrFile::from_wire(snapshot::field(body, "mshrs")?)?;
        // Sequence numbers run on from `rob_base` through the ROB and the
        // fetch queue to the front end's next one, and the ROB fits its size,
        // or entries would share ring slots. The top bit is `OUTCOME_DEP`'s.
        let base = snapshot::get_u64(body, "rob_base")?;
        let entries = snapshot::get_arr(body, "rob", |j| decode_entry(program, &cache, cfg, j))?;
        let rob_end = ckpt::run_end(entries.iter().map(|e| e.0), base)
            .filter(|_| base < OUTCOME_DEP && entries.len() <= cfg.rob_entries as usize)
            .ok_or(SnapshotError::Bad("rob"))?;
        rob = Rob::new(cfg.rob_entries, base);
        for (_, hot, cold) in entries {
            let s = rob.at(rob.len);
            (rob.hot[s], rob.cold[s], rob.len) = (hot, cold, rob.len + 1);
        }
        let fetch_q = snapshot::get_arr(body, "fetch_q", |j| ckpt::decode_fetched(program, j))?;
        if ckpt::run_end(fetch_q.iter().map(|f| f.seq), rob_end) != Some(fe.next_seq()) {
            return Err(SnapshotError::Bad("fetch_q").into());
        }
        fq = FastQueue::from_restored(fetch_q.into());
        last_writer = snapshot::get_arr(body, "last_writer", |j| match j {
            Json::Null => Ok(None),
            Json::Str(s) => {
                u64::from_str_radix(s, 16).map(Some).map_err(|_| SnapshotError::Bad("last_writer"))
            }
            _ => Err(SnapshotError::Bad("last_writer")),
        })?
        .try_into()
        .ok()
        .filter(|lw: &[Option<u64>; 64]| lw.iter().flatten().all(|&w| w < rob_end))
        .ok_or(SnapshotError::Bad("last_writer"))?;
        resolve_q = ckpt::decode_wakeup(snapshot::field(body, "resolve_q")?, "resolve_q", Ok)?;
        ckpt_release_q = ckpt::decode_wakeup(
            snapshot::field(body, "ckpt_release_q")?,
            "ckpt_release_q",
            |_| Ok(()),
        )?;
        fills = ckpt::decode_wakeup(snapshot::field(body, "fills")?, "fills", |raw| {
            if raw < u64::from(cfg.hier.mshrs) {
                Ok(MshrId::from_raw(raw as usize))
            } else {
                Err(SnapshotError::Bad("fills"))
            }
        })?;
        checkpoints_in_use = snapshot::get_u32(body, "checkpoints_in_use")?;
        let releases = snapshot::get_u64s(body, "wb_release")?;
        if releases.len() != cfg.write_buffer as usize {
            return Err(SnapshotError::Bad("wb_release").into());
        }
        wb_release = ReleasePool::restore(releases);
        now = snapshot::get_u64(body, "now")?;
        graduated_total = snapshot::get_u64(body, "graduated_total")?;
        slots = ckpt::decode_slots(snapshot::field(body, "slots")?)?;
        cpi = ckpt::decode_cpi(snapshot::field(body, "cpi")?)?;
    } else {
        hier = MemoryHierarchy::new(cfg.hier);
        fe = FrontEnd::new(program, cfg.predictor_entries, cfg.trap_model, cfg.hier.l1i.line_bytes);
        if let Some((stream, degrade)) = handler_stream {
            fe.set_handler_faults(stream, degrade);
        }
        mshrs = MshrFile::new(cfg.hier.mshrs, cfg.mshr_mode);
        rob = Rob::new(cfg.rob_entries, 0);
        fq = FastQueue::from_restored(VecDeque::with_capacity(2 * cfg.issue_width as usize));
        last_writer = [None; 64];
        // Structural bounds: at most one pending resolution / shadow
        // checkpoint per ROB entry, one fill per MSHR.
        resolve_q = WakeupQueue::with_capacity(cfg.rob_entries as usize);
        ckpt_release_q = WakeupQueue::with_capacity(cfg.rob_entries as usize);
        fills = WakeupQueue::with_capacity(cfg.hier.mshrs as usize);
        checkpoints_in_use = 0;
        wb_release = ReleasePool::new(cfg.write_buffer as usize);
        now = 0;
        graduated_total = 0;
        slots = SlotBreakdown::default();
        cpi = CpiStack::default();
    }
    let mut fetch_buf: Vec<Fetched> = Vec::with_capacity(cfg.issue_width as usize);

    // Programs without condition-code branches never create outcome
    // dependences, so their wakeup horizon can skip the per-entry
    // outcome-cycle candidates (the common case on the figure 2/3 trap
    // schemes).
    let has_cc_consumers =
        cache.meta().iter().any(|m| m.flags & (InstrMeta::BMISS | InstrMeta::BMEMMISS) != 0);
    // Conditional branches and `bmiss`es hold a shadow checkpoint while
    // unresolved, and so do informing memory operations under the branch
    // trap model.
    let ckpt_flags = InstrMeta::COND_BRANCH
        | InstrMeta::BMISS
        | InstrMeta::BMEMMISS
        | if cfg.trap_model == TrapModel::Branch { InstrMeta::INFORMING } else { 0 };
    // Indexed by `InstrMeta::fu`: Int, Fp, Branch, Mem.
    let fu_cap = [cfg.int_units, cfg.fp_units, cfg.branch_units, cfg.mem_units];

    let width = cfg.issue_width as u64;
    let mut done = false;

    // Fast mode: untraced, event-driven runs without a pipeline-event
    // recorder fetch pre-decoded plain runs into the split queue and may use
    // the dense-streak liveness shortcut in the advance phase (see
    // `RunLimits::allows_fast_path`). Traced, pipeline-observed and
    // tick-accurate runs are the unchanged bit-identity reference.
    let fast = trace.is_none() && limits.allows_fast_path(obs.as_deref());
    if fast {
        fe.attach_blocks(&cache);
    }
    // Dense-streak shortcut state: after `DENSE_STREAK` consecutive
    // no-progress horizon folds that each landed on the very next cycle, the
    // fold is provably wasted work while the machine stays dense — skip it
    // and tick, re-validating with a full fold every `DENSE_WINDOW` ticks.
    const DENSE_STREAK: u32 = 4;
    const DENSE_WINDOW: u32 = 32;
    let mut dense_streak: u32 = 0;
    let mut dense_ticks: u32 = 0;

    // ROB occupancy masks (fast mode, ROBs that fit a word): bit `i` of
    // `waiting_mask`/`issued_mask` set ⇔ the `i`-th oldest entry is
    // Waiting/Issued. The complete and issue stages then visit only the
    // entries that can act, instead of scanning the whole ROB every cycle.
    // Masks shift as the head graduates and are rebuilt from the decoded ROB
    // on resume.
    let masks_on = fast && cfg.rob_entries <= 64;
    let mut waiting_mask: u64 = 0;
    let mut issued_mask: u64 = 0;
    for i in (0..rob.len).filter(|_| masks_on) {
        let state = rob.hot[rob.at(i)].state;
        waiting_mask |= u64::from(state == EState::Waiting) << i;
        issued_mask |= u64::from(state == EState::Issued) << i;
    }
    // Issue-stall hints (masks on): slot `seq & 63` — the entry's ring slot —
    // holds a provable lower bound on the cycle at which that entry could
    // first pass the issue checks, so the issue stage skips its dependency
    // walk until then. A consumer whose walk meets a still-`Waiting`
    // producer parks: its hint becomes `u64::MAX` and its bit is set in that
    // producer's `waiters` slot, and the producer's issue lowers the hints
    // of everyone parked on it (DESIGN.md §15.5). Dispatch resets both
    // slots. All-zero (recheck immediately, nobody parked) is always safe,
    // which is why neither array is checkpointed: a resumed run parks its
    // consumers again.
    let mut issue_hints = [0u64; 64];
    let mut waiters = [0u64; 64];

    // CPI-stack classification for a cycle that graduates nothing. The trap
    // check precedes the memory checks so the handler-redirect bubbles land
    // in `Handler` (the paper's informing overhead) even when the trapping
    // load is also the miss-blocked ROB head.
    let classify = |rob: &Rob, fe: &FrontEnd| -> CpiCategory {
        if fe.blocked_on_trap() {
            return CpiCategory::Handler;
        }
        match rob.cold[rob.slot(rob.base)].probe.map(|p| p.level) {
            _ if !rob.head_misses() => CpiCategory::IssueStall,
            Some(HitLevel::L2) => CpiCategory::L1Miss,
            _ => CpiCategory::L2Miss,
        }
    };

    while !done {
        // Checkpoint boundary: pause before this cycle mutates anything, so
        // a resumed run re-enters the loop with bit-identical state.
        if limits.stop_at.is_some_and(|stop| now >= stop) {
            crate::speed::flush(fe.stats());
            return Ok(RunOutcome::Paused {
                cycle: now,
                body: encode_loop(
                    program,
                    &hier,
                    &fe,
                    &mshrs,
                    &rob,
                    &fq.materialize(program.instrs()),
                    &last_writer,
                    &resolve_q,
                    &ckpt_release_q,
                    &fills,
                    checkpoints_in_use,
                    &wb_release,
                    now,
                    graduated_total,
                    slots,
                    &cpi,
                ),
            });
        }

        let mut progress = false;

        // ---- 1. MSHR fills due this cycle ----
        if fills.next_due().is_some_and(|t| t <= now) {
            while let Some((_, id)) = fills.pop_due(now) {
                mshrs.note_fill(id);
            }
            mshrs.reap();
            progress = true;
        }

        // ---- 2. Graduate (the head, in place) ----
        let mut g: u64 = 0;
        while g < width && rob.len > 0 {
            let (seq, h) = (rob.base, rob.slot(rob.base));
            let head = &rob.hot[h];
            if head.state != EState::Complete {
                break;
            }
            // Stores drain through the write buffer at graduation. Any free
            // slot is as good as any other, so the pool hands out the
            // earliest-released one (see `ReleasePool`).
            if head.meta.kind == InstrMeta::KIND_STORE {
                if !wb_release.has_free(now) {
                    break; // write buffer full: stall graduation
                }
                let probe = rob.cold[h].probe.expect("stores probe the cache");
                let t = hier.schedule_data(probe, now);
                wb_release.acquire_until(now, t.complete);
            }
            rob.base += 1;
            rob.len -= 1;
            // A graduating head is Complete, so its mask bits are clear and
            // the shift drops exactly its slot. The slot itself stays intact
            // until a later dispatch reuses it.
            waiting_mask >>= 1;
            issued_mask >>= 1;
            let (e, c) = (&rob.hot[h], &rob.cold[h]);
            if let Some(tr) = trace.as_deref_mut() {
                tr.push(InstrTrace {
                    seq,
                    pc: c.pc,
                    instr: program.fetch(c.pc).expect("ROB entries hold text addresses"),
                    fetch: e.fetch_cycle,
                    dispatch: c.dispatch_cycle,
                    issue: c.issue_cycle,
                    complete: e.complete_cycle,
                    graduate: now,
                });
            }
            if let Some(id) = c.mshr {
                mshrs.graduate(id);
            }
            if let Some(rec) = obs.as_deref_mut() {
                rec.record(now, EventKind::Graduate { seq });
                if program.fetch(c.pc) == Some(Instr::JumpMhrr) {
                    rec.record(now, EventKind::TrapReturn { seq });
                }
                if e.meta.kind == InstrMeta::KIND_LOAD && c.issue_cycle != u64::MAX {
                    rec.metrics
                        .observe("cpu.load_to_use", e.complete_cycle.saturating_sub(c.issue_cycle));
                }
                if e.flags & TRAPPED != 0 {
                    let resolved =
                        if e.resolve == Resolve::AtGraduate { now } else { e.outcome_cycle };
                    rec.metrics
                        .observe("cpu.trap_redirect", resolved.saturating_sub(e.fetch_cycle));
                }
            }
            if e.resolve == Resolve::AtGraduate {
                fe.resolve(seq, now, cfg.redirect_penalty);
            }
            if e.meta.flags & InstrMeta::HALT != 0 {
                done = true;
            }
            graduated_total += 1;
            g += 1;
            progress = true;
            if done {
                break;
            }
        }
        slots.busy += g;
        if g < width && !done {
            let lost = width - g;
            if rob.head_misses() {
                slots.cache_stall += lost;
            } else {
                slots.other_stall += lost;
            }
        }
        // Exactly one CPI-stack cycle per loop iteration: this point runs
        // before every `break`, and the fast-forward path below attributes
        // the cycles it skips, so the stack total always equals `cycles`.
        if obs.is_some() {
            if g > 0 {
                cpi.add(CpiCategory::Base, 1);
            } else {
                cpi.add(classify(&rob, &fe), 1);
            }
        }

        if done {
            break;
        }

        // ---- 3. Complete ----
        if masks_on {
            let mut m = issued_mask;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                let s = rob.at(i);
                let e = &mut rob.hot[s];
                if e.complete_cycle <= now {
                    e.state = EState::Complete;
                    issued_mask &= !(1u64 << i);
                    progress = true;
                }
            }
        } else {
            for i in 0..rob.len {
                let s = rob.at(i);
                let e = &mut rob.hot[s];
                if e.state == EState::Issued && e.complete_cycle <= now {
                    e.state = EState::Complete;
                    progress = true;
                }
            }
        }

        // ---- 4. Checkpoint releases ----
        while ckpt_release_q.pop_due(now).is_some() {
            checkpoints_in_use = checkpoints_in_use.saturating_sub(1);
            progress = true;
        }

        // ---- 5. Front-end resolutions due ----
        while let Some((t, seq)) = resolve_q.pop_due(now) {
            fe.resolve(seq, t, cfg.redirect_penalty);
            progress = true;
        }

        // ---- 6. Issue (oldest-ready-first within FU limits) ----
        let mut fu_used = [0u32; 4];
        // With masks on, visit only Waiting entries (ascending age, same
        // order as the full scan); otherwise walk the whole ROB.
        let mut wscan = waiting_mask;
        let mut iscan = 0usize;
        loop {
            let i = if masks_on {
                if wscan == 0 {
                    break;
                }
                let i = wscan.trailing_zeros() as usize;
                wscan &= wscan - 1;
                if issue_hints[rob.at(i)] > now {
                    continue; // provably cannot issue yet: skip the dep walk
                }
                i
            } else {
                if iscan >= rob.len {
                    break;
                }
                iscan += 1;
                iscan - 1
            };
            let (seq, s) = (rob.base + i as u64, rob.at(i));
            let e = &rob.hot[s];
            // Structural hazards clear next cycle: no useful bound, and no
            // need to walk the dependences.
            let fu = usize::from(e.meta.fu);
            if e.state != EState::Waiting || fu_used[fu] >= fu_cap[fu] {
                continue;
            }
            // The earliest cycle the entry can pass its timing checks. A
            // dependence is ready once its producer has graduated (its
            // sequence number is below the head's), or — value — completed
            // by `now`, or — outcome — left `Waiting` with its
            // `outcome_cycle` due; each arm below is a provable lower bound
            // on that, so a future bound is a pure filter and skipping the
            // walk before it is exact.
            //
            // * A `Waiting` producer cannot ready a consumer before it
            //   issues (issuing yields completion/outcome cycles strictly in
            //   the future, and graduation requires completion first): the
            //   consumer parks on it.
            // * An `Issued` producer's `complete_cycle`/`outcome_cycle` are
            //   fixed at issue. Graduation — which also readies outcome
            //   consumers — cannot precede `complete_cycle + 1`.
            // * A `Complete` producer may still leave the ROB next cycle,
            //   readying an outcome consumer before `outcome_cycle`, so only
            //   `now + 1` is provable there.
            let mut bound = e.fetch_cycle + cfg.frontend_depth;
            for &d in &e.deps {
                if d == NO_DEP {
                    break;
                }
                let (p_seq, outcome) = (d & !OUTCOME_DEP, d & OUTCOME_DEP != 0);
                if p_seq < rob.base {
                    continue; // graduated
                }
                let p = &rob.hot[rob.slot(p_seq)];
                bound = bound.max(match p.state {
                    EState::Waiting => {
                        if masks_on {
                            waiters[(p_seq & 63) as usize] |= 1 << s;
                        }
                        u64::MAX
                    }
                    EState::Issued if outcome => p.outcome_cycle.min(p.complete_cycle + 1),
                    EState::Issued => p.complete_cycle,
                    EState::Complete if outcome && p.outcome_cycle > now => {
                        p.outcome_cycle.min(now + 1)
                    }
                    EState::Complete => 0,
                });
                if bound == u64::MAX {
                    break;
                }
            }
            if bound > now {
                if masks_on {
                    issue_hints[s] = bound;
                }
                continue;
            }
            fu_used[fu] += 1;
            progress = true;
            if masks_on {
                waiting_mask &= !(1u64 << i);
                issued_mask |= 1u64 << i;
            }

            let (complete, outcome, alloc_mshr) = match e.meta.kind {
                InstrMeta::KIND_LOAD => {
                    let probe = rob.cold[s].probe.expect("loads probe");
                    let t = hier.schedule_data(probe, now);
                    let outcome = t.start + cfg.hier.l1_latency;
                    (
                        t.complete,
                        outcome,
                        probe.level.is_l1_miss().then_some((probe.line, t.complete)),
                    )
                }
                InstrMeta::KIND_PREFETCH => {
                    if let Some(probe) = rob.cold[s].probe {
                        let _ = hier.schedule_data(probe, now);
                    }
                    (now + 1, now + 1, None)
                }
                // Address generation now; the cache is probed at graduation.
                // The outcome (for the condition code) is known after an
                // early tag probe.
                InstrMeta::KIND_STORE => (now + 1, now + cfg.hier.l1_latency, None),
                _ => {
                    let lat = u64::from(e.meta.lat);
                    (now + lat, now + lat, None)
                }
            };
            if masks_on {
                // Wake the consumers parked on this producer: none can pass
                // before its first completion or outcome cycle.
                let mut w = std::mem::take(&mut waiters[s]);
                while w != 0 {
                    issue_hints[w.trailing_zeros() as usize] = complete.min(outcome);
                    w &= w - 1;
                }
            }
            let e = &mut rob.hot[s];
            e.state = EState::Issued;
            e.complete_cycle = complete;
            e.outcome_cycle = outcome;
            let (flags, resolve) = (e.flags, e.resolve);
            let c = &mut rob.cold[s];
            c.issue_cycle = now;
            imo_obs::record(&mut obs, now, EventKind::Issue { seq });
            if let Some((line, fill)) = alloc_mshr {
                let fresh = mshrs.find(line).is_none();
                if let Some(id) = mshrs.allocate(line) {
                    c.mshr = Some(id);
                    if fresh {
                        fills.push(fill, id);
                        imo_obs::record(&mut obs, now, EventKind::MshrAllocate { line });
                    } else {
                        imo_obs::record(&mut obs, now, EventKind::MshrMerge { line });
                    }
                }
            }
            if flags & HOLDS_CKPT != 0 {
                ckpt_release_q.push(outcome, ());
            }
            if resolve == Resolve::AtExecute {
                resolve_q.push_keyed(outcome, seq, seq);
            }
        }

        // ---- 7. Dispatch (into the tail slots) ----
        let mut d = 0;
        while d < cfg.issue_width && rob.len < cfg.rob_entries as usize {
            let Some(plain) = fq.head_is_plain() else { break };
            let s = rob.at(rob.len);
            let (hot, cold) = (&mut rob.hot[s], &mut rob.cold[s]);
            let seq = if plain {
                // A plain instruction needs no checkpoint, probe or
                // condition-code dependence: its run descriptor and its
                // pre-decoded metadata are the whole entry.
                let r = fq.pop_plain();
                *hot = Hot::dispatched(r.fetch_cycle, *cache.meta_idx(r.idx as usize));
                *cold = Cold::dispatched(r.pc, now);
                r.seq
            } else {
                let f = fq.full.front().expect("full head exists");
                let meta = *cache.meta_at(f.pc).expect("fetched addresses are in text");
                let needs_ckpt = meta.flags & ckpt_flags != 0;
                if needs_ckpt && checkpoints_in_use >= cfg.max_checkpoints {
                    break;
                }
                checkpoints_in_use += u32::from(needs_ckpt);
                let f = fq.pop_full();
                *hot = Hot::dispatched(f.fetch_cycle, meta);
                hot.resolve = f.resolve;
                hot.flags = entry_flags(needs_ckpt, &f, &meta);
                hot.deps[2] = f.cc_dep.map_or(NO_DEP, |cc| cc | OUTCOME_DEP);
                *cold = Cold { probe: f.probe, ..Cold::dispatched(f.pc, now) };
                f.seq
            };
            // Value dependences pack ahead of the outcome dependence.
            let mut n = 0;
            for r in [hot.meta.src1, hot.meta.src2] {
                if let Some(p) = last_writer.get(usize::from(r)).copied().flatten() {
                    hot.deps[n] = p;
                    n += 1;
                }
            }
            hot.deps.swap(n, 2);
            if hot.meta.dest != NO_REG {
                last_writer[usize::from(hot.meta.dest)] = Some(seq);
            }
            debug_assert_eq!(seq, rob.base + rob.len as u64, "seq contiguity");
            if masks_on {
                waiting_mask |= 1u64 << rob.len;
                issue_hints[s] = 0;
                waiters[s] = 0;
            }
            rob.len += 1;
            d += 1;
            progress = true;
        }

        // ---- 8. Fetch ----
        if fq.total < 2 * cfg.issue_width as usize {
            let before = fq.total;
            if fast {
                if fe.fetch_ready(now) {
                    fe.fetch_fast(now, cfg.issue_width, &mut hier, &mut fq, obs.as_deref_mut())?;
                }
            } else {
                fe.fetch(now, cfg.issue_width, &mut hier, &mut fetch_buf, obs.as_deref_mut())?;
                fetch_buf.drain(..).for_each(|f| fq.push_full(f));
            }
            if fq.total > before {
                progress = true;
            }
        }

        // ---- 9. Termination / limits ----
        if fe.halted() && rob.len == 0 && fq.total == 0 {
            // Halt graduated in a previous iteration (done flag), or the
            // program ended in an unusual state; either way we are finished.
            break;
        }
        if graduated_total >= limits.max_instructions {
            return Err(SimError::InstructionLimit(limits.max_instructions));
        }
        if now >= limits.max_cycles {
            return Err(SimError::CycleLimit(limits.max_cycles));
        }

        // ---- 10. Advance time (with fast-forward over quiet cycles) ----
        if progress {
            now += 1;
            dense_streak = 0;
            dense_ticks = 0;
        } else {
            // Dense-streak shortcut (fast mode only): the horizon fold below
            // is O(ROB), and in wakeup-dense regions it keeps answering
            // "the very next cycle". Once `DENSE_STREAK` consecutive folds
            // have done so, skip the fold and tick — bit-identical, because
            // advancing one cycle is exactly what `now = next` would have
            // done. Safe, because the O(1) liveness probe proves a future
            // event exists: a set `issued_mask` bit is an entry stage 3 did
            // not retire this iteration (its `complete_cycle` is strictly
            // future), and each queue was fully drained of entries ≤ `now`,
            // so any remaining head is strictly in the future. Hence the
            // fold could not have reported a deadlock.
            // A full fold re-validates the streak every `DENSE_WINDOW` ticks.
            if fast
                && dense_streak >= DENSE_STREAK
                && dense_ticks < DENSE_WINDOW
                && ((masks_on && issued_mask != 0)
                    || fills.next_due().is_some()
                    || resolve_q.next_due().is_some()
                    || ckpt_release_q.next_due().is_some())
            {
                dense_ticks += 1;
                now += 1;
                continue;
            }
            dense_ticks = 0;
            // Fold every wakeup source into the earliest *future* event;
            // anything at or before `now` is not a wake-up source (it
            // already had its chance this cycle).
            let mut h = Horizon::new(now);
            for i in 0..rob.len {
                let e = &rob.hot[rob.at(i)];
                match e.state {
                    // `outcome_cycle` can precede completion (a miss's early
                    // tag probe) or follow it (a store's tag probe after its
                    // 1-cycle address generation); either way it readies
                    // outcome consumers, so when the program has
                    // condition-code branches it is a wake-up source of its
                    // own.
                    EState::Issued => {
                        h.consider(e.complete_cycle);
                        if has_cc_consumers {
                            h.consider(e.outcome_cycle);
                        }
                    }
                    EState::Waiting => h.consider(e.fetch_cycle + cfg.frontend_depth),
                    EState::Complete => {
                        if has_cc_consumers {
                            h.consider(e.outcome_cycle);
                        }
                    }
                }
            }
            h.consider_opt(resolve_q.next_due());
            h.consider_opt(ckpt_release_q.next_due());
            h.consider_opt(fills.next_due());
            if !fe.halted() && fe.blocked_on().is_none() {
                h.consider(fe.resume_at());
            }
            let head = &rob.hot[rob.slot(rob.base)];
            if rob.len > 0
                && head.state == EState::Complete
                && head.meta.kind == InstrMeta::KIND_STORE
            {
                // Graduation blocked on the write buffer.
                h.consider_opt(wb_release.next_release());
            }
            let Some(next) = h.earliest() else {
                return Err(SimError::Deadlock { cycle: now });
            };
            if limits.force_tick_accurate {
                // Reference mode: the horizon was still computed (so deadlock
                // detection is identical), but time advances one cycle.
                now += 1;
                continue;
            }
            let skipped = next - now - 1;
            if skipped == 0 {
                dense_streak += 1;
            } else {
                dense_streak = 0;
            }
            if skipped > 0 {
                // Attribute the skipped slots exactly as the per-cycle
                // accounting would have.
                let lost = skipped * width;
                if rob.head_misses() {
                    slots.cache_stall += lost;
                } else {
                    slots.other_stall += lost;
                }
                if obs.is_some() {
                    // The skipped cycles would each have graduated nothing
                    // with this exact (frozen) machine state.
                    cpi.add(classify(&rob, &fe), skipped);
                }
            }
            now = next;
        }
    }
    let cycles = now + 1;
    let total = cycles * width;
    let accounted = slots.total();
    if total > accounted {
        slots.other_stall += total - accounted;
    }
    crate::speed::flush(fe.stats());

    let result = RunResult {
        cycles,
        instructions: graduated_total,
        slots,
        informing_traps: fe.informing_traps(),
        mispredictions: fe.mispredictions(),
        branch_accuracy: fe.branch_accuracy(),
        handler_faults: fe.handler_faults(),
        degraded: fe.degraded(),
        mem: MemCounters {
            l1d_accesses: hier.stats().data_refs,
            l1d_misses: hier.stats().l1d_misses_to_l2 + hier.stats().l1d_misses_to_mem,
            l2_misses: hier.stats().l1d_misses_to_mem,
            inst_misses: hier.stats().inst_misses,
        },
    };
    if let Some(rec) = obs {
        rec.cpi.merge(&cpi);
        rec.metrics.set("cpu.cycles", result.cycles);
        rec.metrics.set("cpu.instructions", result.instructions);
        rec.metrics.set("cpu.informing_traps", result.informing_traps);
        rec.metrics.set("cpu.mispredictions", result.mispredictions);
        rec.metrics.set("cpu.handler_faults", result.handler_faults);
        let (seen, dropped) = (rec.total_recorded(), rec.dropped());
        rec.metrics.set("obs.events_seen", seen);
        rec.metrics.set("obs.events_dropped", dropped);
        hier.stats().record_metrics(&mut rec.metrics);
        if let Some(plan) = faults {
            plan.config().record_metrics(&mut rec.metrics);
        }
    }
    Ok(RunOutcome::Done(result, fe.into_state()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_isa::{Asm, Cond, Reg};

    fn run(p: &Program) -> RunResult {
        simulate(p, &OooConfig::paper(), RunLimits::default()).expect("simulates")
    }

    fn r(i: u8) -> Reg {
        Reg::int(i)
    }

    #[test]
    fn straight_line_completes() {
        let mut a = Asm::new();
        for i in 0..20 {
            a.li(r(1 + (i % 8) as u8), i);
        }
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert_eq!(res.instructions, 21);
        assert!(res.cycles > 5, "I-miss + frontend depth cost cycles");
        assert!(res.cycles < 200);
        assert_eq!(res.slots.total(), res.cycles * 4);
    }

    #[test]
    fn independent_instructions_reach_high_ipc() {
        // Long run of independent int ops: IPC should approach 2 (2 INT units).
        let mut a = Asm::new();
        for i in 0..4000 {
            a.addi(r(1 + (i % 8) as u8), Reg::ZERO, i);
        }
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert!(res.ipc() > 1.5, "ipc = {}", res.ipc());
    }

    #[test]
    fn dependent_chain_limits_ipc() {
        let mut a = Asm::new();
        for _ in 0..2000 {
            a.addi(r(1), r(1), 1);
        }
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert!(res.ipc() < 1.2, "serial chain ipc = {}", res.ipc());
        assert!(res.ipc() > 0.8, "but still ~1/cycle: {}", res.ipc());
    }

    #[test]
    fn load_miss_stalls_are_attributed_to_cache() {
        // Pointer-chase across many lines: every load misses and the next
        // load depends on it.
        let mut a = Asm::new();
        // Build a chain in memory: mem[i*4096 + 0x10_0000] = (i+1)*4096 + 0x10_0000
        for i in 0..64u64 {
            a.word(0x10_0000 + i * 4096, 0x10_0000 + (i + 1) * 4096);
        }
        a.li(r(1), 0x10_0000);
        for _ in 0..64 {
            a.load(r(1), r(1), 0);
        }
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert!(res.mem.l1d_misses >= 64);
        assert!(
            res.slots.cache_stall > res.slots.busy,
            "memory-bound chain dominated by cache stalls: {:?}",
            res.slots
        );
    }

    #[test]
    fn branchy_loop_trains_predictor() {
        let mut a = Asm::new();
        let (i, n) = (r(1), r(2));
        a.li(i, 0);
        a.li(n, 500);
        let top = a.here("top");
        a.addi(i, i, 1);
        a.branch(Cond::Lt, i, n, top);
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert_eq!(res.instructions, 3 + 500 * 2);
        assert!(res.branch_accuracy > 0.95, "accuracy {}", res.branch_accuracy);
        assert!(res.mispredictions <= 5);
    }

    #[test]
    fn informing_trap_executes_handler_with_overlap() {
        // One informing load that misses; handler of 10 dependent adds.
        let mut a = Asm::new();
        let hdl = a.label("h");
        a.set_mhar(hdl);
        a.li(r(1), 0x40_0000);
        a.load_inf(r(2), r(1), 0);
        a.addi(r(3), r(2), 1); // consumer of the load
        a.halt();
        a.bind(hdl).unwrap();
        for _ in 0..10 {
            a.addi(r(20), r(20), 1);
        }
        a.jump_mhrr();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert_eq!(res.informing_traps, 1);
        // 4 main instrs + 1 halt? main: set_mhar, li, load, addi, halt = 5; handler 11.
        assert_eq!(res.instructions, 5 + 11);
    }

    #[test]
    fn trap_as_exception_is_slower_than_branch() {
        // Many informing misses: the exception model waits for graduation
        // before fetching the handler; the branch model does not.
        let mut a = Asm::new();
        let hdl = a.label("h");
        a.set_mhar(hdl);
        a.li(r(1), 0x40_0000);
        let top = a.label("top");
        a.li(r(2), 0);
        a.li(r(3), 200);
        a.bind(top).unwrap();
        a.load_inf(r(4), r(1), 0);
        a.addi(r(1), r(1), 4096); // new line/page every time -> always miss
        a.addi(r(2), r(2), 1);
        a.branch(Cond::Lt, r(2), r(3), top);
        a.halt();
        a.bind(hdl).unwrap();
        for _ in 0..10 {
            a.addi(r(20), r(20), 1);
        }
        a.jump_mhrr();
        let p = a.assemble().unwrap();

        let mut cfg = OooConfig::paper();
        cfg.trap_model = TrapModel::Branch;
        let branch = simulate(&p, &cfg, RunLimits::default()).unwrap();
        cfg.trap_model = TrapModel::Exception;
        let exception = simulate(&p, &cfg, RunLimits::default()).unwrap();

        assert_eq!(branch.informing_traps, 200);
        assert_eq!(exception.informing_traps, 200);
        assert!(
            exception.cycles > branch.cycles,
            "exception {} should exceed branch {}",
            exception.cycles,
            branch.cycles
        );
    }

    #[test]
    fn checkpoint_pressure_slows_dispatch() {
        // Dense informing loads (all hitting after warmup) with the branch
        // trap model consume checkpoints; a machine with 1 checkpoint must be
        // slower than one with 8.
        let mut a = Asm::new();
        let hdl = a.label("h");
        a.set_mhar(hdl);
        a.li(r(1), 0x40_0000);
        for _ in 0..50 {
            for o in 0..4 {
                a.load_inf(r(2 + o as u8), r(1), o * 8);
            }
        }
        a.halt();
        a.bind(hdl).unwrap();
        a.jump_mhrr();
        let p = a.assemble().unwrap();

        let mut cfg = OooConfig::paper();
        cfg.max_checkpoints = 1;
        let tight = simulate(&p, &cfg, RunLimits::default()).unwrap();
        cfg.max_checkpoints = 8;
        let loose = simulate(&p, &cfg, RunLimits::default()).unwrap();
        assert!(
            tight.cycles > loose.cycles,
            "1 checkpoint ({}) should be slower than 8 ({})",
            tight.cycles,
            loose.cycles
        );
    }

    #[test]
    fn bmiss_scheme_invokes_handler_only_on_miss() {
        let mut a = Asm::new();
        let hdl = a.label("h");
        a.li(r(1), 0x40_0000);
        // First load misses (cold), second hits (same line).
        a.load(r(2), r(1), 0);
        a.branch_on_miss(hdl);
        a.load(r(3), r(1), 8);
        a.branch_on_miss(hdl);
        a.halt();
        a.bind(hdl).unwrap();
        a.addi(r(20), r(20), 1);
        a.jump_mhrr();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert_eq!(res.informing_traps, 1, "only the cold miss dispatches");
        assert_eq!(res.instructions, 6 + 2);
    }

    #[test]
    fn store_heavy_code_respects_write_buffer() {
        let mut a = Asm::new();
        a.li(r(1), 0x40_0000);
        for i in 0..200 {
            a.store(r(1), r(1), (i * 4096) as i64); // every store misses
        }
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert_eq!(res.instructions, 202);
        assert!(res.mem.l1d_misses >= 200);
    }

    #[test]
    fn result_slot_accounting_is_exhaustive() {
        let mut a = Asm::new();
        let (i, n) = (r(1), r(2));
        a.li(i, 0);
        a.li(n, 100);
        let top = a.here("top");
        a.load(r(3), i, 0x40_0000);
        a.addi(i, i, 64);
        a.branch(Cond::Lt, i, n, top);
        a.halt();
        let p = a.assemble().unwrap();
        let res = run(&p);
        assert_eq!(res.slots.total(), res.cycles * 4);
    }

    #[test]
    fn malformed_configs_end_in_typed_errors() {
        let mut a = Asm::new();
        a.halt();
        let p = a.assemble().unwrap();
        let breakers: [fn(&mut OooConfig); 5] = [
            |c| c.predictor_entries = 0,
            |c| c.predictor_entries = 3,
            |c| c.hier.mshrs = 0,
            |c| c.hier.banks = 0,
            |c| c.hier.l1d.assoc = 0,
        ];
        for (case, break_cfg) in breakers.iter().enumerate() {
            let mut cfg = OooConfig::paper();
            break_cfg(&mut cfg);
            for limits in [RunLimits::default(), RunLimits::tick_accurate()] {
                let err = simulate(&p, &cfg, limits).unwrap_err();
                assert!(matches!(err, SimError::InvalidConfig(_)), "case {case}: {err}");
            }
        }
    }

    #[test]
    fn deadlock_reported_for_impossible_config() {
        let mut a = Asm::new();
        a.fadd(Reg::fp(1), Reg::fp(2), Reg::fp(3));
        a.halt();
        let p = a.assemble().unwrap();
        let mut cfg = OooConfig::paper();
        cfg.fp_units = 0;
        let err = simulate(&p, &cfg, RunLimits::default()).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn cycle_limit_enforced() {
        let mut a = Asm::new();
        let top = a.here("top");
        a.addi(r(1), r(1), 1);
        a.jump(top);
        let p = a.assemble().unwrap();
        let err = simulate(
            &p,
            &OooConfig::paper(),
            RunLimits { max_instructions: u64::MAX, max_cycles: 1000, ..RunLimits::default() },
        )
        .unwrap_err();
        assert!(matches!(err, SimError::CycleLimit(1000)));
    }
}

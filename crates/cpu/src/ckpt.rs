//! Shared checkpoint codec helpers for the two core models.
//!
//! The cores' `run` loops checkpoint by encoding every loop local at a cycle
//! boundary (see [`crate::SimSession`]). The pieces shared between the two
//! models — fetched-instruction records, wakeup queues, slot and CPI-stack
//! accumulators — are encoded here under the `imo_util::snapshot` wire
//! discipline so both bodies render identically-shaped, byte-stable JSON.

use imo_mem::{HitLevel, ProbeResult};
use imo_obs::CpiStack;
use imo_util::json::Json;
use imo_util::snapshot::{self, SnapshotError};

use crate::frontend::{Fetched, Resolve};
use crate::result::SlotBreakdown;
use crate::sched::WakeupQueue;

/// Encodes a fetched instruction. The wire carries only dynamic state; the
/// decoded `Instr` is re-derived from the program text via the pc.
pub(crate) fn fetched_json(f: &Fetched) -> Json {
    let (probe_level, probe_line, probe_store) = match f.probe {
        Some(p) => {
            let lvl = match p.level {
                HitLevel::L1 => 0,
                HitLevel::L2 => 1,
                HitLevel::Memory => 2,
            };
            (Some(lvl), Some(p.line), p.is_store)
        }
        None => (None, None, false),
    };
    Json::obj([
        ("seq", snapshot::u64_json(f.seq)),
        ("pc", snapshot::u64_json(f.pc)),
        ("fetch_cycle", snapshot::u64_json(f.fetch_cycle)),
        ("probe_level", snapshot::opt_u64_json(probe_level)),
        ("probe_line", snapshot::opt_u64_json(probe_line)),
        ("probe_store", Json::Bool(probe_store)),
        ("informing_trap", Json::Bool(f.informing_trap)),
        (
            "resolve",
            snapshot::u64_json(match f.resolve {
                Resolve::None => 0,
                Resolve::AtExecute => 1,
                Resolve::AtGraduate => 2,
            }),
        ),
        ("cc_dep", snapshot::opt_u64_json(f.cc_dep)),
        ("is_cond_branch", Json::Bool(f.is_cond_branch)),
    ])
}

/// Decodes a [`fetched_json`] record against the program being resumed.
pub(crate) fn decode_fetched(
    program: &imo_isa::Program,
    j: &Json,
) -> Result<Fetched, SnapshotError> {
    let pc = snapshot::get_u64(j, "pc")?;
    let instr = program.fetch(pc).ok_or(SnapshotError::Bad("pc"))?;
    let probe =
        match (snapshot::get_opt_u64(j, "probe_level")?, snapshot::get_opt_u64(j, "probe_line")?) {
            (Some(lvl), Some(line)) => Some(ProbeResult {
                level: match lvl {
                    0 => HitLevel::L1,
                    1 => HitLevel::L2,
                    2 => HitLevel::Memory,
                    _ => return Err(SnapshotError::Bad("probe_level")),
                },
                line,
                is_store: snapshot::get_bool(j, "probe_store")?,
            }),
            (None, None) => None,
            _ => return Err(SnapshotError::Bad("probe_level")),
        };
    Ok(Fetched {
        seq: snapshot::get_u64(j, "seq")?,
        pc,
        instr,
        fetch_cycle: snapshot::get_u64(j, "fetch_cycle")?,
        probe,
        informing_trap: snapshot::get_bool(j, "informing_trap")?,
        resolve: match snapshot::get_u64(j, "resolve")? {
            0 => Resolve::None,
            1 => Resolve::AtExecute,
            2 => Resolve::AtGraduate,
            _ => return Err(SnapshotError::Bad("resolve")),
        },
        cc_dep: snapshot::get_opt_u64(j, "cc_dep")?,
        is_cond_branch: snapshot::get_bool(j, "is_cond_branch")?,
    })
}

/// The sequence number after `seqs` if they run `first, first + 1, …`
/// without a gap, else `None`: a restored instruction window must continue
/// exactly where the one before it ends.
pub(crate) fn run_end(seqs: impl IntoIterator<Item = u64>, first: u64) -> Option<u64> {
    seqs.into_iter().try_fold(first, |next, s| if s == next { s.checked_add(1) } else { None })
}

/// Encodes a wakeup queue as three parallel `(due, key, item)` columns in
/// pop order plus the key counter; `item` maps the payload to a `u64`.
pub(crate) fn wakeup_json<T: Clone>(q: &WakeupQueue<T>, item: impl Fn(&T) -> u64) -> Json {
    let entries = q.entries();
    let due: Vec<u64> = entries.iter().map(|e| e.0).collect();
    let key: Vec<u64> = entries.iter().map(|e| e.1).collect();
    let items: Vec<u64> = entries.iter().map(|e| item(&e.2)).collect();
    Json::obj([
        ("next_key", snapshot::u64_json(q.next_key())),
        ("due", snapshot::u64s_json(&due)),
        ("key", snapshot::u64s_json(&key)),
        ("item", snapshot::u64s_json(&items)),
    ])
}

/// Decodes a [`wakeup_json`] queue; `item` rebuilds (and validates) each
/// payload from its `u64` encoding. `name` labels decode errors.
pub(crate) fn decode_wakeup<T>(
    j: &Json,
    name: &'static str,
    item: impl Fn(u64) -> Result<T, SnapshotError>,
) -> Result<WakeupQueue<T>, SnapshotError> {
    let next_key = snapshot::get_u64(j, "next_key")?;
    let due = snapshot::get_u64s(j, "due")?;
    let keys = snapshot::get_u64s(j, "key")?;
    let items = snapshot::get_u64s(j, "item")?;
    if keys.len() != due.len() || items.len() != due.len() {
        return Err(SnapshotError::Bad(name));
    }
    let mut entries = Vec::with_capacity(due.len());
    for ((d, k), it) in due.into_iter().zip(keys).zip(items) {
        entries.push((d, k, item(it)?));
    }
    Ok(WakeupQueue::restore(next_key, entries))
}

/// Encodes the graduation-slot accumulator.
pub(crate) fn slots_json(s: SlotBreakdown) -> Json {
    Json::obj([
        ("busy", snapshot::u64_json(s.busy)),
        ("cache_stall", snapshot::u64_json(s.cache_stall)),
        ("other_stall", snapshot::u64_json(s.other_stall)),
    ])
}

/// Decodes a [`slots_json`] accumulator.
pub(crate) fn decode_slots(j: &Json) -> Result<SlotBreakdown, SnapshotError> {
    Ok(SlotBreakdown {
        busy: snapshot::get_u64(j, "busy")?,
        cache_stall: snapshot::get_u64(j, "cache_stall")?,
        other_stall: snapshot::get_u64(j, "other_stall")?,
    })
}

/// Encodes the CPI-stack accumulator.
pub(crate) fn cpi_json(c: &CpiStack) -> Json {
    Json::obj([
        ("base", snapshot::u64_json(c.base)),
        ("issue_stall", snapshot::u64_json(c.issue_stall)),
        ("l1_miss", snapshot::u64_json(c.l1_miss)),
        ("l2_miss", snapshot::u64_json(c.l2_miss)),
        ("handler", snapshot::u64_json(c.handler)),
        ("coherence_wait", snapshot::u64_json(c.coherence_wait)),
    ])
}

/// Decodes a [`cpi_json`] accumulator.
pub(crate) fn decode_cpi(j: &Json) -> Result<CpiStack, SnapshotError> {
    Ok(CpiStack {
        base: snapshot::get_u64(j, "base")?,
        issue_stall: snapshot::get_u64(j, "issue_stall")?,
        l1_miss: snapshot::get_u64(j, "l1_miss")?,
        l2_miss: snapshot::get_u64(j, "l2_miss")?,
        handler: snapshot::get_u64(j, "handler")?,
        coherence_wait: snapshot::get_u64(j, "coherence_wait")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_isa::{Asm, Reg};

    #[test]
    fn fetched_round_trip_rederives_instr() {
        let mut a = Asm::new();
        a.li(Reg::int(1), 0x4000);
        a.load(Reg::int(2), Reg::int(1), 0);
        a.halt();
        let p = a.assemble().unwrap();
        let f = Fetched {
            seq: 7,
            pc: imo_isa::Program::addr_of(1),
            instr: p.fetch(imo_isa::Program::addr_of(1)).unwrap(),
            fetch_cycle: 42,
            probe: Some(ProbeResult { level: HitLevel::Memory, line: 0x4000, is_store: false }),
            informing_trap: true,
            resolve: Resolve::AtGraduate,
            cc_dep: Some(6),
            is_cond_branch: false,
        };
        let back = decode_fetched(&p, &fetched_json(&f)).unwrap();
        assert_eq!(back.instr, f.instr);
        assert_eq!(back.seq, f.seq);
        assert_eq!(back.probe.unwrap().level, HitLevel::Memory);
        assert_eq!(back.resolve, Resolve::AtGraduate);
        assert_eq!(back.cc_dep, Some(6));
    }

    #[test]
    fn fetched_decode_rejects_pc_outside_text() {
        let mut a = Asm::new();
        a.halt();
        let p = a.assemble().unwrap();
        let mut f = Fetched {
            seq: 0,
            pc: imo_isa::Program::addr_of(0),
            instr: p.fetch(imo_isa::Program::addr_of(0)).unwrap(),
            fetch_cycle: 0,
            probe: None,
            informing_trap: false,
            resolve: Resolve::None,
            cc_dep: None,
            is_cond_branch: false,
        };
        f.pc = 0xdead_0000;
        let j = fetched_json(&f);
        assert_eq!(decode_fetched(&p, &j).err(), Some(SnapshotError::Bad("pc")));
    }

    #[test]
    fn wakeup_codec_round_trip() {
        let mut q: WakeupQueue<u64> = WakeupQueue::new();
        q.push(9, 100);
        q.push(3, 200);
        q.push_keyed(3, 77, 300);
        let j = wakeup_json(&q, |&v| v);
        let mut r = decode_wakeup(&j, "q", Ok).unwrap();
        assert_eq!(r.pop_due(10), q.pop_due(10));
        assert_eq!(r.pop_due(10), q.pop_due(10));
        assert_eq!(r.pop_due(10), q.pop_due(10));
        assert_eq!(r.next_key(), q.next_key());
    }

    #[test]
    fn slots_and_cpi_round_trip() {
        let s = SlotBreakdown { busy: 1, cache_stall: 2, other_stall: 3 };
        assert_eq!(decode_slots(&slots_json(s)).unwrap(), s);
        let c = CpiStack {
            base: 1,
            issue_stall: 2,
            l1_miss: 3,
            l2_miss: 4,
            handler: 5,
            coherence_wait: 6,
        };
        assert_eq!(decode_cpi(&cpi_json(&c)).unwrap(), c);
    }
}

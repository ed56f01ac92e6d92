//! Processor model configuration (Table 1 of the paper).

use imo_isa::Instr;
use imo_mem::{CacheConfig, HierarchyConfig, MshrMode};

use crate::result::SimError;

/// How the out-of-order machine realises the low-overhead cache-miss trap
/// (§3.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrapModel {
    /// Treat the trap like a mispredicted branch: the handler is fetched as
    /// soon as the miss is detected at execute time. Costs shadow-checkpoint
    /// capacity (every informing memory operation holds a checkpoint while in
    /// flight).
    #[default]
    Branch,
    /// Treat the trap like an exception: the handler is fetched only when the
    /// informing operation reaches the head of the reorder buffer. Cheaper
    /// hardware, slower (the paper measured +7–9 % on `compress`).
    Exception,
}

/// Configuration of the out-of-order model (MIPS-R10000-like).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OooConfig {
    /// Instructions fetched, renamed and graduated per cycle.
    pub issue_width: u32,
    /// Reorder buffer entries.
    pub rob_entries: u32,
    /// Integer ALUs.
    pub int_units: u32,
    /// Floating-point units.
    pub fp_units: u32,
    /// Branch units.
    pub branch_units: u32,
    /// Memory (load/store) units.
    pub mem_units: u32,
    /// Maximum simultaneously-unresolved control speculations (the R10000's
    /// shadow-state limit of 3 predicted branches). With
    /// [`TrapModel::Branch`], informing memory operations also consume
    /// checkpoints (the §3.2 "3× shadow state" discussion).
    pub max_checkpoints: u32,
    /// Cycles between fetch and earliest issue (decode/rename depth).
    pub frontend_depth: u64,
    /// Extra cycles to restart fetch after a resolved misprediction or trap.
    pub redirect_penalty: u64,
    /// How informing traps are realised.
    pub trap_model: TrapModel,
    /// MSHR deallocation policy (§3.3).
    pub mshr_mode: MshrMode,
    /// Branch-predictor table entries (2-bit counters).
    pub predictor_entries: usize,
    /// Retired-store write-buffer entries.
    pub write_buffer: u32,
    /// Memory hierarchy parameters.
    pub hier: HierarchyConfig,
}

impl OooConfig {
    /// The paper's out-of-order configuration (Table 1).
    ///
    /// `max_checkpoints` is 12: the paper's §3.2 notes that treating every
    /// informing reference as a potential branch "will need about 3 times as
    /// much shadow state" as the R10000's 3 predicted branches, and its
    /// evaluation assumes that hardware is provided. Set it back to 3 (or 1)
    /// to measure the shadow-state pressure — the `ablation_checkpoints`
    /// bench does exactly that.
    pub fn paper() -> OooConfig {
        OooConfig {
            issue_width: 4,
            rob_entries: 32,
            int_units: 2,
            fp_units: 2,
            branch_units: 1,
            mem_units: 1,
            max_checkpoints: 12,
            frontend_depth: 3,
            redirect_penalty: 1,
            trap_model: TrapModel::Branch,
            mshr_mode: MshrMode::ExtendedLifetime,
            predictor_entries: 2048,
            write_buffer: 8,
            hier: HierarchyConfig::out_of_order(),
        }
    }

    /// Latency in cycles of `instr` on this machine (memory excluded).
    pub fn latency(&self, instr: &Instr) -> u64 {
        latency(instr, Model::OutOfOrder)
    }

    /// Rejects parameters a component constructor would panic on.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        validate(self.predictor_entries, &self.hier)
    }
}

impl Default for OooConfig {
    fn default() -> OooConfig {
        OooConfig::paper()
    }
}

/// Configuration of the in-order model (Alpha-21164-like).
///
/// Per Table 1, the in-order machine has no dedicated memory unit: loads and
/// stores issue down the integer pipes, as on the real 21164.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InOrderConfig {
    /// Instructions issued per cycle.
    pub issue_width: u32,
    /// Integer ALUs (also serve loads/stores).
    pub int_units: u32,
    /// Floating-point units.
    pub fp_units: u32,
    /// Branch units.
    pub branch_units: u32,
    /// Cycles between fetch and earliest issue.
    pub frontend_depth: u64,
    /// Extra cycles to restart fetch after a resolved misprediction or
    /// informing trap (the §3.1 replay-trap path).
    pub redirect_penalty: u64,
    /// Cycles lost to the replay trap when a consumer was issued at hit
    /// timing but the load missed (§3.1). The restarted instruction still
    /// waits for the data; this penalty only matters when it exceeds the
    /// remaining miss latency.
    pub replay_trap_penalty: u64,
    /// Branch-predictor table entries (2-bit counters).
    pub predictor_entries: usize,
    /// Memory hierarchy parameters.
    pub hier: HierarchyConfig,
}

impl InOrderConfig {
    /// The paper's in-order configuration (Table 1).
    pub fn paper() -> InOrderConfig {
        InOrderConfig {
            issue_width: 4,
            int_units: 2,
            fp_units: 2,
            branch_units: 1,
            frontend_depth: 3,
            redirect_penalty: 1,
            replay_trap_penalty: 6,
            predictor_entries: 2048,
            hier: HierarchyConfig::in_order(),
        }
    }

    /// Latency in cycles of `instr` on this machine (memory excluded).
    pub fn latency(&self, instr: &Instr) -> u64 {
        latency(instr, Model::InOrder)
    }

    /// Rejects parameters a component constructor would panic on.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        validate(self.predictor_entries, &self.hier)
    }
}

impl Default for InOrderConfig {
    fn default() -> InOrderConfig {
        InOrderConfig::paper()
    }
}

/// The checks both cores share: every assertion in the predictor, MSHR
/// file, cache and hierarchy constructors (and the hierarchy's bank and
/// MSHR-slot selection) that a configuration can reach. Units, widths and
/// buffers of zero are not errors here: such a machine makes no progress
/// and ends in [`SimError::Deadlock`].
fn validate(predictor_entries: usize, hier: &HierarchyConfig) -> Result<(), SimError> {
    let geometry_ok = |c: &CacheConfig| {
        let set_bytes = u64::from(c.assoc).checked_mul(c.line_bytes).filter(|&b| b > 0);
        c.line_bytes.is_power_of_two()
            && set_bytes.is_some_and(|b| (c.size_bytes / b).is_power_of_two())
    };
    let bad = if !predictor_entries.is_power_of_two() {
        "predictor_entries must be a nonzero power of two"
    } else if hier.mshrs == 0 {
        "hier.mshrs must be positive"
    } else if hier.banks == 0 {
        "hier.banks must be positive"
    } else if ![hier.l1d, hier.l1i, hier.l2].iter().all(geometry_ok) {
        "cache geometry must have power-of-two lines and sets and a nonzero associativity"
    } else {
        return Ok(());
    };
    Err(SimError::InvalidConfig(bad))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Model {
    OutOfOrder,
    InOrder,
}

/// Table 1 functional-unit latencies. All units are fully pipelined (as the
/// paper assumes).
fn latency(instr: &Instr, model: Model) -> u64 {
    use Instr::*;
    match instr {
        Mul { .. } => 12,
        Div { .. } => 76,
        Fdiv { .. } => {
            if model == Model::OutOfOrder {
                15
            } else {
                17
            }
        }
        Fsqrt { .. } => 20,
        Fadd { .. }
        | Fsub { .. }
        | Fmul { .. }
        | Fmov { .. }
        | Fli { .. }
        | Cvtif { .. }
        | Cvtfi { .. }
        | Fcmplt { .. } => {
            if model == Model::OutOfOrder {
                2
            } else {
                4
            }
        }
        // Integer ALU, control, informing-control: single cycle.
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imo_isa::Reg;

    #[test]
    fn table1_latencies() {
        let cfg = OooConfig::paper();
        let ino = InOrderConfig::paper();
        let f = |i: &Instr| (cfg.latency(i), ino.latency(i));
        let r = Reg::int(1);
        let fp = Reg::fp(1);
        assert_eq!(f(&Instr::Mul { rd: r, rs: r, rt: r }), (12, 12));
        assert_eq!(f(&Instr::Div { rd: r, rs: r, rt: r }), (76, 76));
        assert_eq!(f(&Instr::Fdiv { fd: fp, fs: fp, ft: fp }), (15, 17));
        assert_eq!(f(&Instr::Fsqrt { fd: fp, fs: fp }), (20, 20));
        assert_eq!(f(&Instr::Fadd { fd: fp, fs: fp, ft: fp }), (2, 4));
        assert_eq!(f(&Instr::Add { rd: r, rs: r, rt: r }), (1, 1));
    }

    #[test]
    fn paper_configs_match_table1() {
        let o = OooConfig::paper();
        assert_eq!(o.issue_width, 4);
        assert_eq!(o.rob_entries, 32);
        assert_eq!((o.int_units, o.fp_units, o.branch_units, o.mem_units), (2, 2, 1, 1));
        assert_eq!(o.max_checkpoints, 12, "3x the R10000's 3 predicted branches, per §3.2");
        let i = InOrderConfig::paper();
        assert_eq!(i.issue_width, 4);
        assert_eq!((i.int_units, i.fp_units, i.branch_units), (2, 2, 1));
    }
}

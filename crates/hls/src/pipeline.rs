//! Loop pipelining by iterative modulo scheduling.
//!
//! The §III toolchain's throughput lever is initiating a new loop iteration
//! every II cycles instead of waiting for the previous one to drain. This
//! module implements the classic iterative modulo scheduling formulation:
//!
//! * **ResMII** — resource-constrained lower bound (ops per class / units).
//! * **RecMII** — recurrence-constrained lower bound from loop-carried
//!   dependences (`⌈latency / distance⌉` around each cycle).
//! * Search: for II = MII, MII+1, … attempt a modulo schedule where every
//!   unit class is booked in a table of II slots (`cycle mod II`); the first
//!   II that schedules wins.
//!
//! Loop-carried dependences are expressed as extra edges on top of the DAG
//! body ([`LoopKernel::carried`]), e.g. an accumulator feeding itself.

use crate::error::HlsError;
use crate::ir::{Dfg, NodeId};
use crate::schedule::{asap, unit_class, OpLatency, ResourceBudget, UnitClass};
use crate::Result;

/// A loop body plus its loop-carried dependences.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopKernel {
    /// The loop body dataflow graph.
    pub body: Dfg,
    /// Loop-carried edges `(source, sink, distance)`: the value produced by
    /// `source` in iteration `i` is consumed by `sink` in iteration
    /// `i + distance`.
    pub carried: Vec<(NodeId, NodeId, u32)>,
}

impl LoopKernel {
    /// A kernel without loop-carried dependences (fully parallel loop).
    pub fn parallel(body: Dfg) -> Self {
        Self {
            body,
            carried: Vec::new(),
        }
    }

    /// Validates the body and the carried edges.
    ///
    /// # Errors
    ///
    /// Returns [`HlsError::InvalidGraph`] for invalid bodies, out-of-range
    /// node ids, or zero distances.
    pub fn validate(&self) -> Result<()> {
        self.body.validate()?;
        for &(src, sink, dist) in &self.carried {
            if src.0 >= self.body.len() || sink.0 >= self.body.len() {
                return Err(HlsError::InvalidGraph(format!(
                    "carried edge {src}->{sink} references missing nodes"
                )));
            }
            if dist == 0 {
                return Err(HlsError::InvalidGraph(format!(
                    "carried edge {src}->{sink} must have distance >= 1"
                )));
            }
        }
        Ok(())
    }

    /// Recurrence-constrained minimum II: for each carried edge, the cycle
    /// `sink ⇒ … ⇒ src ⇒ sink` must fit in `distance × II` cycles. The
    /// intra-iteration path length from `sink` to `src` is measured on the
    /// DAG body (longest path), so multi-node recurrences are covered.
    pub fn rec_mii(&self, lat: &OpLatency) -> u32 {
        let mut mii = 1;
        for &(src, sink, dist) in &self.carried {
            let path = longest_path(&self.body, sink, src, lat);
            if let Some(p) = path {
                let total = p + lat.of(&self.body.node(src).kind);
                mii = mii.max(total.div_ceil(dist).max(1));
            } else if src == sink {
                // Degenerate self-edge: the op's own latency bounds it.
                let total = lat.of(&self.body.node(src).kind).max(1);
                mii = mii.max(total.div_ceil(dist));
            }
        }
        mii
    }
}

/// Longest dependence-path latency from `from` to `to` through the DAG
/// (sum of latencies of intermediate producers, excluding `to`'s own).
fn longest_path(graph: &Dfg, from: NodeId, to: NodeId, lat: &OpLatency) -> Option<u32> {
    // dist[v] = longest latency of a path from `from` to v, counting the
    // latency of every producer on the path including `from`, excluding v.
    let mut dist = vec![None::<u32>; graph.len()];
    dist[from.0] = Some(0);
    for (id, node) in graph.iter() {
        for op in &node.operands {
            if let Some(d) = dist[op.0] {
                let cand = d + lat.of(&graph.node(*op).kind);
                if dist[id.0].is_none_or(|cur| cand > cur) {
                    dist[id.0] = Some(cand);
                }
            }
        }
    }
    dist[to.0]
}

/// A modulo schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuloSchedule {
    ii: u32,
    start: Vec<u32>,
    latency: u32,
}

impl ModuloSchedule {
    /// The achieved initiation interval.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Start cycle of a node within one iteration's schedule.
    pub fn start_of(&self, id: NodeId) -> u32 {
        self.start[id.0]
    }

    /// Single-iteration schedule length (pipeline depth in cycles).
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Cycles to run `n` iterations (fill + steady state).
    pub fn total_cycles(&self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.latency as u64 + (n - 1) * self.ii as u64
    }
}

/// Searches for the smallest feasible II and returns its modulo schedule.
///
/// # Errors
///
/// Returns [`HlsError::InfeasibleBudget`] if no II up to the non-pipelined
/// latency schedules (which cannot happen for valid budgets — the latency
/// bound always admits the sequential schedule), or if a required unit class
/// has zero budget; [`HlsError::InvalidGraph`] for invalid kernels.
pub fn modulo_schedule(
    kernel: &LoopKernel,
    lat: &OpLatency,
    budget: &ResourceBudget,
) -> Result<ModuloSchedule> {
    kernel.validate()?;
    for (_, node) in kernel.body.iter() {
        if let Some(class) = unit_class(&node.kind) {
            let limit = match class {
                UnitClass::Alu => budget.alus,
                UnitClass::Multiplier => budget.multipliers,
                UnitClass::MemPort => budget.mem_ports,
            };
            if limit == Some(0) {
                return Err(HlsError::InfeasibleBudget(format!(
                    "kernel needs {class:?} units but budget is zero"
                )));
            }
        }
    }
    let res_mii = crate::schedule::min_initiation_interval(&kernel.body, budget);
    let rec_mii = kernel.rec_mii(lat);
    let mii = res_mii.max(rec_mii).max(1);
    let seq_latency = asap(&kernel.body, lat).latency().max(1);

    for ii in mii..=seq_latency.max(mii) {
        if let Some(schedule) = try_schedule(kernel, lat, budget, ii) {
            return Ok(schedule);
        }
    }
    Err(HlsError::InfeasibleBudget(format!(
        "no feasible II up to {seq_latency}"
    )))
}

/// Attempts one modulo schedule at a fixed II (list scheduling with a
/// modulo reservation table and carried-edge deadline checks).
fn try_schedule(
    kernel: &LoopKernel,
    lat: &OpLatency,
    budget: &ResourceBudget,
    ii: u32,
) -> Option<ModuloSchedule> {
    let graph = &kernel.body;
    let n = graph.len();
    let limit = |class: UnitClass| match class {
        UnitClass::Alu => budget.alus,
        UnitClass::Multiplier => budget.multipliers,
        UnitClass::MemPort => budget.mem_ports,
    };
    // Modulo reservation table: issues per class per slot.
    let mut table = vec![[0usize; 3]; ii as usize];
    let class_idx = |c: UnitClass| match c {
        UnitClass::Alu => 0,
        UnitClass::Multiplier => 1,
        UnitClass::MemPort => 2,
    };

    let mut start = vec![u32::MAX; n];
    let mut latency = 0;
    // Topological order = construction order; earliest start from operands.
    for (id, node) in graph.iter() {
        let mut earliest = node
            .operands
            .iter()
            .map(|op| start[op.0] + lat.of(&graph.node(*op).kind))
            .max()
            .unwrap_or(0);
        // Search for a slot satisfying the modulo resource constraint.
        let slot = loop {
            let fits = match unit_class(&node.kind) {
                None => true,
                Some(class) => {
                    let used = table[(earliest % ii) as usize][class_idx(class)];
                    limit(class).is_none_or(|l| used < l)
                }
            };
            if fits {
                break earliest;
            }
            earliest += 1;
            if earliest > 64 * ii + 1024 {
                return None; // no slot at this II
            }
        };
        if let Some(class) = unit_class(&node.kind) {
            table[(slot % ii) as usize][class_idx(class)] += 1;
        }
        start[id.0] = slot;
        latency = latency.max(slot + lat.of(&node.kind));
    }

    // Carried-edge feasibility: src's result of iteration i must be ready
    // by the time iteration i+distance *consumes* the carried value — i.e.
    // at every user of the carried-in placeholder (the placeholder itself is
    // just a register name, available from cycle 0).
    let users = graph.users();
    for &(src, sink, dist) in &kernel.carried {
        let ready = start[src.0] + lat.of(&graph.node(src).kind);
        let consumers = if users[sink.0].is_empty() {
            vec![sink]
        } else {
            users[sink.0].clone()
        };
        for user in consumers {
            if ready > start[user.0] + dist * ii {
                return None;
            }
        }
    }
    Some(ModuloSchedule { ii, start, latency })
}

/// Builds the classic pipelined MAC loop body: `acc += a[i] * b[i]` with the
/// accumulator as a loop-carried dependence of distance 1.
pub fn mac_loop_kernel() -> LoopKernel {
    let mut g = Dfg::new();
    let ai = g.input("a_i");
    let bi = g.input("b_i");
    let acc_in = g.input("acc"); // carried in
    let prod = g.mul(ai, bi);
    let acc_out = g.add(acc_in, prod);
    g.output("acc", acc_out);
    LoopKernel {
        body: g,
        carried: vec![(acc_out, acc_in, 1)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::sparse_row_kernel;

    #[test]
    fn mac_loop_achieves_ii_1() {
        // The accumulator chain has latency 1 (the add), so II = 1 with
        // enough units: a new MAC starts every cycle.
        let kernel = mac_loop_kernel();
        let lat = OpLatency::default();
        let s = modulo_schedule(&kernel, &lat, &ResourceBudget::unlimited()).expect("feasible");
        assert_eq!(s.ii(), 1);
        assert!(s.latency() >= 4); // mul(3) + add(1)
    }

    #[test]
    fn recurrence_bounds_ii() {
        // Put the multiplier inside the recurrence: acc = acc * x + c.
        let mut g = Dfg::new();
        let x = g.input("x");
        let c = g.input("c");
        let acc_in = g.input("acc");
        let prod = g.mul(acc_in, x);
        let acc_out = g.add(prod, c);
        g.output("acc", acc_out);
        let kernel = LoopKernel {
            body: g,
            carried: vec![(acc_out, acc_in, 1)],
        };
        let lat = OpLatency::default();
        // Recurrence: add(1) + mul(3) = 4 cycles around the loop.
        assert_eq!(kernel.rec_mii(&lat), 4);
        let s = modulo_schedule(&kernel, &lat, &ResourceBudget::unlimited()).expect("feasible");
        assert_eq!(s.ii(), 4);
    }

    #[test]
    fn distance_relaxes_recurrence() {
        let mut g = Dfg::new();
        let x = g.input("x");
        let acc_in = g.input("acc");
        let prod = g.mul(acc_in, x);
        g.output("acc", prod);
        let lat = OpLatency::default();
        let tight = LoopKernel {
            body: g.clone(),
            carried: vec![(prod, acc_in, 1)],
        };
        let relaxed = LoopKernel {
            body: g,
            carried: vec![(prod, acc_in, 3)], // 3 iterations of slack
        };
        assert_eq!(tight.rec_mii(&lat), 3);
        assert_eq!(relaxed.rec_mii(&lat), 1);
    }

    #[test]
    fn resources_bound_ii() {
        // 12 memory ops through 2 ports: II >= 6 even without recurrences.
        let kernel = LoopKernel::parallel(sparse_row_kernel(4)); // 12 mem ops
        let lat = OpLatency::default();
        let s = modulo_schedule(&kernel, &lat, &ResourceBudget::new(4, 4, 2)).expect("feasible");
        assert_eq!(s.ii(), 6);
        let wide =
            modulo_schedule(&kernel, &lat, &ResourceBudget::new(16, 8, 12)).expect("feasible");
        assert_eq!(wide.ii(), 1);
    }

    #[test]
    fn modulo_table_never_oversubscribed() {
        let kernel = LoopKernel::parallel(sparse_row_kernel(4));
        let lat = OpLatency::default();
        let budget = ResourceBudget::new(2, 1, 3);
        let s = modulo_schedule(&kernel, &lat, &budget).expect("feasible");
        let mut table = vec![[0usize; 3]; s.ii() as usize];
        for (id, node) in kernel.body.iter() {
            if let Some(class) = unit_class(&node.kind) {
                let idx = match class {
                    UnitClass::Alu => 0,
                    UnitClass::Multiplier => 1,
                    UnitClass::MemPort => 2,
                };
                table[(s.start_of(id) % s.ii()) as usize][idx] += 1;
            }
        }
        for slots in &table {
            assert!(slots[0] <= 2 && slots[1] <= 1 && slots[2] <= 3, "{table:?}");
        }
    }

    #[test]
    fn pipelining_beats_sequential_execution() {
        let kernel = mac_loop_kernel();
        let lat = OpLatency::default();
        let s = modulo_schedule(&kernel, &lat, &ResourceBudget::new(1, 1, 2)).expect("feasible");
        let n = 1000;
        let pipelined = s.total_cycles(n);
        let sequential = asap(&kernel.body, &lat).latency() as u64 * n;
        assert!(
            pipelined < sequential / 3,
            "pipelined {pipelined} vs sequential {sequential}"
        );
    }

    #[test]
    fn total_cycles_formula() {
        let kernel = mac_loop_kernel();
        let lat = OpLatency::default();
        let s = modulo_schedule(&kernel, &lat, &ResourceBudget::unlimited()).expect("feasible");
        assert_eq!(s.total_cycles(0), 0);
        assert_eq!(s.total_cycles(1), s.latency() as u64);
        assert_eq!(s.total_cycles(10), s.latency() as u64 + 9 * s.ii() as u64);
    }

    #[test]
    fn invalid_kernels_rejected() {
        let mut g = Dfg::new();
        let a = g.input("a");
        g.output("y", a);
        let bad_edge = LoopKernel {
            body: g.clone(),
            carried: vec![(NodeId(0), NodeId(9), 1)],
        };
        assert!(modulo_schedule(
            &bad_edge,
            &OpLatency::default(),
            &ResourceBudget::unlimited()
        )
        .is_err());
        let zero_dist = LoopKernel {
            body: g,
            carried: vec![(NodeId(0), NodeId(1), 0)],
        };
        assert!(modulo_schedule(
            &zero_dist,
            &OpLatency::default(),
            &ResourceBudget::unlimited()
        )
        .is_err());
    }

    #[test]
    fn zero_budget_rejected() {
        let kernel = mac_loop_kernel();
        assert!(matches!(
            modulo_schedule(
                &kernel,
                &OpLatency::default(),
                &ResourceBudget::new(1, 0, 1)
            ),
            Err(HlsError::InfeasibleBudget(_))
        ));
    }
}

//! Fault injection: the spec's schedules compiled into concrete edges,
//! the edges applied, and data drops attributed to the outage window
//! they fall in.
//!
//! **Owner:** both halves — [`Ev::Fault`] is replicated (see `shard`), so
//! each half's link, cell and RSMC state and its `active_faults` balance
//! stay in step with the sequential engine's.
//! **Reads:** `cfg.seed`, `internet_node`, `domains[d].rsmc_node`.
//! **Writes:** `fault_plan` (once, before the run), `cells` (outage
//! state), `topo` (link admin state), `domains[d].{rsmc_alive, rsmc}`,
//! `active_faults`, `pending_recovery`, `replicated_events`,
//! `report.{faults, drops}`.

use super::{Ev, World};
use crate::report::DropCause;
use mtnet_net::LinkId;
use mtnet_radio::{CellId, CellKind};
use mtnet_sim::{Context, RngStream, SimDuration, SimTime};

/// One compiled fault transition. Spec-level schedules (windows, flap
/// series) expand into these concrete, time-sorted edges at build time,
/// once cell ids, link ids and domain indices exist.
#[derive(Debug, Clone)]
pub(crate) enum FaultAction {
    /// Administrative BS outage edge.
    Cell {
        /// Affected cell.
        cell: CellId,
        /// True takes the cell down, false restores it.
        down: bool,
    },
    /// Wired-uplink flap edge: both directions of the duplex pair.
    Link {
        /// Internet → RSMC direction.
        fwd: LinkId,
        /// RSMC → Internet direction.
        rev: LinkId,
        /// True downs the pair, false restores it.
        down: bool,
    },
    /// RSMC crash: the control plane dies and its soft state flushes.
    RsmcKill {
        /// Domain index.
        domain: usize,
    },
    /// Standby RSMC takeover: the control plane returns, cold.
    RsmcTakeover {
        /// Domain index.
        domain: usize,
    },
    /// Satellite eclipse edge over every satellite-tier cell.
    Eclipse {
        /// The satellite cells (captured at compile time).
        cells: Vec<CellId>,
        /// True starts the eclipse, false ends it.
        down: bool,
    },
}

impl World {
    /// Compiles the spec's fault schedules into the time-sorted plan
    /// `World::run` turns into `Ev::Fault` events.
    ///
    /// Runs after the builder so the schedules resolve against concrete
    /// ids: cell outages to [`CellId`]s, link flaps to the domain's
    /// Internet ↔ RSMC duplex [`LinkId`] pair, eclipses to the built
    /// satellite-cell set. Flap jitter draws come from a child stream of
    /// the world seed, so the expanded plan is a pure function of
    /// `(spec, master seed)` — the determinism contract extends to
    /// faults unchanged.
    ///
    /// # Panics
    ///
    /// Panics if a cell outage names a cell the world never built (domain
    /// indices are range-checked earlier by spec validation).
    pub(crate) fn install_fault_plan(&mut self, faults: &crate::spec::FaultSpec) {
        if faults.is_empty() {
            return;
        }
        fn at(secs: f64) -> SimTime {
            SimTime::ZERO + SimDuration::from_secs_f64(secs)
        }
        let mut plan: Vec<(SimTime, FaultAction)> = Vec::new();
        for o in &faults.cell_outages {
            let cell = CellId(o.cell);
            assert!(
                self.cells.cell(cell).is_some(),
                "fault.cell_outages names unknown cell {} (world has {})",
                o.cell,
                self.cells.len()
            );
            plan.push((at(o.start_s), FaultAction::Cell { cell, down: true }));
            plan.push((at(o.end_s), FaultAction::Cell { cell, down: false }));
        }
        let jitter_root = RngStream::from_seed(self.cfg.seed);
        for (i, f) in faults.link_flaps.iter().enumerate() {
            let (core, rsmc) = (
                self.internet_node,
                self.domains[f.domain as usize].rsmc_node,
            );
            let uplink = |a, b| self.topo.link_between(a, b).expect("domain uplink exists");
            let (fwd, rev) = (uplink(core, rsmc), uplink(rsmc, core));
            let mut rng = jitter_root.child(format_args!("faults/flap{i}"));
            for k in 0..f.count {
                let base = f.start_s + f64::from(k) * f.period_s;
                // Jitter < period * min(duty, 1-duty) (spec-validated), so
                // down_k < up_k < down_{k+1} always: edges stay paired.
                let down_at = base + rng.next_f64() * f.jitter_s;
                let up_at = base + f.duty * f.period_s + rng.next_f64() * f.jitter_s;
                for (t, down) in [(down_at, true), (up_at, false)] {
                    plan.push((at(t), FaultAction::Link { fwd, rev, down }));
                }
            }
        }
        for r in &faults.rsmc_failovers {
            let domain = r.domain as usize;
            plan.push((at(r.at_s), FaultAction::RsmcKill { domain }));
            if let Some(t) = r.takeover_s {
                plan.push((at(r.at_s + t), FaultAction::RsmcTakeover { domain }));
            }
        }
        if !faults.eclipses.is_empty() {
            let sats: Vec<CellId> = self
                .cells
                .cells()
                .filter(|c| c.kind() == CellKind::Satellite)
                .map(|c| c.id())
                .collect();
            for e in &faults.eclipses {
                for (t, down) in [(e.start_s, true), (e.end_s, false)] {
                    let cells = sats.clone();
                    plan.push((at(t), FaultAction::Eclipse { cells, down }));
                }
            }
        }
        // Stable sort: same-instant edges apply in category order
        // (cells, links, failovers, eclipses) — fixed, so deterministic.
        plan.sort_by_key(|(t, _)| *t);
        self.fault_plan = plan;
    }

    /// Applies one compiled fault edge. No-op edges (an already-down cell
    /// downed again by an overlapping window, an eclipse with no
    /// satellites) count nothing, which keeps the active-fault balance
    /// and the quiet-report guarantee exact.
    pub(super) fn handle_fault(&mut self, ctx: &mut Context<'_, Ev>, idx: usize) {
        // Fault edges are replicated on every shard (see `shard`).
        self.replicated_events += 1;
        let now = ctx.now();
        let action = self.fault_plan[idx].1.clone();
        match action {
            FaultAction::Cell { cell, down } => {
                if self.cells.set_cell_down(cell, down) {
                    self.report.faults.cell_transitions += 1;
                    self.note_fault_edge(now, down);
                }
            }
            FaultAction::Link { fwd, rev, down } => {
                // `set_link_up` bumps the topology generation on every
                // applied transition — including the restore, which is
                // what evicts route-cache trees resolved mid-outage.
                let a = self.topo.set_link_up(fwd, !down).expect("known link");
                let b = self.topo.set_link_up(rev, !down).expect("known link");
                if a || b {
                    self.report.faults.link_transitions += 1;
                    self.note_fault_edge(now, down);
                }
            }
            FaultAction::RsmcKill { domain } => {
                if self.domains[domain].rsmc_alive {
                    self.domains[domain].rsmc_alive = false;
                    self.domains[domain].rsmc.flush();
                    self.report.faults.rsmc_kills += 1;
                    self.note_fault_edge(now, true);
                }
            }
            FaultAction::RsmcTakeover { domain } => {
                if !self.domains[domain].rsmc_alive {
                    self.domains[domain].rsmc_alive = true;
                    self.report.faults.rsmc_takeovers += 1;
                    self.note_fault_edge(now, false);
                }
            }
            FaultAction::Eclipse { cells, down } => {
                let mut changed = false;
                for cell in cells {
                    changed |= self.cells.set_cell_down(cell, down);
                }
                if changed {
                    self.report.faults.eclipse_transitions += 1;
                    self.note_fault_edge(now, down);
                }
            }
        }
    }

    /// Bookkeeping common to every applied fault edge: down edges open
    /// the outage-attribution window, restore edges close it and arm a
    /// recovery-latency measurement.
    fn note_fault_edge(&mut self, now: SimTime, down: bool) {
        if down {
            self.active_faults += 1;
        } else {
            self.active_faults = self.active_faults.saturating_sub(1);
            self.pending_recovery.push(now);
        }
    }

    /// Records a data-packet drop, attributing it to the open fault
    /// window when one exists. Every drop in the world routes through
    /// here: from [`World::drop_packet`], or from `handle_air_down` for a
    /// transmission nobody was there to hear.
    pub(super) fn count_data_drop(&mut self, cause: DropCause) {
        if self.active_faults > 0 {
            self.report.faults.outage_drops += 1;
        }
        self.report.count_drop(cause);
    }
}

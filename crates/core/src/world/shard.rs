//! Conservative time-window parallel execution of one world.
//!
//! One [`World`] is sharded by **replicating** it: every shard holds a
//! full copy of the world built from the same spec and seed, but executes
//! only the event classes it *owns*. Ownership follows the wired
//! topology's natural cut:
//!
//! * the **backbone shard** owns everything that happens at the Internet
//!   core, the Home Agent and the Correspondent Node — flow generation
//!   ([`Ev::FlowNext`]), HA interception/registration, CN route
//!   optimization, and every wired hop at those nodes;
//! * the **access shard** owns the mobile side — mobility sampling,
//!   uplinks, location ticks, attaches, air deliveries, and every wired
//!   hop inside the CIP domain trees, their RSMCs and upper BSs.
//!
//! Two event classes are **replicated** on every shard instead of owned:
//! periodic cache sweeps ([`Ev::Sweep`]) and fault-plan edges
//! ([`Ev::Fault`]). Replicating them keeps each copy's shared
//! *environment* — link admin state, cell outage state, topology
//! generation, the active-fault balance — bit-identical to the sequential
//! engine's, without any cross-shard state protocol. Their duplicate
//! executions are subtracted from the merged event count.
//!
//! ## Lookahead and windows
//!
//! The only links crossing the cut are the Internet ↔ RSMC wide-area
//! pairs, so any packet one shard emits toward the other arrives no
//! earlier than its emission time plus the minimum boundary propagation
//! delay `L` ([`mtnet_net::Topology::min_cross_partition_delay`]). That makes the
//! half-open window `[t, t + L)` — with `t` the earliest pending event
//! across shards — safe to execute in parallel with no communication at
//! all: a classic conservative (lookahead-based) round. At each window
//! edge the shards' outboxes are drained **in shard order** and
//! stable-sorted by arrival time, so the injection order is a pure
//! function of the simulation state — identical no matter how many OS
//! threads ran the window.
//!
//! ## Determinism contract
//!
//! `run_sharded` produces a [`SimReport`] whose
//! [`fingerprint`](SimReport::fingerprint) is byte-identical to the
//! sequential engine's for the same spec and master seed, at any shard
//! count and any thread count (`tests/determinism.rs` in the bench crate
//! enforces this, and CI diffs full fingerprint dumps). This is possible
//! because the ownership cut splits the *metric* state exactly: every
//! counter, histogram and float summary is written by events of a single
//! shard (flow `sent` on the backbone, everything air-side on the access
//! shard, signaling per emission site…), so the merge is field-wise
//! adoption and integer sums — no float re-accumulation, no reordering.
//!
//! ## When one shard beats two
//!
//! The partition has exactly two ownership groups, and the backbone group
//! executes a small fraction of the events (flow generation plus a few
//! wired hops per packet). Speed-up is therefore bounded by the backbone
//! share and the per-window barrier cost; small worlds or short windows
//! (dense event horizons) can run *slower* sharded than sequential.
//! Requesting more shards than ownership groups clamps to the group
//! count.

use super::{Ev, World};
use crate::messages::Payload;
use crate::report::SimReport;
use mtnet_net::{NodeId, Packet};
use mtnet_sim::{SimDuration, SimTime, Simulator};

/// Shard id of the Internet-core / HA / CN replica.
pub(crate) const BACKBONE: u32 = 0;
/// Shard id of the access-network replica (authoritative for every
/// mobility, handoff and fault resilience metric).
pub(crate) const ACCESS: u32 = 1;
/// Ownership groups the node partition produces (see module docs).
const GROUPS: u32 = 2;

/// A packet in transit between shards: extracted by value from the
/// emitting replica's arena at the boundary link, re-inserted into the
/// owning replica's arena at the next window edge.
pub(crate) struct Crossing {
    /// Wire-level arrival time at the destination node.
    pub(crate) at: SimTime,
    /// Destination node (owned by the other shard).
    pub(crate) node: NodeId,
    /// The boundary node the packet left from.
    pub(crate) from: NodeId,
    /// The packet itself, hops and tunnel stack intact.
    pub(crate) packet: Packet<Payload>,
}

/// Per-replica sharding context. `None` on a sequentially-run world;
/// `Some` switches `World::forward_wired` into diverting boundary
/// crossings to the outbox instead of scheduling them locally.
pub(crate) struct ShardCtx {
    /// This replica's shard id.
    pub(crate) own: u32,
    /// Owning shard of every node, indexed densely by `NodeId`.
    pub(crate) node_shard: Vec<u32>,
    /// Packets leaving this shard in the current window, in emission
    /// order (drained at every window edge).
    pub(crate) outbox: Vec<Crossing>,
}

impl ShardCtx {
    /// True when a wired hop to `node` leaves this shard.
    #[inline]
    pub(crate) fn diverts(&self, node: NodeId) -> bool {
        self.node_shard[node.0 as usize] != self.own
    }
}

/// The node partition plus the lookahead it induces.
struct ShardPlan {
    node_shard: Vec<u32>,
    lookahead: SimDuration,
}

impl ShardPlan {
    /// Partitions `world`'s nodes into the backbone and access groups and
    /// extracts the boundary lookahead. `None` when the world cannot be
    /// sharded (no backbone/access cut, or a zero-delay boundary link
    /// that would make windows empty) — callers fall back to the
    /// sequential engine.
    fn for_world(world: &World) -> Option<ShardPlan> {
        let mut node_shard = vec![ACCESS; world.topo.node_count()];
        let internet = world
            .topo
            .node_by_addr("1.0.0.1".parse().expect("static addr"));
        for node in internet.into_iter().chain([world.ha_node, world.cn_node]) {
            node_shard[node.0 as usize] = BACKBONE;
        }
        let lookahead = world
            .topo
            .min_cross_partition_delay(|n| node_shard[n.0 as usize])?;
        (lookahead > SimDuration::ZERO).then_some(ShardPlan {
            node_shard,
            lookahead,
        })
    }
}

/// Runs one world sharded across cores, producing a report
/// byte-identical to `build().run(duration)`.
///
/// `build` must be a pure constructor (same world every call): each shard
/// runs its own replica built by it. `shards` is the requested shard
/// count; values above the partition's ownership-group count clamp, and
/// `shards <= 1` (or an unshardable world) runs the sequential engine.
pub fn run_sharded(build: impl Fn() -> World, duration: SimDuration, shards: u32) -> SimReport {
    let first = build();
    if shards <= 1 {
        return first.run(duration);
    }
    let Some(plan) = ShardPlan::for_world(&first) else {
        return first.run(duration);
    };
    let n = GROUPS.min(shards);
    let mut sims: Vec<Simulator<World>> = Vec::with_capacity(n as usize);
    let mut seed_world = Some(first);
    for shard in 0..n {
        let world = seed_world.take().unwrap_or_else(&build);
        sims.push(into_replica(world, &plan, shard));
    }

    // One worker per extra shard is all the parallelism the partition
    // offers; on a single-core box the windows just run inline.
    let parallel = std::thread::available_parallelism().map_or(1, |p| p.get()) > 1;
    let horizon = SimTime::ZERO + duration;
    loop {
        let Some(start) = sims.iter_mut().filter_map(|s| s.next_event_time()).min() else {
            break;
        };
        if start > horizon {
            break;
        }
        // Everything in [start, start + L) is safe: a packet emitted at
        // u >= start over a boundary link of propagation >= L arrives at
        // u + L or later — strictly after this window.
        let end = SimTime::from_nanos((start + plan.lookahead).as_nanos() - 1).min(horizon);
        run_window(&mut sims, end, parallel);
        exchange(&mut sims, &plan);
    }

    merge(sims, duration)
}

/// Wraps one world replica in a simulator and schedules the initial
/// events it owns, in the sequential engine's program order
/// ([`World::schedule_initial`]): each event class lands only on its
/// owner — except the replicated classes (sweeps, fault edges), which
/// land on every replica.
fn into_replica(mut world: World, plan: &ShardPlan, own: u32) -> Simulator<World> {
    world.shard = Some(ShardCtx {
        own,
        node_shard: plan.node_shard.clone(),
        outbox: Vec::new(),
    });
    let kind = world.cfg.scheduler;
    let mut sim = Simulator::new(world).with_scheduler(kind);
    World::schedule_initial(&mut sim, |ev| match ev {
        Ev::MoveSample(_) | Ev::Uplink(_) | Ev::LocationTick(_) => own == ACCESS,
        Ev::FlowNext(_) => own == BACKBONE,
        _ => true,
    });
    sim
}

/// Advances every shard to `end` (inclusive), in parallel when the box
/// has the cores for it. Which branch runs cannot affect results: the
/// shards share nothing within a window.
fn run_window(sims: &mut [Simulator<World>], end: SimTime, parallel: bool) {
    if !parallel || sims.len() < 2 {
        for sim in sims.iter_mut() {
            sim.run_until(end);
        }
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = sims.iter_mut();
        let first = rest.next().expect("at least one shard");
        let spawned: Vec<_> = rest
            .map(|sim| {
                scope.spawn(move || {
                    sim.run_until(end);
                })
            })
            .collect();
        first.run_until(end);
        for handle in spawned {
            handle.join().expect("shard thread panicked");
        }
    });
}

/// Moves every boundary crossing emitted during the last window into its
/// owning shard's event queue. Outboxes drain in shard order and the
/// concatenation is stable-sorted by arrival time, so same-instant
/// crossings keep a fixed (shard, emission) order — the injection
/// sequence is deterministic regardless of thread count.
fn exchange(sims: &mut [Simulator<World>], plan: &ShardPlan) {
    let mut crossings: Vec<Crossing> = Vec::new();
    for sim in sims.iter_mut() {
        let ctx = sim.model_mut().shard.as_mut().expect("replica context");
        crossings.append(&mut ctx.outbox);
    }
    crossings.sort_by_key(|c| c.at);
    for c in crossings {
        let dest = plan.node_shard[c.node.0 as usize] as usize;
        let sim = &mut sims[dest];
        let pkt = sim.model_mut().arena.insert(c.packet);
        sim.schedule_at(
            c.at,
            Ev::Pkt {
                node: c.node,
                from: Some(c.from),
                pkt,
            },
        );
    }
}

/// Combines the replicas' reports into the sequential run's report.
///
/// The ownership cut makes every metric single-writer, so the merge is
/// exact — no float accumulation happens here:
///
/// * **flows** — receive side (delays, jitter, throughput) lives on the
///   access replica; only the `sent` counter is adopted from the
///   backbone replica's tracker ([`mtnet_traffic::FlowQos::adopt_sent`]);
/// * **handoffs, calls, fault transitions, re-registrations, recovery
///   latency** — access replica only (the backbone replica never touches
///   them, which `debug_assert`s below check);
/// * **signaling, drops, outage drops** — integer sums: each increment
///   site executes on exactly one replica;
/// * **events** — the sum over replicas minus the duplicate executions
///   of replicated events (sweeps, fault edges) on non-access replicas.
fn merge(sims: Vec<Simulator<World>>, duration: SimDuration) -> SimReport {
    let mut events: u64 = 0;
    let mut access: Option<SimReport> = None;
    let mut rest: Vec<SimReport> = Vec::new();
    for sim in sims {
        events += sim.events_processed();
        let world = sim.into_model();
        let own = world.shard.as_ref().expect("replica context").own;
        if own == ACCESS {
            access = Some(world.finish_report(duration, 0));
        } else {
            events -= world.replicated_events;
            rest.push(world.finish_report(duration, 0));
        }
    }
    let mut out = access.expect("access shard exists");
    for bb in rest {
        debug_assert_eq!(bb.handoffs.total(), 0, "handoffs are access-owned");
        debug_assert_eq!(
            bb.faults.recovery_latency_ms.count(),
            0,
            "recovery latency is access-owned"
        );
        debug_assert_eq!(
            bb.aggregate.as_ref().map_or(0, |a| a.count()),
            0,
            "aggregate delay is access-owned (receives land on ACCESS)"
        );
        for ((_, q), (_, bq)) in out.flows.iter_mut().zip(&bb.flows) {
            q.adopt_sent(bq);
        }
        let s = &mut out.signaling;
        let b = &bb.signaling;
        s.location_messages += b.location_messages;
        s.update_messages += b.update_messages;
        s.delete_messages += b.delete_messages;
        s.route_updates += b.route_updates;
        s.paging_updates += b.paging_updates;
        s.page_messages += b.page_messages;
        s.mip_requests += b.mip_requests;
        s.mip_replies += b.mip_replies;
        s.rsmc_notifications += b.rsmc_notifications;
        s.handoff_messages += b.handoff_messages;
        s.control_bytes += b.control_bytes;
        for (&cause, &n) in &bb.drops {
            *out.drops.entry(cause).or_insert(0) += n;
        }
        out.faults.outage_drops += bb.faults.outage_drops;
        out.calls_blocked += bb.calls_blocked;
        out.calls_accepted += bb.calls_accepted;
    }
    out.duration = duration;
    out.events_processed = events;
    out
}

/// Environment variable overriding the spec's shard count.
pub const SHARDS_ENV: &str = "MTNET_SHARDS";

/// Parses a shard count: a positive integer, nothing looser. The CLI
/// `--shards` flag and [`shards_from_env`] share this so they cannot
/// drift apart.
pub fn parse_shard_count(v: &str) -> Result<u32, ()> {
    match v.trim().parse::<u32>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(()),
    }
}

/// The strict [`SHARDS_ENV`] environment override: unset or empty means
/// "use the spec's value"; anything else must parse as a positive
/// integer.
///
/// # Panics
///
/// Panics on a malformed or zero value — a typo must not silently run a
/// different engine than the one asked for.
pub fn shards_from_env() -> Option<u32> {
    match std::env::var(SHARDS_ENV) {
        Ok(v) if !v.trim().is_empty() => Some(
            parse_shard_count(&v)
                .unwrap_or_else(|()| panic!("{SHARDS_ENV} must be a positive integer, got {v:?}")),
        ),
        _ => None,
    }
}

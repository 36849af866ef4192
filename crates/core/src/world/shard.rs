//! Conservative time-window parallel execution of one world.
//!
//! One built [`World`] is **split**, not replicated: before it runs,
//! `World::backbone_twin` cuts it along the wired topology's natural
//! seam (Fig 4.1) into two halves, each executing only the event classes
//! it *owns*:
//!
//! * the **backbone half** owns everything that happens at the Internet
//!   core, the Home Agent and the Correspondent Node — flow generation
//!   ([`Ev::FlowNext`]), HA interception/registration, CN route
//!   optimization, and every wired hop at those nodes;
//! * the **access half** owns the mobile side — mobility sampling,
//!   uplinks, location ticks, attaches, air deliveries, and every wired
//!   hop inside the CIP domain trees, their RSMCs and upper BSs.
//!
//! Anything that scales with subscribers lives on exactly one side: the
//! access half keeps the whole `MnTable`; the backbone half takes the
//! CN's route column and the MNLD, and of the population holds only who
//! a row is (its index, and `has_flow`). The
//! deployment-sized infrastructure exists on both sides, kept in step by
//! the two event classes that are **replicated** instead of owned:
//! periodic cache sweeps ([`Ev::Sweep`]) and fault-plan edges
//! ([`Ev::Fault`]). Replicating them keeps each half's shared
//! *environment* — link admin state, cell outage state, topology
//! generation, the active-fault balance — bit-identical to the sequential
//! engine's, without any cross-shard state protocol. Their duplicate
//! executions are subtracted from the merged event count.
//!
//! ## Lookahead and windows
//!
//! The only links crossing the cut are the Internet ↔ RSMC wide-area
//! pairs, so any packet one half emits toward the other arrives no
//! earlier than its emission time plus the minimum boundary propagation
//! delay `L` ([`mtnet_net::Topology::min_cross_partition_delay`]). That makes the
//! half-open window `[t, t + L)` — with `t` the earliest pending event
//! or crossing on either side — safe to execute with no communication
//! at all: a classic conservative (lookahead-based) round. At each window
//! edge a half's outbox is stable-sorted by arrival time and injected
//! into the other half before that half's next window, so the injection
//! order is a pure function of the simulation state — identical no
//! matter which thread ran the window.
//!
//! ## One worker, and when it is used
//!
//! The halves share nothing inside a window, so *where* a window runs
//! cannot change results — it is a cost decision, taken per window. One
//! scoped worker thread lives for the whole run and executes the
//! backbone half; the calling thread keeps the access half, the heavy
//! one, because the world was built there and its allocations then stay
//! in the allocator arena they came from (the other way round the
//! 200 000-subscriber metro world peaked at 150.3 MiB instead of 132.6).
//! A window is handed over through the mutex-guarded `Mailbox` and a
//! turn flag the waiting side watches, yielding, for a bounded time
//! before it parks (`YIELDS_BEFORE_PARK`) — but only when both halves have
//! enough to do (`MIN_WINDOW_EVENTS`); otherwise both run back to back
//! on the calling thread, the same loop minus the handoff and the only
//! path on a single-core box.
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
//! half (flow `sent` on the backbone, everything air-side on the access
//! half, signaling per emission site…), so the merge is field-wise
//! adoption and integer sums — no float re-accumulation, no reordering.
//!
//! ## What two groups can give
//!
//! With two ownership groups a run's critical path is Σ max(backbone,
//! access) over its windows. On the metro world with every 100th node in
//! a call the backbone half runs 5.08 M of the 7.04 M events (0.71–0.84 s
//! busy, the access half 0.57–0.65 s; critical path 0.82–0.95 s against
//! 1.28–1.48 s for the sum), so the cut caps the gain at 1.55× there
//! however cheap the handoff. Requesting more shards than ownership
//! groups clamps to the group count.

use super::{Ev, World};
use crate::messages::Payload;
use crate::report::SimReport;
use mtnet_net::{NodeId, Packet};
use mtnet_sim::{SimDuration, SimTime, Simulator};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::thread::Thread;

/// Shard id of the Internet-core / HA / CN half.
pub(crate) const BACKBONE: u32 = 0;
/// Shard id of the access-network half (authoritative for every
/// mobility, handoff and fault resilience metric).
pub(crate) const ACCESS: u32 = 1;

/// Fewest events the lighter half must have run in the previous window
/// for the next one to go to the worker: below that a handoff costs more
/// than the window. On the 2-vCPU recording box the quick suite at
/// `--threads 1 --shards 2` took 1.03–1.76 s with every window handed
/// over and 0.91–1.03 s with this rule (sequential 0.77–0.91 s; at
/// `--threads 4` 0.86–0.95 s against 0.55–0.60 s); 1 173 of the metro
/// world's 1 201 windows clear it. Results are identical at any value.
const MIN_WINDOW_EVENTS: u64 = 256;

/// Looks at the turn flag, with a yield after each, before a waiting
/// side parks. Between the windows of a large world neither side should
/// sleep: on a busy host an idle vCPU counts as preempted, the guest
/// scheduler then wakes the sleeper on the waker's core, and both halves
/// share one core until the balancer notices (seen for minutes on end
/// when the wait parked after 2 000 plain spins: metro run phase
/// 1.45–1.7 s instead of 0.9 s). Yielding makes the wait free whenever
/// something else wants the core. Benchmark `metro_busy_x2`, 9
/// interleaved 20 s runs each on the 2-vCPU box: 2 000 spins then park
/// 34.4 sim s/s (28.3–36.0), this 38.6 (32.3–41.3), ahead in 9 of 9;
/// three sharded metro runs at once 2.8–4.1 s against 2.8–3.1 s, and
/// 3.5–3.7 s with 20 000 spins that do not yield. More in
/// EXPERIMENTS.md § Intra-world sharding.
const YIELDS_BEFORE_PARK: u32 = 20_000;

/// A packet in transit between the halves: extracted by value from the
/// emitting half's arena at the boundary link, re-inserted into the
/// owning half's arena at the next window edge.
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

/// Per-half sharding context. `None` on a sequentially-run world;
/// `Some` switches `World::transmit` into diverting boundary
/// crossings to the outbox instead of scheduling them locally.
pub(crate) struct ShardCtx {
    /// This half's shard id.
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
        for node in [world.internet_node, world.ha_node, world.cn_node] {
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
/// `build` is called exactly once. `shards` is the requested shard
/// count; any value above 1 runs the two ownership groups the partition
/// has, and `shards <= 1` (or an unshardable world) runs the sequential
/// engine.
pub fn run_sharded(build: impl FnOnce() -> World, duration: SimDuration, shards: u32) -> SimReport {
    // With one core a handoff can only add waiting: never hand over.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let min_window_events = if cores > 1 {
        MIN_WINDOW_EVENTS
    } else {
        u64::MAX
    };
    run_sharded_with(build, duration, shards, min_window_events)
}

/// [`run_sharded`] with the handoff threshold ([`MIN_WINDOW_EVENTS`])
/// as a parameter, so tests can force every window down either path.
pub(crate) fn run_sharded_with(
    build: impl FnOnce() -> World,
    duration: SimDuration,
    shards: u32,
    min_window_events: u64,
) -> SimReport {
    let mut world = build();
    let plan = (shards > 1).then(|| ShardPlan::for_world(&world)).flatten();
    let Some(plan) = plan else {
        return world.run(duration);
    };
    let backbone = into_half(world.backbone_twin(), &plan, BACKBONE);
    let mut access = into_half(world, &plan, ACCESS);

    let horizon = SimTime::ZERO + duration;
    let mailbox = Mutex::new(Mailbox {
        sim: backbone,
        posted: None,
        ran: None,
    });
    let turn = AtomicU8::new(CALLER);
    std::thread::scope(|scope| {
        let caller = std::thread::current();
        let worker = scope.spawn(|| run_posted_windows(&mailbox, &turn, caller));
        // Dropped when this closure returns or unwinds, before the scope
        // joins the worker.
        let _quit = SetTurnOnDrop {
            turn: &turn,
            to: QUIT,
            wake: worker.thread(),
        };
        let lock = || mailbox.lock().expect("backbone half panicked");

        // Before the first window: nothing ran, nothing crossed.
        let idle = |sim: &mut Simulator<World>| Window {
            outbox: Vec::new(),
            events: 0,
            next: sim.next_event_time(),
        };
        let (mut bb, mut ac) = (idle(&mut lock().sim), idle(&mut access));
        loop {
            // The earliest thing pending anywhere: an event in either
            // queue, or a crossing not yet injected (outboxes are sorted).
            let pending = [
                bb.next,
                ac.next,
                bb.outbox.first().map(|c| c.at),
                ac.outbox.first().map(|c| c.at),
            ];
            let Some(start) = pending.into_iter().flatten().min() else {
                break;
            };
            if start > horizon {
                break;
            }
            // Everything in [start, start + L) is safe: a packet emitted at
            // u >= start over a boundary link of propagation >= L arrives at
            // u + L or later — strictly after this window.
            let end = SimTime::from_nanos((start + plan.lookahead).as_nanos() - 1).min(horizon);
            let hand_over = bb.events.min(ac.events) >= min_window_events;
            let (to_backbone, to_access) = (ac.outbox, bb.outbox);
            if hand_over {
                #[cfg(test)]
                HANDED_OVER.with(|n| n.set(n.get() + 1));
                lock().posted = Some((to_backbone, end));
                turn.store(WORKER, Ordering::Release);
                worker.thread().unpark();
                ac = advance(&mut access, to_access, end);
                wait_while(&turn, WORKER);
                bb = lock().ran.take().expect("the worker ran the posted window");
            } else {
                bb = advance(&mut lock().sim, to_backbone, end);
                ac = advance(&mut access, to_access, end);
            }
        }
    });

    let backbone = mailbox.into_inner().expect("backbone half panicked").sim;
    merge(vec![backbone, access], duration)
}

/// Wraps one half of the split world in a simulator and schedules the
/// initial events it owns, in the sequential engine's program order
/// ([`World::schedule_initial`]): each event class lands only on its
/// owner — except the replicated classes (sweeps, fault edges), which
/// land on both halves.
fn into_half(mut world: World, plan: &ShardPlan, own: u32) -> Simulator<World> {
    world.shard = Some(ShardCtx {
        own,
        node_shard: plan.node_shard.clone(),
        outbox: Vec::new(),
    });
    let mut sim = Simulator::new(world);
    World::schedule_initial(&mut sim, |ev| match ev {
        Ev::MoveSample(_) | Ev::Uplink(_) | Ev::LocationTick(_) => own == ACCESS,
        Ev::FlowNext(_) => own == BACKBONE,
        _ => true,
    });
    sim
}

/// What one half hands back from one window.
struct Window {
    /// The boundary crossings it emitted, stable-sorted by arrival time
    /// (same-instant crossings keep their emission order).
    outbox: Vec<Crossing>,
    /// Events it ran.
    events: u64,
    /// Its earliest pending event afterwards.
    next: Option<SimTime>,
}

/// Injects the other half's crossings into `sim`'s queue, in order, and
/// advances it to `end` (inclusive).
fn advance(sim: &mut Simulator<World>, inbox: Vec<Crossing>, end: SimTime) -> Window {
    for c in inbox {
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
    let before = sim.events_processed();
    sim.run_until(end);
    let ctx = sim.model_mut().shard.as_mut().expect("shard context");
    let mut outbox = std::mem::take(&mut ctx.outbox);
    outbox.sort_by_key(|c| c.at);
    Window {
        outbox,
        events: sim.events_processed() - before,
        next: sim.next_event_time(),
    }
}

/// The backbone half, and what the calling thread and the worker pass
/// each other about it. Both sides lock it, never at the same time: the
/// turn flag says whose it is.
struct Mailbox {
    sim: Simulator<World>,
    /// A window for the worker: its inbox and its inclusive end.
    posted: Option<(Vec<Crossing>, SimTime)>,
    /// What the worker's last window handed back.
    ran: Option<Window>,
}

/// Turn flag values: the mailbox is the calling thread's (also while it
/// runs the backbone half itself); a window is posted and the mailbox is
/// the worker's; the run is over and the worker returns.
const CALLER: u8 = 0;
const WORKER: u8 = 1;
const QUIT: u8 = 2;

/// The worker thread: runs every window the caller posts, on the
/// backbone half, until told to quit.
///
/// The turn flag pairs `Release` stores with `Acquire` loads; the data
/// itself travels under the mailbox mutex.
fn run_posted_windows(mailbox: &Mutex<Mailbox>, turn: &AtomicU8, caller: Thread) {
    // A panic in here must not leave the caller parked: give the turn
    // back on the way out, and the caller finds the mutex poisoned.
    let _wake = SetTurnOnDrop {
        turn,
        to: CALLER,
        wake: &caller,
    };
    while wait_while(turn, CALLER) == WORKER {
        {
            let mut m = mailbox.lock().expect("calling thread panicked");
            let (inbox, end) = m.posted.take().expect("a posted window");
            m.ran = Some(advance(&mut m.sim, inbox, end));
        }
        // Fails only against QUIT, stored by a caller that is unwinding.
        if turn
            .compare_exchange(WORKER, CALLER, Ordering::Release, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        caller.unpark();
    }
}

/// Sets the turn flag and wakes the other side when dropped — on return
/// and on unwind alike, so a panic on one side cannot leave the other
/// parked forever.
struct SetTurnOnDrop<'a> {
    turn: &'a AtomicU8,
    to: u8,
    wake: &'a Thread,
}

impl Drop for SetTurnOnDrop<'_> {
    fn drop(&mut self) {
        self.turn.store(self.to, Ordering::Release);
        self.wake.unpark();
    }
}

/// Waits until the turn flag is no longer `from` and returns what it
/// became: [`YIELDS_BEFORE_PARK`] looks with a yield after each, then
/// parked between looks (whoever flips the flag unparks the waiter).
fn wait_while(turn: &AtomicU8, from: u8) -> u8 {
    let mut looks = 0;
    loop {
        let now = turn.load(Ordering::Acquire);
        if now != from {
            return now;
        }
        if looks < YIELDS_BEFORE_PARK {
            looks += 1;
            std::thread::yield_now();
        } else {
            std::thread::park();
        }
    }
}

// Windows the calling thread handed to the worker, per calling thread.
#[cfg(test)]
thread_local! {
    pub(crate) static HANDED_OVER: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Combines the two halves' reports into the sequential run's report.
///
/// The ownership cut makes every metric single-writer, so the merge is
/// exact — no float accumulation happens here:
///
/// * **flows** — receive side (delays, jitter, throughput) lives on the
///   access half; only the `sent` counter is adopted from the
///   backbone half's tracker ([`mtnet_traffic::FlowQos::adopt_sent`]);
/// * **handoffs, calls, fault transitions, re-registrations, recovery
///   latency** — access half only (the backbone half never touches
///   them, which `debug_assert`s below check);
/// * **signaling, drops, outage drops** — integer sums: each increment
///   site executes on exactly one half;
/// * **events** — the sum over the halves minus the duplicate executions
///   of replicated events (sweeps, fault edges) on the backbone half.
fn merge(sims: Vec<Simulator<World>>, duration: SimDuration) -> SimReport {
    let mut events: u64 = 0;
    let mut access: Option<SimReport> = None;
    let mut rest: Vec<SimReport> = Vec::new();
    for sim in sims {
        events += sim.events_processed();
        let world = sim.into_model();
        let own = world.shard.as_ref().expect("shard context").own;
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

/// Parses a shard count: a positive integer, nothing looser (the
/// harness `--shards` flag's validation). The error names the flag.
pub fn parse_shard_count(v: &str) -> Result<u32, String> {
    match mtnet_sim::runner::parse_count::<u32>(v) {
        Some(n) if n >= 1 => Ok(n),
        _ => Err(format!("--shards needs a positive integer, got {v:?}")),
    }
}

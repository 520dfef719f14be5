//! Hard real-time groups: everything that coordinates a gang across CPUs.
//!
//! The paper lists groups as a component of their own beside the local
//! and global schedulers: join/leave, election, barrier, reduction and
//! broadcast (§4.2), **group admission control** (Algorithm 1, §4.3) and
//! **phase correction** (§4.4). Algorithm 1 is "rendezvous, admit locally,
//! rendezvous, roll back or phase-correct" — two primitives composed —
//! and this module is built the same way:
//!
//! * one **rendezvous**: `arrive` pays the contended arrival at a group's
//!   barrier or collective and blocks the caller or hands the completer
//!   the departure schedule; `release` wakes the others at their staggered
//!   departures. The group syscalls, every step of Algorithm 1 and
//!   `GroupAdmitTeam` are that pair with a different [`Rendezvous`] value;
//! * one **ledger swap**: `LocalScheduler::swap_reservation`, which
//!   Algorithm 1's local step and each member of a team transaction share
//!   with individual admission.
//!
//! Algorithm 1 runs as an explicit per-thread continuation ([`GaCtx`]), so
//! the blocking collectives inside the call behave exactly like the
//! paper's: every coordination cost is paid at admission time, and zero
//! communication happens afterwards. The state lives in [`Gangs`], one
//! field of [`Node`]; the event pump enters through [`Node::gang_syscall`],
//! [`Node::ga_step`] (for a thread [`Gangs::in_admission`]) and
//! [`Node::admit_team_txn`] only.

use crate::node::{tok, Node, TK_RELEASE};
use nautix_des::{Cycles, DetRng, Nanos};
use nautix_groups::{
    correct_constraints, estimate_delta, CollectiveOutcome, CollectiveRelease, Decision, Group,
    GroupRegistry, MAX_GROUPS,
};
use nautix_hw::CpuId;
use nautix_kernel::{
    AdmissionError, Constraints, GroupError, GroupId, SysCall, SysResult, ThreadId, WaitKind,
};
use nautix_trace::{narrow, Kind, Kinds, Observer, Record, TraceRing, Tracing};

/// Timing record of one thread's pass through group admission control,
/// with the step boundaries Figure 10 reports. All wall-clock nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct GaTiming {
    /// The thread.
    pub tid: ThreadId,
    /// Group size at admission.
    pub n: usize,
    /// Call entry.
    pub t_call: Nanos,
    /// Leader election completed.
    pub t_elect: Nanos,
    /// Local admission control duration (the constant "Local Change
    /// Constraints" line of Figure 10c).
    pub local_admit_ns: Nanos,
    /// Error reduction completed (end of distributed admission control).
    pub t_reduce: Nanos,
    /// Final barrier + phase correction completed.
    pub t_done: Nanos,
}

/// Figure 10's view of the trace stream: every group-join duration and one
/// [`GaTiming`] per member per group admission, in emission order.
#[derive(Debug, Default)]
pub struct GaTimings {
    joins: Vec<(ThreadId, Nanos)>,
    admissions: Vec<GaTiming>,
}

impl GaTimings {
    /// Group-join durations (Figure 10a).
    pub fn joins(&self) -> &[(ThreadId, Nanos)] {
        &self.joins
    }

    /// The group-admission timing records (Figure 10b–d).
    pub fn admissions(&self) -> &[GaTiming] {
        &self.admissions
    }
}

impl Observer for GaTimings {
    fn kinds(&self) -> Kinds {
        Kinds::of(&[Kind::GroupJoin, Kind::GaSteps])
    }

    fn on_record(&mut self, r: &Record, _: &TraceRing) {
        match *r {
            Record::GroupJoin { tid, dur_ns, .. } => self.joins.push((tid as ThreadId, dur_ns)),
            Record::GaSteps {
                tid,
                n,
                call_ns,
                to_elect_ns,
                local_admit_ns,
                to_reduce_ns,
                to_done_ns,
            } => self.admissions.push(GaTiming {
                tid: tid as ThreadId,
                n: n.into(),
                t_call: call_ns,
                t_elect: call_ns + u64::from(to_elect_ns),
                local_admit_ns: local_admit_ns.into(),
                t_reduce: call_ns + u64::from(to_reduce_ns),
                t_done: call_ns + u64::from(to_done_ns),
            }),
            _ => {}
        }
    }
}

/// Where a thread stands in Algorithm 1: the rendezvous it is arriving at
/// or blocked in. What follows a rendezvous runs exactly once, when the
/// thread passes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GaPhase {
    /// Leader election; then the leader locks the group and attaches the
    /// constraints.
    Elect,
    /// Pre-admission barrier; then local admission control.
    Barrier1,
    /// Max-reduction over the local verdicts; then commit, or roll back to
    /// aperiodic.
    Reduce,
    /// Failure-path barrier; then the leader unlocks and all report the
    /// rejection.
    FallbackBarrier,
    /// Final barrier; then phase correction by release order.
    FinalBarrier,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct GaCtx {
    group: GroupId,
    constraints: Constraints,
    phase: GaPhase,
    leader: ThreadId,
    my_error: u64,
    admitted_here: bool,
    order: usize,
    delta_ns: Nanos,
    /// The Figure 10 steps, filled in as they complete.
    timing: GaTiming,
}

/// Serialization classes for the contended shared lines of a group. Each
/// class owns one row of [`MAX_GROUPS`] slots in the flat
/// [`Gangs::serial_until`] table, so the event path indexes instead of
/// hashing. Collective classes span one row per [`CollKind`].
const SER_JOIN: usize = 0;
const SER_BARRIER: usize = 1;
const SER_COLL: usize = 2; // + CollKind in 0..3
const SER_GA_COLL: usize = 5; // + CollKind in 0..2
const SER_GA_BARRIER: usize = 7;
const SER_CLASSES: usize = 8;

/// Flat index of a (class, group) serialization line. `MAX_GROUPS` is a
/// power of two, so masking keeps any `GroupId` in range (an out-of-range
/// id can only alias another line's timing, never index out of bounds).
fn serial_slot(class: usize, gid: GroupId) -> usize {
    debug_assert!(class < SER_CLASSES);
    class * MAX_GROUPS + (gid.0 as usize & (MAX_GROUPS - 1))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CollKind {
    Elect = 0,
    Reduce = 1,
    Broadcast = 2,
}

/// One of a group's rendezvous points as one caller uses it: the shared
/// line its arrivals serialise on, the group primitive arrived at (the
/// barrier when `coll` is `None`) and the salt of the RNG that draws the
/// departure stagger.
#[derive(Debug, Clone, Copy)]
struct Rendezvous {
    class: usize,
    coll: Option<CollKind>,
    salt: u64,
}

const BARRIER: Rendezvous = Rendezvous::barrier(SER_BARRIER, 0x5EED);
const GA_BARRIER: Rendezvous = Rendezvous::barrier(SER_GA_BARRIER, 0xBA44);
/// Shares the group-admission barrier's line: a group runs one admission
/// protocol at a time.
const TEAM_BARRIER: Rendezvous = Rendezvous::barrier(SER_GA_BARRIER, 0x7EA0);

impl Rendezvous {
    const fn barrier(class: usize, salt: u64) -> Self {
        Rendezvous {
            class,
            coll: None,
            salt,
        }
    }

    /// A collective of the syscall interface.
    const fn coll(kind: CollKind) -> Self {
        Rendezvous {
            class: SER_COLL + kind as usize,
            coll: Some(kind),
            salt: 0xC0_11EC,
        }
    }

    /// A collective inside Algorithm 1.
    const fn ga_coll(kind: CollKind) -> Self {
        Rendezvous {
            class: SER_GA_COLL + kind as usize,
            coll: Some(kind),
            salt: 0x6A,
        }
    }
}

/// What one arrival at a rendezvous found.
enum Arrival {
    /// No such group.
    NotFound,
    /// Not everyone is here: the caller is now blocked.
    Blocked,
    /// The caller completed the episode: the departure schedule in release
    /// order (the caller first), each entry carrying the collective's value
    /// (0 at a barrier).
    Complete(Vec<CollectiveRelease>),
}

fn admission_error_code(e: AdmissionError) -> u64 {
    match e {
        AdmissionError::Invalid(_) => 1,
        AdmissionError::UtilizationExceeded => 2,
        AdmissionError::TooFine => 3,
        AdmissionError::SporadicReservationExceeded => 4,
        AdmissionError::CapacityExceeded => 5,
        AdmissionError::GroupMemberRejected => 6,
        AdmissionError::LayerOvercommit => 7,
    }
}

/// The node's gang-coordination state; empty until [`Gangs::reset`].
#[derive(Default)]
pub(crate) struct Gangs {
    pub(crate) groups: GroupRegistry,
    /// Threads inside Algorithm 1, by thread id; grown with the thread
    /// table's high-water mark by `Node::track_thread`.
    pub(crate) ga: Vec<Option<GaCtx>>,
    /// Per-line serialization horizons modeling contended shared lines
    /// (group join, barrier and collective arrival): a flat
    /// `SER_CLASSES × MAX_GROUPS` table indexed by [`serial_slot`].
    serial_until: Vec<Cycles>,
    /// Apply the §4.4 phase correction (see `NodeConfig::phase_correction`).
    phase_correction: bool,
}

impl Gangs {
    /// Back to the boot state, keeping the tables' capacity: `ga` is
    /// emptied, with room reserved for `max_threads` contexts.
    pub(crate) fn reset(&mut self, max_threads: usize, phase_correction: bool) {
        self.groups = GroupRegistry::new();
        self.ga.clear();
        self.ga.reserve(max_threads);
        self.serial_until.clear();
        self.serial_until.resize(SER_CLASSES * MAX_GROUPS, 0);
        self.phase_correction = phase_correction;
    }

    /// Whether `tid` is inside Algorithm 1: its continuation, not its
    /// program, runs next, and runs as aperiodic work.
    pub(crate) fn in_admission(&self, tid: ThreadId) -> bool {
        self.ga[tid].is_some()
    }

    /// The group a running Algorithm 1 has passed a rendezvous of.
    fn held_group(&mut self, gid: GroupId) -> &mut Group {
        self.groups.get_mut(gid).expect("group vanished")
    }
}

impl Node {
    /// Every `SysCall::Group*`. Returns true if the thread blocked. Kept
    /// out of line: group calls are rare, and `dispatch`, which inlines the
    /// rest of the syscall switch, is the pump's hottest loop.
    #[inline(never)]
    pub(crate) fn gang_syscall(&mut self, cpu: CpuId, tid: ThreadId, sys: SysCall) -> bool {
        match sys {
            SysCall::GroupCreate { name } => {
                self.machine.charge(cpu, self.cm.atomic_rmw);
                self.pending_result[tid] = SysResult::Group(self.gangs.groups.create(name));
                false
            }
            SysCall::GroupJoin(gid) => {
                let t0 = self.wall_ns(cpu);
                let dur = self.contended_rmw(cpu, SER_JOIN, gid);
                let res = self.gangs.groups.join(gid, tid).map(|_| gid);
                if let Some(t) = self.trace.wants(Kind::GroupJoin) {
                    let t1 = self.wall_ns(cpu) + self.freq.cycles_to_ns(dur);
                    t.emit(Record::GroupJoin {
                        cpu: cpu as u32,
                        tid: tid as u32,
                        dur_ns: t1 - t0,
                    });
                }
                self.pending_result[tid] = SysResult::Group(res);
                false
            }
            SysCall::GroupLeave(gid) => {
                self.contended_rmw(cpu, SER_JOIN, gid);
                let res = self.gangs.groups.leave(gid, tid).map(|_| gid);
                self.pending_result[tid] = SysResult::Group(res);
                false
            }
            SysCall::GroupSize(gid) => {
                self.machine.charge(cpu, self.cm.atomic_rmw);
                let len = self.gangs.groups.get(gid).map_or(0, |g| g.len() as u64);
                self.pending_result[tid] = SysResult::Value(len);
                false
            }
            SysCall::GroupBarrier(gid) => self.rendezvous(cpu, tid, gid, BARRIER, 0),
            SysCall::GroupElect(gid) => {
                self.rendezvous(cpu, tid, gid, Rendezvous::coll(CollKind::Elect), tid as u64)
            }
            SysCall::GroupReduceMax { group, value } => {
                self.rendezvous(cpu, tid, group, Rendezvous::coll(CollKind::Reduce), value)
            }
            SysCall::GroupBroadcast { group, value } => {
                let at = Rendezvous::coll(CollKind::Broadcast);
                self.rendezvous(cpu, tid, group, at, value)
            }
            SysCall::GroupChangeConstraints { group, constraints } => {
                self.gangs.ga[tid] = Some(GaCtx {
                    group,
                    constraints,
                    phase: GaPhase::Elect,
                    leader: usize::MAX,
                    my_error: 0,
                    admitted_here: false,
                    order: 0,
                    delta_ns: 0,
                    timing: GaTiming {
                        tid,
                        n: 0,
                        t_call: self.wall_ns_busy(cpu),
                        t_elect: 0,
                        local_admit_ns: 0,
                        t_reduce: 0,
                        t_done: 0,
                    },
                });
                self.ga_step(cpu, tid)
            }
            SysCall::GroupAdmitTeam { group, constraints } => {
                match self.arrive(cpu, tid, group, TEAM_BARRIER, 0) {
                    Arrival::NotFound => self.not_found(tid),
                    Arrival::Blocked => true,
                    Arrival::Complete(rs) => {
                        self.admit_team_at_rendezvous(cpu, tid, group, constraints, &rs);
                        false
                    }
                }
            }
            other => unreachable!("not a group syscall: {other:?}"),
        }
    }

    /// Fail a group syscall on an unknown group; the thread did not block.
    fn not_found(&mut self, tid: ThreadId) -> bool {
        self.pending_result[tid] = SysResult::Group(Err(GroupError::NotFound));
        false
    }

    /// Model a contended RMW on one of `gid`'s shared lines: the caller
    /// queues behind earlier holders of the line and is charged the wait
    /// plus its own hold, which is returned.
    fn contended_rmw(&mut self, cpu: CpuId, class: usize, gid: GroupId) -> Cycles {
        let hold = self.machine.draw(self.cm.atomic_rmw_contended);
        let now = self.machine.now();
        let until = &mut self.gangs.serial_until[serial_slot(class, gid)];
        let start = (*until).max(now);
        *until = start + hold;
        let dur = start - now + hold;
        self.machine.charge_raw(cpu, dur);
        dur
    }

    /// The one arrival routine: pay the contended arrival at `at` of group
    /// `gid`, then block the caller or hand it, as the completer, the
    /// episode's departure schedule.
    fn arrive(
        &mut self,
        cpu: CpuId,
        tid: ThreadId,
        gid: GroupId,
        at: Rendezvous,
        value: u64,
    ) -> Arrival {
        self.contended_rmw(cpu, at.class, gid);
        let Ok(group) = self.gangs.groups.get_mut(gid) else {
            return Arrival::NotFound;
        };
        let mut rng = DetRng::seed_from(at.salt ^ self.machine.now() ^ (gid.0 as u64) << 32);
        let stagger = self.cm.barrier_release_stagger;
        let (coll, decision) = match at.coll {
            // A barrier is the collective whose value (0) nobody reads.
            None => (&mut group.barrier, Decision::Max),
            Some(CollKind::Elect) => (&mut group.election, Decision::Min),
            Some(CollKind::Reduce) => (&mut group.reduction, Decision::Max),
            Some(CollKind::Broadcast) => {
                // The source is the first member in join order.
                let leader = group.members().first().copied().unwrap_or(tid);
                (&mut group.broadcast, Decision::Of(leader))
            }
        };
        match coll.arrive(tid, value, decision, &mut rng, stagger) {
            CollectiveOutcome::Complete(rs) => Arrival::Complete(rs),
            CollectiveOutcome::Wait => {
                let wait = at.coll.map_or(WaitKind::Barrier, |_| WaitKind::Group);
                self.block(tid, wait);
                Arrival::Blocked
            }
        }
    }

    /// The one release scheduler: every member but the completer receives
    /// `result` and wakes at its staggered departure. Departures count
    /// from the *end* of the completer's (serialized) arrival — the
    /// instant its RMW actually lands on the shared line — not from the
    /// event timestamp at which the charge was issued.
    fn release(&mut self, completer: ThreadId, rs: &[CollectiveRelease], result: SysResult) {
        let ccpu = self.threads.expect(completer).cpu;
        let base = self.machine.busy_until(ccpu).max(self.machine.now());
        for r in rs {
            if r.tid == completer {
                continue;
            }
            let cpu = self.threads.expect(r.tid).cpu;
            self.pending_result[r.tid] = result;
            self.machine
                .schedule_wakeup(base + r.delay, tok(TK_RELEASE, r.tid as u64), Some(cpu));
        }
    }

    /// A barrier or collective syscall: arrive; the completer proceeds with
    /// the result, the rest receive it as they wake.
    fn rendezvous(
        &mut self,
        cpu: CpuId,
        tid: ThreadId,
        gid: GroupId,
        at: Rendezvous,
        value: u64,
    ) -> bool {
        match self.arrive(cpu, tid, gid, at, value) {
            Arrival::NotFound => self.not_found(tid),
            Arrival::Blocked => true,
            Arrival::Complete(rs) => {
                let result = at
                    .coll
                    .map_or(SysResult::None, |_| SysResult::Value(rs[0].result));
                self.release(tid, &rs, result);
                self.pending_result[tid] = result;
                false
            }
        }
    }

    /// The measured per-thread barrier-departure delay δ of one episode
    /// (§4.4); 0 with phase correction off.
    fn measured_delta(&self, rs: &[CollectiveRelease]) -> Nanos {
        if !self.gangs.phase_correction {
            return 0;
        }
        let delays_ns: Vec<Nanos> = rs.iter().map(|r| self.freq.cycles_to_ns(r.delay)).collect();
        estimate_delta(&delays_ns)
    }

    // ------------------------------------------------------------------
    // Group admission control: Algorithm 1 (§4.3) + phase correction (§4.4)
    // ------------------------------------------------------------------

    /// Advance `tid`'s group-admission continuation. Returns true if the
    /// thread blocked.
    pub(crate) fn ga_step(&mut self, cpu: CpuId, tid: ThreadId) -> bool {
        loop {
            let ctx = self.gangs.ga[tid].expect("ga context");
            let (at, mine) = match ctx.phase {
                GaPhase::Elect => (Rendezvous::ga_coll(CollKind::Elect), tid as u64),
                GaPhase::Reduce => (Rendezvous::ga_coll(CollKind::Reduce), ctx.my_error),
                _ => (GA_BARRIER, 0),
            };
            // Either a release delivered this rendezvous' value while the
            // thread was blocked in it, or the thread arrives now.
            let value = match std::mem::replace(&mut self.pending_result[tid], SysResult::None) {
                SysResult::Value(v) => v,
                _ => match self.arrive(cpu, tid, ctx.group, at, mine) {
                    Arrival::NotFound => {
                        self.gangs.ga[tid] = None;
                        return self.not_found(tid);
                    }
                    Arrival::Blocked => return true,
                    Arrival::Complete(rs) => {
                        let v = rs[0].result;
                        if at.coll.is_none() {
                            // Record release order and measured δ for
                            // every member.
                            let delta_ns = self.measured_delta(&rs);
                            for r in &rs {
                                if let Some(c) = self.gangs.ga[r.tid].as_mut() {
                                    c.order = r.order;
                                    c.timing.n = rs.len();
                                    c.delta_ns = delta_ns;
                                }
                            }
                        }
                        // A barrier wakes with a token value, so that
                        // re-entry can tell a passed rendezvous.
                        let woken = at.coll.map_or(1, |_| v);
                        self.release(tid, &rs, SysResult::Value(woken));
                        v
                    }
                },
            };
            // Past the rendezvous: its one-shot consequence.
            let now = self.wall_ns_busy(cpu);
            let mut ctx = self.gangs.ga[tid].expect("ga context");
            match ctx.phase {
                GaPhase::Elect => {
                    ctx.leader = value as usize;
                    ctx.timing.t_elect = now;
                    if ctx.leader == tid {
                        // lock group; attach constraints to group
                        self.machine.charge(cpu, self.cm.atomic_rmw);
                        self.machine.charge(cpu, self.cm.atomic_rmw);
                        let g = self.gangs.held_group(ctx.group);
                        g.lock(tid).expect("leader lock contention");
                        g.attached = Some(ctx.constraints);
                    }
                    ctx.phase = GaPhase::Barrier1;
                }
                GaPhase::Barrier1 => {
                    // conduct local admission control (in thread context,
                    // with the leader-attached constraints)
                    let t0 = self.machine.now();
                    self.machine.charge(cpu, self.cm.admission_local);
                    let dur = self.machine.busy_until(cpu).saturating_sub(t0);
                    let attached = self
                        .gangs
                        .groups
                        .get(ctx.group)
                        .ok()
                        .and_then(|g| g.attached)
                        .expect("leader attached constraints");
                    let old = self.ts[tid].constraints;
                    match self.sched[cpu].swap_reservation(tid, &old, &attached) {
                        Ok(()) => {
                            ctx.admitted_here = true;
                            ctx.constraints = attached;
                        }
                        Err(e) => ctx.my_error = admission_error_code(e),
                    }
                    ctx.timing.local_admit_ns = self.freq.cycles_to_ns(dur);
                    ctx.phase = GaPhase::Reduce;
                }
                GaPhase::Reduce => {
                    ctx.timing.t_reduce = now;
                    ctx.phase = if value == 0 {
                        GaPhase::FinalBarrier
                    } else {
                        self.fall_back(cpu, tid, &ctx);
                        GaPhase::FallbackBarrier
                    };
                }
                GaPhase::FallbackBarrier => {
                    if ctx.leader == tid {
                        let g = self.gangs.held_group(ctx.group);
                        g.attached = None;
                        g.unlock(tid).expect("leader unlock");
                    }
                    let rejected = Err(AdmissionError::GroupMemberRejected);
                    return self.finish_ga(tid, &ctx, now, rejected);
                }
                GaPhase::FinalBarrier => {
                    // phase correct my schedule based on my release order
                    let n = ctx.timing.n.max(1);
                    let corrected =
                        correct_constraints(ctx.constraints, ctx.order, n, ctx.delta_ns);
                    self.commit(tid, corrected, now);
                    if ctx.leader == tid {
                        let g = self.gangs.held_group(ctx.group);
                        g.unlock(tid).expect("leader unlock");
                    }
                    return self.finish_ga(tid, &ctx, now, Ok(()));
                }
            }
            self.gangs.ga[tid] = Some(ctx);
        }
    }

    /// "If any local admission control failed then readmit myself using
    /// default constraints": release what this member holds — the
    /// candidate, or the reservation its own rejection restored — and fall
    /// back to aperiodic.
    fn fall_back(&mut self, cpu: CpuId, tid: ThreadId, ctx: &GaCtx) {
        self.machine.charge(cpu, self.cm.admission_local);
        let held = if ctx.admitted_here {
            ctx.constraints
        } else {
            self.ts[tid].constraints
        };
        self.sched[cpu].load.release(&held);
        if let Some(t) = self.trace.wants(Kind::ConstraintsReleased) {
            if ctx.admitted_here || held.is_realtime() {
                t.emit(Record::ConstraintsReleased {
                    cpu: cpu as u32,
                    tid: tid as u32,
                });
            }
        }
        let fallback = Constraints::default_aperiodic();
        let cfg = *self.sched[cpu].config();
        self.sched[cpu]
            .load
            .admit(&cfg, &fallback)
            .expect("aperiodic admission cannot fail");
        self.ts[tid].constraints = fallback;
        self.ts[tid].job_active = false;
    }

    /// Leave Algorithm 1 with the group's verdict; the thread did not
    /// block.
    fn finish_ga(
        &mut self,
        tid: ThreadId,
        ctx: &GaCtx,
        t_done: Nanos,
        verdict: Result<(), AdmissionError>,
    ) -> bool {
        if let Some(t) = self.trace.wants(Kind::GaSteps) {
            let g = &ctx.timing;
            debug_assert!(g.n <= u16::MAX as usize, "group of {} members", g.n);
            t.emit(Record::GaSteps {
                tid: tid as u32,
                n: g.n as u16,
                call_ns: g.t_call,
                to_elect_ns: narrow(g.t_elect - g.t_call),
                local_admit_ns: narrow(g.local_admit_ns),
                to_reduce_ns: narrow(g.t_reduce - g.t_call),
                to_done_ns: narrow(t_done - g.t_call),
            });
        }
        self.gangs.ga[tid] = None;
        self.pending_result[tid] = SysResult::Admission(verdict);
        false
    }

    // ------------------------------------------------------------------
    // Batched group admission: one ledger transaction per team
    // ------------------------------------------------------------------

    /// The completer's half of the `GroupAdmitTeam` rendezvous: admit or
    /// reject the whole team in one ledger transaction and wake the others
    /// with the shared verdict at their staggered departures. Algorithm
    /// 1's election, per-member local admission and error reduction
    /// collapse into the barrier plus the transaction: the release order
    /// is the team's slot order, the measured departure stagger is δ.
    fn admit_team_at_rendezvous(
        &mut self,
        cpu: CpuId,
        tid: ThreadId,
        gid: GroupId,
        constraints: Constraints,
        rs: &[CollectiveRelease],
    ) {
        let members: Vec<ThreadId> = rs.iter().map(|r| r.tid).collect();
        let delta_ns = self.measured_delta(rs);
        // The transaction runs serially in completer context: one
        // local-admission charge per member on this CPU.
        for _ in 0..members.len() {
            self.machine.charge(cpu, self.cm.admission_local);
        }
        let anchor_ns = self.wall_ns_busy(cpu);
        let res = self.admit_team_txn(&members, constraints, anchor_ns, delta_ns);
        if let Some(t) = self.trace.wants(Kind::TeamAdmit) {
            t.emit(Record::TeamAdmit {
                cpu: cpu as u32,
                group: gid.0,
                members: members.len() as u32,
                accepted: res.is_ok(),
            });
        }
        // Members share one group-level verdict, like Algorithm 1.
        let verdict = SysResult::Admission(res.map_err(|_| AdmissionError::GroupMemberRejected));
        self.release(tid, rs, verdict);
        self.pending_result[tid] = verdict;
    }

    /// The all-or-nothing team transaction behind [`Node::admit`] (team
    /// targets) and the `GroupAdmitTeam` syscall. Admits `constraints` for
    /// each member in slot order on that member's CPU ledger; the first
    /// rejection restores every already-processed member (and the rejected
    /// member itself) to its previous reservation. On success each
    /// member's constraints are phase-corrected by slot, its job state
    /// cleared, and its schedule anchored at the common instant
    /// `anchor_ns`. Thread state changes only at commit, so until then
    /// each member's previous reservation is still the one on its thread.
    pub(crate) fn admit_team_txn(
        &mut self,
        members: &[ThreadId],
        constraints: Constraints,
        anchor_ns: Nanos,
        delta_ns: Nanos,
    ) -> Result<(), AdmissionError> {
        for (i, &m) in members.iter().enumerate() {
            let mcpu = self.threads.expect(m).cpu;
            let old = self.ts[m].constraints;
            if let Err(e) = self.sched[mcpu].swap_reservation(m, &old, &constraints) {
                // Unwind the processed members, newest first.
                for &m in members[..i].iter().rev() {
                    let mcpu = self.threads.expect(m).cpu;
                    let old = self.ts[m].constraints;
                    self.sched[mcpu].restore_reservation(m, &constraints, &old);
                }
                return Err(e);
            }
        }
        // Commit. The ledger keys on (period, slice), which the correction
        // leaves untouched — only phases move.
        let n = members.len().max(1);
        for (i, &m) in members.iter().enumerate() {
            self.commit(
                m,
                correct_constraints(constraints, i, n, delta_ns),
                anchor_ns,
            );
        }
        Ok(())
    }

    /// A gang member's admission takes effect: its phase-corrected
    /// constraints, a clean job state, and the schedule anchored at
    /// `anchor_ns`.
    fn commit(&mut self, tid: ThreadId, corrected: Constraints, anchor_ns: Nanos) {
        let cpu = self.threads.expect(tid).cpu;
        let st = &mut self.ts[tid];
        st.constraints = corrected;
        st.job_active = false;
        st.job_started = false;
        st.job_blocked = false;
        self.sched[cpu].anchor(st, anchor_ns);
    }
}

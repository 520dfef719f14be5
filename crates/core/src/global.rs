//! The global scheduler's standing interaction: the idle path (§3.4).
//!
//! "The global scheduler is the distributed system comprising the local
//! schedulers and their interactions" (§3). Besides gangs (`gang.rs`), the
//! one interaction that never stops is what a CPU does when its scheduler
//! picks the idle thread: reap exited threads for a bounded time, steal an
//! aperiodic thread from a backlogged neighbour, run an unsized task, or
//! halt with a retry poll armed only while stealable work exists somewhere.
//!
//! The state is [`Global`], one field of [`Node`]; the pump enters at
//! `dispatch`'s idle test, the `TK_STEAL_POLL` wakeup, `thread_exit` and
//! `spawn_inner`'s reap under table pressure. The invariant "backlog bit
//! `c` mirrors `sched[c].nonrt_len() > 1`" is written here only: queues
//! change through [`Node::enqueue_on`] / [`Node::dequeue_from`], or the
//! caller runs [`Node::note_backlog`] afterwards.

use crate::admission::StealPolicy;
use crate::local::InvokeReason;
use crate::node::{tok, Node, TK_STEAL_POLL};
use nautix_des::Nanos;
use nautix_hw::{shifted_victim, CpuId};
use nautix_kernel::ThreadId;
use nautix_trace::{Kind, Record, Tracing};

/// What one widening stage of a steal attempt concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageOutcome {
    /// A thread was migrated to the thief.
    Stole,
    /// Neither probed victim had a stealable backlog; the thief may widen
    /// to the next topology domain.
    NoBacklog,
    /// A backlogged victim was locked but held only unmigratable (bound)
    /// threads; the attempt ends without widening.
    LockedEmpty,
}

/// The idle path's state; empty until [`Global::reset`].
#[derive(Default)]
pub(crate) struct Global {
    /// Idle work-steal poll interval.
    steal_poll_ns: Nanos,
    /// Whether a CPU's steal retry poll is in flight.
    steal_poll_armed: Vec<bool>,
    /// Exited threads awaiting reaping, per CPU (thread-pool maintenance,
    /// §3.4: performed by the idle path under the local scheduler's lock
    /// for a bounded time).
    zombies: Vec<Vec<ThreadId>>,
    /// One bit per CPU whose non-RT queue holds a stealable backlog
    /// (`nonrt_len() > 1`): an idle pass walks the set bits instead of
    /// probing every scheduler on the machine.
    backlogged: Vec<u64>,
    /// Remote schedulers an idle pass looked into (work-count guard).
    #[cfg(test)]
    remote_inspected: u64,
}

impl Global {
    /// Back to the boot state of an `n`-CPU node, keeping capacity.
    pub(crate) fn reset(&mut self, n: usize, steal_poll_ns: Nanos) {
        self.steal_poll_ns = steal_poll_ns;
        self.steal_poll_armed.clear();
        self.steal_poll_armed.resize(n, false);
        self.zombies.resize_with(n, Vec::new);
        for z in &mut self.zombies {
            z.clear();
        }
        self.backlogged.clear();
        self.backlogged.resize(n.div_ceil(64), 0);
    }

    /// `cpu`'s steal retry poll fired; the next idle pass may re-arm it.
    pub(crate) fn poll_fired(&mut self, cpu: CpuId) {
        self.steal_poll_armed[cpu] = false;
    }

    /// `tid` exited on `cpu`: its table slot waits for the reaper.
    pub(crate) fn await_reap(&mut self, cpu: CpuId, tid: ThreadId) {
        self.zombies[cpu].push(tid);
    }
}

impl Node {
    /// Refresh `cpu`'s backlog bit after its scheduler's queues changed.
    #[inline]
    pub(crate) fn note_backlog(&mut self, cpu: CpuId) {
        let bit = 1u64 << (cpu % 64);
        let word = &mut self.global.backlogged[cpu / 64];
        if self.sched[cpu].nonrt_len() > 1 {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Queue `tid` on `cpu` by its constraints, keeping the backlog bit.
    #[inline]
    pub(crate) fn enqueue_on(&mut self, cpu: CpuId, tid: ThreadId, now: Nanos) {
        let st = &mut self.ts[tid];
        self.sched[cpu].enqueue(tid, st, now);
        self.note_backlog(cpu);
    }

    /// Take `tid` off every queue of `cpu`, keeping the backlog bit.
    #[inline]
    pub(crate) fn dequeue_from(&mut self, cpu: CpuId, tid: ThreadId) {
        self.sched[cpu].dequeue(tid);
        self.note_backlog(cpu);
    }

    /// `cpu`'s scheduler picked the idle thread.
    pub(crate) fn idle_behavior(&mut self, cpu: CpuId) {
        // 0. Thread-pool maintenance: reap this CPU's exited threads.
        self.reap(cpu);
        // 1. Work stealing (power-of-two-choices, aperiodic threads only).
        if self.cfg_sched.work_stealing && self.try_steal(cpu) {
            self.local_invoke(cpu, InvokeReason::Kick, false);
            self.dispatch(cpu);
            return;
        }
        // 2. Unsized lightweight tasks (the task-exec role).
        if let Some(task) = self.tasks[cpu].pop_unsized() {
            self.queued_tasks -= 1;
            self.tasks[cpu].helper_completed += 1;
            let idle = self.sched[cpu].idle;
            self.begin_op(cpu, idle, task.work);
            return;
        }
        // 3. Arm a steal retry poll if stealable work exists elsewhere.
        if self.cfg_sched.work_stealing && !self.global.steal_poll_armed[cpu] {
            let work_somewhere = self.stealable_backlog_elsewhere(cpu);
            debug_assert_eq!(
                work_somewhere,
                (0..self.sched.len()).any(|c| {
                    c != cpu
                        && self.sched[c].nonrt_len() > 1
                        && self.first_unbound_nonrt(c).is_some()
                }),
                "backlog bitmap out of date"
            );
            if work_somewhere {
                self.global.steal_poll_armed[cpu] = true;
                let at = self.machine.now() + self.freq.ns_to_cycles(self.global.steal_poll_ns);
                self.machine
                    .schedule_wakeup(at, tok(TK_STEAL_POLL, cpu as u64), Some(cpu));
            }
        }
        // 4. Halt until the next interrupt.
    }

    /// Reap exited threads bound to `cpu`: return their table slots to the
    /// pool. Bounded batch per idle pass, so the time under the scheduler
    /// lock stays bounded (§3.4).
    pub(crate) fn reap(&mut self, cpu: CpuId) -> usize {
        let mut reaped = 0;
        while reaped < 8 {
            let Some(tid) = self.global.zombies[cpu].pop() else {
                break;
            };
            self.machine.charge(cpu, self.cm.atomic_rmw);
            self.threads.reap(tid);
            reaped += 1;
        }
        reaped
    }

    /// The first thread in `cpu`'s non-RT queue that may migrate (bound
    /// threads never do), read straight off the ring — no snapshot `Vec`.
    fn first_unbound_nonrt(&self, cpu: CpuId) -> Option<ThreadId> {
        self.sched[cpu]
            .nonrt_iter()
            .find(|&t| !self.threads.expect(t).bound)
    }

    /// Whether any CPU other than `cpu` has a backlog a thief could take
    /// from. Looks only into the schedulers whose backlog bit is set.
    fn stealable_backlog_elsewhere(&mut self, cpu: CpuId) -> bool {
        for w in 0..self.global.backlogged.len() {
            let mut bits = self.global.backlogged[w];
            while bits != 0 {
                let c = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if c == cpu {
                    continue;
                }
                #[cfg(test)]
                {
                    self.global.remote_inspected += 1;
                }
                if self.first_unbound_nonrt(c).is_some() {
                    return true;
                }
            }
        }
        false
    }

    /// Pick a work-steal victim in the CPU domain `[lo, hi)`: uniform over
    /// the other CPUs there, never the stealer itself. Drawing from a span
    /// of `hi - lo - 1` and shifting the stealer's own index out of the
    /// image gives every other CPU equal probability without rejection
    /// sampling (one RNG draw per probe). Over the whole machine this is
    /// the original flat picker, draw for draw.
    fn pick_victim_in(&mut self, cpu: CpuId, lo: usize, hi: usize) -> CpuId {
        let r = self.machine.rand_uniform(0, (hi - lo - 2) as u64);
        shifted_victim(lo, hi, cpu, |_| r)
    }

    /// One steal attempt (§3.4): probe the thief's own LLC domain first and
    /// widen to the package and then the whole machine only when the
    /// narrower domain shows no stealable backlog. `Uniform` is the
    /// one-stage case — the whole machine directly — and so is either
    /// policy under a flat topology: today's baseline exactly.
    fn try_steal(&mut self, cpu: CpuId) -> bool {
        let n = self.sched.len();
        let uniform = self.cfg_sched.steal == StealPolicy::Uniform;
        for (lo, hi) in self.topo.steal_stages(cpu) {
            // A domain containing only the thief has no victims.
            if hi - lo < 2 || (uniform && hi - lo < n) {
                continue;
            }
            match self.steal_stage(cpu, lo, hi) {
                StageOutcome::Stole => return true,
                // The probed victim had backlog but nothing migratable;
                // widening now would double-charge the lock path — retry
                // on the next idle pass instead.
                StageOutcome::LockedEmpty => return false,
                StageOutcome::NoBacklog => {}
            }
        }
        false
    }

    /// Probe two victims in `[lo, hi)` and steal from the longer non-RT
    /// queue. "Only aperiodic threads can be stolen" (§3.4). Probe and
    /// lock/migration charges depend on the thief→victim hop distance
    /// (same-LLC probes are the flat model's shared-line reads).
    fn steal_stage(&mut self, cpu: CpuId, lo: usize, hi: usize) -> StageOutcome {
        let v1 = self.pick_victim_in(cpu, lo, hi);
        let v2 = self.pick_victim_in(cpu, lo, hi);
        // Probing the victims' queue lengths costs shared-line reads.
        let p1 = self.cm.steal_probe_for(self.topo.distance(cpu, v1));
        let p2 = self.cm.steal_probe_for(self.topo.distance(cpu, v2));
        self.machine.charge(cpu, p1);
        self.machine.charge(cpu, p2);
        let victim = if self.sched[v1].nonrt_len() >= self.sched[v2].nonrt_len() {
            v1
        } else {
            v2
        };
        // Steal only from backlogged victims: a single queued thread is
        // about to run right there; migrating it would hurt, not help.
        if self.sched[victim].nonrt_len() < 2 {
            return StageOutcome::NoBacklog;
        }
        // Lock the victim's scheduler only once work was ascertained.
        let dist = self.topo.distance(cpu, victim);
        self.machine.charge(cpu, self.cm.steal_lock_for(dist));
        let Some(tid) = self.first_unbound_nonrt(victim) else {
            return StageOutcome::LockedEmpty;
        };
        if let Some(t) = self.trace.wants(Kind::Steal) {
            t.emit(Record::Steal {
                thief: cpu as u32,
                victim: victim as u32,
                tid: tid as u32,
            });
        }
        self.dequeue_from(victim, tid);
        self.threads.expect_mut(tid).cpu = cpu;
        let now = self.wall_ns(cpu);
        self.enqueue_on(cpu, tid, now);
        self.sched[cpu].stats.steals += 1;
        self.sched[cpu].stats.steals_by_distance[dist.index()] += 1;
        StageOutcome::Stole
    }
}

#[cfg(test)]
mod steal_tests {
    use super::*;
    use crate::node::NodeConfig;
    use nautix_hw::MachineConfig;
    use nautix_kernel::IdleLoop;

    fn small_node(cpus: usize) -> Node {
        let mut cfg = NodeConfig::for_machine(MachineConfig::phi().with_cpus(cpus));
        cfg.calib_rounds = 0;
        Node::new(cfg)
    }

    #[test]
    fn pick_victim_never_self_and_covers_all_others() {
        let mut node = small_node(4);
        for cpu in 0..4 {
            let mut seen = [false; 4];
            for _ in 0..256 {
                let v = node.pick_victim_in(cpu, 0, 4);
                assert_ne!(v, cpu, "stealer probed itself");
                seen[v] = true;
            }
            for (other, hit) in seen.iter().enumerate() {
                assert!(
                    other == cpu || *hit,
                    "victim {other} never drawn for stealer {cpu}"
                );
            }
        }
    }

    #[test]
    fn steal_takes_from_longer_probed_queue() {
        let mut node = small_node(3);
        for _ in 0..6 {
            node.spawn_unbound(1, "w", Box::new(IdleLoop::new(1)))
                .unwrap();
        }
        assert_eq!(node.scheduler(1).nonrt_len(), 6);
        assert_eq!(node.scheduler(2).nonrt_len(), 0);
        let mut attempts = 0;
        while node.scheduler(1).nonrt_len() >= 2 && attempts < 200 {
            node.try_steal(0);
            attempts += 1;
        }
        // Power-of-two-choices from CPU 0 probes {1,2}: any pair touching
        // CPU 1 (3 of the 4 equally likely pairs) must pick it as the
        // longer queue; only the {2,2} pair finds nothing. Draining 5
        // threads therefore takes about 5/0.75 attempts — needing anywhere
        // near the 200 cap would mean the picker ignores queue lengths.
        assert!(node.scheduler(1).nonrt_len() < 2, "queue never drained");
        assert_eq!(node.scheduler(0).stats.steals, 5);
        assert!(attempts <= 60, "attempts {attempts} out of band");
    }

    /// Under a flat topology `Uniform` is `LlcFirst`: the same probes
    /// (draws and charges) and the same steals from the same seed.
    #[test]
    fn flat_uniform_and_llc_first_are_the_same_stealer() {
        let run = |steal| {
            let mut node = small_node(8);
            node.cfg_sched.steal = steal;
            for _ in 0..6 {
                node.spawn_unbound(5, "w", Box::new(IdleLoop::new(1)))
                    .unwrap();
            }
            let attempt = |_| {
                let stole = node.try_steal(0);
                let queued: Vec<_> = node.scheduler(0).nonrt_iter().collect();
                (stole, node.machine.busy_until(0), queued)
            };
            (0..40).map(attempt).collect::<Vec<_>>()
        };
        let trail = run(StealPolicy::Uniform);
        assert!(trail.iter().any(|t| t.0), "nothing was ever stolen");
        assert_eq!(trail, run(StealPolicy::LlcFirst));
    }

    #[test]
    fn bound_threads_are_never_stolen() {
        let mut node = small_node(3);
        for _ in 0..4 {
            node.spawn_on(1, "b", Box::new(IdleLoop::new(1))).unwrap();
        }
        for _ in 0..64 {
            assert!(!node.try_steal(0), "stole a bound thread");
        }
        assert_eq!(node.scheduler(1).nonrt_len(), 4);
    }

    #[test]
    fn idle_pass_looks_only_into_backlogged_schedulers() {
        let mut cfg = NodeConfig::for_machine(MachineConfig::phi().with_cpus(1024));
        cfg.calib_rounds = 0;
        cfg.max_threads = 1024 + 8;
        let mut node = Node::new(cfg);
        // Boot: every CPU takes its first pass and falls into the idle loop.
        node.run_for_ns(100_000);
        assert!((0..1024).all(|c| node.scheduler(c).stats.invocations > 0));
        assert_eq!(
            node.global.remote_inspected, 0,
            "no backlog, nothing to inspect"
        );
        // A single queued thread is not a backlog; three are.
        node.spawn_unbound(5, "w", Box::new(IdleLoop::new(1)))
            .unwrap();
        assert!(!node.stealable_backlog_elsewhere(700));
        assert_eq!(node.global.remote_inspected, 0);
        for _ in 0..2 {
            node.spawn_unbound(5, "w", Box::new(IdleLoop::new(1)))
                .unwrap();
        }
        assert!(node.stealable_backlog_elsewhere(700));
        assert_eq!(node.global.remote_inspected, 1, "only CPU 5 is backlogged");
        // The backlogged CPU does not count itself.
        assert!(!node.stealable_backlog_elsewhere(5));
        assert_eq!(node.global.remote_inspected, 1);
    }
}

//! Thread programs: how simulated threads express work to the kernel.
//!
//! A [`Program`] is a resumable state machine. Whenever its thread is
//! dispatched (or a previous action finishes), the node calls
//! [`Program::resume`] and obtains the next [`Action`]: compute for some
//! cycles, invoke a kernel service ([`SysCall`]), or exit. This mirrors how
//! a real thread alternates between user computation and kernel entries;
//! the discrete-event machinery charges each part its modeled cost.
//!
//! Results of service calls (clock readings, admission outcomes, group
//! handles, reduction values) are delivered through [`ResumeCx::result`] on
//! the next resume — the analogue of a return value materializing in `rax`
//! when the call instruction retires.

use crate::constraints::{AdmissionError, Constraints};
use crate::ids::GroupId;
use nautix_des::{Cycles, Nanos};
use nautix_hw::CpuId;

/// Identifier of a thread in the node's thread table.
pub type ThreadId = usize;

/// What a resumed program does next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Execute on the CPU for this many cycles (preemptible).
    Compute(Cycles),
    /// Enter the kernel for a service call.
    Call(SysCall),
    /// Terminate the thread.
    Exit,
}

/// Kernel services available to programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SysCall {
    /// Give up the CPU voluntarily; stay runnable.
    Yield,
    /// Declare this period's work done: the current real-time job
    /// completes early and the thread waits for its next arrival. (For a
    /// non-real-time thread this degenerates to a yield.) This is how a
    /// cyclic executive parks between frames.
    WaitNextPeriod,
    /// Block until at least `ns` from now.
    SleepNs(Nanos),
    /// Read this CPU's estimate of the shared wall clock; result is
    /// [`SysResult::Clock`].
    ReadClock,
    /// `nk_sched_thread_change_constraints`: individual admission control
    /// (§3.2). Result is [`SysResult::Admission`].
    ChangeConstraints(Constraints),
    /// `nk_group_sched_change_constraints`: group admission control,
    /// Algorithm 1 (§4.3). Result is [`SysResult::Admission`].
    GroupChangeConstraints {
        /// The group whose members all make this call.
        group: GroupId,
        /// The common constraints requested for every member.
        constraints: Constraints,
    },
    /// Batched group admission: members rendezvous at one barrier and the
    /// completer admits (or rejects) the entire team in a single ledger
    /// transaction with all-or-nothing rollback, replacing Algorithm 1's
    /// election + per-member local admission + error reduction. Result is
    /// [`SysResult::Admission`] for every member.
    GroupAdmitTeam {
        /// The group whose members all make this call.
        group: GroupId,
        /// The common constraints requested for every member.
        constraints: Constraints,
    },
    /// Create a named thread group; result is [`SysResult::Group`].
    GroupCreate {
        /// Human-readable group name (groups are named, §4.2).
        name: &'static str,
    },
    /// Join a group.
    GroupJoin(GroupId),
    /// Leave a group.
    GroupLeave(GroupId),
    /// Read the group's current member count; result is
    /// [`SysResult::Value`]. Used to settle membership before group
    /// admission control.
    GroupSize(GroupId),
    /// Block on the group barrier until all members arrive.
    GroupBarrier(GroupId),
    /// Group leader election; result is [`SysResult::Value`] carrying the
    /// elected leader's thread id.
    GroupElect(GroupId),
    /// Max-reduction of `value` over all members; result is
    /// [`SysResult::Value`]. (The paper reduces over admission error
    /// codes.)
    GroupReduceMax {
        /// Group to reduce across.
        group: GroupId,
        /// This member's contribution.
        value: u64,
    },
    /// Broadcast from the leader: members receive the leader's `value` as
    /// [`SysResult::Value`].
    GroupBroadcast {
        /// Group to broadcast within.
        group: GroupId,
        /// This member's value; only the leader's is delivered.
        value: u64,
    },
    /// Block until device interrupt `irq` next fires on this node. The
    /// second §3.5 steering mechanism: instead of running a handler at
    /// interrupt level, the interrupt is "steered toward a specific
    /// interrupt thread" which processes it in thread context — where the
    /// scheduler (and admission control) govern its CPU use.
    WaitIrq(u8),
    /// Enqueue a lightweight task (§3.1). `size` tags known-duration tasks
    /// that the scheduler may run inline; unsized tasks go to the
    /// task-exec thread.
    TaskSpawn {
        /// Declared size in cycles, if known.
        size: Option<Cycles>,
        /// Actual work the task performs, in cycles.
        work: Cycles,
    },
}

/// Result of the previous service call, delivered on resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysResult {
    /// No call was made, or the call returns nothing.
    None,
    /// Wall-clock reading in nanoseconds.
    Clock(Nanos),
    /// Outcome of individual or group admission control.
    Admission(Result<(), AdmissionError>),
    /// A created group's handle, or why creation failed.
    Group(Result<GroupId, GroupError>),
    /// A scalar result (election winner, reduction, broadcast).
    Value(u64),
}

/// Errors from group-management calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupError {
    /// No such group.
    NotFound,
    /// The calling thread is not a member.
    NotMember,
    /// The group's member table is full.
    Full,
    /// The operation conflicts with a concurrent group operation.
    Busy,
}

/// Context passed to [`Program::resume`].
#[derive(Debug)]
pub struct ResumeCx {
    /// The resumed thread.
    pub tid: ThreadId,
    /// The CPU the thread is running on.
    pub cpu: CpuId,
    /// This CPU's estimate of the shared wall clock, in nanoseconds. Free
    /// to read here (the node snapshots it); use [`SysCall::ReadClock`]
    /// when the program should pay for an explicit clock read.
    pub now_ns: Nanos,
    /// Result of the last service call.
    pub result: SysResult,
}

/// A resumable thread body.
pub trait Program {
    /// Produce the next action. Called when the thread is first
    /// dispatched, and again whenever the previous action completes.
    fn resume(&mut self, cx: &mut ResumeCx) -> Action;

    /// Debug label for traces.
    fn name(&self) -> &str {
        "program"
    }
}

/// A program assembled from a fixed script of actions, then exit.
/// Convenient for tests and microbenchmarks.
pub struct Script {
    actions: std::collections::VecDeque<Action>,
}

impl Script {
    /// A program that performs `actions` in order, then exits.
    pub fn new(actions: Vec<Action>) -> Self {
        Script {
            actions: actions.into(),
        }
    }
}

impl Program for Script {
    fn resume(&mut self, _cx: &mut ResumeCx) -> Action {
        self.actions.pop_front().unwrap_or(Action::Exit)
    }

    fn name(&self) -> &str {
        "script"
    }
}

/// A program driven by a closure; the closure sees the resume context and
/// a monotonically increasing call counter.
pub struct FnProgram<F: FnMut(&mut ResumeCx, u64) -> Action> {
    f: F,
    calls: u64,
}

impl<F: FnMut(&mut ResumeCx, u64) -> Action> FnProgram<F> {
    /// Wrap a closure as a program.
    pub fn new(f: F) -> Self {
        FnProgram { f, calls: 0 }
    }
}

impl<F: FnMut(&mut ResumeCx, u64) -> Action> Program for FnProgram<F> {
    fn resume(&mut self, cx: &mut ResumeCx) -> Action {
        let n = self.calls;
        self.calls += 1;
        (self.f)(cx, n)
    }

    fn name(&self) -> &str {
        "fn"
    }
}

/// The evaluation's always-runnable thread: the first resume requests
/// `constraints`, every later one computes `chunk` cycles, forever. The
/// verdict is not inspected: a rejected thread runs on as it was.
pub fn constrained_loop(constraints: Constraints, chunk: Cycles) -> impl Program {
    FnProgram::new(move |_cx, n| match n {
        0 => Action::Call(SysCall::ChangeConstraints(constraints)),
        _ => Action::Compute(chunk),
    })
}

/// The idle loop: computes in short bursts forever. The node substitutes
/// richer behavior (work stealing) around it.
pub struct IdleLoop {
    burst: Cycles,
}

impl IdleLoop {
    /// An idle loop with the given spin burst length.
    pub fn new(burst: Cycles) -> Self {
        IdleLoop { burst }
    }
}

impl Program for IdleLoop {
    fn resume(&mut self, _cx: &mut ResumeCx) -> Action {
        Action::Compute(self.burst)
    }

    fn name(&self) -> &str {
        "idle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cx() -> ResumeCx {
        ResumeCx {
            tid: 0,
            cpu: 0,
            now_ns: 0,
            result: SysResult::None,
        }
    }

    #[test]
    fn script_plays_in_order_then_exits() {
        let mut p = Script::new(vec![
            Action::Compute(10),
            Action::Call(SysCall::Yield),
            Action::Compute(20),
        ]);
        let mut c = cx();
        assert_eq!(p.resume(&mut c), Action::Compute(10));
        assert_eq!(p.resume(&mut c), Action::Call(SysCall::Yield));
        assert_eq!(p.resume(&mut c), Action::Compute(20));
        assert_eq!(p.resume(&mut c), Action::Exit);
        assert_eq!(p.resume(&mut c), Action::Exit);
    }

    #[test]
    fn fn_program_sees_call_counter() {
        let mut p = FnProgram::new(|_cx, n| {
            if n < 3 {
                Action::Compute(n + 1)
            } else {
                Action::Exit
            }
        });
        let mut c = cx();
        assert_eq!(p.resume(&mut c), Action::Compute(1));
        assert_eq!(p.resume(&mut c), Action::Compute(2));
        assert_eq!(p.resume(&mut c), Action::Compute(3));
        assert_eq!(p.resume(&mut c), Action::Exit);
    }

    #[test]
    fn idle_never_exits() {
        let mut p = IdleLoop::new(1000);
        let mut c = cx();
        for _ in 0..10 {
            assert_eq!(p.resume(&mut c), Action::Compute(1000));
        }
        assert_eq!(p.name(), "idle");
    }
}

//! Lightweight tasks (§3.1).
//!
//! Tasks are queued callbacks with "an even lower cost of creation,
//! launching, and exiting than Nautilus threads" — the analogue of Linux
//! softIRQs or Windows DPCs, with one crucial difference: a task may carry
//! a declared **size** (duration). Size-tagged tasks can be run directly
//! by the scheduler *when there is room before the next real-time arrival*;
//! untagged tasks must go to a helper (task-exec) thread. Either way,
//! periodic and sporadic threads are never delayed by tasks.

use crate::ids::TaskId;
use nautix_des::Cycles;
use nautix_trace::{Kind, Record, TraceHandle};
use std::collections::VecDeque;

/// The relevant task queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskQueueFull;

/// A queued task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// Handle.
    pub id: TaskId,
    /// Declared size in cycles, if the producer knows it.
    pub size: Option<Cycles>,
    /// Actual execution cost in cycles.
    pub work: Cycles,
}

/// The per-CPU task queues: one for size-tagged tasks, one for unsized.
#[derive(Debug)]
pub struct TaskQueues {
    sized: VecDeque<Task>,
    unsized_q: VecDeque<Task>,
    capacity: usize,
    next_id: u64,
    /// Tasks executed inline by the scheduler.
    pub inline_completed: u64,
    /// Tasks handed to the task-exec thread.
    pub helper_completed: u64,
    trace: Option<(TraceHandle, u32)>,
}

impl TaskQueues {
    /// Queues bounded at `capacity` tasks each.
    pub fn new(capacity: usize) -> Self {
        TaskQueues {
            sized: VecDeque::with_capacity(capacity),
            unsized_q: VecDeque::with_capacity(capacity),
            capacity,
            next_id: 0,
            inline_completed: 0,
            helper_completed: 0,
            trace: None,
        }
    }

    /// Back to the state [`TaskQueues::new`] builds for this capacity,
    /// keeping the queues' storage.
    pub fn reset(&mut self) {
        self.sized.clear();
        self.unsized_q.clear();
        self.next_id = 0;
        self.inline_completed = 0;
        self.helper_completed = 0;
        self.trace = None;
    }

    /// Install (or remove) the trace sink for this CPU's queues; `cpu` is
    /// stamped into every record emitted here.
    pub fn set_trace(&mut self, trace: Option<(TraceHandle, u32)>) {
        self.trace = trace;
    }

    /// Enqueue a task. Fails when the relevant queue is full.
    pub fn spawn(&mut self, size: Option<Cycles>, work: Cycles) -> Result<TaskId, TaskQueueFull> {
        let q = if size.is_some() {
            &mut self.sized
        } else {
            &mut self.unsized_q
        };
        if q.len() >= self.capacity {
            return Err(TaskQueueFull);
        }
        let id = TaskId(self.next_id);
        self.next_id += 1;
        q.push_back(Task { id, size, work });
        if let Some((t, cpu)) = self
            .trace
            .as_ref()
            .filter(|(t, _)| t.wants(Kind::TaskSpawn))
        {
            t.emit(Record::TaskSpawn {
                cpu: *cpu,
                sized: size.is_some(),
                work_cycles: work,
            });
        }
        Ok(id)
    }

    /// Pop the next size-tagged task that fits in `budget` cycles, if the
    /// head fits. (FIFO: the scheduler does not reorder past a task that
    /// doesn't fit — bounded, predictable behavior.)
    pub fn pop_sized_fitting(&mut self, budget: Cycles) -> Option<Task> {
        match self.sized.front() {
            Some(t) if t.size.unwrap_or(Cycles::MAX) <= budget => self.sized.pop_front(),
            _ => None,
        }
    }

    /// Pop the next unsized task (task-exec thread path).
    pub fn pop_unsized(&mut self) -> Option<Task> {
        self.unsized_q.pop_front()
    }

    /// Queued size-tagged tasks.
    pub fn sized_len(&self) -> usize {
        self.sized.len()
    }

    /// Queued unsized tasks.
    pub fn unsized_len(&self) -> usize {
        self.unsized_q.len()
    }

    /// Whether any tasks are queued.
    pub fn is_empty(&self) -> bool {
        self.sized.is_empty() && self.unsized_q.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_routes_by_size_tag() {
        let mut q = TaskQueues::new(4);
        q.spawn(Some(100), 100).unwrap();
        q.spawn(None, 500).unwrap();
        assert_eq!(q.sized_len(), 1);
        assert_eq!(q.unsized_len(), 1);
    }

    #[test]
    fn pop_sized_respects_budget() {
        let mut q = TaskQueues::new(4);
        q.spawn(Some(1000), 1000).unwrap();
        assert!(q.pop_sized_fitting(999).is_none());
        let t = q.pop_sized_fitting(1000).unwrap();
        assert_eq!(t.size, Some(1000));
        assert!(q.is_empty());
    }

    #[test]
    fn sized_queue_is_fifo_and_head_blocks() {
        let mut q = TaskQueues::new(4);
        q.spawn(Some(1000), 1000).unwrap();
        q.spawn(Some(10), 10).unwrap();
        // Head needs 1000; a 100-cycle budget must not skip to the small one.
        assert!(q.pop_sized_fitting(100).is_none());
        assert_eq!(q.sized_len(), 2);
    }

    #[test]
    fn unsized_pop_is_fifo() {
        let mut q = TaskQueues::new(4);
        let a = q.spawn(None, 1).unwrap();
        let b = q.spawn(None, 2).unwrap();
        assert_eq!(q.pop_unsized().unwrap().id, a);
        assert_eq!(q.pop_unsized().unwrap().id, b);
        assert!(q.pop_unsized().is_none());
    }

    #[test]
    fn capacity_bounds_each_queue() {
        let mut q = TaskQueues::new(2);
        q.spawn(Some(1), 1).unwrap();
        q.spawn(Some(1), 1).unwrap();
        assert!(q.spawn(Some(1), 1).is_err());
        // The unsized queue has its own bound.
        q.spawn(None, 1).unwrap();
        q.spawn(None, 1).unwrap();
        assert!(q.spawn(None, 1).is_err());
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let mut q = TaskQueues::new(8);
        let a = q.spawn(Some(1), 1).unwrap();
        let b = q.spawn(None, 1).unwrap();
        let c = q.spawn(Some(1), 1).unwrap();
        assert!(a.0 < b.0 && b.0 < c.0);
    }
}

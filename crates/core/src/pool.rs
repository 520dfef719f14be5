//! Cross-trial node pooling.
//!
//! Paper-scale sweeps run thousands of trials, and each used to pay full
//! node construction and teardown — hundreds of `Vec`/`Box` allocations per
//! trial, contending on the global allocator from every worker thread. A
//! [`NodePool`] instead keeps the previous trial's node and
//! [`Node::reset`]s it in place for the next configuration, reusing its
//! arenas. Reset is defined to be byte-identical to fresh construction
//! (see the pooled determinism test in `nautix-bench`), so pooling is
//! purely a performance choice. A reset costs O(CPUs + the previous
//! trial's thread high-water mark) — a 2-CPU trial that spawned one
//! thread pays for three thread slots, not the `max_threads` bound.
//!
//! The pool started life inside the bench harness; it lives here so other
//! layers that own node fleets — the cluster admission service keeps one
//! pool per shard — can reuse it without depending on the bench crate.

use crate::node::{Node, NodeConfig};

/// A worker-owned cache of one [`Node`] reused across trials.
#[derive(Default)]
pub struct NodePool {
    node: Option<Node>,
}

impl NodePool {
    /// An empty pool; the first [`NodePool::node`] call constructs.
    pub fn new() -> Self {
        Self::default()
    }

    /// A node booted for `cfg`: the pooled arena reset in place when one
    /// exists, a fresh construction otherwise.
    pub fn node(&mut self, cfg: NodeConfig) -> &mut Node {
        match &mut self.node {
            Some(n) => n.reset(cfg),
            slot @ None => *slot = Some(Node::new(cfg)),
        }
        self.node.as_mut().unwrap()
    }

    /// The pooled node *without* rebooting it — for owners that boot once
    /// via [`NodePool::node`] and then keep mutating the same node (the
    /// cluster layer's shards). `None` until the first boot.
    pub fn current(&mut self) -> Option<&mut Node> {
        self.node.as_mut()
    }
}

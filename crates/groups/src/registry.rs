//! Named thread groups (§4.2).
//!
//! "We have added a thread group programming interface to Nautilus for
//! group admission control and other purposes. Threads can create, join,
//! leave, and destroy named groups. A group can also have state associated
//! with it, for example the timing constraints that all members of a group
//! wish to share."
//!
//! The registry is fixed-capacity like the rest of the kernel state. Each
//! group owns its coordination primitives (barrier, election, reduction,
//! broadcast — see [`crate::coord`]) plus a leader lock and an attached
//! constraints slot, which is exactly the state Algorithm 1 manipulates.

use crate::coord::Collective;
use nautix_kernel::{Constraints, GroupError, GroupId, ThreadId};

/// Maximum simultaneous groups.
pub const MAX_GROUPS: usize = 64;
/// Maximum members per group (a fully populated Phi: 256).
pub const MAX_GROUP_MEMBERS: usize = 512;

/// One named group.
pub struct Group {
    /// The group's name.
    pub name: &'static str,
    /// Members in join order.
    members: Vec<ThreadId>,
    /// The group barrier.
    pub barrier: Collective,
    /// Leader election collective.
    pub election: Collective,
    /// Max-reduction collective.
    pub reduction: Collective,
    /// Broadcast collective.
    pub broadcast: Collective,
    /// The leader lock of Algorithm 1.
    locked_by: Option<ThreadId>,
    /// Constraints attached by the leader for the current group admission.
    pub attached: Option<Constraints>,
}

impl Group {
    fn new(name: &'static str) -> Self {
        Group {
            name,
            members: Vec::new(),
            barrier: Collective::new(1),
            election: Collective::new(1),
            reduction: Collective::new(1),
            broadcast: Collective::new(1),
            locked_by: None,
            attached: None,
        }
    }

    /// Members in join order.
    pub fn members(&self) -> &[ThreadId] {
        &self.members
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Try to take the group lock (leader-only in Algorithm 1; re-entrant
    /// for the holder).
    pub fn lock(&mut self, tid: ThreadId) -> Result<(), GroupError> {
        match self.locked_by {
            None => {
                self.locked_by = Some(tid);
                Ok(())
            }
            Some(holder) if holder == tid => Ok(()),
            Some(_) => Err(GroupError::Busy),
        }
    }

    /// Release the group lock.
    pub fn unlock(&mut self, tid: ThreadId) -> Result<(), GroupError> {
        match self.locked_by {
            Some(holder) if holder == tid => {
                self.locked_by = None;
                Ok(())
            }
            _ => Err(GroupError::Busy),
        }
    }

    /// The current lock holder.
    pub fn lock_holder(&self) -> Option<ThreadId> {
        self.locked_by
    }

    fn resize_collectives(&mut self) {
        let n = self.members.len().max(1);
        self.barrier.set_parties(n);
        self.election.set_parties(n);
        self.reduction.set_parties(n);
        self.broadcast.set_parties(n);
    }
}

/// The node-wide group registry.
pub struct GroupRegistry {
    groups: Vec<Option<Group>>,
    created: u64,
}

impl Default for GroupRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl GroupRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        GroupRegistry {
            groups: (0..MAX_GROUPS).map(|_| None).collect(),
            created: 0,
        }
    }

    /// Create a named group; the creator does not implicitly join.
    pub fn create(&mut self, name: &'static str) -> Result<GroupId, GroupError> {
        let Some(slot) = self.groups.iter().position(|g| g.is_none()) else {
            return Err(GroupError::Full);
        };
        self.groups[slot] = Some(Group::new(name));
        self.created += 1;
        Ok(GroupId(slot as u32))
    }

    /// Look up a group by name.
    pub fn find(&self, name: &str) -> Option<GroupId> {
        self.groups.iter().enumerate().find_map(|(i, g)| {
            g.as_ref()
                .filter(|g| g.name == name)
                .map(|_| GroupId(i as u32))
        })
    }

    /// Borrow a group.
    pub fn get(&self, gid: GroupId) -> Result<&Group, GroupError> {
        self.groups
            .get(gid.0 as usize)
            .and_then(|g| g.as_ref())
            .ok_or(GroupError::NotFound)
    }

    /// Mutably borrow a group.
    pub fn get_mut(&mut self, gid: GroupId) -> Result<&mut Group, GroupError> {
        self.groups
            .get_mut(gid.0 as usize)
            .and_then(|g| g.as_mut())
            .ok_or(GroupError::NotFound)
    }

    /// Join `tid` to the group.
    pub fn join(&mut self, gid: GroupId, tid: ThreadId) -> Result<(), GroupError> {
        let g = self.get_mut(gid)?;
        if g.members.contains(&tid) {
            return Ok(());
        }
        if g.members.len() >= MAX_GROUP_MEMBERS {
            return Err(GroupError::Full);
        }
        g.members.push(tid);
        g.resize_collectives();
        Ok(())
    }

    /// Remove `tid` from the group.
    pub fn leave(&mut self, gid: GroupId, tid: ThreadId) -> Result<(), GroupError> {
        let g = self.get_mut(gid)?;
        let Some(idx) = g.members.iter().position(|&m| m == tid) else {
            return Err(GroupError::NotMember);
        };
        g.members.remove(idx);
        g.resize_collectives();
        Ok(())
    }

    /// Destroy an empty group.
    pub fn destroy(&mut self, gid: GroupId) -> Result<(), GroupError> {
        let g = self.get(gid)?;
        if !g.is_empty() {
            return Err(GroupError::Busy);
        }
        self.groups[gid.0 as usize] = None;
        Ok(())
    }

    /// Groups created over the registry lifetime.
    pub fn created(&self) -> u64 {
        self.created
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_find_destroy() {
        let mut r = GroupRegistry::new();
        let g = r.create("bsp").unwrap();
        assert_eq!(r.find("bsp"), Some(g));
        assert_eq!(r.find("nope"), None);
        r.destroy(g).unwrap();
        assert_eq!(r.find("bsp"), None);
        assert!(matches!(r.get(g), Err(GroupError::NotFound)));
    }

    #[test]
    fn join_leave_updates_membership_and_parties() {
        let mut r = GroupRegistry::new();
        let g = r.create("g").unwrap();
        r.join(g, 1).unwrap();
        r.join(g, 2).unwrap();
        r.join(g, 3).unwrap();
        assert_eq!(r.get(g).unwrap().members(), &[1, 2, 3]);
        assert_eq!(r.get(g).unwrap().barrier.parties(), 3);
        r.leave(g, 2).unwrap();
        assert_eq!(r.get(g).unwrap().members(), &[1, 3]);
        assert_eq!(r.get(g).unwrap().barrier.parties(), 2);
    }

    #[test]
    fn duplicate_join_is_idempotent() {
        let mut r = GroupRegistry::new();
        let g = r.create("g").unwrap();
        r.join(g, 1).unwrap();
        r.join(g, 1).unwrap();
        assert_eq!(r.get(g).unwrap().len(), 1);
    }

    #[test]
    fn leave_requires_membership() {
        let mut r = GroupRegistry::new();
        let g = r.create("g").unwrap();
        assert!(matches!(r.leave(g, 9), Err(GroupError::NotMember)));
    }

    #[test]
    fn destroy_requires_empty() {
        let mut r = GroupRegistry::new();
        let g = r.create("g").unwrap();
        r.join(g, 1).unwrap();
        assert!(matches!(r.destroy(g), Err(GroupError::Busy)));
        r.leave(g, 1).unwrap();
        assert!(r.destroy(g).is_ok());
    }

    #[test]
    fn lock_is_exclusive_and_reentrant() {
        let mut r = GroupRegistry::new();
        let g = r.create("g").unwrap();
        let grp = r.get_mut(g).unwrap();
        grp.lock(1).unwrap();
        grp.lock(1).unwrap(); // re-entrant for the holder
        assert!(matches!(grp.lock(2), Err(GroupError::Busy)));
        assert!(matches!(grp.unlock(2), Err(GroupError::Busy)));
        grp.unlock(1).unwrap();
        grp.lock(2).unwrap();
        assert_eq!(grp.lock_holder(), Some(2));
    }

    #[test]
    fn registry_capacity_is_bounded() {
        let mut r = GroupRegistry::new();
        for _ in 0..MAX_GROUPS {
            r.create("x").unwrap();
        }
        assert!(matches!(r.create("overflow"), Err(GroupError::Full)));
    }

    #[test]
    fn slots_are_reused_after_destroy() {
        let mut r = GroupRegistry::new();
        let a = r.create("a").unwrap();
        r.destroy(a).unwrap();
        let b = r.create("b").unwrap();
        assert_eq!(a, b);
    }
}

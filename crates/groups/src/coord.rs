//! Blocking collectives: election, barrier, reduction, broadcast (§4.2).
//!
//! Group admission control "builds on other basic group features, namely
//! distributed election, barrier, reduction, and broadcast, all scoped to
//! the group." The paper deliberately uses *simple* (linear-cost) schemes;
//! Figure 10's linear growth with group size follows from that and is
//! reproduced here: each arrival pays a contended atomic on the shared
//! collective state (charged by the node), the last arriver flips the
//! flag, and the invalidation of the flag's cache line reaches the
//! spinners one transfer at a time — so departures are *staggered*. That
//! stagger is the per-thread barrier-departure delay δ that group
//! admission's phase correction measures and cancels (§4.4).
//!
//! A [`Collective`] collects one `(thread, value)` pair per member and
//! completes when the last member arrives. The *decision rule* is supplied
//! at completion time: min-value for election (lowest thread id wins, the
//! deterministic analogue of a CAS race), max for the error reduction of
//! Algorithm 1, leader's-value for broadcast. A barrier — Nautilus's
//! centralized sense-reversing spin barrier — is the collective whose
//! value nobody reads.

use nautix_des::{Cycles, DetRng};
use nautix_hw::Cost;
use nautix_kernel::ThreadId;

/// How a completed collective combines its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Smallest submitted value wins (leader election submits thread ids).
    Min,
    /// Largest submitted value wins (error-code reduction).
    Max,
    /// The value submitted by the given thread wins (broadcast source).
    Of(ThreadId),
}

/// One thread's release from a completed collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveRelease {
    /// The thread to release.
    pub tid: ThreadId,
    /// Release order (0 departs first — the completing arriver).
    pub order: usize,
    /// Departure delay after the completion instant.
    pub delay: Cycles,
    /// The collective's result, delivered to every member.
    pub result: u64,
}

/// Result of an arrival at a collective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectiveOutcome {
    /// The caller blocks until completion.
    Wait,
    /// The caller completed the collective; all members depart.
    Complete(Vec<CollectiveRelease>),
}

/// A reusable blocking collective over `parties` threads.
#[derive(Debug)]
pub struct Collective {
    parties: usize,
    arrived: Vec<(ThreadId, u64)>,
    episodes: u64,
}

impl Collective {
    /// A collective over `parties` threads.
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1);
        Collective {
            parties,
            arrived: Vec::with_capacity(parties),
            episodes: 0,
        }
    }

    /// Participant count.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Resize; only legal with no arrivals outstanding.
    pub fn set_parties(&mut self, parties: usize) {
        assert!(parties >= 1);
        assert!(
            self.arrived.is_empty(),
            "cannot resize a collective with waiters"
        );
        self.parties = parties;
    }

    /// Outstanding arrivals.
    pub fn waiting(&self) -> usize {
        self.arrived.len()
    }

    /// Completed episodes.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Thread `tid` arrives with `value`. The final arriver resolves the
    /// collective with `decision` and receives the release schedule.
    pub fn arrive(
        &mut self,
        tid: ThreadId,
        value: u64,
        decision: Decision,
        rng: &mut DetRng,
        stagger: Cost,
    ) -> CollectiveOutcome {
        debug_assert!(
            !self.arrived.iter().any(|&(t, _)| t == tid),
            "thread {tid} arrived twice"
        );
        self.arrived.push((tid, value));
        if self.arrived.len() < self.parties {
            return CollectiveOutcome::Wait;
        }
        self.episodes += 1;
        let result = match decision {
            Decision::Min => self.arrived.iter().map(|&(_, v)| v).min().unwrap(),
            Decision::Max => self.arrived.iter().map(|&(_, v)| v).max().unwrap(),
            Decision::Of(src) => self
                .arrived
                .iter()
                .find(|&&(t, _)| t == src)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("broadcast source {src} is not a participant")),
        };
        // The completing arriver departs first; earlier arrivals follow in
        // arrival order, one cache-line transfer apart.
        let mut releases = Vec::with_capacity(self.parties);
        releases.push(CollectiveRelease {
            tid,
            order: 0,
            delay: 0,
            result,
        });
        let mut delay = 0;
        let n = self.arrived.len();
        for (i, &(t, _)) in self.arrived[..n - 1].iter().enumerate() {
            delay += stagger.draw(rng);
            releases.push(CollectiveRelease {
                tid: t,
                order: i + 1,
                delay,
                result,
            });
        }
        self.arrived.clear();
        CollectiveOutcome::Complete(releases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(
        c: &mut Collective,
        inputs: &[(ThreadId, u64)],
        d: Decision,
    ) -> Vec<CollectiveRelease> {
        let mut rng = DetRng::seed_from(3);
        for &(t, v) in &inputs[..inputs.len() - 1] {
            assert_eq!(
                c.arrive(t, v, d, &mut rng, Cost::fixed(5)),
                CollectiveOutcome::Wait
            );
        }
        let &(t, v) = inputs.last().unwrap();
        match c.arrive(t, v, d, &mut rng, Cost::fixed(5)) {
            CollectiveOutcome::Complete(rs) => rs,
            _ => panic!("expected completion"),
        }
    }

    #[test]
    fn election_picks_min() {
        let mut c = Collective::new(3);
        let rs = complete(&mut c, &[(7, 7), (2, 2), (5, 5)], Decision::Min);
        assert!(rs.iter().all(|r| r.result == 2));
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn reduction_picks_max() {
        let mut c = Collective::new(4);
        let rs = complete(&mut c, &[(0, 0), (1, 9), (2, 3), (3, 1)], Decision::Max);
        assert!(rs.iter().all(|r| r.result == 9));
    }

    #[test]
    fn broadcast_delivers_source_value() {
        let mut c = Collective::new(3);
        let rs = complete(&mut c, &[(0, 100), (1, 200), (2, 300)], Decision::Of(1));
        assert!(rs.iter().all(|r| r.result == 200));
    }

    #[test]
    #[should_panic]
    fn broadcast_from_non_participant_panics() {
        let mut c = Collective::new(2);
        complete(&mut c, &[(0, 1), (1, 2)], Decision::Of(9));
    }

    #[test]
    fn releases_are_staggered_in_arrival_order() {
        let mut c = Collective::new(3);
        let rs = complete(&mut c, &[(10, 0), (11, 0), (12, 0)], Decision::Min);
        assert_eq!(rs[0].tid, 12); // completer departs first
        assert_eq!(rs[0].delay, 0);
        assert_eq!(rs[1].tid, 10);
        assert_eq!(rs[1].delay, 5);
        assert_eq!(rs[2].tid, 11);
        assert_eq!(rs[2].delay, 10);
    }

    /// The group barrier's draws, pinned against the separate kernel spin
    /// barrier type this one replaced: one seeded 5-party episode, captured
    /// from that type before it was deleted.
    #[test]
    fn barrier_episode_matches_the_spin_barrier_it_replaced() {
        let mut c = Collective::new(5);
        let mut rng = DetRng::seed_from(17);
        let stagger = Cost::new(180, 70);
        for t in [11, 3, 8, 20] {
            assert_eq!(
                c.arrive(t, 0, Decision::Max, &mut rng, stagger),
                CollectiveOutcome::Wait
            );
        }
        let CollectiveOutcome::Complete(rs) = c.arrive(5, 0, Decision::Max, &mut rng, stagger)
        else {
            panic!("expected completion");
        };
        let schedule: Vec<_> = rs.iter().map(|r| (r.tid, r.order, r.delay)).collect();
        assert_eq!(
            schedule,
            [
                (5, 0, 0),
                (11, 1, 241),
                (3, 2, 483),
                (8, 3, 665),
                (20, 4, 888)
            ]
        );
        assert!(rs.iter().all(|r| r.result == 0));
    }

    #[test]
    #[should_panic]
    fn resize_with_waiters_panics() {
        let mut c = Collective::new(3);
        let mut rng = DetRng::seed_from(17);
        c.arrive(0, 0, Decision::Max, &mut rng, Cost::fixed(1));
        c.set_parties(2);
    }

    #[test]
    fn resize_when_empty_works() {
        let mut c = Collective::new(3);
        c.set_parties(2);
        complete(&mut c, &[(0, 0), (1, 0)], Decision::Max);
        assert_eq!(c.episodes(), 1);
    }

    #[test]
    fn collective_is_reusable() {
        let mut c = Collective::new(2);
        complete(&mut c, &[(0, 1), (1, 2)], Decision::Max);
        let rs = complete(&mut c, &[(0, 5), (1, 3)], Decision::Max);
        assert_eq!(rs[0].result, 5);
        assert_eq!(c.episodes(), 2);
    }

    #[test]
    fn single_party_completes_immediately() {
        let mut c = Collective::new(1);
        let mut rng = DetRng::seed_from(1);
        match c.arrive(4, 42, Decision::Min, &mut rng, Cost::fixed(1)) {
            CollectiveOutcome::Complete(rs) => {
                assert_eq!(rs.len(), 1);
                assert_eq!(rs[0].result, 42);
            }
            _ => panic!(),
        }
    }
}

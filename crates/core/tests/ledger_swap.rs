//! The ledger-swap step (`LocalScheduler::swap_reservation`, reached here
//! through `change_constraints`, its thinnest caller) against a reference
//! ledger: a bare [`CpuLoad`] on which the test spells the step out —
//! release the old reservation, admit the new one, re-admit the old one on
//! rejection.
//!
//! Over random (background, old, new) triples across the three constraint
//! classes and the three admission policies, a collecting observer must
//! see exactly `[ConstraintsReleased] [SimCacheProbe] AdmitVerdict
//! [AdmitRollback]`, the ledger must end where the reference ends, a
//! rejection must count a rollback iff the old reservation was real-time,
//! and no probe may be left behind for the next caller.

use nautix_des::Freq;
use nautix_kernel::Constraints;
use nautix_rt::{AdmissionPolicy, CpuLoad, LocalScheduler, SchedConfig, SchedThread, SimCache};
use nautix_trace::{Kinds, Observer, Record, TraceHandle, TraceRing};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

struct Collect(Rc<RefCell<Vec<Record>>>);

impl Observer for Collect {
    fn kinds(&self) -> Kinds {
        Kinds::ALL
    }

    fn on_record(&mut self, r: &Record, _recent: &TraceRing) {
        self.0.borrow_mut().push(*r);
    }
}

fn arb_constraints() -> impl Strategy<Value = Constraints> {
    prop_oneof![
        (0u64..4).prop_map(|priority| Constraints::Aperiodic { priority }),
        // Period 10 µs – 2 ms on the 100 ns grid, slice 5–60% of it; the
        // occasional sub-minimum period exercises the TooFine rejection.
        (5u64..20_000, 5u64..60).prop_map(|(p100, pct)| Constraints::Periodic {
            phase: 0,
            period: p100 * 100,
            slice: (p100 * pct).max(1),
        }),
        (500u64..20_000, 1_000u64..9_000).prop_map(|(size, d100)| Constraints::Sporadic {
            phase: 0,
            size,
            deadline: (d100 * 100).max(size),
            aperiodic_priority: 1,
        }),
    ]
}

fn arb_policy() -> impl Strategy<Value = AdmissionPolicy> {
    prop_oneof![
        (0u64..1).prop_map(|_| AdmissionPolicy::EdfBound),
        (0u64..1).prop_map(|_| AdmissionPolicy::RmBound),
        (0u64..1).prop_map(|_| AdmissionPolicy::HyperperiodSim {
            overhead_ns: 1_000,
            window_cap_ns: 8_000_000,
        }),
    ]
}

/// `(periodic rescan, periodic maintained, sporadic, periodic count)`.
fn sums(load: &CpuLoad) -> (u64, u64, u64, usize) {
    (
        load.periodic_util_ppm_rescan(),
        load.periodic_util_ppm(),
        load.sporadic_util_ppm(),
        load.periodic_count(),
    )
}

proptest! {
    #[test]
    fn swap_matches_the_reference_ledger(
        policy in arb_policy(),
        background in prop::collection::vec(arb_constraints(), 0..5),
        old in arb_constraints(),
        new in arb_constraints(),
        memoized in prop::bool::ANY,
    ) {
        const TID: usize = 9;
        let cfg = SchedConfig { policy, ..SchedConfig::default() };
        let mut sched = LocalScheduler::new(0, 0, cfg, Freq::phi(), 16);
        if memoized {
            sched.load.install_sim_cache(Rc::new(RefCell::new(SimCache::new())));
        }
        let seen = Rc::new(RefCell::new(Vec::new()));
        let collect = Box::new(Collect(Rc::clone(&seen)));
        sched.set_trace(Some(TraceHandle::new(64, collect)));
        let mut reference = CpuLoad::new();
        let mut ts: Vec<SchedThread> = (0..16).map(|_| SchedThread::new_aperiodic()).collect();

        // Whatever of the background and `old` is admissible is the state
        // before the call; the reference mirrors each accepted step.
        for (i, c) in background.iter().chain([&old]).enumerate() {
            let tid = if i == background.len() { TID } else { i + 1 };
            if sched.change_constraints(tid, &mut ts[tid], *c, 0, true).is_ok() {
                reference.admit(&cfg, c).expect("reference diverged while loading");
            }
            let _ = reference.take_probe();
        }
        let old = ts[TID].constraints;
        let before = sums(&reference);
        prop_assert_eq!(sums(&sched.load), before);
        let rollbacks = sched.load.admission_stats().rollbacks;
        seen.borrow_mut().clear();

        // The step on the reference, spelled out.
        reference.release(&old);
        let expected = reference.admit(&cfg, &new);
        let simulated = reference.take_probe().is_some();
        if expected.is_err() {
            reference.admit(&cfg, &old).expect("reference re-admits what it held");
            let _ = reference.take_probe();
            prop_assert_eq!(sums(&reference), before);
        }

        let verdict = sched.change_constraints(TID, &mut ts[TID], new, 7, true);
        prop_assert_eq!(verdict, expected);
        prop_assert_eq!(sums(&sched.load), sums(&reference));
        prop_assert!(sched.load.take_probe().is_none(), "a probe outlived its verdict");
        prop_assert_eq!(ts[TID].constraints, if verdict.is_ok() { new } else { old });
        let rolled_back = verdict.is_err() && old.is_realtime();
        prop_assert_eq!(
            sched.load.admission_stats().rollbacks,
            rollbacks + u64::from(rolled_back)
        );

        // [ConstraintsReleased?] [SimCacheProbe?] AdmitVerdict [AdmitRollback?]
        let seen = seen.borrow();
        let mut records = seen.iter().peekable();
        if verdict.is_ok() && old.is_realtime() {
            let released = matches!(
                records.next(),
                Some(Record::ConstraintsReleased { cpu: 0, tid }) if *tid as usize == TID
            );
            prop_assert!(released, "no release record: {:?}", seen);
        }
        if simulated {
            prop_assert!(matches!(policy, AdmissionPolicy::HyperperiodSim { .. }));
            let Some(Record::SimCacheProbe { feasible, .. }) = records.next() else {
                panic!("no probe record: {seen:?}");
            };
            prop_assert_eq!(*feasible, verdict.is_ok());
        }
        let Some(Record::AdmitVerdict { tid, accepted, .. }) = records.next() else {
            panic!("no verdict record: {seen:?}");
        };
        prop_assert_eq!((*tid as usize, *accepted), (TID, verdict.is_ok()));
        if rolled_back {
            let restored = matches!(
                records.next(),
                Some(Record::AdmitRollback { tid, .. }) if *tid as usize == TID
            );
            prop_assert!(restored, "no rollback record: {:?}", seen);
        }
        prop_assert!(records.peek().is_none(), "extra records: {:?}", seen);
    }
}

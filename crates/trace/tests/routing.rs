//! Routing by subscription: an observer receives its kinds and nothing
//! else, and an emission site whose kind nobody subscribes to builds no
//! record.

use nautix_trace::{Kind, Kinds, Observer, Record, TraceHandle, TraceRing, Tracing};
use std::cell::RefCell;
use std::rc::Rc;

/// Counts what it receives, asserting it subscribed to it.
struct Count(Kinds, u64);

impl Observer for Count {
    fn kinds(&self) -> Kinds {
        self.0
    }

    fn on_record(&mut self, r: &Record, _: &TraceRing) {
        assert!(self.0.contains(r.kind()), "{r:?} was not subscribed");
        self.1 += 1;
    }
}

/// An observer-only sink routes each kind to its subscribers alone, and
/// the ring counts only subscribed records.
#[test]
fn observers_receive_only_their_kinds() {
    let kicks = Rc::new(RefCell::new(Count(Kinds::of(&[Kind::Kick]), 0)));
    let both = Kinds::of(&[Kind::Kick, Kind::TimerFire]);
    let fires = Rc::new(RefCell::new(Count(both, 0)));
    let trace = Some(TraceHandle::new(8, Box::new(Rc::clone(&kicks))));
    let h = trace.as_ref().unwrap();
    assert!(trace.wants(Kind::TimerFire).is_none(), "not subscribed yet");
    h.subscribe(Box::new(Rc::clone(&fires)));
    let mut built = 0;
    for i in 0..10 {
        let kick = Record::Kick {
            from: 0,
            to: 1,
            now_cycles: i,
        };
        let fire = Record::TimerFire {
            cpu: 0,
            at_cycles: i,
        };
        for r in [kick, fire, Record::Dequeued { cpu: 0, tid: 0 }] {
            if let Some(t) = trace.wants(r.kind()) {
                built += 1;
                t.emit(r);
            }
        }
    }
    assert_eq!(built, 20, "the Dequeued site built nothing");
    assert_eq!(h.records(), 20);
    assert_eq!(kicks.borrow().1, 10);
    assert_eq!(fires.borrow().1, 20);
    assert!(None::<TraceHandle>.wants(Kind::Kick).is_none());
}

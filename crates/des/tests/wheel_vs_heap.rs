//! Differential property tests: the timing wheel against the binary heap.
//!
//! The machine picks its queue backend from its width, so the two must be
//! *observationally identical* — same pop stream, same [`EventId`]s
//! (tie-breaks included), same counters — or a result would depend on how
//! many CPUs the rig has. These tests drive both backends
//! through identical random schedule/cancel/advance/pop churn and assert
//! the full observable state stays in lockstep at every step.

use nautix_des::event::HeapQueue;
use nautix_des::wheel::WheelQueue;
use nautix_des::{Cycles, EventId, EventQueue};
use proptest::prelude::*;

/// One scripted queue operation, decoded from raw random words so the
/// same script drives both backends.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at `now + delay`; delay mixes magnitudes from level-0
    /// spans up to beyond the 2^32-cycle wheel horizon.
    Push { delay: Cycles, key: u64 },
    /// Cancel the `pick`-th live id (mod the live count).
    Cancel { pick: usize },
    /// Advance both clocks part-way toward the next event (`frac`/256 of
    /// the gap) — this is what forces mid-window cascades.
    Advance { frac: u8 },
    /// Pop one event from each and compare.
    Pop,
    /// Drain one whole instant from each and compare the batches.
    PopBatch,
    /// `clear()` both back to power-on; the script continues on the reused
    /// queues (what every pooled trial does) and ids must still match.
    Clear,
}

fn decode(sel: u8, a: u64, b: u64) -> Op {
    // Rare, so queues still fill up between clears.
    if sel >= 253 {
        return Op::Clear;
    }
    match sel % 8 {
        // Weight pushes heaviest so queues actually fill up.
        0..=2 => {
            // Spans covering every wheel level plus the overflow list,
            // with a bias toward small deltas (timer-like traffic).
            let span = [
                0x40u64,
                0x100,
                0x4000,
                0x40_0000,
                0x4000_0000,
                0x2_0000_0000,
            ][(a % 6) as usize];
            Op::Push {
                delay: b % span,
                key: a ^ b,
            }
        }
        3 => Op::Cancel { pick: a as usize },
        4 => Op::Advance { frac: a as u8 },
        5 | 6 => Op::Pop,
        _ => Op::PopBatch,
    }
}

/// Assert every `&self` observable matches.
fn assert_state_eq(h: &HeapQueue<u64>, w: &WheelQueue<u64>) {
    assert_eq!(h.now(), w.now(), "clocks diverged");
    assert_eq!(h.peek_time(), w.peek_time(), "peek_time diverged");
    assert_eq!(h.is_empty(), w.is_empty(), "is_empty diverged");
    assert_eq!(h.backlog(), w.backlog(), "backlog diverged");
    assert_eq!(
        h.events_processed(),
        w.events_processed(),
        "events_processed diverged"
    );
}

fn run_script(ops: &[(u8, u64, u64)]) {
    let mut h: HeapQueue<u64> = HeapQueue::new();
    let mut w: WheelQueue<u64> = WheelQueue::new();
    // Live ids mirror each other exactly because both backends use the
    // same LIFO free-list discipline; minted ids are asserted equal.
    let mut live: Vec<EventId> = Vec::new();

    for &(sel, a, b) in ops {
        match decode(sel, a, b) {
            Op::Push { delay, key } => {
                let at = h.now().saturating_add(delay);
                let hid = h.schedule(at, key);
                let wid = w.schedule(at, key);
                prop_assert_eq!(hid, wid, "minted EventIds diverged");
                live.push(hid);
            }
            Op::Cancel { pick } => {
                if !live.is_empty() {
                    let id = live.swap_remove(pick % live.len());
                    let hc = h.cancel(id);
                    let wc = w.cancel(id);
                    prop_assert_eq!(hc, wc, "cancel outcome diverged");
                    prop_assert!(hc, "live-tracked id was not cancellable");
                }
            }
            Op::Advance { frac } => {
                if let Some(t) = h.peek_time() {
                    let gap = t - h.now();
                    let to = h.now() + gap / 256 * frac as u64;
                    h.advance_to(to);
                    w.advance_to(to);
                }
            }
            Op::Pop => {
                let hp = h.pop();
                let wp = w.pop();
                prop_assert_eq!(&hp, &wp, "pop streams diverged");
                if let Some((_, id, _)) = hp {
                    live.retain(|x| *x != id);
                }
            }
            Op::PopBatch => {
                let mut hb: Vec<(Cycles, EventId, u64)> = Vec::new();
                let mut wb: Vec<(Cycles, EventId, u64)> = Vec::new();
                let hn = h.pop_batch(|t, id, p| hb.push((t, id, p)));
                let wn = w.pop_batch(|t, id, p| wb.push((t, id, p)));
                prop_assert_eq!(hn, wn, "batch sizes diverged");
                prop_assert_eq!(&hb, &wb, "batch contents diverged");
                for (_, id, _) in &hb {
                    live.retain(|x| x != id);
                }
            }
            Op::Clear => {
                h.clear();
                w.clear();
                live.clear();
            }
        }
        assert_state_eq(&h, &w);
    }

    // Full drain: the remaining streams must agree event for event.
    loop {
        let hp = h.pop();
        let wp = w.pop();
        prop_assert_eq!(&hp, &wp, "drain streams diverged");
        assert_state_eq(&h, &w);
        if hp.is_none() {
            break;
        }
    }
}

proptest! {
    #[test]
    fn wheel_matches_heap_under_random_churn(
        ops in prop::collection::vec((0u8..=255, 0u64..u64::MAX, 0u64..u64::MAX), 1..400)
    ) {
        run_script(&ops);
    }
}

/// Same churn, but driven through the [`EventQueue`] facade with mixed
/// same-instant bursts — exercises the width selection path itself: a
/// 2-CPU rig's queue (heap) against a 64-CPU gang node's (wheel).
#[test]
fn facade_backends_agree_on_bursty_same_instant_traffic() {
    let mut h = EventQueue::for_width(2);
    let mut w = EventQueue::for_width(64);
    let mut state = 0xD1B5_4A32_D192_ED03u64;
    let mut next = |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    for round in 0..200u64 {
        // A burst of events at one instant, plus stragglers elsewhere.
        let t = h.now() + next(1 << 20);
        for i in 0..next(8) {
            let (a, b) = (
                h.schedule(t, round * 100 + i),
                w.schedule(t, round * 100 + i),
            );
            assert_eq!(a, b);
        }
        let far = h.now() + (1 << 16) + next(1 << 34);
        assert_eq!(h.schedule(far, round), w.schedule(far, round));
        let mut hb = Vec::new();
        let mut wb = Vec::new();
        h.pop_batch(|x, id, p| hb.push((x, id, p)));
        w.pop_batch(|x, id, p| wb.push((x, id, p)));
        assert_eq!(hb, wb, "facade batch diverged at round {round}");
    }
    loop {
        let (a, b) = (h.pop(), w.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

/// Cancel-during-cascade, pinned: events parked at a high level are
/// cancelled *after* an `advance_to` has cascaded their neighbours but
/// before their own slot drains, on both backends.
#[test]
fn cancel_during_cascade_stays_in_lockstep() {
    let mut h: HeapQueue<u64> = HeapQueue::new();
    let mut w: WheelQueue<u64> = WheelQueue::new();
    // Ten same-instant events parked at level 2 of the wheel.
    let t = 3 << 16;
    let ids: Vec<EventId> = (0..10)
        .map(|i| {
            let id = h.schedule(t, i);
            assert_eq!(id, w.schedule(t, i));
            id
        })
        .collect();
    // Advance into the window: the wheel cascades the slot down.
    h.advance_to(t - 1);
    w.advance_to(t - 1);
    // Cancel every other one mid-cascade-state.
    for id in ids.iter().step_by(2) {
        assert!(h.cancel(*id));
        assert!(w.cancel(*id));
    }
    let mut hb = Vec::new();
    let mut wb = Vec::new();
    assert_eq!(
        h.pop_batch(|x, id, p| hb.push((x, id, p))),
        w.pop_batch(|x, id, p| wb.push((x, id, p)))
    );
    assert_eq!(hb, wb);
    // Survivors fire in original insertion order.
    assert_eq!(
        hb.iter().map(|e| e.2).collect::<Vec<_>>(),
        vec![1, 3, 5, 7, 9]
    );
}

//! Behavioral tests of the machine model: timers, interrupts, operations,
//! busy windows, TPR filtering, IPIs, SMI missing time, and determinism.

use nautix_hw::{
    Cost, FaultPattern, Machine, MachineConfig, MachineEvent, SmiConfig, TimerMode, VEC_KICK,
};

fn small_machine() -> Machine {
    let cfg = MachineConfig::phi().with_cpus(4).with_seed(99);
    Machine::new(cfg)
}

#[test]
fn quiescent_machine_returns_none() {
    let mut m = small_machine();
    assert!(m.advance().is_none());
}

#[test]
fn one_shot_timer_fires_once() {
    let mut m = small_machine();
    m.set_timer_ns(0, 10_000); // 10 us
    let (t, ev) = m.advance().expect("timer should fire");
    assert_eq!(ev, MachineEvent::TimerInterrupt { cpu: 0 });
    // 10 us at 1.3 GHz is 13_000 cycles; quantization only rounds down and
    // the raise latency is small.
    assert!((12_900..=13_500).contains(&t), "fired at {t}");
    assert!(m.advance().is_none(), "one-shot must not re-fire");
}

#[test]
fn reprogramming_timer_cancels_previous() {
    let mut m = small_machine();
    m.set_timer_ns(0, 10_000);
    m.set_timer_ns(0, 50_000); // reprogram before it fires
    let (t, ev) = m.advance().unwrap();
    assert_eq!(ev, MachineEvent::TimerInterrupt { cpu: 0 });
    assert!(
        t >= m.freq().ns_to_cycles(50_000),
        "old programming fired at {t}"
    );
    assert!(m.advance().is_none());
}

#[test]
fn rearm_storm_allocates_nothing_and_only_latest_fires() {
    let mut m = small_machine();
    let backlog0 = m.event_backlog();
    // A pathological re-arm storm on one CPU: tens of thousands of
    // programmings before anything fires. Each one overwrites the per-CPU
    // slot in place, so pending event state must not grow at all.
    let mut expect = 0;
    for i in 0..50_000u64 {
        // `set_timer_cycles` returns the quantized hardware delay; with
        // the machine at t=0 that is also the armed deadline.
        expect = m.set_timer_cycles(0, 5_000 + (i % 7) * 1_000);
    }
    assert_eq!(
        m.event_backlog(),
        backlog0,
        "re-arming must not grow the event heap"
    );
    assert_eq!(m.timer_programmings(), 50_000);
    // Only the LAST programming exists.
    assert_eq!(m.timer_deadline(0), Some(expect));
    let (t, ev) = m.advance().expect("latest programming must fire");
    assert_eq!(ev, MachineEvent::TimerInterrupt { cpu: 0 });
    assert!(t >= expect, "fired at {t}, armed for {expect}");
    assert!(m.advance().is_none(), "exactly one firing for the storm");
}

#[test]
fn rearm_storm_on_one_cpu_leaves_other_timers_intact() {
    let mut m = small_machine();
    m.set_timer_cycles(1, 3_000);
    for _ in 0..10_000 {
        m.set_timer_cycles(0, 100_000);
    }
    let (_, ev) = m.advance().unwrap();
    assert_eq!(
        ev,
        MachineEvent::TimerInterrupt { cpu: 1 },
        "cpu 1's earlier deadline must win despite cpu 0's storm"
    );
    let (_, ev) = m.advance().unwrap();
    assert_eq!(ev, MachineEvent::TimerInterrupt { cpu: 0 });
}

#[test]
fn cancel_timer_suppresses_firing() {
    let mut m = small_machine();
    m.set_timer_ns(1, 10_000);
    m.cancel_timer(1);
    assert!(m.advance().is_none());
}

#[test]
fn timer_quantization_is_conservative() {
    let cfg = MachineConfig::phi()
        .with_cpus(1)
        .with_timer_mode(TimerMode::OneShot { tick_cycles: 1000 })
        .with_seed(1);
    let mut m = Machine::new(cfg);
    // 1.5 ticks requested -> 1 tick actual.
    let actual = m.set_timer_cycles(0, 1500);
    assert_eq!(actual, 1000);
}

#[test]
fn ops_complete_after_their_cycles() {
    let mut m = small_machine();
    m.begin_op(0, 5000, 77);
    let (t, ev) = m.advance().unwrap();
    assert_eq!(t, 5000);
    assert_eq!(ev, MachineEvent::OpComplete { cpu: 0, token: 77 });
}

#[test]
fn cancel_op_reports_remaining_cycles() {
    let mut m = small_machine();
    m.set_timer_ns(0, 2_000); // interrupts the op below
    m.begin_op(0, 100_000, 5);
    let (t, ev) = m.advance().unwrap();
    assert!(matches!(ev, MachineEvent::TimerInterrupt { cpu: 0 }));
    let (token, remaining) = m.cancel_op(0).expect("op was in flight");
    assert_eq!(token, 5);
    assert_eq!(remaining, 100_000 - t);
    assert!(m.advance().is_none(), "cancelled op must not complete");
}

#[test]
fn charge_defers_interrupt_delivery() {
    let mut m = small_machine();
    m.charge_raw(0, 50_000); // kernel busy for 50k cycles
    m.set_timer_cycles(0, 1_000); // would fire mid-busy
    let (t, ev) = m.advance().unwrap();
    assert!(matches!(ev, MachineEvent::TimerInterrupt { cpu: 0 }));
    assert!(t >= 50_000, "delivered during the busy window at {t}");
}

#[test]
fn tpr_blocks_device_interrupts_until_lowered() {
    let mut m = small_machine();
    m.set_tpr(2, 13); // hard-RT thread running: only priority >13 delivered
    m.raise_irq(2, 4);
    assert!(m.advance().is_none(), "blocked vector must stay pending");
    m.set_tpr(2, 0);
    let (_, ev) = m.advance().unwrap();
    assert_eq!(ev, MachineEvent::DeviceInterrupt { cpu: 2, irq: 4 });
}

#[test]
fn tpr_does_not_block_scheduling_vectors() {
    let mut m = small_machine();
    m.set_tpr(1, 13);
    m.set_timer_ns(1, 1_000);
    m.send_kick(0, 1);
    let mut got_timer = false;
    let mut got_kick = false;
    while let Some((_, ev)) = m.advance() {
        match ev {
            MachineEvent::TimerInterrupt { cpu: 1 } => got_timer = true,
            MachineEvent::Ipi { cpu: 1, vector } if vector == VEC_KICK => got_kick = true,
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert!(got_timer && got_kick);
}

#[test]
fn ipi_has_latency() {
    let mut m = small_machine();
    m.send_kick(0, 3);
    let (t, ev) = m.advance().unwrap();
    assert!(matches!(ev, MachineEvent::Ipi { cpu: 3, .. }));
    let lat = m.cost_model().ipi_latency;
    assert!(t >= lat.base && t <= lat.worst());
}

#[test]
fn boot_skew_gives_cpu0_zero_offset_and_others_positive() {
    let m = Machine::new(MachineConfig::phi().with_cpus(8).with_seed(3));
    assert_eq!(m.tsc_true_offset(0), 0);
    let mut nonzero = 0;
    for c in 1..8 {
        let off = m.tsc_true_offset(c);
        assert!(off >= 0);
        if off != 0 {
            nonzero += 1;
        }
    }
    assert!(nonzero >= 6, "boot skew should almost surely be nonzero");
}

#[test]
fn tsc_reads_reflect_offset_and_time() {
    let mut m = small_machine();
    let off1 = m.tsc_true_offset(1);
    assert_eq!(m.read_tsc(1) as i64, off1);
    m.begin_op(0, 1000, 0);
    m.advance();
    assert_eq!(m.read_tsc(1) as i64, 1000 + off1);
}

#[test]
fn adjust_tsc_moves_phase_with_bounded_slop() {
    let mut m = small_machine();
    let before = m.tsc_true_offset(2);
    assert!(m.adjust_tsc(2, -before));
    let resid = m.tsc_true_offset(2);
    let slop = m.cost_model().tsc_write_granularity.worst() as i64;
    assert!(
        resid >= 0 && resid <= slop,
        "residual {resid} slop bound {slop}"
    );
}

#[test]
fn smi_stretches_inflight_ops() {
    // One periodic SMI at t=10_000 stalling ~13_000 cycles.
    let smi = SmiConfig {
        pattern: FaultPattern::Periodic {
            interval: 10_000_000,
        },
        duration: Cost::fixed(13_000),
    };
    // First SMI enters at t=interval... use a small interval variant:
    let smi_soon = SmiConfig {
        pattern: FaultPattern::Periodic { interval: 10_000 },
        duration: smi.duration,
    };
    let cfg = MachineConfig::phi()
        .with_cpus(2)
        .with_seed(7)
        .with_smi(smi_soon);
    let mut m = Machine::new(cfg);
    m.begin_op(0, 50_000, 1);
    let (t, ev) = m.advance().unwrap();
    assert_eq!(ev, MachineEvent::OpComplete { cpu: 0, token: 1 });
    // SMIs enter 10_000 cycles after each stall ends: at 10k, 33k, 56k and
    // 79k, each stretching the op by 13_000. The op needs 50_000 cycles of
    // actual execution, so it completes at 50_000 + 4 x 13_000 = 102_000.
    assert_eq!(t, 102_000);
    assert_eq!(m.smi_stats().count, 4);
    assert_eq!(m.smi_stats().stalled_cycles, 52_000);
}

#[test]
fn smi_defers_interrupt_delivery_but_not_tsc() {
    let smi = SmiConfig {
        pattern: FaultPattern::Periodic { interval: 5_000 },
        duration: Cost::fixed(20_000),
    };
    let cfg = MachineConfig::phi().with_cpus(1).with_seed(7).with_smi(smi);
    let mut m = Machine::new(cfg);
    m.set_timer_cycles(0, 6_000); // fires inside the SMI window [5k, 25k)
    let (t, ev) = m.advance().unwrap();
    assert!(matches!(ev, MachineEvent::TimerInterrupt { cpu: 0 }));
    assert!(t >= 25_000, "handler ran during SMI at {t}");
    // Missing time: the TSC shows the full elapsed time, stall included.
    assert_eq!(m.read_tsc(0), t);
}

#[test]
fn wakeups_fire_in_order_with_tokens() {
    let mut m = small_machine();
    m.schedule_wakeup(300, 3, None);
    m.schedule_wakeup(100, 1, None);
    m.schedule_wakeup(200, 2, None);
    let mut tokens = Vec::new();
    while let Some((_, ev)) = m.advance() {
        if let MachineEvent::Wakeup { token } = ev {
            tokens.push(token);
        }
    }
    assert_eq!(tokens, vec![1, 2, 3]);
}

#[test]
fn cancelled_wakeup_does_not_fire() {
    let mut m = small_machine();
    let ev = m.schedule_wakeup(100, 1, None);
    m.schedule_wakeup(200, 2, None);
    m.cancel_wakeup(ev);
    let (_, got) = m.advance().unwrap();
    assert_eq!(got, MachineEvent::Wakeup { token: 2 });
}

#[test]
fn cpu_bound_wakeup_defers_on_busy_window() {
    let mut m = small_machine();
    m.charge_raw(1, 10_000);
    m.schedule_wakeup(100, 9, Some(1));
    let (t, _) = m.advance().unwrap();
    assert!(t >= 10_000);
}

/// An SMI-noisy machine config for the determinism tests below.
fn noisy(cpus: usize, seed: u64) -> MachineConfig {
    MachineConfig::phi()
        .with_cpus(cpus)
        .with_seed(seed)
        .with_smi(SmiConfig {
            pattern: FaultPattern::Poisson {
                mean_interval: 100_000,
            },
            duration: Cost::new(5_000, 2_000),
        })
}

/// The first 32 events of a four-CPU timer ping-pong on `m`.
fn trace(m: &mut Machine) -> Vec<(u64, String)> {
    for c in 0..4 {
        m.set_timer_ns(c, 10_000 + c as u64 * 100);
    }
    let mut log = Vec::new();
    for _ in 0..32 {
        match m.advance() {
            Some((t, ev)) => {
                log.push((t, format!("{ev:?}")));
                if let MachineEvent::TimerInterrupt { cpu } = ev {
                    m.set_timer_ns(cpu, 10_000);
                }
            }
            None => break,
        }
    }
    log
}

#[test]
fn identical_seeds_produce_identical_traces() {
    let run = |seed: u64| trace(&mut Machine::new(noisy(4, seed)));
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43));
}

#[test]
fn reset_across_the_queue_width_boundary_replays_like_a_fresh_machine() {
    // A 4-CPU machine runs the heap and a 64-CPU one the wheel
    // (`EventQueue::for_width`); a pooled machine re-shaped across that
    // boundary, either way, must rebuild its queue and then be
    // indistinguishable from a fresh machine of the new shape.
    for (from, to) in [(64, 4), (4, 64)] {
        let mut pooled = Machine::new(noisy(from, 7));
        trace(&mut pooled);
        pooled.reset(noisy(to, 42));
        let fresh = trace(&mut Machine::new(noisy(to, 42)));
        assert_eq!(trace(&mut pooled), fresh, "{from} -> {to} CPUs");
        assert_eq!(fresh.len(), 32);
    }
}

#[test]
#[should_panic]
fn double_begin_op_panics() {
    let mut m = small_machine();
    m.begin_op(0, 100, 1);
    m.begin_op(0, 100, 2);
}

#[test]
fn pending_device_irq_survives_an_smi() {
    // Masked by TPR, then an SMI passes; lowering the TPR afterwards must
    // still deliver the interrupt exactly once.
    let smi = SmiConfig {
        pattern: FaultPattern::Periodic { interval: 5_000 },
        duration: Cost::fixed(2_000),
    };
    let cfg = MachineConfig::phi()
        .with_cpus(1)
        .with_seed(13)
        .with_smi(smi);
    let mut m = Machine::new(cfg);
    m.set_tpr(0, 13);
    m.raise_irq(0, 9);
    // Nothing deliverable yet; run past a few SMIs via a far timer.
    m.set_timer_cycles(0, 20_000);
    let (_, ev) = m.advance().unwrap();
    assert!(matches!(ev, MachineEvent::TimerInterrupt { cpu: 0 }));
    m.set_tpr(0, 0);
    let (_, ev) = m.advance().unwrap();
    assert_eq!(ev, MachineEvent::DeviceInterrupt { cpu: 0, irq: 9 });
}

#[test]
fn self_kick_is_delivered() {
    let mut m = small_machine();
    m.send_kick(2, 2);
    let (_, ev) = m.advance().unwrap();
    assert!(matches!(ev, MachineEvent::Ipi { cpu: 2, .. }));
}

#[test]
fn interrupts_queue_behind_a_long_busy_window_in_order() {
    let mut m = small_machine();
    m.charge_raw(0, 100_000);
    m.set_timer_cycles(0, 1_000);
    m.send_kick(1, 0);
    m.raise_irq(0, 3);
    let mut order = Vec::new();
    while let Some((t, ev)) = m.advance() {
        assert!(t >= 100_000, "delivered inside the busy window at {t}");
        order.push(format!("{ev:?}"));
    }
    assert_eq!(order.len(), 3, "all three deferred interrupts must arrive");
}

#[test]
fn zero_cycle_op_completes_immediately() {
    let mut m = small_machine();
    m.begin_op(1, 0, 42);
    let (t, ev) = m.advance().unwrap();
    assert_eq!(t, 0);
    assert_eq!(ev, MachineEvent::OpComplete { cpu: 1, token: 42 });
}

#[test]
fn cancel_without_op_returns_none() {
    let mut m = small_machine();
    assert!(m.cancel_op(0).is_none());
    assert!(!m.op_in_flight(0));
}

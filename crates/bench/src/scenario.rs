//! Scenario record/replay: one trial, captured completely.
//!
//! A [`Scenario`] is everything that determines a trial's simulated
//! history: the full machine configuration (platform, CPU count, timer
//! mode, SMI/fault plans, topology, seed), the scheduler
//! configuration, the node knobs the sweep harnesses touch, the oracle /
//! sabotage arming flags, and a [`Workload`] descriptor naming the
//! programs to spawn. Because every trial in this crate is a pure
//! function of its parameters (the harness contract), a `Scenario` is a
//! *sufficient* record: replaying it on any host, at any thread count,
//! pooled or fresh, reproduces the original trial's event count and
//! stats snapshot byte for byte.
//!
//! Scenarios serialize through the workspace's one strict text codec
//! ([`Scenario::to_replay_string`] / [`Scenario::from_replay_string`]):
//! the line framing of [`nautix_stats::text`] — [`REPLAY_HEADER`], one
//! `key value` line per field in a fixed order, `end` — around values
//! spelled by [`nautix_des::text`]. Unknown versions, missing or reordered
//! keys, truncated fault plans, `+5` for `5` are all hard errors, so a
//! stale, corrupted or hand-edited replay file cannot silently reproduce
//! a *different* trial: two accepted files are the same trial iff they
//! are the same bytes.
//!
//! The sweep harnesses ([`crate::missrate`], [`crate::fault_sweep`]) run
//! every trial through [`Scenario::run_recorded`], which additionally
//! (a) streams the trial's delta snapshot to the process stats hub when
//! one is installed, and (b) if `NAUTIX_REPLAY_DIR` is set and the trial
//! panics — an armed oracle flagging an invariant violation — writes
//! `<name>.replay` into that directory before propagating the panic, so a
//! one-in-a-million anomaly arrives as a one-line repro command.

use crate::harness::{stream_delta, NodePool};
use nautix_cluster::{ClusterConfig, ClusterOutcome, PlacementStrategy};
use nautix_des::text::{field, split, Value};
use nautix_des::Nanos;
use nautix_hw::{CpuId, FaultPlan, FaultStats, MachineConfig, Platform};
use nautix_kernel::{constrained_loop, Action, Constraints, FnProgram};
use nautix_rt::{
    DegradePolicy, DegradeStats, HarnessConfig, LayerSpec, LayerTable, Node, NodeConfig,
    SchedConfig,
};
use nautix_stats::text::{Reader, Writer};
use nautix_stats::StatsSnapshot;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Header line of the replay codec; the string is the version. Bump it
/// when fields are added, removed, or reordered: a parser only ever
/// accepts its own. v2 added the `cluster` workload tag; v3 added the
/// `sched.layers` table, the `node.sabotage_layer` arming flag, and the
/// `layer_mix` workload tag; v4 dropped `machine.queue` and `sched.engine`
/// (neither is configuration any more: the machine picks its queue from
/// its width, and admission has one engine).
pub const REPLAY_HEADER: &str = "nautix-replay v4";

/// What the trial runs on the configured node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figures 6–9 probe: one always-runnable periodic thread on
    /// CPU 1 requesting `(period, slice)` with one period of phase,
    /// running for `jobs + 20` periods.
    MissRate {
        /// Period τ in ns.
        period_ns: Nanos,
        /// Slice in ns.
        slice_ns: Nanos,
        /// Jobs to observe (run length is `period * (jobs + 20)`).
        jobs: u64,
    },
    /// The fault-sweep mix: a periodic probe on CPU 1 (slice =
    /// `period * pct / 100`, floored at 500 ns) plus a sporadic burst on
    /// CPU 2 (size = the probe slice, deadline = 4 periods).
    FaultMix {
        /// Probe period τ in ns.
        period_ns: Nanos,
        /// Probe slice as % of period.
        slice_pct: u64,
        /// Jobs to observe.
        jobs: u64,
    },
    /// Two competing periodic threads on CPU 1: `slow` (created first,
    /// so lower tid) at 5× the period, and `fast` at `(period, slice)`.
    /// Whenever both jobs are runnable EDF must pick `fast`, so this is
    /// the workload that makes a FIFO-sabotaged dispatcher visibly
    /// violate EDF — the oracle-emission smoke runs on it.
    Competing {
        /// Fast thread's period in ns (slow runs at 5×).
        period_ns: Nanos,
        /// Fast thread's slice in ns (slow gets 5×).
        slice_ns: Nanos,
        /// Fast-thread jobs to observe.
        jobs: u64,
    },
    /// A cluster admission run (codec v2): `shards` nodes — each built
    /// from the scenario's machine/sched configuration, per-shard seeds
    /// derived from `machine.seed` — processing `tenants` arrivals under
    /// `strategy`. The cluster-only knobs the scenario does not carry
    /// (slots per CPU, stream rates) are [`ClusterConfig::new`] defaults,
    /// which are part of the codec contract.
    Cluster {
        /// Fleet size.
        shards: usize,
        /// Tenant arrivals to process.
        tenants: u64,
        /// Placement strategy.
        strategy: PlacementStrategy,
    },
    /// The layer-starvation mix (codec v3): a periodic RT probe on CPU 1
    /// (slice = `period * slice_pct / 100`, floored at 500 ns) plus an
    /// always-runnable aperiodic hog on the same CPU. Under a three-layer
    /// table the hog's background layer drains its bucket every window
    /// and throttles — the layer-isolation oracle's primary subject.
    LayerMix {
        /// Probe period τ in ns.
        period_ns: Nanos,
        /// Probe slice as % of period.
        slice_pct: u64,
        /// Jobs to observe.
        jobs: u64,
    },
}

/// `<tag>:<a>:<b>:<c>` — `missrate`/`competing` carry period, slice and
/// jobs; `fault_mix`/`layer_mix` period, slice percent and jobs; `cluster`
/// shards, tenants and the strategy name.
impl Value for Workload {
    fn encode(&self) -> String {
        let (tag, a, b, c) = match *self {
            Workload::MissRate {
                period_ns,
                slice_ns,
                jobs,
            } => ("missrate", period_ns, slice_ns, jobs.encode()),
            Workload::FaultMix {
                period_ns,
                slice_pct,
                jobs,
            } => ("fault_mix", period_ns, slice_pct, jobs.encode()),
            Workload::Competing {
                period_ns,
                slice_ns,
                jobs,
            } => ("competing", period_ns, slice_ns, jobs.encode()),
            Workload::Cluster {
                shards,
                tenants,
                strategy,
            } => ("cluster", shards as u64, tenants, strategy.encode()),
            Workload::LayerMix {
                period_ns,
                slice_pct,
                jobs,
            } => ("layer_mix", period_ns, slice_pct, jobs.encode()),
        };
        format!("{tag}:{a}:{b}:{c}")
    }

    fn parse(s: &str) -> Result<Workload, String> {
        let [tag, a, b, c] = split(s, ':', "workload")?;
        Ok(match tag {
            "missrate" => Workload::MissRate {
                period_ns: field(a, "workload period")?,
                slice_ns: field(b, "workload slice")?,
                jobs: field(c, "workload jobs")?,
            },
            "fault_mix" => Workload::FaultMix {
                period_ns: field(a, "workload period")?,
                slice_pct: field(b, "workload slice_pct")?,
                jobs: field(c, "workload jobs")?,
            },
            "competing" => Workload::Competing {
                period_ns: field(a, "workload period")?,
                slice_ns: field(b, "workload slice")?,
                jobs: field(c, "workload jobs")?,
            },
            "cluster" => Workload::Cluster {
                shards: field(a, "workload shards")?,
                tenants: field(b, "workload tenants")?,
                strategy: field(c, "workload strategy")?,
            },
            "layer_mix" => Workload::LayerMix {
                period_ns: field(a, "workload period")?,
                slice_pct: field(b, "workload slice_pct")?,
                jobs: field(c, "workload jobs")?,
            },
            _ => return Err(format!("workload: unknown tag `{tag}`")),
        })
    }
}

/// Everything that determines one trial. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Replay-file stem; restricted to `[A-Za-z0-9._-]`.
    pub name: String,
    /// The full machine configuration, seed included.
    pub machine: MachineConfig,
    /// The boot-time scheduler configuration.
    pub sched: SchedConfig,
    /// CPUs receiving external device interrupts.
    pub laden: Vec<CpuId>,
    /// Boot-time TSC calibration rounds.
    pub calib_rounds: u32,
    /// System-wide thread bound.
    pub max_threads: usize,
    /// Idle work-steal poll interval.
    pub steal_poll_ns: Nanos,
    /// §4.4 phase correction during group admission.
    pub phase_correction: bool,
    /// Arm the online invariant oracles on the replayed node.
    pub oracles: bool,
    /// Enable the deliberately broken FIFO dispatch on this CPU (the
    /// oracle-regression sabotage).
    pub sabotage_fifo: Option<CpuId>,
    /// Enable the deliberately over-generous layer-bucket refill on this
    /// CPU (the layer-isolation-oracle sabotage).
    pub sabotage_layer: Option<CpuId>,
    /// The programs to run.
    pub workload: Workload,
}

/// The observable result of one trial: the determinism contract is that a
/// replayed scenario reproduces this value byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// Simulated machine events processed.
    pub events: u64,
    /// The node's full stats snapshot (`trials = 1`).
    pub snapshot: StatsSnapshot,
    /// Probe jobs completed (met + missed).
    pub jobs: u64,
    /// Probe deadline miss rate.
    pub miss_rate: f64,
    /// Mean lateness of missing probe jobs, ns.
    pub miss_mean_ns: f64,
    /// Standard deviation of probe lateness, ns.
    pub miss_std_ns: f64,
    /// Per-lane injection counters from the machine.
    pub faults: FaultStats,
    /// Degradation responses across the node's schedulers.
    pub degrade: DegradeStats,
}

impl Scenario {
    /// The Figures 6–9 trial (see [`crate::missrate`]): admission
    /// disabled so infeasible constraints can be mapped, floors lowered to
    /// admit µs-scale probes, 2 CPUs. The topology comes from the ambient
    /// environment (`NAUTIX_TOPOLOGY`) exactly as the sweep's machines'
    /// does — the recorded scenario pins whatever was in effect.
    pub fn missrate(
        platform: Platform,
        period_ns: Nanos,
        slice_ns: Nanos,
        jobs: u64,
        seed: u64,
    ) -> Scenario {
        let mut cfg = NodeConfig::for_machine(
            MachineConfig::for_platform(platform)
                .with_cpus(2)
                .with_seed(seed),
        );
        cfg.sched.admission_enabled = false;
        cfg.sched.min_period_ns = 100;
        cfg.sched.min_slice_ns = 50;
        cfg.sched.granularity_ns = 1;
        let name = format!(
            "missrate_{}_{}_p{}_s{}_j{}_x{}",
            platform.encode(),
            cfg.machine.topology.label(),
            period_ns,
            slice_ns,
            jobs,
            seed
        );
        Scenario::from_node_config(
            name,
            cfg,
            Workload::MissRate {
                period_ns,
                slice_ns,
                jobs,
            },
        )
    }

    /// The fault-sweep trial (see [`crate::fault_sweep`]): a 3-CPU Phi
    /// with [`FaultPlan::noisy`] at `intensity` (disabled at 0.0) and
    /// graceful degradation armed with a 2-miss threshold.
    pub fn fault_mix(
        intensity: f64,
        period_ns: Nanos,
        slice_pct: u64,
        jobs: u64,
        seed: u64,
    ) -> Scenario {
        let machine = MachineConfig::for_platform(Platform::Phi)
            .with_cpus(3)
            .with_seed(seed);
        let plan = if intensity > 0.0 {
            FaultPlan::noisy(machine.platform.freq(), intensity)
        } else {
            FaultPlan::disabled()
        };
        let degrade = DegradePolicy {
            miss_threshold: 2,
            ..DegradePolicy::enabled()
        };
        let name = format!(
            "fault_{}_i{}_p{}_pct{}_j{}_x{}",
            machine.topology.label(),
            (intensity * 100.0).round() as u64,
            period_ns,
            slice_pct,
            jobs,
            seed
        );
        let mut cfg = NodeConfig::for_machine(machine);
        cfg.machine.faults = plan;
        cfg.sched.degrade = degrade;
        Scenario::from_node_config(
            name,
            cfg,
            Workload::FaultMix {
                period_ns,
                slice_pct,
                jobs,
            },
        )
    }

    /// A competing-periodics trial on a default-configured 2-CPU Phi
    /// (admission on): the workload of the `oracle_sabotage` regression
    /// test, packaged as a replayable scenario. With `oracles` armed and
    /// `sabotage_fifo` set on CPU 1 the EDF oracle flags the first
    /// deadline-skipping dispatch, so this is the emission smoke's
    /// force-flagged trial.
    pub fn competing(period_ns: Nanos, slice_ns: Nanos, jobs: u64, seed: u64) -> Scenario {
        let cfg = NodeConfig::for_machine(
            MachineConfig::for_platform(Platform::Phi)
                .with_cpus(2)
                .with_seed(seed),
        );
        let name = format!(
            "competing_{}_p{}_s{}_j{}_x{}",
            cfg.machine.topology.label(),
            period_ns,
            slice_ns,
            jobs,
            seed
        );
        Scenario::from_node_config(
            name,
            cfg,
            Workload::Competing {
                period_ns,
                slice_ns,
                jobs,
            },
        )
    }

    /// A cluster admission run: `shards` nodes of `cpus` CPUs each
    /// processing `tenants` arrivals under `strategy` (see
    /// [`nautix_cluster`]). The machine and scheduler configuration are
    /// [`ClusterConfig::new`]'s — topology pinned, the
    /// overhead-aware admission policy armed — so a recorded cluster
    /// scenario never depends on ambient environment knobs.
    pub fn cluster(
        shards: usize,
        cpus: usize,
        tenants: u64,
        strategy: PlacementStrategy,
        seed: u64,
    ) -> Scenario {
        let cc = ClusterConfig::new(shards, cpus, tenants, strategy).with_seed(seed);
        let mut cfg = NodeConfig::for_machine(cc.machine.clone().with_seed(seed));
        cfg.sched = cc.sched;
        let name = format!(
            "cluster_{}x{}_{}_t{}_x{}",
            shards,
            cpus,
            strategy.name(),
            tenants,
            seed
        );
        Scenario::from_node_config(
            name,
            cfg,
            Workload::Cluster {
                shards,
                tenants,
                strategy,
            },
        )
    }

    /// The layer-starvation trial: a 2-CPU Phi with the canonical
    /// three-layer table (RT 75%, batch 10%, background 10%, 10 ms
    /// windows) running [`Workload::LayerMix`]. The RT probe saturates
    /// its layer while the aperiodic hog's background layer throttles
    /// every window — the pinned corpus scenario for PR-10's bandwidth
    /// control, and the armed workload of the layer-oracle sabotage test.
    pub fn layer_starve(period_ns: Nanos, slice_pct: u64, jobs: u64, seed: u64) -> Scenario {
        let mut cfg = NodeConfig::for_machine(
            MachineConfig::for_platform(Platform::Phi)
                .with_cpus(2)
                .with_seed(seed),
        );
        cfg.sched.layers = LayerTable::three_way(
            LayerSpec {
                guarantee_ppm: 750_000,
                burst_ppm: 0,
            },
            LayerSpec {
                guarantee_ppm: 100_000,
                burst_ppm: 0,
            },
            LayerSpec {
                guarantee_ppm: 100_000,
                burst_ppm: 0,
            },
            10_000_000,
        )
        .expect("three-way layer table is valid");
        let name = format!(
            "layer_{}_p{}_pct{}_j{}_x{}",
            cfg.machine.topology.label(),
            period_ns,
            slice_pct,
            jobs,
            seed
        );
        Scenario::from_node_config(
            name,
            cfg,
            Workload::LayerMix {
                period_ns,
                slice_pct,
                jobs,
            },
        )
    }

    /// The [`ClusterConfig`] a [`Workload::Cluster`] scenario replays.
    ///
    /// # Panics
    /// If the workload is not a cluster run.
    pub fn cluster_config(&self) -> ClusterConfig {
        let Workload::Cluster {
            shards,
            tenants,
            strategy,
        } = self.workload
        else {
            panic!("scenario `{}` is not a cluster workload", self.name);
        };
        let mut cc = ClusterConfig::new(shards, self.machine.n_cpus, tenants, strategy)
            .with_seed(self.machine.seed);
        // The scenario's machine/sched lines override the constructor's
        // defaults — the replay file is the source of truth.
        cc.machine = self.machine.clone();
        cc.sched = self.sched;
        cc
    }

    /// Capture an assembled [`NodeConfig`] (the sweeps' exact construction
    /// path) into a scenario: all seven fields. What a run records is not
    /// configuration but observers registered on the booted node, which
    /// cannot change the simulated history.
    pub fn from_node_config(name: String, cfg: NodeConfig, workload: Workload) -> Scenario {
        Scenario {
            name,
            machine: cfg.machine,
            sched: cfg.sched,
            laden: cfg.laden,
            calib_rounds: cfg.calib_rounds,
            max_threads: cfg.max_threads,
            steal_poll_ns: cfg.steal_poll_ns,
            phase_correction: cfg.phase_correction,
            oracles: false,
            sabotage_fifo: None,
            sabotage_layer: None,
            workload,
        }
    }

    /// The [`NodeConfig`] this scenario replays on — the exact inverse of
    /// [`Scenario::from_node_config`].
    pub fn node_config(&self) -> NodeConfig {
        let mut cfg = NodeConfig::for_machine(self.machine.clone());
        cfg.sched = self.sched;
        cfg.laden = self.laden.clone();
        cfg.calib_rounds = self.calib_rounds;
        cfg.max_threads = self.max_threads;
        cfg.steal_poll_ns = self.steal_poll_ns;
        cfg.phase_correction = self.phase_correction;
        cfg
    }

    /// Run the trial on a pooled node.
    pub fn run_pooled(&self, pool: &mut NodePool) -> TrialOutcome {
        if let Workload::Cluster { .. } = self.workload {
            // Cluster runs own a whole fleet, not the caller's single
            // node; the worker's thread-local fleet gives them the same
            // cross-trial arena reuse the node pool gives the other
            // workloads. The engine guarantees pooled == fresh byte for
            // byte.
            return cluster_trial(&nautix_cluster::run_pooled(&self.cluster_config()));
        }
        let node = pool.node(self.node_config());
        if self.oracles && node.oracles().is_none() {
            node.enable_oracles();
        }
        if let Some(cpu) = self.sabotage_fifo {
            node.set_sabotage_fifo(cpu, true);
        }
        if let Some(cpu) = self.sabotage_layer {
            node.set_sabotage_layer(cpu, true);
        }
        match self.workload {
            Workload::MissRate {
                period_ns,
                slice_ns,
                jobs,
            } => {
                // One period of phase so the first arrival lands after the
                // admission call itself has returned. A literal, not the
                // builder: infeasible points are part of the map.
                let requested = Constraints::Periodic {
                    phase: period_ns,
                    period: period_ns,
                    slice: slice_ns,
                };
                // Always-runnable: every job demands its full slice.
                let prog = constrained_loop(requested, 100_000);
                let tid = node.spawn_on(1, "probe", Box::new(prog)).unwrap();
                node.run_for_ns(period_ns.saturating_mul(jobs + 20));
                outcome(node, tid)
            }
            Workload::FaultMix {
                period_ns,
                slice_pct,
                jobs,
            } => {
                let slice_ns = pct_slice(period_ns, slice_pct).expect("slice overflows u64");
                let requested = Constraints::periodic(period_ns, slice_ns).phase(period_ns);
                let probe = constrained_loop(requested.build(), 100_000);
                let probe_tid = node.spawn_on(1, "probe", Box::new(probe)).unwrap();
                let burst_deadline = period_ns.saturating_mul(4);
                let burst = constrained_loop(
                    Constraints::sporadic(slice_ns, burst_deadline).build(),
                    100_000,
                );
                node.spawn_on(2, "burst", Box::new(burst)).unwrap();
                node.run_for_ns(period_ns.saturating_mul(jobs + 20));
                outcome(node, probe_tid)
            }
            Workload::Competing {
                period_ns,
                slice_ns,
                jobs,
            } => {
                let spawn_periodic = |node: &mut Node, name, period: Nanos, slice: Nanos| {
                    let requested = Constraints::periodic(period, slice).build();
                    let prog = constrained_loop(requested, 1_000_000);
                    node.spawn_on(1, name, Box::new(prog)).unwrap()
                };
                spawn_periodic(node, "slow", period_ns * SLOW, slice_ns * SLOW);
                let fast = spawn_periodic(node, "fast", period_ns, slice_ns);
                node.run_for_ns(period_ns.saturating_mul(jobs + 20));
                outcome(node, fast)
            }
            Workload::Cluster { .. } => unreachable!("handled before node boot"),
            Workload::LayerMix {
                period_ns,
                slice_pct,
                jobs,
            } => {
                let slice_ns = pct_slice(period_ns, slice_pct).expect("slice overflows u64");
                let requested = Constraints::periodic(period_ns, slice_ns).phase(period_ns);
                let probe = constrained_loop(requested.build(), 100_000);
                let probe_tid = node.spawn_on(1, "probe", Box::new(probe)).unwrap();
                // An always-runnable aperiodic hog: its whole demand lands
                // in the background layer, which drains every window.
                let hog = FnProgram::new(move |_cx, _n| Action::Compute(100_000));
                node.spawn_on(1, "hog", Box::new(hog)).unwrap();
                node.run_for_ns(period_ns.saturating_mul(jobs + 20));
                outcome(node, probe_tid)
            }
        }
    }

    /// Run the trial on a fresh (unpooled) node — or, for a cluster
    /// workload, a fresh fleet.
    pub fn run_fresh(&self) -> TrialOutcome {
        if let Workload::Cluster { .. } = self.workload {
            return cluster_trial(&nautix_cluster::run_fresh(&self.cluster_config()));
        }
        self.run_pooled(&mut NodePool::new())
    }

    /// [`Scenario::run_pooled`] plus the recording duties the sweep
    /// harnesses want on every trial: stream the delta snapshot to the
    /// installed stats hub, and — when `NAUTIX_REPLAY_DIR` is set — catch
    /// a trial panic (an armed oracle flagging a violation), write this
    /// scenario to `<dir>/<name>.replay`, and re-raise. Without the env
    /// var the trial runs unwrapped, so paper-scale sweeps pay nothing.
    pub fn run_recorded(&self, pool: &mut NodePool) -> TrialOutcome {
        // Read per call so test-scoped overrides are observed.
        let out = match HarnessConfig::replay_dir_from_env() {
            None => self.run_pooled(pool),
            Some(dir) => match catch_unwind(AssertUnwindSafe(|| self.run_pooled(pool))) {
                Ok(r) => r,
                Err(payload) => {
                    let path = dir.join(format!("{}.replay", self.name));
                    let _ = std::fs::create_dir_all(&dir);
                    match std::fs::write(&path, self.to_replay_string()) {
                        Ok(()) => eprintln!(
                            "nautix: trial `{}` flagged; replay written to {}",
                            self.name,
                            path.display()
                        ),
                        Err(e) => eprintln!(
                            "nautix: trial `{}` flagged; FAILED to write replay {}: {e}",
                            self.name,
                            path.display()
                        ),
                    }
                    resume_unwind(payload)
                }
            },
        };
        stream_delta(&out.snapshot);
        out
    }

    /// Canonical text encoding: version header, `key value` lines in
    /// fixed order, `end`. Two scenarios are equal iff their replay
    /// strings are byte-identical. Every struct is destructured without
    /// `..`, so a new field without a line here does not compile.
    pub fn to_replay_string(&self) -> String {
        let Scenario {
            name,
            machine,
            sched,
            laden,
            calib_rounds,
            max_threads,
            steal_poll_ns,
            phase_correction,
            oracles,
            sabotage_fifo,
            sabotage_layer,
            workload,
        } = self;
        let MachineConfig {
            platform,
            n_cpus,
            timer_mode,
            tsc_writable,
            boot_skew_max,
            smi,
            faults,
            topology,
            seed,
        } = machine;
        let SchedConfig {
            util_limit_ppm,
            sporadic_reserve_ppm,
            aperiodic_reserve_ppm,
            aperiodic_quantum_ns,
            granularity_ns,
            min_period_ns,
            min_slice_ns,
            policy,
            mode,
            lazy_margin_ns,
            admission_enabled,
            work_stealing,
            steal,
            degrade,
            layers,
        } = sched;
        let mut w = Writer::new(REPLAY_HEADER);
        w.kv("name", name);
        w.kv("machine.platform", platform.encode());
        w.kv("machine.cpus", &n_cpus.encode());
        w.kv("machine.timer_mode", &timer_mode.encode());
        w.kv("machine.tsc_writable", &tsc_writable.encode());
        w.kv("machine.boot_skew_max", &boot_skew_max.encode());
        w.kv("machine.smi", &smi.encode());
        w.kv("machine.faults", &faults.encode());
        w.kv("machine.topology", &topology.encode());
        w.kv("machine.seed", &seed.encode());
        w.kv("sched.util_limit_ppm", &util_limit_ppm.encode());
        w.kv("sched.sporadic_reserve_ppm", &sporadic_reserve_ppm.encode());
        w.kv(
            "sched.aperiodic_reserve_ppm",
            &aperiodic_reserve_ppm.encode(),
        );
        w.kv("sched.aperiodic_quantum_ns", &aperiodic_quantum_ns.encode());
        w.kv("sched.granularity_ns", &granularity_ns.encode());
        w.kv("sched.min_period_ns", &min_period_ns.encode());
        w.kv("sched.min_slice_ns", &min_slice_ns.encode());
        w.kv("sched.policy", &policy.encode());
        w.kv("sched.mode", &mode.encode());
        w.kv("sched.lazy_margin_ns", &lazy_margin_ns.encode());
        w.kv("sched.admission_enabled", &admission_enabled.encode());
        w.kv("sched.work_stealing", &work_stealing.encode());
        w.kv("sched.steal", &steal.encode());
        w.kv("sched.degrade", &degrade.encode());
        w.kv("sched.layers", &layers.encode());
        w.kv("node.laden", &laden.encode());
        w.kv("node.calib_rounds", &calib_rounds.encode());
        w.kv("node.max_threads", &max_threads.encode());
        w.kv("node.steal_poll_ns", &steal_poll_ns.encode());
        w.kv("node.phase_correction", &phase_correction.encode());
        w.kv("node.oracles", &oracles.encode());
        w.kv("node.sabotage_fifo", &sabotage_fifo.encode());
        w.kv("node.sabotage_layer", &sabotage_layer.encode());
        w.kv("workload", &workload.encode());
        w.finish("end")
    }

    /// Strict parse of [`Scenario::to_replay_string`] output. Errors on a
    /// wrong version, a missing / reordered key, any malformed or
    /// non-canonical value (a truncated fault plan, `02` for `2`),
    /// truncation before `end`, or anything after it. Struct literals
    /// throughout — never a `Default` base — so a new field without a line
    /// here does not compile. What parses is well-formed, not necessarily
    /// bootable: see [`Scenario::check_bootable`].
    pub fn from_replay_string(text: &str) -> Result<Scenario, String> {
        let mut r = Reader::new(text, "replay", REPLAY_HEADER)?;
        let name = r.take("name")?.to_string();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        {
            return Err(format!(
                "name: `{name}` must be non-empty [A-Za-z0-9._-] (it becomes a file stem)"
            ));
        }
        let machine = MachineConfig {
            platform: get(&mut r, "machine.platform")?,
            n_cpus: get(&mut r, "machine.cpus")?,
            timer_mode: get(&mut r, "machine.timer_mode")?,
            tsc_writable: get(&mut r, "machine.tsc_writable")?,
            boot_skew_max: get(&mut r, "machine.boot_skew_max")?,
            smi: get(&mut r, "machine.smi")?,
            faults: get(&mut r, "machine.faults")?,
            topology: get(&mut r, "machine.topology")?,
            seed: get(&mut r, "machine.seed")?,
        };
        if machine.n_cpus == 0 {
            return Err("machine.cpus: must be >= 1".into());
        }
        let sched = SchedConfig {
            util_limit_ppm: get(&mut r, "sched.util_limit_ppm")?,
            sporadic_reserve_ppm: get(&mut r, "sched.sporadic_reserve_ppm")?,
            aperiodic_reserve_ppm: get(&mut r, "sched.aperiodic_reserve_ppm")?,
            aperiodic_quantum_ns: get(&mut r, "sched.aperiodic_quantum_ns")?,
            granularity_ns: get(&mut r, "sched.granularity_ns")?,
            min_period_ns: get(&mut r, "sched.min_period_ns")?,
            min_slice_ns: get(&mut r, "sched.min_slice_ns")?,
            policy: get(&mut r, "sched.policy")?,
            mode: get(&mut r, "sched.mode")?,
            lazy_margin_ns: get(&mut r, "sched.lazy_margin_ns")?,
            admission_enabled: get(&mut r, "sched.admission_enabled")?,
            work_stealing: get(&mut r, "sched.work_stealing")?,
            steal: get(&mut r, "sched.steal")?,
            degrade: get(&mut r, "sched.degrade")?,
            layers: get(&mut r, "sched.layers")?,
        };
        let sc = Scenario {
            name,
            machine,
            sched,
            laden: get(&mut r, "node.laden")?,
            calib_rounds: get(&mut r, "node.calib_rounds")?,
            max_threads: get(&mut r, "node.max_threads")?,
            steal_poll_ns: get(&mut r, "node.steal_poll_ns")?,
            phase_correction: get(&mut r, "node.phase_correction")?,
            oracles: get(&mut r, "node.oracles")?,
            sabotage_fifo: get(&mut r, "node.sabotage_fifo")?,
            sabotage_layer: get(&mut r, "node.sabotage_layer")?,
            workload: get(&mut r, "workload")?,
        };
        r.finish("end")?;
        Ok(sc)
    }

    /// This scenario, if a node built from it can boot and spawn its
    /// workload; each error names the replay key to fix. The codec checks
    /// spelling, not sense — it round-trips three laden CPUs on a 2-CPU
    /// rig faithfully — so whatever runs a file from outside (`repro_all
    /// --replay`, the corpus loader) asks this first and gets an error
    /// where the simulator would panic.
    pub fn check_bootable(self) -> Result<Scenario, String> {
        let cpus = self.machine.n_cpus;
        let (top_cpu, threads) = match self.workload {
            Workload::Cluster { .. } => (0, 0),
            Workload::MissRate { .. } => (1, 1),
            Workload::Competing { .. } | Workload::LayerMix { .. } => (1, 2),
            Workload::FaultMix { .. } => (2, 2),
        };
        if cpus <= top_cpu {
            return Err(format!(
                "machine.cpus: {cpus}, but the workload spawns on CPU {top_cpu}"
            ));
        }
        if self.sched.granularity_ns == 0 {
            return Err(
                "sched.granularity_ns: must be >= 1 (admission takes remainders by it)".into(),
            );
        }
        // The reservation `run_pooled` builds with the panicking builder
        // (`competing`'s slow thread asks for `SLOW` times both figures).
        // `missrate` requests a literal instead: its infeasible points,
        // run with admission off, are the map.
        let overflow = || format!("workload: `{}` overflows u64", self.workload.encode());
        let probe = match self.workload {
            Workload::MissRate { .. } => None,
            Workload::Cluster { shards: 0, .. } => {
                return Err("workload: a cluster needs >= 1 shard".into());
            }
            Workload::Cluster { .. } => None,
            Workload::Competing {
                period_ns,
                slice_ns,
                ..
            } => {
                period_ns.checked_mul(SLOW).ok_or_else(overflow)?;
                Some((period_ns, slice_ns))
            }
            Workload::FaultMix {
                period_ns,
                slice_pct,
                ..
            }
            | Workload::LayerMix {
                period_ns,
                slice_pct,
                ..
            } => Some((
                period_ns,
                pct_slice(period_ns, slice_pct).ok_or_else(overflow)?,
            )),
        };
        if let Some((period, slice)) = probe {
            Constraints::periodic(period, slice)
                .try_build()
                .map_err(|e| format!("workload: periodic({period}, {slice}): {e:?}"))?;
        }
        if self.laden.is_empty() {
            return Err("node.laden: empty, but some CPU must take device interrupts".into());
        }
        for (key, listed) in [
            ("node.laden", self.laden.as_slice()),
            ("node.sabotage_fifo", self.sabotage_fifo.as_slice()),
            ("node.sabotage_layer", self.sabotage_layer.as_slice()),
        ] {
            if let Some(cpu) = listed.iter().find(|&&c| c >= cpus) {
                return Err(format!("{key}: no CPU {cpu} on a {cpus}-CPU machine"));
            }
        }
        if self.max_threads < cpus + threads {
            return Err(format!(
                "node.max_threads: {} cannot hold {cpus} idle threads and the workload's {threads}",
                self.max_threads
            ));
        }
        Ok(self)
    }
}

/// `competing`'s slow thread runs at this multiple of the fast thread's
/// period and slice.
const SLOW: u64 = 5;

/// The `fault_mix` / `layer_mix` probe slice: `slice_pct` percent of the
/// period, floored at 500 ns; `None` when the product overflows.
fn pct_slice(period_ns: Nanos, slice_pct: u64) -> Option<Nanos> {
    Some((period_ns.checked_mul(slice_pct)? / 100).max(500))
}

/// Read one field's line; an error names its key.
fn get<T: Value>(r: &mut Reader, key: &str) -> Result<T, String> {
    T::decode(r.take(key)?).map_err(|e| format!("{key}: {e}"))
}

/// Collect the trial outcome from a finished node. `tid` is the probe.
fn outcome(node: &mut Node, tid: nautix_kernel::ThreadId) -> TrialOutcome {
    let st = node.thread_state(tid);
    let mt = st.stats.miss_time_summary();
    let jobs = st.stats.met + st.stats.missed;
    let miss_rate = st.stats.miss_rate();
    TrialOutcome {
        events: node.machine.events_processed(),
        snapshot: node.stats_snapshot(),
        jobs,
        miss_rate,
        miss_mean_ns: mt.mean,
        miss_std_ns: mt.std_dev,
        faults: node.machine.fault_stats(),
        degrade: node.degrade_stats(),
    }
}

/// A cluster run folded into the shape every replay consumer expects.
/// The probe-thread fields (jobs, miss stats) have no cluster analogue
/// and stay zero; the snapshot's `cluster_*` fields carry the outcome.
fn cluster_trial(out: &ClusterOutcome) -> TrialOutcome {
    TrialOutcome {
        events: out.events,
        snapshot: out.snapshot,
        jobs: 0,
        miss_rate: 0.0,
        miss_mean_ns: 0.0,
        miss_std_ns: 0.0,
        faults: FaultStats::default(),
        degrade: DegradeStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missrate_scenario_round_trips() {
        let sc = Scenario::missrate(Platform::Phi, 1_000_000, 500_000, 50, 5);
        let text = sc.to_replay_string();
        let back = Scenario::from_replay_string(&text).unwrap();
        assert_eq!(sc, back);
        assert_eq!(back.to_replay_string(), text, "encoding must be canonical");
    }

    #[test]
    fn fault_scenario_round_trips_with_every_lane() {
        let sc = Scenario::fault_mix(1.0, 100_000, 60, 200, 7);
        assert!(sc.machine.faults.enabled());
        assert!(sc.sched.degrade.enabled);
        let back = Scenario::from_replay_string(&sc.to_replay_string()).unwrap();
        assert_eq!(sc, back);
    }

    #[test]
    fn scenario_matches_direct_construction() {
        // The refactoring contract: the scenario's NodeConfig is exactly
        // what the sweeps used to build inline.
        let sc = Scenario::missrate(Platform::R415, 4_000, 400, 100, 5);
        let cfg = sc.node_config();
        assert_eq!(cfg.machine.n_cpus, 2);
        assert!(!cfg.sched.admission_enabled);
        assert_eq!(cfg.sched.granularity_ns, 1);
        assert_eq!(cfg.laden, vec![0]);
        assert_eq!(cfg.calib_rounds, 16);
        let sc2 = Scenario::fault_mix(0.0, 1_000_000, 30, 40, 7);
        assert_eq!(sc2.machine.faults, FaultPlan::disabled());
        assert_eq!(sc2.sched.degrade.miss_threshold, 2);
    }

    #[test]
    fn replay_reproduces_the_trial() {
        let sc = Scenario::missrate(Platform::Phi, 1_000_000, 500_000, 30, 5);
        let a = sc.run_fresh();
        let b = Scenario::from_replay_string(&sc.to_replay_string())
            .unwrap()
            .run_fresh();
        assert_eq!(a, b);
        assert!(a.jobs >= 20);
        assert_eq!(a.snapshot.trials, 1);
        assert_eq!(a.snapshot.events, a.events);
    }

    #[test]
    fn parse_rejects_unknown_version_and_truncation() {
        let t = Scenario::missrate(Platform::Phi, 100_000, 30_000, 10, 1).to_replay_string();
        let e = Scenario::from_replay_string(&t.replace(REPLAY_HEADER, "nautix-replay v6"))
            .unwrap_err();
        assert!(e.contains("unknown replay version"), "{e}");
        let cut: String = t.lines().take(8).map(|l| format!("{l}\n")).collect();
        assert!(Scenario::from_replay_string(&cut).is_err());
        let no_end = t.strip_suffix("end\n").unwrap();
        let e = Scenario::from_replay_string(no_end).unwrap_err();
        assert!(e.contains("missing `end`"), "{e}");
    }

    #[test]
    fn parse_rejects_bad_fields_instead_of_defaulting() {
        let t = Scenario::fault_mix(0.5, 100_000, 60, 50, 11).to_replay_string();
        // Truncated fault plan: drop the last `;`-field of the plan line.
        let plan_line = t
            .lines()
            .find(|l| l.starts_with("machine.faults "))
            .unwrap();
        let truncated_plan = plan_line.rsplit_once(';').unwrap().0;
        let e = Scenario::from_replay_string(&t.replace(plan_line, truncated_plan)).unwrap_err();
        assert!(e.contains("fault plan"), "{e}");
        // Bad topology string.
        let e = Scenario::from_replay_string(
            &t.replace("machine.topology flat", "machine.topology 2×4"),
        )
        .unwrap_err();
        assert!(e.contains("machine.topology"), "{e}");
        // Reordered keys.
        let swapped = t.replacen("machine.cpus", "machine.seed", 1);
        assert!(Scenario::from_replay_string(&swapped).is_err());
        // Trailing garbage.
        assert!(Scenario::from_replay_string(&format!("{t}extra\n")).is_err());
    }

    #[test]
    fn workload_codec_is_strict() {
        for w in [
            Workload::MissRate {
                period_ns: 10_000,
                slice_ns: 7_000,
                jobs: 100,
            },
            Workload::FaultMix {
                period_ns: 30_000,
                slice_pct: 60,
                jobs: 150,
            },
            Workload::Competing {
                period_ns: 200_000,
                slice_ns: 20_000,
                jobs: 40,
            },
        ] {
            assert_eq!(Workload::decode(&w.encode()).unwrap(), w);
        }
        for strategy in PlacementStrategy::ALL {
            let w = Workload::Cluster {
                shards: 16,
                tenants: 1_000,
                strategy,
            };
            assert_eq!(Workload::decode(&w.encode()).unwrap(), w);
        }
        assert!(Workload::decode("missrate:10:7").is_err());
        assert!(Workload::decode("bsp:1:2:3").is_err());
        assert!(Workload::decode("missrate:a:b:c").is_err());
        assert!(Workload::decode("cluster:4:100:worst_fit").is_err());
        assert!(Workload::decode("cluster:4:100").is_err());
        let w = Workload::LayerMix {
            period_ns: 1_000_000,
            slice_pct: 70,
            jobs: 50,
        };
        assert_eq!(Workload::decode(&w.encode()).unwrap(), w);
        assert!(Workload::decode("layer_mix:1:2").is_err());
        assert!(Workload::decode("layer_mix:1:2:x").is_err());
    }

    #[test]
    fn layer_scenario_round_trips_and_replays() {
        let sc = Scenario::layer_starve(1_000_000, 70, 30, 9);
        assert_eq!(sc.sched.layers.count(), 3);
        let text = sc.to_replay_string();
        assert!(text.contains("sched.layers 750000:0,100000:0,100000:0;10000000;0,1,2"));
        let back = Scenario::from_replay_string(&text).unwrap();
        assert_eq!(sc, back);
        assert_eq!(back.to_replay_string(), text, "encoding must be canonical");
        let a = sc.run_fresh();
        let b = back.run_pooled(&mut NodePool::new());
        assert_eq!(a, b, "pooled replay must match fresh");
        assert!(
            a.snapshot.layer_throttles > 0,
            "the hog's background layer must throttle"
        );
        assert!(a.snapshot.layer_replenishes > 0);
    }

    #[test]
    fn cluster_scenario_round_trips_and_replays() {
        let sc = Scenario::cluster(3, 8, 150, PlacementStrategy::PowerOfTwo, 21);
        let text = sc.to_replay_string();
        let back = Scenario::from_replay_string(&text).unwrap();
        assert_eq!(sc, back);
        assert_eq!(back.to_replay_string(), text, "encoding must be canonical");
        let a = sc.run_fresh();
        let b = back.run_pooled(&mut NodePool::new());
        assert_eq!(a, b, "pooled fleet replay must match fresh");
        assert_eq!(a.snapshot.cluster_decisions, 150);
        assert!(a.snapshot.cluster_placed > 0);
    }

    #[test]
    fn armed_replay_is_flagged_under_sabotage_only() {
        let plain = Scenario::competing(200_000, 20_000, 40, 77);
        let mut armed = plain.clone();
        armed.oracles = true;
        let back = Scenario::from_replay_string(&armed.to_replay_string()).unwrap();
        assert_eq!(
            back.run_fresh(),
            plain.run_fresh(),
            "armed oracles must not perturb the trial"
        );
        let mut sabotaged = armed;
        sabotaged.sabotage_fifo = Some(1);
        let back = Scenario::from_replay_string(&sabotaged.to_replay_string()).unwrap();
        assert!(
            catch_unwind(AssertUnwindSafe(|| back.run_fresh())).is_err(),
            "FIFO sabotage under an armed EDF oracle must panic"
        );
    }
}

//! End-to-end benchmark of the `HighwayNode` stack: NIC → chain of
//! forwarder VMs → NIC, with the highway on or off, and the controller
//! path (flow mods through ofproto, publish, detector, bypass manager).
//!
//! ```text
//! perfbench --workload <chain4_highway|chain4_vanilla|ctl_churn> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics; the last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed check
//! prints `check FAILED` lines and exits 1. See `README.md`.

mod control;
mod inputs;
mod layers;
mod report;
mod rng;
mod trace;
mod traffic;
mod world;

use control::Control;
use dpdk_sim::cycles;
use inputs::Flows;
use report::{mean, median, quantile, quantile_u64, trimmed_mean, Metric};
use rng::Rng;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use telemetry::{Stage, TelemetrySnapshot};
use trace::Tracer;
use traffic::Traffic;
use world::{Counters, World};

/// Probes kept in flight by the closed loop.
const IN_FLIGHT: u64 = 256;
/// Window of the closed loop's rate samples (reported beside `fwd_kpps`).
const TICK: Duration = Duration::from_millis(100);
/// Rules on the replica `Datapath::table_apply` is timed on.
const REPLICA_RULES: usize = 4096;
/// A paced phase fell behind its schedule, and the run counts as failed,
/// when the probes of its last tenth left (median) later than this share
/// of the phase after their due time: the backlog grew, the generator
/// could not sustain the rate. A passing stall is not a failure: probes
/// carry their due time, so it shows as latency.
const GEN_BEHIND_SHARE: f64 = 0.01;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Chain4Highway,
    Chain4Vanilla,
    CtlChurn,
}

/// What a workload builds and drives.
struct Spec {
    /// Worlds built and measured per run, each over an equal share of
    /// `--seconds`. `fwd_kpps`, `lat_p50_us` and `flowmod_per_s` are the
    /// trimmed mean over them, the other metrics medians.
    worlds: usize,
    highway: bool,
    vms: usize,
    flows: usize,
    /// Decoy rules preloaded at set-up and rewritten by the control loop.
    decoys: usize,
    /// Rate of the open-loop phase.
    paced_pps: f64,
    /// Run the control loop at the same time as the paced traffic (else
    /// after it, with no traffic).
    churn_beside_traffic: bool,
    /// Start control cycles on this schedule (else back to back).
    control_period: Option<Duration>,
    /// Shares of `--seconds`: warm-up, closed loop, paced loop, control
    /// (the last two overlap when `churn_beside_traffic`).
    shares: [f64; 4],
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "chain4_highway" => Some(Workload::Chain4Highway),
            "chain4_vanilla" => Some(Workload::Chain4Vanilla),
            "ctl_churn" => Some(Workload::CtlChurn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Chain4Highway => "chain4_highway",
            Workload::Chain4Vanilla => "chain4_vanilla",
            Workload::CtlChurn => "ctl_churn",
        }
    }

    fn spec(self) -> Spec {
        let chain4 = |highway| Spec {
            worlds: 10,
            highway,
            vms: 4,
            flows: 64,
            decoys: 64,
            paced_pps: 20_000.0,
            churn_beside_traffic: false,
            control_period: None,
            shares: [0.05, 0.4, 0.45, 0.1],
        };
        match self {
            Workload::Chain4Highway => chain4(true),
            Workload::Chain4Vanilla => chain4(false),
            Workload::CtlChurn => Spec {
                worlds: 5,
                highway: true,
                vms: 2,
                flows: 16_384,
                decoys: 4096,
                paced_pps: 50_000.0,
                churn_beside_traffic: true,
                control_period: Some(Duration::from_millis(400)),
                shares: [0.05, 0.25, 0.7, 0.7],
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Failed correctness checks of a run.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Everything a run shares across its worlds.
struct Run<'a> {
    args: &'a Args,
    spec: Spec,
    flows: Flows,
    decoys: Vec<inputs::Decoy>,
    /// Seconds of each world's share of `--seconds`.
    world_s: f64,
    epoch: Instant,
    epoch_cycles: u64,
}

/// What one world measured.
struct WorldOut {
    fwd_pps: f64,
    windows: Vec<f64>,
    /// Phase A rates of a traced run per (stamping, spans) configuration:
    /// (on, off), (off, off), (on, on).
    overhead: [Vec<f64>; 3],
    lat_p50_us: f64,
    lat_p99_us: f64,
    lat_samples: usize,
    late_p99_us: f64,
    offered_pps: f64,
    behind: bool,
    control: control::ControlStats,
    sent: u64,
    lost: u64,
    /// Per-layer metrics (traced runs) and the undeclared extras.
    layers: Vec<Metric>,
    extra: Vec<Metric>,
    snapshots: Vec<(&'static str, TelemetrySnapshot)>,
    traffic_tracer: Tracer,
}

fn run(args: &Args) -> Result<i32, String> {
    let spec = args.workload.spec();
    let name = args.workload.name();
    println!(
        "perfbench workload={name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut context: Vec<(&str, String)> = report::host_context();
    context.extend([
        ("pmd_threads", world::PMD_THREADS.to_string()),
        ("telemetry", world::TELEMETRY.to_string()),
        ("doorbell_coalesce", world::DOORBELL_COALESCE.to_string()),
        ("latency_model", "zero".to_string()),
        (
            "housekeeping_ms",
            world::HOUSEKEEPING.as_millis().to_string(),
        ),
        ("seed", args.seed.to_string()),
        ("workload", name.to_string()),
    ]);
    println!(
        "context {{{}}}",
        context
            .iter()
            .map(|(k, v)| format!("{}: {}", report::json_str(k), report::json_str(v)))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Inputs, all from the seed.
    let run = Run {
        args,
        flows: Flows::new(&mut Rng::new(args.seed), spec.flows),
        decoys: inputs::decoys(&mut Rng::new(args.seed ^ 0xdec0), spec.decoys),
        world_s: args.seconds as f64 / spec.worlds as f64,
        spec,
        epoch: Instant::now(),
        epoch_cycles: cycles::now(),
    };
    let spec = &run.spec;

    // Several worlds, each set up from scratch and measured for an equal
    // share of the run: set-up is timed several times, and each world
    // redraws the scheduler's placement of the program's spinning threads,
    // which on a host with few cores decides its rate and latency for
    // seconds at a time.
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(args.trace, run.epoch);
    let worlds = spec.worlds;
    let mut setup_s = Vec::with_capacity(worlds);
    let mut outs = Vec::with_capacity(worlds);
    for i in 0..worlds {
        let t = Instant::now();
        let world = World::build(spec.highway, spec.vms, &run.decoys)?;
        setup_s.push(t.elapsed().as_secs_f64());
        outs.push(measure(
            &run,
            world,
            i + 1 == worlds,
            &mut checks,
            &mut tracer,
        )?);
    }

    let per = |f: &dyn Fn(&WorldOut) -> f64| -> Vec<f64> { outs.iter().map(f).collect() };
    let fwd_kpps = trimmed_mean(&per(&|o| o.fwd_pps)).expect("at least one world") / 1e3;
    let lat_p50_us = trimmed_mean(&per(&|o| o.lat_p50_us)).expect("at least one world");
    let lat_p99_us = median(&per(&|o| o.lat_p99_us)).expect("at least one world");
    let setup_med = median(&setup_s).expect("at least one world");
    let flowmod_per_s = trimmed_mean(&per(&|o| {
        o.control.mods_ok as f64 / o.control.batch_time.as_secs_f64()
    }))
    .expect("at least one world");
    let reconverge: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.control.reconverge_ms.iter().copied())
        .collect();
    let reconverge_ms = median(&reconverge).ok_or("no veto removals timed")?;
    let rss = report::rss_peak_mb().ok_or("VmHWM unreadable")?;
    let sent: u64 = outs.iter().map(|o| o.sent).sum();
    let lost: u64 = outs.iter().map(|o| o.lost).sum();
    let mods_attempted: u64 = outs.iter().map(|o| o.control.mods_attempted).sum();
    let mods_failed: u64 = outs.iter().map(|o| o.control.mods_failed).sum();
    let behind = outs.iter().filter(|o| o.behind).count() as u64;

    let show = |v: Vec<f64>, scale: f64| {
        v.iter()
            .map(|x| format!("{:.1}", x * scale))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "metric fwd_kpps {fwd_kpps:.3} kpps (closed loop, {IN_FLIGHT} in flight; per world: {})",
        show(per(&|o| o.fwd_pps), 1e-3)
    );
    let windows: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.windows.iter().copied())
        .collect();
    println!(
        "info fwd windows of {} ms: min {:.1} median {:.1} max {:.1} kpps",
        TICK.as_millis(),
        windows.iter().copied().fold(f64::INFINITY, f64::min) / 1e3,
        median(&windows).unwrap_or(0.0) / 1e3,
        windows.iter().copied().fold(0.0, f64::max) / 1e3,
    );
    println!(
        "metric lat_p50_us {lat_p50_us:.3} us (paced at {:.0} kpps; per world: {}; {} samples)",
        spec.paced_pps / 1e3,
        show(per(&|o| o.lat_p50_us), 1.0),
        outs.iter().map(|o| o.lat_samples).sum::<usize>()
    );
    println!(
        "info lat_p99_us {lat_p99_us:.3} us (per world: {}; scheduler-bound, not gated)",
        show(per(&|o| o.lat_p99_us), 1.0)
    );
    println!("metric setup_s {setup_med:.4} s (median of {worlds} set-ups: {setup_s:.4?})");
    println!(
        "metric flowmod_per_s {flowmod_per_s:.1} 1/s (per world: {}; {} rules)",
        show(
            per(&|o| o.control.mods_ok as f64 / o.control.batch_time.as_secs_f64()),
            1.0
        ),
        spec.decoys + 2 * (spec.vms + 1)
    );
    println!(
        "metric reconverge_ms {reconverge_ms:.3} ms (median of {} veto removals)",
        reconverge.len()
    );
    if spec.highway {
        println!(
            "info bypass_setup_ms {reconverge_ms:.3} ms (veto removal -> link in active_links())"
        );
    }
    println!("metric rss_peak_mb {rss:.2} MiB");
    println!(
        "info loss_ratio {} (sent {sent}, lost {lost})",
        ratio(lost, sent)
    );
    println!(
        "info fm_fail_ratio {} ({mods_failed} of {mods_attempted} mods)",
        ratio(mods_failed, mods_attempted)
    );
    println!(
        "info bench.gen_late_p99_us {:.3} us (offered {:.1} kpps)",
        median(&per(&|o| o.late_p99_us)).expect("at least one world"),
        median(&per(&|o| o.offered_pps)).expect("at least one world") / 1e3
    );
    print_model(spec, fwd_kpps, lat_p50_us);

    let mut metrics = Vec::new();
    if args.trace {
        // The overhead ratios pool the alternating phase-A windows of
        // every world: (on, off) / (off, off) and (on, on) / (on, off).
        let pooled = |i: usize| -> f64 {
            let v: Vec<f64> = outs
                .iter()
                .flat_map(|o| o.overhead[i].iter().copied())
                .collect();
            median(&v).unwrap_or(0.0)
        };
        let (stamped, unstamped, spans) = (pooled(0), pooled(1), pooled(2));
        let last = outs.last_mut().expect("at least one world");
        metrics = std::mem::take(&mut last.layers);
        metrics.push(Metric::new(
            "telemetry.overhead_ratio",
            stamped / unstamped,
            "ratio",
        ));
        metrics.push(Metric::new(
            "bench.trace_overhead_ratio",
            spans / stamped,
            "ratio",
        ));
        let extra = std::mem::take(&mut last.extra);
        let snapshots = std::mem::take(&mut last.snapshots);
        for m in metrics.iter().chain(&extra) {
            println!("layer {} {} {} (workload {name})", m.name, m.value, m.unit);
        }
        println!("missing ovs_dp.snapshot_lag_us: no public accessor reaches a running PMD's PmdCaches (Datapath keeps them private)");
        println!("missing shmem_sim.unmapped_drops (bypass rings): guest-side channel ends are not reachable; the metric covers switch-side dpdkr ends only");
        for o in &mut outs {
            tracer.absorb(std::mem::replace(
                &mut o.traffic_tracer,
                Tracer::new(false, run.epoch),
            ));
        }
        write_trace_outputs(
            name, args.seed, &context, &metrics, &extra, &snapshots, &tracer,
        )?;
    } else {
        metrics.extend([
            Metric::new("fwd_kpps", fwd_kpps, "kpps"),
            Metric::new("lat_p50_us", lat_p50_us, "us"),
            Metric::new("setup_s", setup_med, "s"),
            Metric::new("flowmod_per_s", flowmod_per_s, "1/s"),
            Metric::new("reconverge_ms", reconverge_ms, "ms"),
            Metric::new("rss_peak_mb", rss, "MiB"),
        ]);
    }
    for m in &metrics {
        if !m.value.is_finite() {
            checks.0.push(format!("metric {} is not a number", m.name));
        }
    }
    for c in &checks.0 {
        println!("check FAILED: {c}");
    }
    let correct = checks.0.is_empty();
    let attempted = sent + mods_attempted;
    let failed = lost + mods_failed + behind;
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    Ok(if correct { 0 } else { 1 })
}

/// Drives one world through its phases, checks it, stops it and takes
/// the arena census.
fn measure(
    run: &Run,
    world: World,
    last: bool,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Result<WorldOut, String> {
    let (args, spec, s) = (run.args, &run.spec, run.world_s);
    let dp = world.node.switch().datapath();
    let in_port = world.dep.entry_port;
    let mut traffic = Traffic::new(
        &run.flows,
        world.arena.clone(),
        world.nic_in.clone(),
        world.nic_out.clone(),
        Tracer::new(args.trace, run.epoch),
        run.epoch_cycles,
    );
    let mut snapshots: Vec<(&'static str, TelemetrySnapshot)> = Vec::new();
    let [warm_share, a_share, b_share, c_share] = spec.shares;

    // Warm-up: caches fill, threads settle. Not measured.
    let c_start = world.counters();
    traffic.closed_loop(secs(warm_share * s), IN_FLIGHT, TICK);

    // Phase A: closed loop. A traced run alternates telemetry stamping
    // and span recording across six equal windows to price both.
    let c_a0 = world.counters();
    let mut overhead: [Vec<f64>; 3] = Default::default();
    let (fwd_pps, windows) = if args.trace {
        // (telemetry stamping, span recording)
        let configs = [(true, false), (false, false), (true, true)];
        for _round in 0..2 {
            for (i, (stamping, spans)) in configs.iter().enumerate() {
                dp.set_telemetry_enabled(*stamping);
                traffic.tracer.set_enabled(*spans);
                let r = traffic.closed_loop(secs(a_share * s / 6.0), IN_FLIGHT, TICK);
                overhead[i].push(r.pps);
            }
        }
        dp.set_telemetry_enabled(world::TELEMETRY);
        traffic.tracer.set_enabled(true);
        (mean(&overhead[0]).unwrap_or(0.0), overhead[0].clone())
    } else {
        let r = traffic.closed_loop(secs(a_share * s), IN_FLIGHT, TICK);
        (r.pps, r.window_pps)
    };
    let c_a1 = world.counters();
    let lost_closed = traffic.lost();
    snapshots.push(("closed_loop", world.node.telemetry_snapshot()));

    // Phase B (paced traffic) and phase C (control loop).
    let mut control = Control::new(&world, run.decoys.clone(), Rng::new(args.seed ^ 0xc0de));
    traffic.sink.recording = true;
    let (open, c_b1) = if spec.churn_beside_traffic {
        let open = std::thread::scope(|scope| {
            let t = scope.spawn(|| traffic.open_loop(spec.paced_pps, secs(b_share * s)));
            control.run(secs(c_share * s), spec.control_period, tracer);
            t.join().expect("traffic thread panicked")
        });
        snapshots.push(("paced_with_churn", world.node.telemetry_snapshot()));
        (open, None)
    } else {
        let open = traffic.open_loop(spec.paced_pps, secs(b_share * s));
        let c_b1 = world.counters();
        snapshots.push(("paced", world.node.telemetry_snapshot()));
        control.run(secs(c_share * s), spec.control_period, tracer);
        snapshots.push(("control", world.node.telemetry_snapshot()));
        (open, Some(c_b1))
    };
    traffic.sink.recording = false;
    let c_end = world.counters();
    let audit = control.audit();
    let cstats = control.into_stats();
    let mut active = world.node.active_links();
    active.sort_unstable();
    let mut want_links = world.expected_links.clone();
    want_links.sort_unstable();
    let failures = world.node.highway_failures();
    let setup_log = world.node.setup_log();
    let bypassed = world.bypassed_ports();

    // Stop the switch and the guests; every probe has been drained.
    world.node.stop();
    for vm in &world.dep.vms {
        vm.shutdown();
    }
    let vm_forwarded: Vec<u64> = world
        .dep
        .vms
        .iter()
        .map(|v| {
            v.counters()
                .forwarded
                .load(std::sync::atomic::Ordering::Relaxed)
        })
        .collect();

    // Replica timings (last world of a traced run), on the stopped
    // node's tables.
    let mut replica = Vec::new();
    if args.trace && last {
        let replica_decoys = inputs::decoys(&mut Rng::new(args.seed ^ 0x4e91), REPLICA_RULES);
        let flows = &run.flows;
        replica.push(Metric::new(
            "ovs_dp.classify_ns",
            layers::classify_ns(&dp, flows, in_port, tracer),
            "ns",
        ));
        replica.push(Metric::new(
            "ovs_dp.table_apply_us",
            layers::table_apply_us(&replica_decoys, tracer),
            "us",
        ));
        replica.push(Metric::new(
            "highway_core.detect_us",
            layers::detect_us(&dp, tracer),
            "us",
        ));
        replica.push(Metric::new(
            "shmem_sim.hop_ns",
            layers::hop_ns(flows, tracer),
            "ns",
        ));
        let (heap, slab) = layers::alloc_ns(flows, tracer);
        replica.push(Metric::new("dpdk_sim.heap_alloc_ns", heap, "ns"));
        replica.push(Metric::new("dpdk_sim.arena_alloc_ns", slab, "ns"));
    }
    let snap_end = snapshots.last().expect("a snapshot per phase").1.clone();
    let arena = world.teardown();
    drop(dp);

    // ---- correctness -------------------------------------------------
    let sink = &traffic.sink;
    let delivered = sink.delivered;
    let sent = traffic.sent;
    checks.expect(sink.errors == 0, || {
        format!(
            "{} delivered probes failed the integrity checks (first: {})",
            sink.errors,
            sink.first_error.as_deref().unwrap_or("?")
        )
    });
    let drops = c_end.counted_drops() - c_start.counted_drops();
    checks.expect(delivered + drops + traffic.alloc_failures == sent, || {
        format!(
            "delivered {delivered} + counted drops {drops} + arena misses {} != sent {sent}",
            traffic.alloc_failures
        )
    });
    // The closed loops must lose nothing. The paced phase may drop, if
    // the drops are counted (a full ring during a stall): loss_ratio.
    checks.expect(lost_closed == 0, || {
        format!("{lost_closed} probes lost in the closed loop")
    });
    let steady_end = c_b1.as_ref().unwrap_or(&c_a1);
    for &port in &bypassed {
        let rx = steady_end.port_rx_of(port) - c_a0.port_rx_of(port);
        checks.expect(rx == 0, || {
            format!("bypassed seam port {port} received {rx} packets through the switch")
        });
    }
    for (i, fwd) in vm_forwarded.iter().enumerate() {
        let got = fwd - c_start.vm_forwarded[i];
        checks.expect(got == delivered, || {
            format!("vm{i} forwarded {got} packets, {delivered} delivered")
        });
    }
    let agg = snap_end.aggregate();
    let tiers = agg.emc_hits + agg.megaflow_hits + agg.classifier_hits;
    checks.expect(agg.lookups == tiers + agg.misses, || {
        format!(
            "PMD lookups {} != hits {tiers} + misses {}",
            agg.lookups, agg.misses
        )
    });
    let cs = c_end.cache;
    checks.expect(
        cs.matched == cs.emc_hits + cs.megaflow_hits + cs.classifier_hits
            && cs.lookups == cs.matched + c_end.miss_drops,
        || format!("datapath lookups do not add up: {cs:?}"),
    );
    let arena_stats = arena.stats();
    checks.expect(arena.census_clean(), || {
        format!("arena census not clean after stop: {arena_stats:?}")
    });
    checks.expect(arena_stats.slab_writes == arena_stats.allocs, || {
        format!(
            "arena slab writes {} != allocations {}",
            arena_stats.slab_writes, arena_stats.allocs
        )
    });
    checks.expect(cstats.mods_failed == 0, || {
        format!(
            "{} of {} flow mods failed (first: {})",
            cstats.mods_failed,
            cstats.mods_attempted,
            cstats.first_error.as_deref().unwrap_or("?")
        )
    });
    if let Err(e) = &audit {
        checks.0.push(format!("flow table audit: {e}"));
    }
    checks.expect(active == want_links, || {
        format!("active links {active:?} at the end, expected {want_links:?}")
    });
    let late_p99_us = quantile_u64(&open.late, 0.99).map_or(0.0, report::cycles_to_us);
    let tail = &open.late[open.late.len() * 9 / 10..];
    let tail_late_s = quantile_u64(tail, 0.5).map_or(0.0, |c| report::cycles_to_us(c) / 1e6);
    let behind = tail_late_s > GEN_BEHIND_SHARE * b_share * s;
    checks.expect(!behind, || {
        format!("generator fell behind its schedule: last tenth {tail_late_s:.3} s late")
    });
    let lat = |q| {
        quantile_u64(&sink.latencies, q)
            .map(report::cycles_to_us)
            .ok_or("no latency samples")
    };
    let (lat_p50_us, lat_p99_us) = (lat(0.5)?, lat(0.99)?);

    let (layers, extra) = if args.trace && last {
        let layers = per_layer(PerLayerInputs {
            c_a0: &c_a0,
            c_a1: &c_a1,
            c_start: &c_start,
            c_end: &c_end,
            delivered_a: c_a1.vm_forwarded[0] - c_a0.vm_forwarded[0],
            delivered,
            vm_forwarded: &vm_forwarded,
            snap: &snap_end,
            traffic: &traffic,
            control: &cstats,
            failures: failures.len(),
            late_p99_us,
            replica,
        });
        (layers, extra_layers(&snap_end, &setup_log, &cstats))
    } else {
        (Vec::new(), Vec::new())
    };
    let traffic_tracer = std::mem::replace(&mut traffic.tracer, Tracer::new(false, run.epoch));
    Ok(WorldOut {
        fwd_pps,
        windows,
        overhead,
        lat_p50_us,
        lat_p99_us,
        lat_samples: sink.latencies.len(),
        late_p99_us,
        offered_pps: open.offered_pps,
        behind,
        control: cstats,
        sent,
        lost: traffic.lost(),
        layers,
        extra,
        snapshots,
        traffic_tracer,
    })
}

/// The simnet model's prediction for the same chain, next to the
/// measurement (not gated).
fn print_model(spec: &Spec, fwd_kpps: f64, lat_p50_us: f64) {
    use simnet::{ChainSpec, CostModel, Mode};
    let mode = if spec.highway {
        Mode::Highway
    } else {
        Mode::Vanilla
    };
    let cost = CostModel::paper_testbed().with_pmd_cores(world::PMD_THREADS as f64);
    let chain = ChainSpec::nic(spec.vms, mode);
    let sol = simnet::solve(&chain, &cost);
    let lat = simnet::latency::estimate(&chain, &cost, spec.paced_pps / 2.0);
    println!(
        "model simnet paper_testbed {}-VM {:?}: fwd {:.1} kpps (measured {fwd_kpps:.1}), \
         one-way {:.2} us (measured p50 {lat_p50_us:.2}); bottleneck {}",
        spec.vms,
        mode,
        sol.aggregate_mpps * 1e3,
        lat.one_way_us,
        sol.bottleneck
    );
}

struct PerLayerInputs<'a> {
    c_a0: &'a Counters,
    c_a1: &'a Counters,
    c_start: &'a Counters,
    c_end: &'a Counters,
    delivered_a: u64,
    delivered: u64,
    vm_forwarded: &'a [u64],
    snap: &'a TelemetrySnapshot,
    traffic: &'a Traffic<'a>,
    control: &'a control::ControlStats,
    failures: usize,
    late_p99_us: f64,
    replica: Vec<Metric>,
}

/// The per-layer metrics `BENCHMARK.json` declares, in its order.
fn per_layer(p: PerLayerInputs) -> Vec<Metric> {
    let agg = p.snap.aggregate();
    let (a0, a1, s0, s1) = (p.c_a0, p.c_a1, p.c_start, p.c_end);
    let lookups = s1.cache.lookups - s0.cache.lookups;
    let mut m = vec![
        Metric::new(
            "nic_sim.inject_ns",
            p.traffic.inject_ns as f64 / p.traffic.inject_pkts.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "nic_sim.imissed",
            (s1.nic_imissed - s0.nic_imissed) as f64,
            "count",
        ),
        Metric::new(
            "ovs_dp.crossings_per_pkt",
            ratio(a1.switch_rx() - a0.switch_rx(), p.delivered_a),
            "count",
        ),
    ];
    for stage in [
        Stage::RxBurst,
        Stage::Classify,
        Stage::Execute,
        Stage::TxFlush,
    ] {
        m.push(Metric::new(
            format!("ovs_dp.{}_mean_cy", stage.name()),
            agg.stage(stage).mean() as f64,
            "cy",
        ));
    }
    m.extend([
        Metric::new(
            "ovs_dp.pkts_per_burst",
            ratio(agg.rx_packets, agg.rx_batches),
            "count",
        ),
        Metric::new(
            "ovs_dp.busy_ratio",
            ratio(agg.busy_cycles, agg.busy_cycles + agg.idle_cycles),
            "ratio",
        ),
        Metric::new(
            "ovs_dp.emc_hit_ratio",
            ratio(s1.cache.emc_hits - s0.cache.emc_hits, lookups),
            "ratio",
        ),
        Metric::new(
            "ovs_dp.megaflow_hit_ratio",
            ratio(s1.cache.megaflow_hits - s0.cache.megaflow_hits, lookups),
            "ratio",
        ),
        Metric::new(
            "ovs_dp.classifier_hit_ratio",
            ratio(s1.cache.classifier_hits - s0.cache.classifier_hits, lookups),
            "ratio",
        ),
        Metric::new(
            "ovs_dp.miss",
            (s1.cache.misses - s0.cache.misses) as f64,
            "count",
        ),
    ]);
    let take = |name: &str, replica: &[Metric]| {
        replica
            .iter()
            .find(|r| r.name == name)
            .map(|r| Metric::new(name, r.value, r.unit))
            .expect("replica metric measured")
    };
    m.push(take("ovs_dp.classify_ns", &p.replica));
    m.push(take("ovs_dp.table_apply_us", &p.replica));
    m.extend([
        Metric::new(
            "ovs_dp.fanout_drops",
            (s1.fanout_drops - s0.fanout_drops) as f64,
            "count",
        ),
        Metric::new(
            "ovs_dp.tx_no_port_drops",
            (s1.cache.tx_no_port_drops - s0.cache.tx_no_port_drops) as f64,
            "count",
        ),
        Metric::new(
            "openflow.send_batch_us",
            report::mean(&p.control.send_batch_us).unwrap_or(0.0),
            "us",
        ),
        Metric::new(
            "openflow.barrier_rtt_p50_ms",
            quantile(&p.control.barrier_rtt_ms, 0.5).unwrap_or(0.0),
            "ms",
        ),
        Metric::new(
            "openflow.barrier_rtt_p99_ms",
            quantile(&p.control.barrier_rtt_ms, 0.99).unwrap_or(0.0),
            "ms",
        ),
    ]);
    m.push(take("highway_core.detect_us", &p.replica));
    m.push(Metric::new(
        "highway_core.failures",
        p.failures as f64,
        "count",
    ));
    let rings = s1.doorbells.rings - s0.doorbells.rings;
    let suppressed = s1.doorbells.suppressed - s0.doorbells.suppressed;
    m.push(Metric::new(
        "shmem_sim.doorbell_suppressed_ratio",
        ratio(suppressed, suppressed + rings),
        "ratio",
    ));
    m.push(take("shmem_sim.hop_ns", &p.replica));
    m.push(Metric::new(
        "shmem_sim.unmapped_drops",
        (s1.unmapped_drops - s0.unmapped_drops) as f64,
        "count",
    ));
    m.push(Metric::new(
        "dpdk_sim.slab_writes_per_pkt",
        ratio(s1.arena.slab_writes - s0.arena.slab_writes, p.traffic.sent),
        "count",
    ));
    m.push(Metric::new(
        "dpdk_sim.arena_high_water",
        s1.arena.high_water as f64,
        "count",
    ));
    m.push(take("dpdk_sim.heap_alloc_ns", &p.replica));
    m.push(take("dpdk_sim.arena_alloc_ns", &p.replica));
    let per_vm: Vec<f64> = p
        .vm_forwarded
        .iter()
        .zip(&s0.vm_forwarded)
        .map(|(end, start)| ratio(end - start, p.delivered))
        .collect();
    m.push(Metric::new(
        "vnf_apps.forwarded_per_pkt",
        per_vm.iter().copied().fold(f64::INFINITY, f64::min),
        "count",
    ));
    m.push(Metric::new(
        "vnf_apps.dropped",
        (s1.vm_dropped.iter().sum::<u64>() - s0.vm_dropped.iter().sum::<u64>()) as f64,
        "count",
    ));
    m.push(Metric::new("bench.gen_late_p99_us", p.late_p99_us, "us"));
    m
}

/// Per-layer numbers printed and written out but not declared in
/// `BENCHMARK.json` (bucketed quantiles repeat exactly between runs, and
/// the highway's own records are empty on a vanilla node).
fn extra_layers(
    snap: &TelemetrySnapshot,
    setup_log: &[highway_core::SetupRecord],
    control: &control::ControlStats,
) -> Vec<Metric> {
    let mut m = Vec::new();
    for stage in [
        Stage::RxBurst,
        Stage::Classify,
        Stage::Execute,
        Stage::TxFlush,
    ] {
        let s = snap.stage_summary(stage);
        m.push(Metric::new(
            format!("ovs_dp.{}_p50_cy", stage.name()),
            s.p50 as f64,
            "cy",
        ));
        m.push(Metric::new(
            format!("ovs_dp.{}_p99_cy", stage.name()),
            s.p99 as f64,
            "cy",
        ));
    }
    let setup: Vec<f64> = setup_log
        .iter()
        .map(|r| r.setup_time().as_secs_f64() * 1e3)
        .collect();
    if let Some(v) = median(&setup) {
        m.push(Metric::new("highway_core.setup_ms", v, "ms"));
    }
    if let Some(v) = median(&control.teardown_ms) {
        m.push(Metric::new("highway_core.teardown_ms", v, "ms"));
    }
    m
}

fn write_trace_outputs(
    workload: &str,
    seed: u64,
    context: &[(&str, String)],
    metrics: &[Metric],
    extra: &[Metric],
    snapshots: &[(&str, TelemetrySnapshot)],
    tracer: &Tracer,
) -> Result<(), String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let spans = dir.join(format!("{workload}.spans.jsonl"));
    tracer
        .write_jsonl(&spans, workload)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": {},\n  \"seed\": {seed},\n",
        report::json_str(workload)
    ));
    json.push_str("  \"context\": {");
    json.push_str(
        &context
            .iter()
            .map(|(k, v)| format!("{}: {}", report::json_str(k), report::json_str(v)))
            .collect::<Vec<_>>()
            .join(", "),
    );
    json.push_str("},\n  \"layers\": [\n");
    let rows: Vec<String> = metrics
        .iter()
        .chain(extra)
        .map(|m| {
            let krate = m.name.split('.').next().unwrap_or("");
            format!(
                "    {{\"crate\": {}, \"workload\": {}, \"name\": {}, \"value\": {}, \"unit\": {}}}",
                report::json_str(krate),
                report::json_str(workload),
                report::json_str(&m.name),
                m.value,
                report::json_str(m.unit)
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ],\n  \"telemetry_at_phase_end\": {\n");
    let snaps: Vec<String> = snapshots
        .iter()
        .map(|(phase, snap)| format!("    {}: {}", report::json_str(phase), snap.to_json()))
        .collect();
    json.push_str(&snaps.join(",\n"));
    json.push_str(&format!("\n  }},\n  \"spans\": {}\n}}\n", tracer.len()));
    let path = dir.join(format!("{workload}.layers.json"));
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {} and {}", path.display(), spans.display());
    Ok(())
}

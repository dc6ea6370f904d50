//! The benchmark's own traffic generator and sink: one thread injects
//! 64 B probes into the ingress NIC and drains the egress NIC, checking
//! every delivered probe and keeping its exact latency.

use crate::inputs::{Flows, FRAME_LEN, HEADERS_LEN, PROBE_END};
use crate::trace::{Tracer, BURST_SAMPLE};
use dpdk_sim::{cycles, Arena, Mbuf};
use nic_sim::NicModel;
use packet_wire::ProbeHeader;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest burst handed to `NicModel::inject` / taken from `drain`.
const BURST: usize = 32;
/// Closed-loop back-off when the window is full and nothing came back.
const IDLE_SLEEP: Duration = Duration::from_micros(20);
/// A drain that sees no delivery for this long gives up on the rest.
const DRAIN_STALL: Duration = Duration::from_secs(2);

/// Checks and timestamps every delivered probe.
pub struct Sink {
    pub delivered: u64,
    seen: Vec<u64>,
    /// Per flow: 1 + the highest seq delivered so far (0 = none yet).
    next_in_flow: Vec<u64>,
    /// Exact one-way latencies (cycles) while `recording` is set.
    pub latencies: Vec<u64>,
    pub recording: bool,
    pub errors: u64,
    pub first_error: Option<String>,
    /// Cycle stamp no probe can predate (the run's start).
    epoch_cycles: u64,
}

impl Sink {
    fn new(flows: usize, epoch_cycles: u64) -> Sink {
        Sink {
            delivered: 0,
            seen: Vec::new(),
            next_in_flow: vec![0; flows],
            latencies: Vec::new(),
            recording: false,
            errors: 0,
            first_error: None,
            epoch_cycles,
        }
    }

    fn error(&mut self, msg: String) {
        self.errors += 1;
        if self.first_error.is_none() {
            self.first_error = Some(msg);
        }
    }

    fn consume(&mut self, flows: &Flows, sent: u64, m: &Mbuf, now: u64) {
        self.delivered += 1;
        let data = m.data();
        if data.len() != FRAME_LEN {
            return self.error(format!("probe of {} B delivered", data.len()));
        }
        let Some(probe) = ProbeHeader::from_frame(data) else {
            return self.error("delivered frame carries no probe header".into());
        };
        let seq = probe.seq;
        if seq >= sent {
            return self.error(format!("probe seq {seq} was never sent"));
        }
        let (word, bit) = ((seq / 64) as usize, seq % 64);
        if word >= self.seen.len() {
            self.seen.resize(word + 1, 0);
        }
        if self.seen[word] & (1 << bit) != 0 {
            return self.error(format!("probe seq {seq} delivered twice"));
        }
        self.seen[word] |= 1 << bit;
        let flow = flows.flow_of(seq);
        let template = flows.template(flow);
        if data[..HEADERS_LEN] != template[..HEADERS_LEN]
            || data[PROBE_END..] != template[PROBE_END..]
        {
            return self.error(format!("probe seq {seq} altered in flight"));
        }
        if seq + 1 < self.next_in_flow[flow] {
            return self.error(format!("probe seq {seq} overtaken within flow {flow}"));
        }
        self.next_in_flow[flow] = seq + 1;
        if probe.tx_cycles < self.epoch_cycles || probe.tx_cycles > now {
            return self.error(format!("probe seq {seq} carries a bad stamp"));
        }
        if self.recording {
            self.latencies.push(now - probe.tx_cycles);
        }
    }
}

/// Result of a closed-loop phase.
pub struct Closed {
    /// Delivered packets/s over the whole loop (final drain excluded).
    pub pps: f64,
    /// Delivered packets/s of each window.
    pub window_pps: Vec<f64>,
}

/// Result of an open-loop phase.
pub struct Open {
    /// How late each probe left the generator (cycles after its due time).
    pub late: Vec<u64>,
    pub offered_pps: f64,
}

pub struct Traffic<'a> {
    flows: &'a Flows,
    arena: Arena,
    nic_in: Arc<NicModel>,
    nic_out: Arc<NicModel>,
    /// Sequence numbers issued (every probe built, delivered or not).
    pub sent: u64,
    /// Probes the arena had no slot for (never reached the NIC).
    pub alloc_failures: u64,
    /// Probes the ingress NIC refused (counted by it as `imissed`).
    pub refused: u64,
    pub sink: Sink,
    pub tracer: Tracer,
    /// Nanoseconds spent inside `NicModel::inject` and packets injected,
    /// taken only while tracing.
    pub inject_ns: u64,
    pub inject_pkts: u64,
    bursts: u64,
    burst: Vec<Mbuf>,
    out: Vec<Mbuf>,
}

impl<'a> Traffic<'a> {
    pub fn new(
        flows: &'a Flows,
        arena: Arena,
        nic_in: Arc<NicModel>,
        nic_out: Arc<NicModel>,
        tracer: Tracer,
        epoch_cycles: u64,
    ) -> Traffic<'a> {
        Traffic {
            flows,
            arena,
            nic_in,
            nic_out,
            sent: 0,
            alloc_failures: 0,
            refused: 0,
            sink: Sink::new(flows.len(), epoch_cycles),
            tracer,
            inject_ns: 0,
            inject_pkts: 0,
            bursts: 0,
            burst: Vec::with_capacity(BURST),
            out: Vec::with_capacity(BURST * 2),
        }
    }

    /// Probes sent but neither delivered nor dropped at the edge.
    pub fn outstanding(&self) -> u64 {
        self.sent - self.alloc_failures - self.refused - self.sink.delivered
    }

    /// Probes lost somewhere (valid once drained).
    pub fn lost(&self) -> u64 {
        self.sent - self.sink.delivered
    }

    /// Builds `n` probes stamped by `stamp(i)` and injects them.
    fn send(&mut self, n: usize, stamp: impl Fn(usize) -> u64) {
        self.burst.clear();
        for i in 0..n {
            let seq = self.sent;
            self.sent += 1;
            let frame = self.flows.frame(seq, stamp(i));
            match self.arena.alloc_from(&frame) {
                Some(am) => self.burst.push(Mbuf::from_arena(am)),
                None => self.alloc_failures += 1,
            }
        }
        let len = self.burst.len();
        self.bursts += 1;
        let sampled = self.tracer.enabled() && self.bursts.is_multiple_of(BURST_SAMPLE);
        let t_span = if sampled { self.tracer.now() } else { 0 };
        let t0 = self.tracer.enabled().then(Instant::now);
        let accepted = self.nic_in.inject(&mut self.burst);
        if let Some(t0) = t0 {
            self.inject_ns += t0.elapsed().as_nanos() as u64;
            self.inject_pkts += len as u64;
        }
        if sampled {
            self.tracer.record("inject", 0, t_span);
        }
        self.refused += (len - accepted) as u64;
    }

    /// Takes whatever the egress NIC holds; returns how many.
    fn drain(&mut self) -> usize {
        self.out.clear();
        let sampled = self.tracer.enabled() && self.bursts.is_multiple_of(BURST_SAMPLE);
        let t_span = if sampled { self.tracer.now() } else { 0 };
        let n = self.nic_out.drain(&mut self.out, BURST * 2);
        if n == 0 {
            return 0;
        }
        let now = cycles::now();
        for m in self.out.drain(..) {
            self.sink.consume(self.flows, self.sent, &m, now);
        }
        if sampled {
            self.tracer.record("drain", 0, t_span);
        }
        n
    }

    /// Drains until nothing is outstanding or delivery stalls.
    pub fn drain_all(&mut self) {
        let mut last_progress = Instant::now();
        while self.outstanding() > 0 {
            if self.drain() > 0 {
                last_progress = Instant::now();
            } else if last_progress.elapsed() > DRAIN_STALL {
                return;
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Closed loop: keeps `window` probes in flight for `dur`, then drains.
    /// Reports the delivered rate of each `tick`-long window.
    pub fn closed_loop(&mut self, dur: Duration, in_flight: u64, tick: Duration) -> Closed {
        let start = Instant::now();
        let delivered0 = self.sink.delivered;
        let mut window_pps = Vec::new();
        let mut win_start = start;
        let mut win_delivered = self.sink.delivered;
        loop {
            let now = Instant::now();
            if now.duration_since(start) >= dur {
                break;
            }
            let outstanding = self.outstanding();
            let mut busy = false;
            if outstanding < in_flight {
                let n = ((in_flight - outstanding) as usize).min(BURST);
                let stamp = cycles::now();
                self.send(n, |_| stamp);
                busy = true;
            }
            if self.drain() == 0 && !busy {
                // Window full and nothing back yet: leave the cores to the
                // program's threads.
                std::thread::sleep(IDLE_SLEEP);
            }
            let elapsed = now.duration_since(win_start);
            if elapsed >= tick {
                let got = self.sink.delivered - win_delivered;
                window_pps.push(got as f64 / elapsed.as_secs_f64());
                win_start = now;
                win_delivered = self.sink.delivered;
            }
        }
        let pps = (self.sink.delivered - delivered0) as f64 / start.elapsed().as_secs_f64();
        self.drain_all();
        Closed { pps, window_pps }
    }

    /// Open loop: probe `k` is due at `start + k / rate` and is stamped
    /// with that due time, so a stall in the generator or the program shows
    /// as latency. Runs for `dur`, then drains.
    pub fn open_loop(&mut self, rate_pps: f64, dur: Duration) -> Open {
        let start = Instant::now();
        let total = (dur.as_secs_f64() * rate_pps) as u64;
        let period = cycles::CPU_HZ as f64 / rate_pps;
        let t0 = cycles::now();
        let due = |k: u64| t0 + (k as f64 * period) as u64;
        let mut late = Vec::with_capacity(total as usize);
        let mut k = 0u64;
        while k < total {
            let now = cycles::now();
            let due_upto = (((now - t0) as f64 / period) as u64 + 1).min(total);
            let busy = k < due_upto;
            if busy {
                let n = ((due_upto - k) as usize).min(BURST);
                for i in 0..n as u64 {
                    late.push(now - due(k + i));
                }
                let base = k;
                self.send(n, |i| due(base + i as u64));
                k += n as u64;
            }
            if self.drain() == 0 && !busy {
                std::thread::yield_now();
            }
        }
        let offered_pps = total as f64 / start.elapsed().as_secs_f64();
        self.drain_all();
        Open { late, offered_pps }
    }
}

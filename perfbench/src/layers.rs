//! The traced run: per-layer host time, measured from the benchmark's
//! own code around calls into each layer's public entry points.
//!
//! Nothing here reaches inside the simulator, and each layer is timed
//! alone, in one timed span over many calls (no per-call clock reads):
//!
//! * **trace** — a fresh `TraceSource` is replayed with `get` over the
//!   job's whole instruction stream;
//! * **ooo** and **mem** — the benchmark drives an `OooCore` itself
//!   through an `InstFeed` wrapper that counts the records it feeds and
//!   a local-memory `MemSystem` wrapper that records every call; the
//!   recorded calls are then replayed alone through fresh caches and
//!   banks (`Cache::access` plus `MainMemory::access`). The core's self
//!   time is the loop's time minus the memory replay and the trace cost
//!   of the records fed;
//! * **protocol** and **net** — `Bshr`/`Dcub` and `Fabric` are replayed
//!   with an operation stream shaped by the job's own counters (one
//!   operation pair per counted wait, buffered arrival, squash and DCUB
//!   miss; one message per counted transaction, spread evenly over the
//!   run's cycles, with `step_into` called as often as the engine does).
//!
//! The engine's residual is the measured `run()` time minus every
//! layer's cost (ns/op × the run's own op counts): the cycle loop and
//! the glue between layers.

use crate::workload::{run_job, Built, Job, Machine, Outcome, System, Workload};
use ds_core::bshr::Bshr;
use ds_core::cub::Dcub;
use ds_core::{DsConfig, NodeStats};
use ds_cpu::{
    ExecError, ExecRecord, FuncCore, InstFeed, LoadResponse, MemSystem, OooCore, RuuTag,
    TraceSource,
};
use ds_mem::{AccessKind, Cache, CacheOutcome, MainMemory, MemImage};
use ds_net::{BusConfig, BusStats, Fabric, FabricKind, Message, MsgKind};
use std::hint::black_box;
use std::time::Instant;

fn new_trace(program: &ds_asm::Program) -> TraceSource {
    let mut mem = MemImage::new();
    program.load(&mut mem);
    TraceSource::new(FuncCore::with_stack(program.entry, program.stack_top), mem)
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Replays `TraceSource::get` over the first `n` instructions; returns
/// host ns per instruction.
fn replay_trace(program: &ds_asm::Program, n: u64) -> f64 {
    let mut src = new_trace(program);
    let t = Instant::now();
    for i in 0..n {
        black_box(src.get(i).expect("trace replay executes"));
        if i % 1024 == 1023 {
            src.trim(i);
        }
    }
    ns_since(t) / n.max(1) as f64
}

/// The `InstFeed` of the benchmark-driven core: counts the records it
/// hands out, whose cost the trace replay prices.
struct CountingFeed {
    src: TraceSource,
    fed: u64,
}

impl InstFeed for CountingFeed {
    fn fetch_record(&mut self, idx: u64) -> Result<Option<ExecRecord>, ExecError> {
        self.fed += 1;
        self.src.get(idx).map(|o| o.copied())
    }
}

/// One memory-side call of the core, as recorded for replay.
#[derive(Debug, Clone, Copy)]
enum Access {
    Load {
        addr: u64,
        now: u64,
    },
    /// A committed store of `bytes` bytes.
    Store {
        addr: u64,
        bytes: u64,
        now: u64,
    },
    Fetch {
        pc: u64,
        now: u64,
    },
}

/// One node with all of memory local: the D- and I-cache and the
/// on-chip memory banks.
struct LocalMem {
    dcache: Cache,
    icache: Cache,
    memory: MainMemory,
    line_bytes: u64,
}

impl LocalMem {
    fn new(config: &DsConfig) -> Self {
        LocalMem {
            dcache: Cache::new(config.dcache),
            icache: Cache::new(config.icache),
            memory: MainMemory::new(config.memory),
            line_bytes: config.dcache.line_bytes,
        }
    }

    /// Performs one access: `Cache::access`, plus `MainMemory::access` on
    /// a miss. Returns the ready cycle and whether a load hit.
    fn apply(&mut self, a: Access) -> (u64, bool) {
        match a {
            Access::Load { addr, now } => match self.dcache.access(addr, AccessKind::Read) {
                CacheOutcome::Hit => (now + 1, true),
                CacheOutcome::Miss { .. } => {
                    let line = self.dcache.line_addr(addr);
                    (self.memory.access(line, self.line_bytes, now), false)
                }
            },
            Access::Store { addr, bytes, now } => {
                if let CacheOutcome::Miss {
                    allocated: false, ..
                } = self.dcache.access(addr, AccessKind::Write)
                {
                    self.memory.access(addr, bytes, now);
                }
                (now, false)
            }
            Access::Fetch { pc, now } => match self.icache.access(pc, AccessKind::Read) {
                CacheOutcome::Hit => (now, true),
                CacheOutcome::Miss { .. } => (
                    self.memory
                        .access(self.icache.line_addr(pc), self.line_bytes, now),
                    false,
                ),
            },
        }
    }
}

/// The `MemSystem` of the benchmark-driven core: a [`LocalMem`] that
/// records every call, so the calls can be replayed and timed alone.
struct RecordingMem<'a> {
    mem: LocalMem,
    log: &'a mut Vec<Access>,
}

impl RecordingMem<'_> {
    fn apply(&mut self, a: Access) -> (u64, bool) {
        self.log.push(a);
        self.mem.apply(a)
    }
}

impl MemSystem for RecordingMem<'_> {
    fn load_issued(&mut self, rec: &ExecRecord, now: u64, _tag: RuuTag) -> (LoadResponse, bool) {
        let (ready, hit) = self.apply(Access::Load {
            addr: rec.mem_addr,
            now,
        });
        (LoadResponse::Ready(ready), hit)
    }

    fn mem_committed(&mut self, rec: &ExecRecord, _issue_hit: Option<bool>, now: u64) {
        if rec.is_store() {
            self.apply(Access::Store {
                addr: rec.mem_addr,
                bytes: rec.mem_bytes,
                now,
            });
        }
    }

    fn fetch_line(&mut self, pc: u64, now: u64) -> u64 {
        self.apply(Access::Fetch { pc, now }).0
    }
}

/// Self times from the benchmark-driven core loop.
#[derive(Debug, Clone, Copy)]
struct CoreLoop {
    /// `OooCore::step` self ns per step call.
    step_ns: f64,
    /// `OooCore::step` self ns per committed instruction.
    ooo_ns_per_inst: f64,
    /// `Cache::access` + `MainMemory::access` ns per access.
    mem_ns_per_access: f64,
    /// Memory-side accesses per committed instruction.
    accesses_per_inst: f64,
}

/// Drives an `OooCore` over `program` to completion (or the budget),
/// then replays the recorded memory calls alone. The core's self time
/// is the loop's time minus the memory replay and the trace cost of the
/// records it was fed (`trace_ns` each).
/// `log` is the recording buffer, reused across calls so that only the
/// first call pays for growing it.
fn core_loop(
    program: &ds_asm::Program,
    config: &DsConfig,
    trace_ns: f64,
    log: &mut Vec<Access>,
) -> CoreLoop {
    log.clear();
    let mut core = OooCore::new(config.core, config.icache.line_bytes);
    let mut ms = RecordingMem {
        mem: LocalMem::new(config),
        log,
    };
    let mut feed = CountingFeed {
        src: new_trace(program),
        fed: 0,
    };
    let max = config.max_insts.unwrap_or(u64::MAX);
    let mut now = 0;
    let t = Instant::now();
    while !core.is_done() && core.committed() < max {
        core.step(&mut ms, &mut feed, now)
            .expect("core loop executes");
        now += 1;
        if now % 1024 == 0 {
            feed.src.trim(core.fetch_cursor());
        }
    }
    let loop_ns = ns_since(t);

    let mut replay = LocalMem::new(config);
    let t = Instant::now();
    for &a in ms.log.iter() {
        black_box(replay.apply(a));
    }
    let mem_ns = ns_since(t);

    let ooo_ns = (loop_ns - mem_ns - trace_ns * feed.fed as f64).max(0.0);
    let committed = core.committed().max(1) as f64;
    let accesses = ms.log.len().max(1) as f64;
    CoreLoop {
        step_ns: ooo_ns / now.max(1) as f64,
        ooo_ns_per_inst: ooo_ns / committed,
        mem_ns_per_access: mem_ns / accesses,
        accesses_per_inst: accesses / committed,
    }
}

/// Protocol operations a DataScalar node performed, as the replay
/// issues them: request+arrival per wait, arrival+request per buffered
/// hit, squash+arrival per posted squash, insert+remove per DCUB miss.
fn protocol_ops(n: &NodeStats) -> [u64; 4] {
    [
        n.bshr.waits_allocated,
        n.bshr.found_buffered,
        n.bshr.squashes_posted,
        n.loads_issued.saturating_sub(n.issue_hits),
    ]
}

fn protocol_op_count(nodes: &[NodeStats]) -> u64 {
    nodes
        .iter()
        .map(|n| 2 * protocol_ops(n).iter().sum::<u64>())
        .sum()
}

/// Replays the BSHR/DCUB operations of `nodes`; returns host ns.
fn replay_protocol(nodes: &[NodeStats], config: &DsConfig) -> f64 {
    let mut ns = 0.0;
    for n in nodes {
        let [waits, buffered, squashes, misses] = protocol_ops(n);
        let mut bshr = Bshr::new(config.bshr_entries, config.bshr_access_cycles);
        let mut dcub = Dcub::new();
        let rounds = waits.max(buffered).max(squashes).max(misses);
        let line = |i: u64, k: u64| ((i % 64) * 4 + k) * 32;
        let t = Instant::now();
        for i in 0..rounds {
            let now = i * 10;
            if i < waits {
                black_box(bshr.request(line(i, 0), i, now));
                black_box(bshr.on_arrival(line(i, 0), now));
            }
            if i < buffered {
                black_box(bshr.on_arrival(line(i, 1), now));
                black_box(bshr.request(line(i, 1), i, now));
            }
            if i < squashes {
                bshr.post_squash(line(i, 2));
                black_box(bshr.on_arrival(line(i, 2), now));
            }
            if i < misses {
                dcub.insert(line(i, 3), Some(now), false);
                black_box(dcub.remove(line(i, 3)));
            }
        }
        ns += ns_since(t);
    }
    ns
}

/// Replays `bus.transactions` messages of the run's kinds on a fresh
/// fabric of the job's kind, spread evenly over its cycles, with
/// `Fabric::enqueue`, and `step_into` as often as the engine calls it
/// (once per stepped cycle: `stepped` calls spread evenly, plus every
/// cycle the fabric has an event); returns host ns.
fn replay_net(
    bus: &BusStats,
    cycles: u64,
    stepped: u64,
    machine: Machine,
    config: &DsConfig,
) -> f64 {
    let t_total = bus.transactions;
    if t_total == 0 {
        return 0.0;
    }
    let (kind, ports) = match machine {
        Machine::Ds { nodes, ring } => (
            if ring {
                FabricKind::Ring
            } else {
                FabricKind::Bus
            },
            nodes,
        ),
        _ => (FabricKind::Bus, 2),
    };
    let cfg = BusConfig {
        ports,
        ..config.bus
    };
    let line = config.dcache.line_bytes;
    let lined = bus.broadcasts + bus.responses;
    let write_payload = (bus
        .bytes
        .saturating_sub(t_total * cfg.header_bytes + lined * line))
    .checked_div(bus.writes)
    .unwrap_or(0);
    let kinds: Vec<(MsgKind, u64, u64)> = [
        (MsgKind::Broadcast, bus.broadcasts, line),
        (MsgKind::Request, bus.requests, 0),
        (MsgKind::Response, bus.responses, line),
        (MsgKind::WriteBack, bus.writes, write_payload),
    ]
    .into_iter()
    .filter(|k| k.1 > 0)
    .collect();
    let msg = |k: u64, now: u64| {
        let (kind, _, payload) = kinds[(k % kinds.len() as u64) as usize];
        let (src, dest) = match kind {
            MsgKind::Broadcast => ((k % ports as u64) as usize, None),
            MsgKind::Response => (1, Some(0)),
            _ => (0, Some(1)),
        };
        Message {
            src,
            dest,
            kind,
            line_addr: (k % 4096) * line,
            payload_bytes: payload,
            seq: k,
            enqueued_at: now,
        }
    };
    let interval = (cycles / t_total).max(1);
    let stride = (cycles / stepped.max(1)).max(1);
    let mut fabric = Fabric::new(kind, cfg);
    let mut out = Vec::new();
    let (mut now, mut k) = (0u64, 0u64);
    let t = Instant::now();
    loop {
        while k < t_total && k * interval <= now {
            fabric.enqueue(msg(k, now));
            k += 1;
        }
        fabric.step_into(now, &mut out);
        black_box(&out);
        out.clear();
        if k == t_total && fabric.is_idle() {
            break;
        }
        let next_enqueue = if k < t_total { k * interval } else { u64::MAX };
        let next_step = (now / stride + 1) * stride;
        now = next_enqueue
            .min(fabric.next_event(now))
            .min(next_step)
            .max(now + 1);
    }
    ns_since(t)
}

/// One named per-layer metric.
pub struct Metric {
    /// `<module>.<metric>`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The fastest of `runs` timings: like `insts_per_s`, every host time of
/// the traced run estimates the uncontended speed (README.md,
/// "Steadiness").
fn fastest(runs: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..runs).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Checks one attempt of a job, accounts for it, and returns the
/// outcome if it passed.
pub type Judge<'a> = dyn FnMut(&Job, Result<Outcome, String>) -> Option<Outcome> + 'a;

/// Runs every job `runs` times (plus the replays) and derives every
/// per-layer metric except the `obs` ones. `judge` checks each attempt,
/// accounts for it, and returns the outcome if it passed.
pub fn trace(w: &Workload, seed: u64, runs: usize, judge: &mut Judge) -> Vec<Metric> {
    // setup: program build and every System::new, medians of `runs`.
    let (mut build, mut new, mut pages) = (Vec::new(), Vec::new(), 0);
    let mut built: Option<Built> = None;
    for _ in 0..runs {
        let t = Instant::now();
        let b = w.build(seed);
        build.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let systems: Vec<System> = w
            .jobs
            .iter()
            .map(|j| System::new(j.machine, w.max_insts, &b.program))
            .collect();
        new.push(t.elapsed().as_secs_f64());
        pages = systems.iter().map(System::pages).sum::<usize>();
        built = Some(b);
    }
    let built = built.expect("at least one run");
    let result_addr = built.program.symbol("result");

    // engine: clean runs, the fastest run() of each job.
    let mut passed = Vec::new();
    let mut run_s = 0.0;
    for job in w.jobs {
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..runs {
            let attempt = run_job(
                System::new(job.machine, w.max_insts, &built.program),
                result_addr,
            );
            if let Some(o) = judge(job, attempt) {
                times.push(o.run_s);
                last = Some(o);
            }
        }
        if let Some(o) = last {
            run_s += times.iter().copied().fold(f64::INFINITY, f64::min);
            passed.push((job.machine, o));
        }
    }

    // Replays: the stream and the core loop are the same for every job
    // of a workload (one program, one core configuration).
    let config = w.jobs[0].machine.config(w.max_insts);
    let insts: u64 = passed.iter().map(|(_, o)| o.result.committed).sum();
    let stream = passed.first().map_or(0, |(_, o)| o.result.committed);
    let trace_ns = fastest(runs, || replay_trace(&built.program, stream));
    let mut log = Vec::new();
    let loops: Vec<CoreLoop> = (0..runs)
        .map(|_| core_loop(&built.program, &config, trace_ns, &mut log))
        .collect();
    let least = |f: fn(&CoreLoop) -> f64| loops.iter().map(f).fold(f64::INFINITY, f64::min);
    let core = CoreLoop {
        step_ns: least(|c| c.step_ns),
        ooo_ns_per_inst: least(|c| c.ooo_ns_per_inst),
        mem_ns_per_access: least(|c| c.mem_ns_per_access),
        accesses_per_inst: loops[0].accesses_per_inst,
    };
    let (mut proto_ns, mut proto_ops, mut net_ns) = (0.0, 0u64, 0.0);
    for (m, o) in &passed {
        let cfg = m.config(w.max_insts);
        if let Machine::Ds { .. } = m {
            proto_ns += fastest(runs, || replay_protocol(&o.result.nodes, &cfg));
            proto_ops += protocol_op_count(&o.result.nodes);
        }
        let stepped = o.result.cycles - o.skipped;
        net_ns += fastest(runs, || {
            replay_net(&o.result.bus, o.result.cycles, stepped, *m, &cfg)
        });
    }

    // Counters: machine totals over every job and node.
    let nodes = || passed.iter().flat_map(|(_, o)| o.result.nodes.iter());
    let sum = |f: &dyn Fn(&NodeStats) -> u64| nodes().map(f).sum::<u64>() as f64;
    let bus = |f: &dyn Fn(&BusStats) -> u64| {
        passed.iter().map(|(_, o)| f(&o.result.bus)).sum::<u64>() as f64
    };
    let cycles = passed.iter().map(|(_, o)| o.result.cycles).sum::<u64>() as f64;
    let skipped = passed.iter().map(|(_, o)| o.skipped).sum::<u64>() as f64;
    let node_cycles: f64 = passed
        .iter()
        .map(|(m, o)| (m.cores() as u64 * (o.result.cycles - o.skipped)) as f64)
        .sum();
    let core_insts: f64 = passed
        .iter()
        .map(|(m, o)| (m.cores() as u64 * o.result.committed) as f64)
        .sum();
    let transactions = bus(&|b| b.transactions);

    let trace_self = trace_ns * insts as f64 / 1e9;
    let ooo_self = core.ooo_ns_per_inst * core_insts / 1e9;
    let mem_self = core.mem_ns_per_access * core.accesses_per_inst * core_insts / 1e9;
    let protocol_ns_per_op = ratio(proto_ns, proto_ops as f64);
    let protocol_self = proto_ns / 1e9;
    let net_ns_per_msg = ratio(net_ns, transactions);
    let net_self = net_ns / 1e9;
    let residual = run_s - trace_self - ooo_self - mem_self - protocol_self - net_self;

    let m = |name, unit, value| Metric { name, unit, value };
    let metrics = vec![
        m("setup.build_s", "s", median(&mut build)),
        m("setup.new_s", "s", median(&mut new)),
        m("setup.pages", "count", pages as f64),
        m("trace.insts", "count", insts as f64),
        m("trace.ns_per_inst", "ns", trace_ns),
        m(
            "trace.window_high_water",
            "count",
            passed
                .iter()
                .map(|(_, o)| o.result.trace_window_high_water)
                .max()
                .unwrap_or(0) as f64,
        ),
        m("trace.self_s", "s", trace_self),
        m("ooo.committed", "count", sum(&|n| n.core.committed)),
        m("ooo.loads", "count", sum(&|n| n.core.loads)),
        m("ooo.stores", "count", sum(&|n| n.core.stores)),
        m(
            "ooo.forwarded_loads",
            "count",
            sum(&|n| n.core.forwarded_loads),
        ),
        m(
            "ooo.ruu_full_stalls",
            "count",
            sum(&|n| n.core.ruu_full_stalls),
        ),
        m(
            "ooo.fetch_stall_cycles",
            "count",
            sum(&|n| n.core.fetch_stall_cycles),
        ),
        m("ooo.step_ns", "ns", core.step_ns),
        m("ooo.ns_per_inst", "ns", core.ooo_ns_per_inst),
        m("ooo.self_s", "s", ooo_self),
        m("mem.loads_issued", "count", sum(&|n| n.loads_issued)),
        m("mem.issue_hits", "count", sum(&|n| n.issue_hits)),
        m(
            "mem.hit_ratio",
            "ratio",
            ratio(sum(&|n| n.issue_hits), sum(&|n| n.loads_issued)),
        ),
        m("mem.local_misses", "count", sum(&|n| n.local_misses)),
        m("mem.writebacks", "count", sum(&|n| n.writebacks_local)),
        m("mem.ns_per_access", "ns", core.mem_ns_per_access),
        m("mem.self_s", "s", mem_self),
        m("protocol.broadcasts", "count", sum(&|n| n.broadcasts_sent)),
        m(
            "protocol.late_broadcasts",
            "count",
            sum(&|n| n.late_broadcasts),
        ),
        m("protocol.false_hits", "count", sum(&|n| n.false_hits)),
        m("protocol.false_misses", "count", sum(&|n| n.false_misses)),
        m(
            "protocol.remote_accesses",
            "count",
            sum(&|n| n.remote_accesses),
        ),
        m(
            "protocol.bshr_waits",
            "count",
            sum(&|n| n.bshr.waits_allocated),
        ),
        m(
            "protocol.found_in_bshr_ratio",
            "ratio",
            ratio(sum(&|n| n.bshr.found_buffered), sum(&|n| n.remote_accesses)),
        ),
        m(
            "protocol.squash_ratio",
            "ratio",
            ratio(
                sum(&|n| n.bshr.squashed_arrivals),
                sum(&|n| n.bshr.arrivals),
            ),
        ),
        m(
            "protocol.dcub_max",
            "count",
            nodes().map(|n| n.dcub_max).max().unwrap_or(0) as f64,
        ),
        m("protocol.ns_per_op", "ns", protocol_ns_per_op),
        m("protocol.self_s", "s", protocol_self),
        m("net.transactions", "count", transactions),
        m("net.bytes", "count", bus(&|b| b.bytes)),
        m("net.requests", "count", bus(&|b| b.requests)),
        m("net.writes", "count", bus(&|b| b.writes)),
        m("net.busy_cycles", "count", bus(&|b| b.busy_cycles)),
        m(
            "net.utilization",
            "ratio",
            ratio(bus(&|b| b.busy_cycles), cycles),
        ),
        m(
            "net.mean_queue_delay",
            "cycles",
            ratio(bus(&|b| b.queue_delay_cycles), transactions),
        ),
        m("net.ns_per_msg", "ns", net_ns_per_msg),
        m("net.self_s", "s", net_self),
        m("engine.cycles", "count", cycles),
        m("engine.cycles_skipped", "count", skipped),
        m("engine.skip_ratio", "ratio", ratio(skipped, cycles)),
        m("engine.node_cycles_stepped", "count", node_cycles),
        m("engine.run_s", "s", run_s),
        m("engine.ns_per_cycle", "ns", ratio(run_s * 1e9, cycles)),
        m("engine.residual_s", "s", residual),
    ];
    metrics
}

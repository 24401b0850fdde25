//! The open-loop serving workload: a seeded Poisson schedule of requests
//! flows NIC → `ServingBridge` → stream `DataCollector` → FPGA decode →
//! consumer. Only two benchmark threads run: the generator and the
//! consumer (this thread).

use crate::check::{Sample, Sampler};
use crate::layers::{self, Measured};
use crate::report::Report;
use crate::stats::{median, peak_rss_mib, percentile, process_cpu_seconds, Rng};
use crate::{stall_artifact, Args, Corpus, SAMPLES, SETUP_REPEATS, STALL_DEADLINE, TARGET};
use dlbooster::net::Frame;
use dlbooster::prelude::*;
use dlbooster::simcore::SimTime;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered load, requests per second: about half of what the decode layer
/// sustains on two cores, so latency rather than throughput moves.
const RATE: f64 = 300.0;
const TENANTS: u64 = 5;
const MAX_BATCH: u32 = 8;
const SLO: Duration = Duration::from_millis(100);
/// Schedule time before the window opens.
const WARMUP: Duration = Duration::from_secs(1);
/// The generator's longest sleep: it wakes at least this often so the
/// batch former can close lingering batches on time.
const TICK: Duration = Duration::from_millis(1);
/// The consumer's longest wait, so it notices the window edges and the
/// end of the schedule.
const POLL: Duration = Duration::from_millis(20);
/// 300 req/s leave 30 requests beyond p99 in a 10 s window.
const LATENCY_TAIL: f64 = 0.99;

/// One scheduled request; its id is its index + 1 (id 0 is the set-up
/// request).
#[derive(Clone, Copy)]
struct Due {
    /// Offset from the schedule start.
    at: Duration,
    tenant: u32,
    record: usize,
}

/// The seeded open-loop schedule over `span`.
fn schedule(seed: u64, span: Duration, records: usize) -> Vec<Due> {
    let mut rng = Rng::new(seed ^ 0x0005_E4E0);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.next_f64()).ln() / RATE;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(Due {
            at: Duration::from_secs_f64(t),
            tenant: rng.below(TENANTS) as u32,
            record: rng.below(records as u64) as usize,
        });
    }
}

/// State the generator and the consumer share.
struct Shared {
    nic: Arc<NicRx>,
    collector: Arc<DataCollector>,
    bridge: Mutex<ServingBridge>,
    /// Zero of the arrival clock the NIC and the bridge see.
    clock: Instant,
    /// NIC buffer of each request in flight, released on delivery.
    buffers: Mutex<HashMap<u64, u64>>,
    generator_done: AtomicBool,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    fn bridge(&self) -> std::sync::MutexGuard<'_, ServingBridge> {
        self.bridge.lock().expect("bridge lock")
    }

    /// Drains the NIC ring through admission and batch forming.
    fn sweep(&self) {
        self.bridge()
            .ingest(&self.nic, &self.collector, self.now_ns());
    }

    /// Delivers one frame and sweeps the bridge. Returns the two call
    /// times in µs.
    fn send(&self, id: u64, tenant: u32, payload: &[u8]) -> (f64, f64) {
        let wire = Frame {
            request_id: id,
            client_id: tenant,
            send_ts_nanos: self.now_ns(),
            payload: payload.to_vec(),
        }
        .encode();
        let t0 = Instant::now();
        let desc = self
            .nic
            .deliver(&wire, self.now_ns())
            .expect("the NIC ring holds the offered load");
        let deliver = t0.elapsed();
        self.buffers
            .lock()
            .expect("buffers lock")
            .insert(id, desc.phys_addr);
        let t1 = Instant::now();
        self.sweep();
        (
            deliver.as_secs_f64() * 1e6,
            t1.elapsed().as_secs_f64() * 1e6,
        )
    }
}

/// What the generator measured inside the window.
#[derive(Default)]
struct Generated {
    late_ms: Vec<f64>,
    deliver_us: Vec<f64>,
    ingest_us: Vec<f64>,
}

/// Sends `plan` on time from `base`, sweeping the bridge every tick.
fn generate(
    shared: &Shared,
    plan: &[Due],
    payloads: &[Arc<Vec<u8>>],
    base: Instant,
    window: (Instant, Instant),
) -> Generated {
    let mut g = Generated::default();
    for (k, d) in plan.iter().enumerate() {
        let due = base + d.at;
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(TICK));
            if Instant::now() < due {
                shared.sweep();
            }
        }
        let late = due.elapsed();
        let (deliver, ingest) = shared.send(k as u64 + 1, d.tenant, &payloads[d.record]);
        if due >= window.0 && due < window.1 {
            g.late_ms.push(late.as_secs_f64() * 1e3);
            g.deliver_us.push(deliver);
            g.ingest_us.push(ingest);
        }
    }
    shared.sweep();
    shared.bridge().flush(&shared.collector);
    shared.generator_done.store(true, Ordering::SeqCst);
    g
}

/// What one pass measured.
#[derive(Default)]
struct Window {
    m: Measured,
    latency_ms: Vec<f64>,
    /// Requests due inside the window, and those of them refused, lost
    /// or answered later than the SLO.
    sent: u64,
    missed: u64,
    gen: Generated,
}

/// One started serving pipeline and the consumer's view of it.
struct Pass<'a> {
    args: &'a Args,
    corpus: &'a Corpus,
    label: &'static str,
    shared: Arc<Shared>,
    booster: DlBooster,
    telemetry: Arc<Telemetry>,
    tracer: Option<Arc<Tracer>>,
    sampler: Sampler,
    /// Per request id: corpus record, due instant, delivered flag.
    record: Vec<usize>,
    due: Vec<Option<Instant>>,
    delivered: Vec<bool>,
    delivered_images: u64,
    stalled: bool,
    mismatches_before: usize,
}

impl<'a> Pass<'a> {
    /// Starts the pipeline and serves the set-up request, id 0.
    fn start(
        args: &'a Args,
        corpus: &'a Corpus,
        label: &'static str,
        traced: bool,
        report: &mut Report,
    ) -> Self {
        let telemetry = Telemetry::with_defaults();
        let tracer = traced.then(|| Arc::new(Tracer::new()));
        if let Some(t) = &tracer {
            telemetry.install_tracer(Arc::clone(t));
        }
        let nic = Arc::new(
            NicRx::new(NicSpec::forty_gbps(), 0x8_0000_0000).with_telemetry(&telemetry.registry),
        );
        let collector = Arc::new(DataCollector::load_from_net());
        let bridge = ServingBridge::with_telemetry(
            ServingConfig::five_clients(
                MAX_BATCH,
                SimTime::from_nanos(SLO.as_nanos() as u64),
                ShedPolicy::DeadlineAware,
            ),
            &telemetry.registry,
        );
        let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
        device
            .load_mirror(DecoderMirror::jpeg_paper_config())
            .expect("mirror fits");
        let engine = DecoderEngine::start_with_telemetry(
            device,
            Arc::new(CombinedResolver::nic_only(Arc::clone(&nic))),
            &telemetry,
        )
        .expect("engine start");
        let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
        let target = (TARGET.0 as u16, TARGET.1 as u16);
        let booster = DlBooster::start_with_telemetry(
            Arc::clone(&collector),
            channel,
            DlBoosterConfig::inference(1, MAX_BATCH as usize, target),
            Arc::clone(&telemetry),
        )
        .expect("booster start");
        let shared = Arc::new(Shared {
            nic,
            collector,
            bridge: Mutex::new(bridge),
            clock: Instant::now(),
            buffers: Mutex::new(HashMap::new()),
            generator_done: AtomicBool::new(false),
        });
        let mut pass = Pass {
            args,
            corpus,
            label,
            shared,
            booster,
            telemetry,
            tracer,
            sampler: Sampler::new(args.seed ^ label.len() as u64, SAMPLES),
            record: vec![0],
            due: vec![None],
            delivered: vec![false],
            delivered_images: 0,
            stalled: false,
            mismatches_before: report.mismatches.len(),
        };
        pass.shared.send(0, 0, &corpus.bytes(0));
        pass.shared.bridge().flush(&pass.shared.collector);
        let mut scratch = Window::default();
        let since = Instant::now();
        while !pass.delivered[0] && !pass.stalled {
            pass.pull(since, None, &mut scratch, report);
        }
        pass
    }

    /// Waits up to `POLL` for one batch, then checks and completes its
    /// requests. Returns false once every request is out, or the pipeline
    /// closed or stalled.
    fn pull(
        &mut self,
        last_progress: Instant,
        window: Option<(Instant, Instant)>,
        w: &mut Window,
        report: &mut Report,
    ) -> bool {
        let batch = match self.booster.next_batch_timeout(0, POLL) {
            Ok(Some(b)) => b,
            Ok(None) => {
                let (inflight, queued) = {
                    let b = self.shared.bridge();
                    (b.inflight(), b.queued())
                };
                if self.shared.generator_done.load(Ordering::SeqCst) && inflight + queued == 0 {
                    return false;
                }
                if inflight > 0 && last_progress.elapsed() >= STALL_DEADLINE {
                    let what = format!(
                        "no batch within {STALL_DEADLINE:?} with {inflight} requests in flight"
                    );
                    report.note(format!("{} pass: {what}", self.label));
                    report.artifacts.push(stall_artifact(
                        self.args,
                        self.label,
                        &what,
                        Some(&self.telemetry),
                    ));
                    self.stalled = true;
                    return false;
                }
                return true;
            }
            Err(_) => {
                report.note(format!("{} pass: pipeline closed", self.label));
                self.stalled = true;
                return false;
            }
        };
        let popped = Instant::now();
        let now_ns = self.shared.now_ns();
        let in_window = window.is_some_and(|(from, to)| popped >= from && popped < to);
        let item_len = (TARGET.0 * TARGET.1 * 3) as usize;
        for (i, item) in batch.unit.items().iter().enumerate() {
            let id = item.label;
            if item.len != item_len
                || (item.width, item.height, item.channels) != (TARGET.0, TARGET.1, 3)
            {
                report.mismatch(format!("request {id}: item geometry {item:?}"));
            }
            let completed = self.shared.bridge().complete(id, now_ns);
            let fresh = self
                .delivered
                .get_mut(id as usize)
                .is_some_and(|d| !std::mem::replace(d, true));
            if completed.is_none() || !fresh {
                report.mismatch(format!("request {id} delivered but not in flight"));
                continue;
            }
            if let Some(phys) = self
                .shared
                .buffers
                .lock()
                .expect("buffers lock")
                .remove(&id)
            {
                self.shared.nic.release(phys);
            }
            if let (Some(due), Some((from, to))) = (self.due[id as usize], window) {
                if due >= from && due < to {
                    w.latency_ms
                        .push(popped.duration_since(due).as_secs_f64() * 1e3);
                }
            }
            let record = self.record[id as usize];
            let corpus = self.corpus;
            let unit = &batch.unit;
            self.sampler.offer(|| Sample {
                what: format!("request {id} (record {record})"),
                src: corpus.bytes(record).to_vec(),
                pixels: unit.item_bytes(i).to_vec(),
            });
        }
        let images = batch.len() as u64;
        self.delivered_images += images;
        let t0 = Instant::now();
        self.booster.recycle(batch.unit);
        if in_window {
            w.m.images += images;
            w.m.recycle_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        true
    }

    /// Runs the schedule: warm-up, then a window of `seconds`, then drains
    /// every admitted request.
    fn run(&mut self, seconds: f64, report: &mut Report) -> Window {
        let span = WARMUP + Duration::from_secs_f64(seconds);
        let plan = schedule(self.args.seed, span, self.corpus.dataset.records.len());
        let base = Instant::now() + Duration::from_millis(5);
        let window = (base + WARMUP, base + span);
        for d in &plan {
            self.record.push(d.record);
            self.due.push(Some(base + d.at));
            self.delivered.push(false);
        }
        let payloads: Vec<Arc<Vec<u8>>> = (0..self.corpus.dataset.records.len())
            .map(|i| self.corpus.bytes(i))
            .collect();
        let mut w = Window::default();
        let shared = Arc::clone(&self.shared);
        let generator = std::thread::Builder::new()
            .name("perfbench-generator".into())
            .spawn(move || generate(&shared, &plan, &payloads, base, window))
            .expect("spawn generator");

        let mut opened: Option<(Instant, f64, u64)> = None;
        let mut closed = false;
        let mut progress = Instant::now();
        loop {
            let now = Instant::now();
            if opened.is_none() && now >= window.0 {
                w.m.before = Some(self.telemetry.pipeline_snapshot());
                opened = Some((now, process_cpu_seconds(), self.booster.cpu_busy_nanos()));
            }
            if !closed && now >= window.1 {
                closed = true;
                self.close_window(&mut w, opened, now);
            }
            let before = self.delivered_images;
            if !self.pull(progress, Some(window), &mut w, report) {
                break;
            }
            if self.delivered_images > before {
                progress = Instant::now();
            }
        }
        w.gen = generator.join().expect("generator thread");
        if !closed {
            // Stalled before the window closed.
            self.close_window(&mut w, opened, Instant::now());
        }
        // Images are counted by pop time inside the nominal window; the
        // CPU interval differs from it by at most one poll.
        w.m.seconds = seconds;
        for id in 1..self.due.len() {
            let due = self.due[id].expect("scheduled");
            if due >= window.0 && due < window.1 {
                w.sent += 1;
                if !self.delivered[id] {
                    w.missed += 1;
                }
            }
        }
        let slo_ms = SLO.as_secs_f64() * 1e3;
        w.missed += w.latency_ms.iter().filter(|&&l| l > slo_ms).count() as u64;
        w
    }

    /// Ends the window's CPU, busy-time and snapshot accounting at `now`.
    fn close_window(&self, w: &mut Window, opened: Option<(Instant, f64, u64)>, now: Instant) {
        if let Some((t0, cpu0, busy0)) = opened {
            w.m.after = Some(self.telemetry.pipeline_snapshot());
            w.m.cpu_seconds = process_cpu_seconds() - cpu0;
            w.m.busy_nanos = self.booster.cpu_busy_nanos() - busy0;
            w.m.span = Some((t0, now));
        }
    }

    /// Drops the pipeline, runs the checks that need it quiescent, and
    /// books the requests: every one sent and not delivered failed, and
    /// each mismatch fails one more.
    fn finish(self, report: &mut Report) -> (PipelineSnapshot, u64) {
        // The reader exits only once the stream is closed and drained;
        // dropping the booster before that would wait on it forever.
        self.shared.collector.close_stream();
        drop(self.booster);
        let snap = self.telemetry.pipeline_snapshot();
        for v in snap.invariant_violations() {
            report.mismatch(format!(
                "{} pass: invariant violated after drop: {v}",
                self.label
            ));
        }
        let inflight = self.shared.bridge().inflight();
        if inflight > 0 && !self.stalled {
            report.mismatch(format!(
                "{} pass: {inflight} admitted requests never came out",
                self.label
            ));
        }
        self.sampler.verify(TARGET, report);
        let attempted = self.delivered.len() as u64;
        let undelivered = self.delivered.iter().filter(|d| !**d).count() as u64;
        let failed = (undelivered + (report.mismatches.len() - self.mismatches_before) as u64)
            .min(attempted);
        report.attempted += attempted;
        report.failed += failed;
        (snap, failed)
    }
}

fn put_end_to_end(report: &mut Report, w: &Window) {
    w.m.put_throughput(report);
    report.put_dist("req_latency_ms", "ms", &w.latency_ms, LATENCY_TAIL);
    report.put(
        "wait_ms_p50",
        "ms",
        median(&w.latency_ms),
        w.latency_ms.len() as u64,
    );
    report.put(
        "slo_miss_frac",
        "frac",
        w.missed as f64 / w.sent.max(1) as f64,
        w.sent,
    );
}

fn put_generator(report: &mut Report, g: &Generated) {
    let n = g.late_ms.len() as u64;
    report.put("gen.late_ms_p99", "ms", percentile(&g.late_ms, 0.99), n);
    report.put(
        "gen.late_ms_max",
        "ms",
        g.late_ms.iter().copied().fold(0.0, f64::max),
        n,
    );
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    if args.trace {
        traced(args, &mut report);
    } else {
        untraced(args, &mut report);
    }
    report
}

fn untraced(args: &Args, report: &mut Report) {
    let t0 = Instant::now();
    let corpus = Corpus::build(args.seed);
    let corpus_s = t0.elapsed().as_secs_f64();
    let mut starts = Vec::with_capacity(SETUP_REPEATS);
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let last = i + 1 == SETUP_REPEATS;
        let label = if last { "measured" } else { "setup" };
        let mut pass = Pass::start(args, &corpus, label, false, report);
        starts.push(t0.elapsed().as_secs_f64());
        if !last {
            pass.finish(report);
            continue;
        }
        let w = pass.run(args.seconds, report);
        pass.finish(report);
        put_end_to_end(report, &w);
        put_generator(report, &w.gen);
    }
    report.put(
        "setup_s",
        "s",
        corpus_s + median(&starts),
        starts.len() as u64,
    );
    report.put("peak_rss_mib", "MiB", peak_rss_mib(), 1);
}

fn traced(args: &Args, report: &mut Report) {
    let corpus = Corpus::build(args.seed);

    // An untraced pass is the reference for the tracing overhead. Each
    // pass gets half the run, so a traced run costs what an untraced one
    // does.
    let seconds = args.seconds / 2.0;
    let mut plain = Pass::start(args, &corpus, "untraced", false, report);
    let reference = plain.run(seconds, report);
    plain.finish(report);

    let mut pass = Pass::start(args, &corpus, "traced", true, report);
    let w = pass.run(seconds, report);
    let tracer = pass.tracer.clone().expect("traced pass");
    let delivered_images = pass.delivered_images.max(1);
    let (after_drop, _) = pass.finish(report);

    layers::put_traced(
        report,
        layers::Loop::Open,
        &reference.m,
        &w.m,
        &tracer,
        Some(&after_drop),
        delivered_images,
    );
    put_generator(report, &w.gen);
    let n = w.gen.deliver_us.len() as u64;
    report.put("net.deliver_us_per_req", "us", median(&w.gen.deliver_us), n);
    report.put(
        "serving.ingest_us_per_call",
        "us",
        median(&w.gen.ingest_us),
        n,
    );
    if let (Some(before), Some(after)) = (&w.m.before, &w.m.after) {
        layers::put_hist(
            report,
            "serving.queue_delay_ms",
            "ms",
            1e6,
            after.serving.queue_delay.as_ref(),
            before.serving.queue_delay.as_ref(),
        );
        if let Some(h) = &after.serving.batch_size {
            let h = layers::hist_delta(h, before.serving.batch_size.as_ref());
            report.put("serving.batch_size_mean", "count", h.mean(), h.count);
        }
        report.put(
            "serving.rejected",
            "count",
            (after.serving.rejected - before.serving.rejected) as f64,
            w.sent,
        );
        report.put(
            "serving.shed",
            "count",
            (after.serving.shed - before.serving.shed) as f64,
            w.sent,
        );
    }
    layers::codec_probe(&corpus, report);
    layers::storage_probe(&corpus, report);
    layers::restore_probe(args.seed, report);
}

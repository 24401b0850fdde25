//! The closed-loop training workloads: one consumer drains slot 0 as fast
//! as it can and recycles every unit.

use crate::check::{EpochChecker, Sample, Sampler};
use crate::layers::{self, Measured};
use crate::report::Report;
use crate::stats::{median, peak_rss_mib, process_cpu_seconds};
use crate::{
    stall_artifact, Args, Corpus, Workload, SAMPLES, SETUP_REPEATS, STALL_DEADLINE, TARGET,
};
use dlbooster::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const BATCH: usize = 32;
/// Consumed before the window opens on the decode-bound workloads.
const WARMUP: Duration = Duration::from_secs(1);
/// Tail percentile of the batch wait: a 30 s window holds about 600
/// batches on the decode-bound workloads, enough for p95 under the
/// ten-beyond rule but not for p99.
const WAIT_TAIL: f64 = 0.95;

enum Backend {
    Fpga(DlBooster),
    Cpu {
        backend: CpuBackend,
        /// Set by the stall watchdog before it shuts the backend down.
        stalled: AtomicBool,
    },
}

enum Next {
    Batch(HostBatch),
    Stalled,
    Exhausted,
}

impl Backend {
    fn next(&self) -> Next {
        match self {
            Backend::Fpga(b) => match b.next_batch_timeout(0, STALL_DEADLINE) {
                Ok(Some(batch)) => Next::Batch(batch),
                Ok(None) => Next::Stalled,
                Err(_) => Next::Exhausted,
            },
            // `CpuBackend` has no timed wait: its deadline is the watchdog
            // thread, which shuts the backend down to release this call.
            Backend::Cpu { backend, stalled } => match backend.next_batch(0) {
                Ok(batch) => Next::Batch(batch),
                Err(_) if stalled.load(Ordering::SeqCst) => Next::Stalled,
                Err(_) => Next::Exhausted,
            },
        }
    }

    fn recycle(&self, unit: BatchUnit) {
        match self {
            Backend::Fpga(b) => b.recycle(unit),
            Backend::Cpu { backend, .. } => backend.recycle(unit),
        }
    }

    fn busy_nanos(&self) -> u64 {
        match self {
            Backend::Fpga(b) => b.cpu_busy_nanos(),
            Backend::Cpu { backend, .. } => backend.cpu_busy_nanos(),
        }
    }
}

/// What one timed window measured.
#[derive(Default)]
struct Window {
    m: Measured,
    batches: u64,
    waits_ms: Vec<f64>,
}

/// One started pipeline and the consumer's view of it.
struct Pass<'a> {
    args: &'a Args,
    corpus: &'a Corpus,
    label: &'static str,
    backend: Arc<Backend>,
    telemetry: Option<Arc<Telemetry>>,
    tracer: Option<Arc<Tracer>>,
    heartbeat: Option<mpsc::Sender<()>>,
    watchdog: Option<JoinHandle<()>>,
    checker: EpochChecker,
    sampler: Sampler,
    delivered_batches: u64,
    delivered_images: u64,
    stalled: bool,
    /// Mismatches already on the report when this pass started.
    mismatches_before: usize,
}

impl<'a> Pass<'a> {
    fn start(
        args: &'a Args,
        corpus: &'a Corpus,
        label: &'static str,
        traced: bool,
        report: &Report,
    ) -> Self {
        let shuffle = args.seed.wrapping_mul(2).wrapping_add(1);
        let records = &corpus.dataset.records;
        let collector = Arc::new(DataCollector::load_from_disk(records, shuffle));
        let resolver = Arc::new(CombinedResolver::disk_only(Arc::clone(&corpus.disk)));
        let tracer = traced.then(|| Arc::new(Tracer::new()));
        let (backend, telemetry, slack) = match args.workload {
            Workload::TrainCold => {
                let telemetry = Telemetry::with_defaults();
                if let Some(t) = &tracer {
                    telemetry.install_tracer(Arc::clone(t));
                }
                let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
                device
                    .load_mirror(DecoderMirror::jpeg_paper_config())
                    .expect("mirror fits");
                let engine = DecoderEngine::start_with_telemetry(device, resolver, &telemetry)
                    .expect("engine start");
                let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
                let mut config = DlBoosterConfig::training(
                    1,
                    BATCH,
                    (TARGET.0 as u16, TARGET.1 as u16),
                    records.len(),
                    None,
                );
                config.cache_bytes = 0;
                let slack = config.pool_units as u64;
                let booster = DlBooster::start_with_telemetry(
                    collector,
                    channel,
                    config,
                    Arc::clone(&telemetry),
                )
                .expect("booster start");
                (Backend::Fpga(booster), Some(telemetry), slack)
            }
            Workload::TrainCpu => {
                let config = CpuBackendConfig {
                    n_engines: 1,
                    batch_size: BATCH,
                    target_w: TARGET.0,
                    target_h: TARGET.1,
                    workers: 2,
                    max_batches: None,
                    sample_cache: None,
                };
                // The codec stage timers cost per-block clock reads, so
                // only the traced pass turns telemetry on.
                let (backend, telemetry) = match &tracer {
                    Some(t) => {
                        let telemetry = Telemetry::with_defaults();
                        telemetry.install_tracer(Arc::clone(t));
                        let b = CpuBackend::start_with_telemetry(
                            collector,
                            resolver,
                            config,
                            Arc::clone(&telemetry),
                        );
                        (b, Some(telemetry))
                    }
                    None => (CpuBackend::start(collector, resolver, config), None),
                };
                let backend = Backend::Cpu {
                    backend: backend.expect("cpu backend start"),
                    stalled: AtomicBool::new(false),
                };
                // Units in flight bound how far two workers can reorder.
                (backend, telemetry, 4)
            }
            Workload::ServeOpen => unreachable!("serve_open is not a training workload"),
        };
        let backend = Arc::new(backend);
        let (heartbeat, watchdog) = match &*backend {
            Backend::Cpu { .. } => {
                let (tx, rx) = mpsc::channel::<()>();
                let watched = Arc::clone(&backend);
                let handle = std::thread::spawn(move || loop {
                    match rx.recv_timeout(STALL_DEADLINE) {
                        Ok(()) => {}
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            if let Backend::Cpu { backend, stalled } = &*watched {
                                stalled.store(true, Ordering::SeqCst);
                                backend.shutdown();
                            }
                            return;
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => return,
                    }
                });
                (Some(tx), Some(handle))
            }
            Backend::Fpga(_) => (None, None),
        };
        Pass {
            args,
            corpus,
            label,
            backend,
            telemetry,
            tracer,
            heartbeat,
            watchdog,
            checker: EpochChecker::new(records, shuffle, BATCH, slack),
            sampler: Sampler::new(args.seed ^ label.len() as u64, SAMPLES),
            delivered_batches: 0,
            delivered_images: 0,
            stalled: false,
            mismatches_before: report.mismatches.len(),
        }
    }

    /// Pulls one batch, checks it and recycles it. Returns its image
    /// count, or `None` once the pipeline stalled or closed.
    fn pull(&mut self, report: &mut Report, window: Option<&mut Window>) -> Option<u64> {
        if self.stalled {
            return None;
        }
        let t0 = Instant::now();
        let batch = match self.backend.next() {
            Next::Batch(b) => b,
            outcome => {
                self.stalled = true;
                let what = match outcome {
                    Next::Stalled => format!(
                        "no batch within {STALL_DEADLINE:?} after {} delivered",
                        self.delivered_batches
                    ),
                    _ => format!("pipeline closed after {} delivered", self.delivered_batches),
                };
                report.note(format!("{} pass: {what}", self.label));
                report.artifacts.push(stall_artifact(
                    self.args,
                    self.label,
                    &what,
                    self.telemetry.as_deref(),
                ));
                return None;
            }
        };
        let wait = t0.elapsed();
        if let Some(hb) = &self.heartbeat {
            let _ = hb.send(());
        }
        let seq = self.delivered_batches;
        let labels: Vec<u64> = batch.unit.items().iter().map(|it| it.label).collect();
        let item_len = (TARGET.0 * TARGET.1 * 3) as usize;
        if let Some(bad) = batch.unit.items().iter().find(|it| {
            it.len != item_len || (it.width, it.height, it.channels) != (TARGET.0, TARGET.1, 3)
        }) {
            report.mismatch(format!("batch {seq}: item geometry {bad:?}"));
        }
        if let Some(refs) = self.checker.deliver(&labels, report) {
            for (i, r) in refs.iter().enumerate() {
                let corpus = self.corpus;
                let unit = &batch.unit;
                self.sampler.offer(|| Sample {
                    what: format!("batch {seq} item {i} (record {} at {})", r.index, r.offset),
                    src: corpus.bytes(r.index as usize).to_vec(),
                    pixels: unit.item_bytes(i).to_vec(),
                });
            }
        }
        let images = batch.len() as u64;
        let t1 = Instant::now();
        self.backend.recycle(batch.unit);
        let recycle = t1.elapsed();
        if let Some(w) = window {
            w.waits_ms.push(wait.as_secs_f64() * 1e3);
            w.m.recycle_us.push(recycle.as_secs_f64() * 1e6);
            w.m.images += images;
            w.batches += 1;
        }
        self.delivered_batches += 1;
        self.delivered_images += images;
        Some(images)
    }

    /// Consumes for `WARMUP` before the window opens.
    fn warm(&mut self, report: &mut Report) {
        let t0 = Instant::now();
        while t0.elapsed() < WARMUP && self.pull(report, None).is_some() {}
    }

    fn window(&mut self, seconds: f64, report: &mut Report) -> Window {
        let mut w = Window::default();
        w.m.before = self.telemetry.as_ref().map(|t| t.pipeline_snapshot());
        let busy0 = self.backend.busy_nanos();
        let cpu0 = process_cpu_seconds();
        let t0 = Instant::now();
        let limit = Duration::from_secs_f64(seconds);
        while !self.stalled && t0.elapsed() < limit {
            self.pull(report, Some(&mut w));
        }
        let end = Instant::now();
        w.m.span = Some((t0, end));
        // A stall ends the pipeline but not the window: throughput counts
        // the whole nominal window.
        w.m.seconds = end.duration_since(t0).as_secs_f64().max(seconds);
        w.m.cpu_seconds = process_cpu_seconds() - cpu0;
        w.m.busy_nanos = self.backend.busy_nanos() - busy0;
        w.m.after = self.telemetry.as_ref().map(|t| t.pipeline_snapshot());
        w
    }

    /// Stops the watchdog, drops the pipeline, runs the checks that need
    /// it quiescent, and books the pass's batches: a stall fails the batch
    /// that never came, and each mismatch fails one delivered batch.
    /// Returns the post-drop snapshot and the failed count.
    fn finish(mut self, report: &mut Report) -> (Option<PipelineSnapshot>, u64) {
        drop(self.heartbeat.take());
        if let Some(h) = self.watchdog.take() {
            h.join().expect("watchdog thread");
        }
        let backend = Arc::try_unwrap(self.backend)
            .unwrap_or_else(|_| panic!("watchdog released the backend"));
        drop(backend);
        let snap = self.telemetry.as_ref().map(|t| t.pipeline_snapshot());
        if let Some(s) = &snap {
            for v in s.invariant_violations() {
                report.mismatch(format!(
                    "{} pass: invariant violated after drop: {v}",
                    self.label
                ));
            }
        }
        self.checker.finish(report);
        self.sampler.verify(TARGET, report);
        let attempted = self.delivered_batches + u64::from(self.stalled);
        let failed = (u64::from(self.stalled)
            + (report.mismatches.len() - self.mismatches_before) as u64)
            .min(attempted.max(1));
        report.attempted += attempted;
        report.failed += failed;
        (snap, failed)
    }
}

fn put_end_to_end(report: &mut Report, w: &Window) {
    w.m.put_throughput(report);
    report.put_dist("batch_wait_ms", "ms", &w.waits_ms, WAIT_TAIL);
    report.put(
        "wait_ms_p50",
        "ms",
        median(&w.waits_ms),
        w.waits_ms.len() as u64,
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
        pass.pull(report, None);
        starts.push(t0.elapsed().as_secs_f64());
        if last {
            measure(args, pass, report);
        } else {
            pass.finish(report);
        }
    }
    report.put(
        "setup_s",
        "s",
        corpus_s + median(&starts),
        starts.len() as u64,
    );
    report.put("peak_rss_mib", "MiB", peak_rss_mib(), 1);
}

/// Warm-up, window and teardown of the pass whose numbers are reported.
fn measure(args: &Args, mut pass: Pass, report: &mut Report) {
    pass.warm(report);
    let w = pass.window(args.seconds, report);
    let stalled = u64::from(pass.stalled);
    let (_, failed) = pass.finish(report);
    put_end_to_end(report, &w);
    report.put(
        "failed_frac",
        "frac",
        failed as f64 / (w.batches + stalled).max(1) as f64,
        w.batches + stalled,
    );
}

fn traced(args: &Args, report: &mut Report) {
    let corpus = Corpus::build(args.seed);

    // An untraced pass is the reference for the tracing overhead. Each
    // pass gets half the run, so a traced run costs what an untraced one
    // does.
    let seconds = args.seconds / 2.0;
    let mut plain = Pass::start(args, &corpus, "untraced", false, report);
    plain.warm(report);
    let reference = plain.window(seconds, report);
    plain.finish(report);

    let mut pass = Pass::start(args, &corpus, "traced", true, report);
    pass.warm(report);
    let w = pass.window(seconds, report);
    let tracer = pass.tracer.clone().expect("traced pass");
    let delivered_images = pass.delivered_images.max(1);
    let (after_drop, _) = pass.finish(report);

    layers::put_traced(
        report,
        layers::Loop::Closed,
        &reference.m,
        &w.m,
        &tracer,
        after_drop.as_ref(),
        delivered_images,
    );
    layers::codec_probe(&corpus, report);
    layers::storage_probe(&corpus, report);
    layers::net_probe(&corpus, report);
    layers::restore_probe(args.seed, report);
}

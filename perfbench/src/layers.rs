//! Per-layer numbers: the benchmark's own timed calls into each layer's
//! public functions, pipeline-snapshot deltas, and the folded trace.

use crate::report::Report;
use crate::stats::{median, Rng};
use crate::{Corpus, TARGET};
use dlbooster::codec::resize::{resize, ResizeFilter};
use dlbooster::net::Frame;
use dlbooster::prelude::*;
use dlbooster::telemetry::HistogramSnapshot;
use std::hint::black_box;
use std::time::Instant;

/// What every timed window records, whatever the workload.
#[derive(Default)]
pub struct Measured {
    pub images: u64,
    pub seconds: f64,
    pub cpu_seconds: f64,
    /// `PreprocessBackend::cpu_busy_nanos` accrued in the window.
    pub busy_nanos: u64,
    /// One `recycle` call time per batch taken in the window.
    pub recycle_us: Vec<f64>,
    /// Pipeline snapshots at the window's edges, when it has telemetry.
    pub before: Option<PipelineSnapshot>,
    pub after: Option<PipelineSnapshot>,
    /// When the window actually opened and closed.
    pub span: Option<(Instant, Instant)>,
}

impl Measured {
    pub fn img_per_s(&self) -> f64 {
        self.images as f64 / self.seconds
    }

    pub fn cpu_ms_per_img(&self) -> f64 {
        self.cpu_seconds * 1e3 / self.images.max(1) as f64
    }

    pub fn put_throughput(&self, report: &mut Report) {
        report.put("img_per_s", "img/s", self.img_per_s(), self.images);
        report.put("cpu_ms_per_img", "ms", self.cpu_ms_per_img(), self.images);
    }
}

/// How a workload's load is offered, which decides where the cost of
/// tracing shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// The consumer drains as fast as it can: tracing costs throughput.
    Closed,
    /// A schedule pins the rate: tracing costs CPU per image.
    Open,
}

/// What a traced run reports from its two passes: the tracing overhead
/// against the untraced `reference`, the folded trace, and the pipeline's
/// own counters over the traced window.
pub fn put_traced(
    report: &mut Report,
    load: Loop,
    reference: &Measured,
    traced: &Measured,
    tracer: &Tracer,
    after_drop: Option<&PipelineSnapshot>,
    delivered_images: u64,
) {
    let (reference_rate, rate) = (reference.img_per_s(), traced.img_per_s());
    report.put(
        "img_per_s_untraced",
        "img/s",
        reference_rate,
        reference.images,
    );
    report.put("img_per_s_traced", "img/s", rate, traced.images);
    let rate_cost = 1.0 - rate / reference_rate.max(f64::MIN_POSITIVE);
    let cpu_cost =
        traced.cpu_ms_per_img() / reference.cpu_ms_per_img().max(f64::MIN_POSITIVE) - 1.0;
    report.put("trace.rate_cost_frac", "frac", rate_cost, traced.images);
    report.put("trace.cpu_cost_frac", "frac", cpu_cost, traced.images);
    report.put(
        "trace.overhead_frac",
        "frac",
        match load {
            Loop::Closed => rate_cost,
            Loop::Open => cpu_cost,
        },
        traced.images,
    );
    if let Some((from, to)) = traced.span {
        fold_trace(tracer, from, to, report);
    }
    let batches = traced.recycle_us.len() as u64;
    // `DlBooster` adds its reader's CPU time to `cpu_busy_nanos` only when
    // the reader's live phase ends, which is after every window here; the
    // snapshot's reader counter is live. A `CpuBackend` has no reader.
    let reader_nanos = match (&traced.before, &traced.after) {
        (Some(b), Some(a)) => a.reader.cpu_busy_nanos - b.reader.cpu_busy_nanos,
        _ => 0,
    };
    report.put(
        "backend.busy_cores",
        "cores",
        (traced.busy_nanos + reader_nanos) as f64 / (traced.seconds * 1e9),
        batches,
    );
    report.put(
        "consumer.recycle_us_p50",
        "us",
        median(&traced.recycle_us),
        batches,
    );
    if let (Some(before), Some(after)) = (&traced.before, &traced.after) {
        put_pipeline_layers(
            report,
            before,
            after,
            after_drop,
            delivered_images,
            (traced.images, batches),
        );
    }
}

/// Single-threaded decode + resize of the whole corpus, with the codec's
/// own stage timers on.
pub fn codec_probe(corpus: &Corpus, report: &mut Report) {
    let decoder = JpegDecoder::new().with_stage_timing(true);
    let n = corpus.dataset.records.len();
    let (mut huffman, mut idct, mut color, mut resize_ns, mut wall) =
        (0u64, 0u64, 0u64, 0u64, 0f64);
    for i in 0..n {
        let bytes = corpus.bytes(i);
        let t0 = Instant::now();
        let (img, st) = decoder.decode_with_stats(&bytes).expect("corpus decodes");
        let t1 = Instant::now();
        let out = resize(&img, TARGET.0, TARGET.1, ResizeFilter::Bilinear)
            .expect("resize")
            .to_rgb();
        black_box(out);
        resize_ns += t1.elapsed().as_nanos() as u64;
        wall += t0.elapsed().as_secs_f64();
        huffman += st.huffman_ns;
        idct += st.idct_ns;
        color += st.color_ns;
    }
    let per_img_us = |ns: u64| ns as f64 / n as f64 / 1e3;
    let n64 = n as u64;
    report.put("codec.decode_img_per_s_1t", "img/s", n as f64 / wall, n64);
    report.put("codec.huffman_us_per_img", "us", per_img_us(huffman), n64);
    report.put("codec.idct_us_per_img", "us", per_img_us(idct), n64);
    report.put("codec.color_us_per_img", "us", per_img_us(color), n64);
    report.put("codec.resize_us_per_img", "us", per_img_us(resize_ns), n64);
}

/// Timed `NvmeDisk::read` over every corpus record, several passes.
pub fn storage_probe(corpus: &Corpus, report: &mut Report) {
    const PASSES: usize = 20;
    let mut per_pass = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let t0 = Instant::now();
        for r in &corpus.dataset.records {
            black_box(
                corpus
                    .disk
                    .read(r.disk_offset, r.len)
                    .expect("corpus record"),
            );
        }
        per_pass.push(t0.elapsed().as_secs_f64() * 1e6 / corpus.dataset.records.len() as f64);
    }
    report.put(
        "storage.read_us_per_img",
        "us",
        median(&per_pass),
        (PASSES * corpus.dataset.records.len()) as u64,
    );
}

/// Timed `NicRx::deliver` of frames carrying corpus JPEGs, into a NIC of
/// its own (workloads that do not serve requests).
pub fn net_probe(corpus: &Corpus, report: &mut Report) {
    let nic = NicRx::new(NicSpec::forty_gbps(), 0x8_0000_0000);
    let n = corpus.dataset.records.len();
    let frames: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            Frame {
                request_id: i as u64,
                client_id: (i % 5) as u32,
                send_ts_nanos: 0,
                payload: corpus.bytes(i).to_vec(),
            }
            .encode()
        })
        .collect();
    let mut us = Vec::with_capacity(n);
    for (i, wire) in frames.iter().enumerate() {
        let t0 = Instant::now();
        let desc = nic.deliver(wire, i as u64).expect("frame fits the ring");
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        nic.poll();
        nic.release(desc.phys_addr);
    }
    report.put("net.deliver_us_per_req", "us", median(&us), n as u64);
}

/// Timed `BatchUnit::restore` of one 32×224×224×3 batch (the hybrid
/// cache's replay copy) into a unit of a pool of its own.
pub fn restore_probe(seed: u64, report: &mut Report) {
    const ITEMS: usize = 32;
    const REPEATS: usize = 30;
    let item = (TARGET.0 * TARGET.1 * 3) as usize;
    let mut rng = Rng::new(seed);
    let payload: Vec<u8> = (0..ITEMS * item).map(|_| rng.next_u64() as u8).collect();
    let pool = MemManager::new(PoolConfig {
        unit_size: payload.len(),
        unit_count: 1,
        phys_base: 0x10_0000_0000,
    })
    .expect("probe pool");
    let mut unit = pool.get_item().expect("probe unit");
    for i in 0..ITEMS {
        unit.reserve(item, i as u64, TARGET.0, TARGET.1, 3)
            .expect("fits");
    }
    let items = unit.items().to_vec();
    let mut us = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        unit.restore(black_box(&payload), &items)
            .expect("restore fits");
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    black_box(unit.payload());
    report.put(
        "membridge.restore_us_per_batch",
        "us",
        median(&us),
        REPEATS as u64,
    );
}

/// `after - before` for a histogram captured twice from one registry.
/// The extremes cannot be differenced; the later ones bound the window's.
pub fn hist_delta(
    after: &HistogramSnapshot,
    before: Option<&HistogramSnapshot>,
) -> HistogramSnapshot {
    let mut d = after.clone();
    if let Some(b) = before {
        for (x, y) in d.buckets.iter_mut().zip(&b.buckets) {
            *x -= y;
        }
        d.count -= b.count;
        d.sum -= b.sum;
    }
    d
}

/// Puts p50/p95 (bucket upper bounds) and the exact mean of a latency
/// histogram delta, in `scale` nanoseconds per unit.
pub fn put_hist(
    report: &mut Report,
    prefix: &str,
    unit: &'static str,
    scale: f64,
    after: Option<&HistogramSnapshot>,
    before: Option<&HistogramSnapshot>,
) {
    let Some(after) = after else { return };
    let h = hist_delta(after, before);
    report.put(
        format!("{prefix}_p50"),
        unit,
        h.quantile(0.50) as f64 / scale,
        h.count,
    );
    report.put(
        format!("{prefix}_p95"),
        unit,
        h.quantile(0.95) as f64 / scale,
        h.count,
    );
    report.put(format!("{prefix}_mean"), unit, h.mean() / scale, h.count);
}

/// Folds a traced window into per-stage numbers, and checks the tracer's
/// promise that attributed plus unattributed time is each batch's window.
pub fn fold_trace(tracer: &Tracer, from: Instant, to: Instant, report: &mut Report) {
    let snap = tracer.snapshot();
    let (lo, hi) = (tracer.ns_of(from), tracer.ns_of(to));
    let batches: Vec<_> = snap
        .attribution()
        .into_iter()
        .filter(|b| b.start_ns >= lo && b.end_ns <= hi)
        .collect();
    let n = batches.len().max(1) as f64;
    let mut stages: Vec<(&'static str, u64)> = Vec::new();
    let (mut total, mut unattributed) = (0u64, 0u64);
    for b in &batches {
        if b.attributed_ns() + b.unattributed_ns != b.total_ns() {
            report.mismatch(format!(
                "trace batch {}: attributed {} + unattributed {} != window {} ns",
                b.batch,
                b.attributed_ns(),
                b.unattributed_ns,
                b.total_ns()
            ));
        }
        total += b.total_ns();
        unattributed += b.unattributed_ns;
        for p in &b.parts {
            match stages.iter_mut().find(|(s, _)| *s == p.stage) {
                Some((_, ns)) => *ns += p.ns,
                None => stages.push((p.stage, p.ns)),
            }
        }
    }
    let count = batches.len() as u64;
    if !stages
        .iter()
        .any(|(s, _)| *s == dlbooster::trace::stages::QUEUE_DELIVER)
    {
        stages.push((dlbooster::trace::stages::QUEUE_DELIVER, 0));
    }
    stages.sort();
    for (stage, ns) in stages {
        report.put(
            format!("trace.attr.{stage}_ms_per_batch"),
            "ms",
            ns as f64 / n / 1e6,
            count,
        );
    }
    report.put(
        "trace.window_ms_per_batch",
        "ms",
        total as f64 / n / 1e6,
        count,
    );
    report.put(
        "trace.unattributed_frac",
        "frac",
        unattributed as f64 / total.max(1) as f64,
        count,
    );
    report.put("trace.dropped", "count", snap.dropped as f64, 1);
    let cp = snap.critical_path();
    for s in &cp.stages {
        report.put(
            format!("trace.util.{}", s.stage),
            "frac",
            s.utilization,
            s.spans,
        );
    }
    if let Some(b) = cp.bottleneck() {
        report.note(format!(
            "trace: {} is the binding stage at {:.0}% utilization",
            b.stage,
            b.utilization * 100.0
        ));
    }
}

/// Layer numbers from two pipeline snapshots bracketing the window, plus
/// the one taken after the pipeline was dropped (lifetime totals).
/// `window` is (images, batches) the consumer took inside the window.
fn put_pipeline_layers(
    report: &mut Report,
    before: &PipelineSnapshot,
    after: &PipelineSnapshot,
    after_drop: Option<&PipelineSnapshot>,
    delivered_images: u64,
    window: (u64, u64),
) {
    let (images, batches) = (window.0.max(1) as f64, window.1.max(1) as f64);
    if let Some(end) = after_drop.filter(|s| s.decoder.items_in > 0) {
        report.put(
            "fpga.decoded_per_delivered",
            "ratio",
            end.decoder.items_ok as f64 / delivered_images as f64,
            delivered_images,
        );
        report.put(
            "fpga.items_err",
            "count",
            end.decoder.items_err as f64,
            end.decoder.items_in,
        );
        put_hist(
            report,
            "fpga.lane_service_ms",
            "ms",
            1e6,
            after.decoder.lane_service.as_ref(),
            before.decoder.lane_service.as_ref(),
        );
        report.put(
            "reader.cpu_us_per_batch",
            "us",
            (after.reader.cpu_busy_nanos - before.reader.cpu_busy_nanos) as f64 / batches / 1e3,
            window.1,
        );
        put_hist(
            report,
            "reader.submit_latency_us",
            "us",
            1e3,
            after.reader.submit_latency.as_ref(),
            before.reader.submit_latency.as_ref(),
        );
        let leases = after.pool.leases - before.pool.leases;
        report.put(
            "pool.blocked_ms_per_lease",
            "ms",
            (after.pool.blocked_nanos - before.pool.blocked_nanos) as f64
                / leases.max(1) as f64
                / 1e6,
            leases,
        );
        report.put(
            "pool.starvations",
            "count",
            (after.pool.starvations - before.pool.starvations) as f64,
            leases,
        );
    }
    if !after.codec.is_empty() {
        let decode =
            |s: &PipelineSnapshot| s.codec.huffman_nanos + s.codec.idct_nanos + s.codec.color_nanos;
        report.put(
            "cpu.decode_ms_per_img",
            "ms",
            (decode(after) - decode(before)) as f64 / images / 1e6,
            window.0,
        );
        report.put(
            "cpu.resize_ms_per_img",
            "ms",
            (after.codec.resize_nanos - before.codec.resize_nanos) as f64 / images / 1e6,
            window.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_delta_isolates_the_window() {
        let h = dlbooster::telemetry::Histogram::new(vec![10, 100, 1000]);
        for v in [5, 50, 50] {
            h.record(v);
        }
        let before = h.snapshot();
        for v in [500, 500, 500, 5] {
            h.record(v);
        }
        let d = hist_delta(&h.snapshot(), Some(&before));
        assert_eq!(d.count, 4);
        assert_eq!(d.sum, 1505);
        assert_eq!(d.buckets, vec![1, 0, 3, 0]);
        assert_eq!(d.quantile(0.5), 1000);
    }

    #[test]
    fn fold_trace_sums_stage_time_per_batch() {
        use dlbooster::trace::stages;
        let t = Tracer::new();
        let t0 = Instant::now();
        let ms = |k: u64| t0 + std::time::Duration::from_millis(k);
        for b in 0..2u64 {
            let id = t.next_batch_id();
            let base = 10 * b;
            t.span(
                id,
                stages::FPGA_DECODE,
                SpanKind::Service,
                ms(base + 1),
                ms(base + 5),
            );
            t.span(
                id,
                stages::QUEUE_DELIVER,
                SpanKind::Queue,
                ms(base + 5),
                ms(base + 6),
            );
        }
        let mut r = Report::default();
        fold_trace(&t, t0, ms(100), &mut r);
        assert!(r.correct(), "{:?}", r.mismatches);
        assert_eq!(r.get("trace.attr.fpga.decode_ms_per_batch"), Some(4.0));
        assert_eq!(r.get("trace.attr.queue.deliver_ms_per_batch"), Some(1.0));
        assert_eq!(r.get("trace.window_ms_per_batch"), Some(5.0));
        assert_eq!(r.get("trace.unattributed_frac"), Some(0.0));
        assert_eq!(r.get("trace.dropped"), Some(0.0));
    }
}

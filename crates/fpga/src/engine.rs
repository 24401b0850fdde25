//! The functional decoder engine: the paper's Fig. 4 pipeline executed on
//! CPU threads.
//!
//! Topology (mirroring the RTL):
//!
//! ```text
//!  Submission ─► cmd FIFO ─► parser ─► N Huffman/iDCT/resize lanes ─► serial
//!  (unit+cmds)              (unpack)   (real dlb-codec decode)        DMA
//!                                                                     writeback
//!                                                  FINISH arbiter ◄───┘
//! ```
//!
//! A [`Submission`] carries the *batch buffer itself* (`BatchUnit`) next to
//! its packed cmds; the engine decodes every item in lane-parallel, writes
//! pixels back into the unit at the cmd's physical offset (bounds-checked
//! against the unit's simulated physical range, as the MMU would), and
//! returns the unit with per-cmd [`FinishSignal`]s through the completion
//! queue. Ownership transfer in/out of the engine is the Rust-safe analogue
//! of the paper's DMA-into-pinned-HugePage protocol.

use crate::cmd::{DataRef, DecodeCmd, FinishSignal, ItemStatus, OutputFormat, CMD_WIRE_BYTES};
use crate::device::FpgaDevice;
use crate::error::FpgaError;
use crate::mirror::MirrorKind;
use dlb_chaos::{FaultKind, StageInjector};
use dlb_codec::pixel::ColorSpace;
use dlb_codec::resize::{resize, ResizeFilter};
use dlb_codec::JpegDecoder;
use dlb_membridge::{BatchUnit, BlockingQueue};
use dlb_telemetry::{names, Counter, Histogram, Telemetry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Resolves a cmd's [`DataRef`] to the raw compressed bytes — the functional
/// stand-in for the DataReader's "DMA from Disk" / "DMA from DRAM" ports.
/// `dlb-storage` implements this over its NVMe store and `dlb-net` over its
/// RX buffers.
pub trait DataSourceResolver: Send + Sync + 'static {
    /// Fetches the bytes behind `src`.
    fn fetch(&self, src: &DataRef) -> Result<Vec<u8>, String>;
}

/// A simple in-memory resolver for tests and examples.
#[derive(Default)]
pub struct MapResolver {
    disk: Mutex<HashMap<u64, Vec<u8>>>,
    mem: Mutex<HashMap<u64, Vec<u8>>>,
}

impl MapResolver {
    /// Empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a disk object at `offset`; returns the matching [`DataRef`].
    pub fn put_disk(&self, offset: u64, bytes: Vec<u8>) -> DataRef {
        let len = bytes.len() as u32;
        self.disk.lock().insert(offset, bytes);
        DataRef::Disk { offset, len }
    }

    /// Registers a host-memory object at `phys_addr`.
    pub fn put_mem(&self, phys_addr: u64, bytes: Vec<u8>) -> DataRef {
        let len = bytes.len() as u32;
        self.mem.lock().insert(phys_addr, bytes);
        DataRef::HostMem { phys_addr, len }
    }
}

impl DataSourceResolver for MapResolver {
    fn fetch(&self, src: &DataRef) -> Result<Vec<u8>, String> {
        match *src {
            DataRef::Disk { offset, len } => self
                .disk
                .lock()
                .get(&offset)
                .filter(|b| b.len() == len as usize)
                .cloned()
                .ok_or_else(|| format!("no disk object at {offset}")),
            DataRef::HostMem { phys_addr, len } => self
                .mem
                .lock()
                .get(&phys_addr)
                .filter(|b| b.len() == len as usize)
                .cloned()
                .ok_or_else(|| format!("no host object at {phys_addr:#x}")),
        }
    }
}

/// A batch handed to the engine: the destination buffer plus packed cmds.
pub struct Submission {
    /// The batch buffer every cmd in this submission writes into.
    pub unit: BatchUnit,
    /// Packed decode cmds (`DecodeCmd::pack`), parsed device-side.
    pub cmds: Vec<[u8; CMD_WIRE_BYTES]>,
}

/// A finished batch returned through the completion queue.
pub struct CompletedBatch {
    /// The buffer, now holding decoded pixels.
    pub unit: BatchUnit,
    /// One FINISH signal per cmd, in cmd order.
    pub finishes: Vec<FinishSignal>,
}

impl CompletedBatch {
    /// Count of successfully decoded items.
    pub fn ok_count(&self) -> usize {
        self.finishes.iter().filter(|f| f.status.is_ok()).count()
    }
}

/// Lifetime counters exposed by the engine — `decoder.*` telemetry
/// handles, registered on the pipeline registry when the engine is built
/// with [`DecoderEngine::start_with_telemetry`].
#[derive(Debug)]
pub struct EngineStats {
    /// Batches completed.
    pub batches: Arc<Counter>,
    /// Items entering the lanes (cmds parsed, ok or not).
    pub items_in: Arc<Counter>,
    /// Items decoded successfully.
    pub items_ok: Arc<Counter>,
    /// Items failed (fetch or decode).
    pub items_err: Arc<Counter>,
    /// Total pixel bytes written back.
    pub bytes_written: Arc<Counter>,
    /// Per-item lane service time (ns).
    pub lane_service: Arc<Histogram>,
}

impl EngineStats {
    fn register(telemetry: &Telemetry) -> Self {
        Self {
            batches: telemetry.registry.counter(names::DECODER_BATCHES),
            items_in: telemetry.registry.counter(names::DECODER_ITEMS_IN),
            items_ok: telemetry.registry.counter(names::DECODER_ITEMS_OK),
            items_err: telemetry.registry.counter(names::DECODER_ITEMS_ERR),
            bytes_written: telemetry.registry.counter(names::DECODER_BYTES_WRITTEN),
            lane_service: telemetry.registry.histogram(names::DECODER_LANE_SERVICE),
        }
    }
}

enum LaneJob {
    Decode { idx: usize, cmd: DecodeCmd },
    Stop,
}

struct LaneResult {
    idx: usize,
    outcome: Result<(Vec<u8>, u16, u16), ItemStatus>,
}

/// The running decoder engine (device + lane threads + queues).
///
/// `Debug` prints queue depths only; the device is owned by the orchestrator
/// thread while running.
pub struct DecoderEngine {
    submit_q: BlockingQueue<Submission>,
    done_q: BlockingQueue<CompletedBatch>,
    orchestrator: Option<JoinHandle<FpgaDevice>>,
    stats: Arc<EngineStats>,
    chaos: Arc<OnceLock<Arc<StageInjector>>>,
}

impl DecoderEngine {
    /// Starts the engine on `device` (which must have a mirror loaded —
    /// the kernel dispatched per cmd follows the mirror's
    /// [`MirrorKind`]) using `resolver` for data fetches. Metrics land in
    /// a private registry; use [`DecoderEngine::start_with_telemetry`] to
    /// share the pipeline's.
    pub fn start(
        device: FpgaDevice,
        resolver: Arc<dyn DataSourceResolver>,
    ) -> Result<Self, FpgaError> {
        Self::start_with_telemetry(device, resolver, &Telemetry::with_defaults())
    }

    /// Like [`DecoderEngine::start`], but recording `decoder.*` metrics
    /// into the shared pipeline `telemetry`.
    pub fn start_with_telemetry(
        device: FpgaDevice,
        resolver: Arc<dyn DataSourceResolver>,
        telemetry: &Telemetry,
    ) -> Result<Self, FpgaError> {
        let mirror = device.mirror().ok_or(FpgaError::NoMirrorLoaded)?;
        let kind = mirror.kind;
        let ways = mirror.huffman_ways as usize;
        let fifo_depth = mirror.cmd_fifo_depth;

        let submit_q: BlockingQueue<Submission> = BlockingQueue::bounded(fifo_depth.max(1));
        let done_q: BlockingQueue<CompletedBatch> = BlockingQueue::unbounded();
        let stats = Arc::new(EngineStats::register(telemetry));
        let chaos: Arc<OnceLock<Arc<StageInjector>>> = Arc::new(OnceLock::new());

        let sq = submit_q.clone();
        let dq = done_q.clone();
        let st = Arc::clone(&stats);
        let ch = Arc::clone(&chaos);
        let orchestrator = std::thread::Builder::new()
            .name("fpga-orchestrator".into())
            .spawn(move || run_orchestrator(device, sq, dq, st, resolver, ways, kind, ch))
            .expect("spawn orchestrator");

        Ok(Self {
            submit_q,
            done_q,
            orchestrator: Some(orchestrator),
            stats,
            chaos,
        })
    }

    /// Attaches a chaos injector for the FPGA plane: lane stalls
    /// (cancellable — a wedged lane releases when the plan's cancel token
    /// fires) and poisoned segments (the cmd fails with a decode error).
    /// Faults are keyed by `cmd_id`, so replays with the same seed poison
    /// the same items. One-shot; later calls are ignored.
    pub fn attach_chaos(&self, injector: Arc<StageInjector>) {
        let _ = self.chaos.set(injector);
    }

    /// Submits a batch; blocks if the cmd FIFO is full (device back-pressure).
    pub fn submit(&self, submission: Submission) -> Result<(), FpgaError> {
        self.submit_q
            .push(submission)
            .map_err(|_| FpgaError::EngineStopped)
    }

    /// The completion queue (`drain_out` target of Algorithm 1).
    pub fn completions(&self) -> &BlockingQueue<CompletedBatch> {
        &self.done_q
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Stops accepting submissions, drains in-flight batches, joins threads,
    /// and returns the device for reconfiguration.
    pub fn shutdown(mut self) -> FpgaDevice {
        self.submit_q.close();

        self.orchestrator
            .take()
            .expect("shutdown called once")
            .join()
            .expect("orchestrator panicked")
    }
}

impl std::fmt::Debug for DecoderEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecoderEngine")
            .field("pending_submissions", &self.submit_q.len())
            .field("pending_completions", &self.done_q.len())
            .finish()
    }
}

impl Drop for DecoderEngine {
    fn drop(&mut self) {
        self.submit_q.close();
        if let Some(handle) = self.orchestrator.take() {
            let _ = handle.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_orchestrator(
    device: FpgaDevice,
    submit_q: BlockingQueue<Submission>,
    done_q: BlockingQueue<CompletedBatch>,
    stats: Arc<EngineStats>,
    resolver: Arc<dyn DataSourceResolver>,
    ways: usize,
    kind: MirrorKind,
    chaos: Arc<OnceLock<Arc<StageInjector>>>,
) -> FpgaDevice {
    // Lane workers: the N-way Huffman/iDCT/resize unit.
    let (job_tx, job_rx) = crossbeam::channel::unbounded::<LaneJob>();
    let (res_tx, res_rx) = crossbeam::channel::unbounded::<LaneResult>();
    let mut lanes = Vec::with_capacity(ways);
    for lane in 0..ways {
        let rx = job_rx.clone();
        let tx = res_tx.clone();
        let resolver = Arc::clone(&resolver);
        let service = Arc::clone(&stats.lane_service);
        let chaos = Arc::clone(&chaos);
        lanes.push(
            std::thread::Builder::new()
                .name(format!("fpga-lane-{lane}"))
                .spawn(move || lane_worker(rx, tx, resolver, kind, service, chaos))
                .expect("spawn lane"),
        );
    }
    drop(res_tx);

    while let Ok(mut submission) = submit_q.pop() {
        let n = submission.cmds.len();
        stats.items_in.add(n as u64);
        // Parser stage: unpack and validate every cmd up front.
        let mut parsed: Vec<Result<DecodeCmd, ItemStatus>> = Vec::with_capacity(n);
        for wire in &submission.cmds {
            parsed.push(
                DecodeCmd::unpack(wire).map_err(|e| ItemStatus::DecodeError {
                    detail: format!("cmd parse: {e}"),
                }),
            );
        }
        // Dispatch decodable cmds to the lanes.
        let mut results: Vec<Option<LaneResult>> = (0..n).map(|_| None).collect();
        let mut outstanding = 0usize;
        for (idx, p) in parsed.iter().enumerate() {
            match p {
                Ok(cmd) => {
                    job_tx
                        .send(LaneJob::Decode { idx, cmd: *cmd })
                        .expect("lanes alive");
                    outstanding += 1;
                }
                Err(status) => {
                    results[idx] = Some(LaneResult {
                        idx,
                        outcome: Err(status.clone()),
                    });
                }
            }
        }
        for _ in 0..outstanding {
            let r = res_rx.recv().expect("lanes alive");
            let idx = r.idx;
            results[idx] = Some(r);
        }

        // Serial DMA writeback + FINISH arbiter.
        let unit_phys = submission.unit.phys_addr();
        let unit_cap = submission.unit.capacity() as u64;
        let mut finishes = Vec::with_capacity(n);
        for (idx, slot) in results.into_iter().enumerate() {
            let r = slot.expect("every cmd produced a result");
            let cmd_id = match &parsed[idx] {
                Ok(cmd) => cmd.cmd_id,
                Err(_) => idx as u64,
            };
            let status = match r.outcome {
                Ok((pixels, w, h)) => {
                    let cmd = parsed[idx].as_ref().expect("ok cmds only reach lanes");
                    // MMU bounds check: the cmd's physical window must lie
                    // inside this unit.
                    let rel = cmd.dst_phys.checked_sub(unit_phys);
                    match rel {
                        Some(off)
                            if off + pixels.len() as u64 <= unit_cap
                                && pixels.len() as u64 <= cmd.dst_capacity as u64 =>
                        {
                            let off = off as usize;
                            submission.unit.storage_mut()[off..off + pixels.len()]
                                .copy_from_slice(&pixels);
                            stats.items_ok.inc();
                            stats.bytes_written.add(pixels.len() as u64);
                            ItemStatus::Ok {
                                bytes_written: pixels.len() as u32,
                                width: w,
                                height: h,
                            }
                        }
                        _ => {
                            stats.items_err.inc();
                            ItemStatus::DecodeError {
                                detail: format!(
                                    "dst_phys {:#x} (+{}) outside unit [{:#x}, +{}]",
                                    cmd.dst_phys,
                                    pixels.len(),
                                    unit_phys,
                                    unit_cap
                                ),
                            }
                        }
                    }
                }
                Err(status) => {
                    stats.items_err.inc();
                    status
                }
            };
            finishes.push(FinishSignal { cmd_id, status });
        }
        stats.batches.inc();
        if done_q
            .push(CompletedBatch {
                unit: submission.unit,
                finishes,
            })
            .is_err()
        {
            break; // downstream gone; stop decoding
        }
    }

    // Shut lanes down and wait.
    for _ in 0..lanes.len() {
        let _ = job_tx.send(LaneJob::Stop);
    }
    for lane in lanes {
        let _ = lane.join();
    }
    done_q.close();
    device
}

fn lane_worker(
    rx: crossbeam::channel::Receiver<LaneJob>,
    tx: crossbeam::channel::Sender<LaneResult>,
    resolver: Arc<dyn DataSourceResolver>,
    kind: MirrorKind,
    service: Arc<Histogram>,
    chaos: Arc<OnceLock<Arc<StageInjector>>>,
) {
    let decoder = JpegDecoder::new();
    while let Ok(job) = rx.recv() {
        let LaneJob::Decode { idx, cmd } = job else {
            break;
        };
        let started = Instant::now();
        // Chaos: a Delay stalls the lane (cancellable — sliced sleep);
        // anything else poisons the segment with a decode error.
        if let Some(inj) = chaos.get() {
            match inj.decide(cmd.cmd_id) {
                Some(FaultKind::Delay(d)) => {
                    inj.sleep(d);
                }
                Some(_) => {
                    service.record_duration(started.elapsed());
                    let outcome = Err(ItemStatus::DecodeError {
                        detail: format!("chaos: poisoned segment (cmd {})", cmd.cmd_id),
                    });
                    if tx.send(LaneResult { idx, outcome }).is_err() {
                        break;
                    }
                    continue;
                }
                None => {}
            }
        }
        let outcome = match kind {
            MirrorKind::JpegImage => decode_one(&decoder, &resolver, &cmd),
            MirrorKind::AudioSpectrogram => spectrogram_one(&resolver, &cmd),
            MirrorKind::TextQuantize => quantize_one(&resolver, &cmd),
        };
        service.record_duration(started.elapsed());
        if tx.send(LaneResult { idx, outcome }).is_err() {
            break;
        }
    }
}

/// Audio kernel (paper §2.1 speech workflows): PCM in, log-DCT spectrogram
/// out. `cmd.target_w` = coefficients per frame (0 → 40); frame geometry is
/// the 16 kHz speech default.
fn spectrogram_one(
    resolver: &Arc<dyn DataSourceResolver>,
    cmd: &DecodeCmd,
) -> Result<(Vec<u8>, u16, u16), ItemStatus> {
    use dlb_codec::audio::{pcm_from_le_bytes, spectrogram, SpectrogramConfig};
    let bytes = resolver
        .fetch(&cmd.src)
        .map_err(|detail| ItemStatus::FetchError { detail })?;
    let pcm = pcm_from_le_bytes(&bytes).map_err(|e| ItemStatus::DecodeError {
        detail: e.to_string(),
    })?;
    let mut config = SpectrogramConfig::speech_16k();
    if cmd.target_w != 0 {
        config.coefficients = cmd.target_w as usize;
    }
    let spec = spectrogram(&pcm, &config).map_err(|e| ItemStatus::DecodeError {
        detail: e.to_string(),
    })?;
    let frames = (spec.len() / config.coefficients) as u16;
    let mut out = Vec::with_capacity(spec.len() * 4);
    for v in &spec {
        out.extend_from_slice(&v.to_le_bytes());
    }
    Ok((out, config.coefficients as u16, frames))
}

/// Text kernel (paper §2.1 language workflows): UTF-8 in, `u32` token ids
/// out. `cmd.target_w` = sequence length (0 → 128).
fn quantize_one(
    resolver: &Arc<dyn DataSourceResolver>,
    cmd: &DecodeCmd,
) -> Result<(Vec<u8>, u16, u16), ItemStatus> {
    use dlb_codec::text::{ids_to_le_bytes, quantize, QuantizeConfig};
    let bytes = resolver
        .fetch(&cmd.src)
        .map_err(|detail| ItemStatus::FetchError { detail })?;
    let text = std::str::from_utf8(&bytes).map_err(|e| ItemStatus::DecodeError {
        detail: format!("invalid UTF-8: {e}"),
    })?;
    let mut config = QuantizeConfig::default_nlp();
    if cmd.target_w != 0 {
        config.seq_len = cmd.target_w as usize;
    }
    let ids = quantize(text, &config).map_err(|e| ItemStatus::DecodeError {
        detail: e.to_string(),
    })?;
    Ok((ids_to_le_bytes(&ids), config.seq_len as u16, 1))
}

fn decode_one(
    decoder: &JpegDecoder,
    resolver: &Arc<dyn DataSourceResolver>,
    cmd: &DecodeCmd,
) -> Result<(Vec<u8>, u16, u16), ItemStatus> {
    cmd.validate_image_output()
        .map_err(|e| ItemStatus::DecodeError {
            detail: e.to_string(),
        })?;
    let bytes = resolver
        .fetch(&cmd.src)
        .map_err(|detail| ItemStatus::FetchError { detail })?;
    let image = decoder
        .decode(&bytes)
        .map_err(|e| ItemStatus::DecodeError {
            detail: e.to_string(),
        })?;
    // Resizer stage.
    let image = if cmd.target_w != 0 {
        resize(
            &image,
            cmd.target_w as u32,
            cmd.target_h as u32,
            ResizeFilter::Bilinear,
        )
        .map_err(|e| ItemStatus::DecodeError {
            detail: format!("resize: {e}"),
        })?
    } else {
        image
    };
    // Output-format conversion (RGB unit of Fig. 4).
    let image = match cmd.format {
        OutputFormat::Rgb8 => image.into_rgb(),
        OutputFormat::Gray8 => image.to_gray(),
    };
    debug_assert_eq!(
        image.color(),
        match cmd.format {
            OutputFormat::Rgb8 => ColorSpace::Rgb,
            OutputFormat::Gray8 => ColorSpace::Gray,
        }
    );
    let w = image.width() as u16;
    let h = image.height() as u16;
    Ok((image.into_vec(), w, h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::mirror::DecoderMirror;
    use dlb_codec::synth::{generate, SynthStyle};
    use dlb_codec::JpegEncoder;
    use dlb_membridge::{MemManager, PoolConfig};

    fn engine_with_resolver() -> (DecoderEngine, Arc<MapResolver>, MemManager) {
        let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
        device
            .load_mirror(DecoderMirror::jpeg_paper_config())
            .unwrap();
        let resolver = Arc::new(MapResolver::new());
        let engine = DecoderEngine::start(device, resolver.clone()).unwrap();
        let pool = MemManager::new(PoolConfig {
            unit_size: 4 << 20,
            unit_count: 4,
            phys_base: 0x4_0000_0000,
        })
        .unwrap();
        (engine, resolver, pool)
    }

    fn jpeg_bytes(seed: u64, w: u32, h: u32) -> Vec<u8> {
        let img = generate(w, h, SynthStyle::Photo, seed);
        JpegEncoder::new(85).unwrap().encode(&img).unwrap()
    }

    #[test]
    fn decodes_a_batch_of_images() {
        let (engine, resolver, pool) = engine_with_resolver();
        let mut unit = pool.get_item().unwrap();
        let n = 8;
        let mut cmds = Vec::new();
        for i in 0..n {
            let src = resolver.put_disk(i as u64 * 1_000_000, jpeg_bytes(i as u64, 100, 75));
            let out_len = 64 * 64 * 3;
            let off = unit.reserve(out_len, i as u64, 64, 64, 3).unwrap();
            cmds.push(
                DecodeCmd {
                    cmd_id: 100 + i as u64,
                    src,
                    dst_phys: unit.phys_addr() + off as u64,
                    dst_capacity: out_len as u32,
                    target_w: 64,
                    target_h: 64,
                    format: OutputFormat::Rgb8,
                }
                .pack(),
            );
        }
        engine.submit(Submission { unit, cmds }).unwrap();
        let done = engine.completions().pop().unwrap();
        assert_eq!(done.finishes.len(), n);
        assert_eq!(done.ok_count(), n);
        for (i, f) in done.finishes.iter().enumerate() {
            assert_eq!(f.cmd_id, 100 + i as u64);
            match &f.status {
                ItemStatus::Ok {
                    bytes_written,
                    width,
                    height,
                } => {
                    assert_eq!(*bytes_written, 64 * 64 * 3);
                    assert_eq!((*width, *height), (64, 64));
                }
                other => panic!("item {i}: {other:?}"),
            }
        }
        // Decoded pixels actually landed in the unit (not all zeros).
        let nz = done.unit.payload().iter().filter(|&&b| b != 0).count();
        assert!(nz > 1000, "only {nz} nonzero bytes written");
        assert_eq!(engine.stats().items_ok.get(), n as u64);
        pool.recycle_item(done.unit).unwrap();
        let device = engine.shutdown();
        assert_eq!(device.mirror().unwrap().huffman_ways, 4);
    }

    #[test]
    fn decoded_pixels_match_host_decode() {
        let (engine, resolver, pool) = engine_with_resolver();
        let bytes = jpeg_bytes(7, 80, 60);
        // Reference: host-side decode + resize with the same codec.
        let reference = {
            let img = JpegDecoder::new().decode(&bytes).unwrap();
            resize(&img, 32, 32, ResizeFilter::Bilinear).unwrap()
        };
        let src = resolver.put_mem(0x9000_0000, bytes);
        let mut unit = pool.get_item().unwrap();
        let off = unit.reserve(32 * 32 * 3, 0, 32, 32, 3).unwrap();
        let cmd = DecodeCmd {
            cmd_id: 1,
            src,
            dst_phys: unit.phys_addr() + off as u64,
            dst_capacity: 32 * 32 * 3,
            target_w: 32,
            target_h: 32,
            format: OutputFormat::Rgb8,
        };
        engine
            .submit(Submission {
                unit,
                cmds: vec![cmd.pack()],
            })
            .unwrap();
        let done = engine.completions().pop().unwrap();
        assert_eq!(done.ok_count(), 1);
        assert_eq!(done.unit.item_bytes(0), reference.data());
        pool.recycle_item(done.unit).unwrap();
    }

    #[test]
    fn bad_jpeg_reports_decode_error_without_killing_batch() {
        let (engine, resolver, pool) = engine_with_resolver();
        let mut unit = pool.get_item().unwrap();
        let good_src = resolver.put_disk(0, jpeg_bytes(1, 50, 50));
        let bad_src = resolver.put_disk(1_000_000, vec![0xAB; 500]);
        let mut cmds = Vec::new();
        for (i, src) in [good_src, bad_src].into_iter().enumerate() {
            let off = unit.reserve(28 * 28 * 3, i as u64, 28, 28, 3).unwrap();
            cmds.push(
                DecodeCmd {
                    cmd_id: i as u64,
                    src,
                    dst_phys: unit.phys_addr() + off as u64,
                    dst_capacity: 28 * 28 * 3,
                    target_w: 28,
                    target_h: 28,
                    format: OutputFormat::Rgb8,
                }
                .pack(),
            );
        }
        engine.submit(Submission { unit, cmds }).unwrap();
        let done = engine.completions().pop().unwrap();
        assert_eq!(done.ok_count(), 1);
        assert!(done.finishes[0].status.is_ok());
        assert!(matches!(
            done.finishes[1].status,
            ItemStatus::DecodeError { .. }
        ));
        pool.recycle_item(done.unit).unwrap();
    }

    #[test]
    fn missing_source_reports_fetch_error() {
        let (engine, _resolver, pool) = engine_with_resolver();
        let mut unit = pool.get_item().unwrap();
        let off = unit.reserve(100, 0, 1, 1, 3).unwrap();
        let cmd = DecodeCmd {
            cmd_id: 5,
            src: DataRef::Disk {
                offset: 0xDEAD,
                len: 123,
            },
            dst_phys: unit.phys_addr() + off as u64,
            dst_capacity: 100,
            target_w: 0,
            target_h: 0,
            format: OutputFormat::Rgb8,
        };
        engine
            .submit(Submission {
                unit,
                cmds: vec![cmd.pack()],
            })
            .unwrap();
        let done = engine.completions().pop().unwrap();
        assert!(matches!(
            done.finishes[0].status,
            ItemStatus::FetchError { .. }
        ));
        pool.recycle_item(done.unit).unwrap();
    }

    #[test]
    fn out_of_unit_dma_is_rejected_by_mmu_check() {
        let (engine, resolver, pool) = engine_with_resolver();
        let unit = pool.get_item().unwrap();
        let src = resolver.put_disk(0, jpeg_bytes(2, 40, 40));
        let cmd = DecodeCmd {
            cmd_id: 9,
            src,
            // A physical address *outside* the unit.
            dst_phys: unit.phys_addr() + unit.capacity() as u64 + 4096,
            dst_capacity: 40 * 40 * 3,
            target_w: 40,
            target_h: 40,
            format: OutputFormat::Rgb8,
        };
        engine
            .submit(Submission {
                unit,
                cmds: vec![cmd.pack()],
            })
            .unwrap();
        let done = engine.completions().pop().unwrap();
        assert!(matches!(
            done.finishes[0].status,
            ItemStatus::DecodeError { .. }
        ));
        assert_eq!(done.ok_count(), 0);
        pool.recycle_item(done.unit).unwrap();
    }

    #[test]
    fn gray_output_format() {
        let (engine, resolver, pool) = engine_with_resolver();
        let mut unit = pool.get_item().unwrap();
        let src = resolver.put_disk(0, jpeg_bytes(3, 56, 56));
        let off = unit.reserve(28 * 28, 0, 28, 28, 1).unwrap();
        let cmd = DecodeCmd {
            cmd_id: 2,
            src,
            dst_phys: unit.phys_addr() + off as u64,
            dst_capacity: 28 * 28,
            target_w: 28,
            target_h: 28,
            format: OutputFormat::Gray8,
        };
        engine
            .submit(Submission {
                unit,
                cmds: vec![cmd.pack()],
            })
            .unwrap();
        let done = engine.completions().pop().unwrap();
        match done.finishes[0].status {
            ItemStatus::Ok { bytes_written, .. } => assert_eq!(bytes_written, 28 * 28),
            ref other => panic!("{other:?}"),
        }
        pool.recycle_item(done.unit).unwrap();
    }

    #[test]
    fn engine_requires_a_mirror() {
        let device = FpgaDevice::new(DeviceSpec::arria10_ax());
        let err = DecoderEngine::start(device, Arc::new(MapResolver::new())).unwrap_err();
        assert_eq!(err, FpgaError::NoMirrorLoaded);
    }

    #[test]
    fn audio_mirror_extracts_spectrograms() {
        use dlb_codec::audio::{pcm_to_le_bytes, spectrogram, synth_pcm, SpectrogramConfig};
        let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
        device
            .load_mirror(DecoderMirror::audio_spectrogram())
            .unwrap();
        let resolver = Arc::new(MapResolver::new());
        let pcm = synth_pcm(4_000, 77);
        let src = resolver.put_disk(0, pcm_to_le_bytes(&pcm));
        let engine = DecoderEngine::start(device, resolver.clone()).unwrap();
        let pool = MemManager::new(PoolConfig {
            unit_size: 1 << 20,
            unit_count: 2,
            phys_base: 0x4_0000_0000,
        })
        .unwrap();
        let coeffs = 40u16;
        let config = SpectrogramConfig::speech_16k();
        let frames = config.frames(4_000);
        let out_len = frames * coeffs as usize * 4;
        let mut unit = pool.get_item().unwrap();
        let off = unit
            .reserve(out_len, 0, coeffs as u32, frames as u32, 1)
            .unwrap();
        let cmd = DecodeCmd {
            cmd_id: 1,
            src,
            dst_phys: unit.phys_addr() + off as u64,
            dst_capacity: out_len as u32,
            target_w: coeffs,
            target_h: 0,
            format: OutputFormat::Gray8,
        };
        engine
            .submit(Submission {
                unit,
                cmds: vec![cmd.pack()],
            })
            .unwrap();
        let done = engine.completions().pop().unwrap();
        match done.finishes[0].status {
            ItemStatus::Ok {
                bytes_written,
                width,
                height,
            } => {
                assert_eq!(bytes_written as usize, out_len);
                assert_eq!(width, coeffs);
                assert_eq!(height as usize, frames);
            }
            ref other => panic!("{other:?}"),
        }
        // Device output equals the host-side kernel bit for bit.
        let reference = spectrogram(&pcm, &config).unwrap();
        let got: Vec<f32> = done
            .unit
            .item_bytes(0)
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        assert_eq!(got, reference);
        pool.recycle_item(done.unit).unwrap();
    }

    #[test]
    fn text_mirror_quantizes_tokens() {
        use dlb_codec::text::{quantize, synth_text, QuantizeConfig};
        let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
        device.load_mirror(DecoderMirror::text_quantize()).unwrap();
        let resolver = Arc::new(MapResolver::new());
        let text = synth_text(20, 3);
        let src = resolver.put_disk(0, text.clone().into_bytes());
        let engine = DecoderEngine::start(device, resolver.clone()).unwrap();
        let pool = MemManager::new(PoolConfig {
            unit_size: 64 << 10,
            unit_count: 2,
            phys_base: 0x4_0000_0000,
        })
        .unwrap();
        let seq_len = 32u16;
        let out_len = seq_len as usize * 4;
        let mut unit = pool.get_item().unwrap();
        let off = unit.reserve(out_len, 0, seq_len as u32, 1, 1).unwrap();
        let cmd = DecodeCmd {
            cmd_id: 2,
            src,
            dst_phys: unit.phys_addr() + off as u64,
            dst_capacity: out_len as u32,
            target_w: seq_len,
            target_h: 0,
            format: OutputFormat::Gray8,
        };
        engine
            .submit(Submission {
                unit,
                cmds: vec![cmd.pack()],
            })
            .unwrap();
        let done = engine.completions().pop().unwrap();
        assert!(
            done.finishes[0].status.is_ok(),
            "{:?}",
            done.finishes[0].status
        );
        let got: Vec<u32> = done
            .unit
            .item_bytes(0)
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let expected = quantize(
            &text,
            &QuantizeConfig {
                seq_len: 32,
                ..QuantizeConfig::default_nlp()
            },
        )
        .unwrap();
        assert_eq!(got, expected);
        pool.recycle_item(done.unit).unwrap();
    }

    #[test]
    fn many_batches_pipeline_through() {
        let (engine, resolver, pool) = engine_with_resolver();
        let n_batches = 6;
        let per_batch = 4;
        for b in 0..n_batches {
            let mut unit = pool.get_item().unwrap();
            let mut cmds = Vec::new();
            for i in 0..per_batch {
                let key = (b * per_batch + i) as u64;
                let src = resolver.put_disk(key * 1_000_000, jpeg_bytes(key, 64, 48));
                let off = unit.reserve(32 * 32 * 3, key, 32, 32, 3).unwrap();
                cmds.push(
                    DecodeCmd {
                        cmd_id: key,
                        src,
                        dst_phys: unit.phys_addr() + off as u64,
                        dst_capacity: 32 * 32 * 3,
                        target_w: 32,
                        target_h: 32,
                        format: OutputFormat::Rgb8,
                    }
                    .pack(),
                );
            }
            engine.submit(Submission { unit, cmds }).unwrap();
            // Recycle asynchronously to keep the pool from starving.
            if b >= 2 {
                let done = engine.completions().pop().unwrap();
                assert_eq!(done.ok_count(), per_batch);
                pool.recycle_item(done.unit).unwrap();
            }
        }
        for _ in 0..2 {
            let done = engine.completions().pop().unwrap();
            assert_eq!(done.ok_count(), per_batch);
            pool.recycle_item(done.unit).unwrap();
        }
        assert_eq!(engine.stats().batches.get(), n_batches as u64);
        assert_eq!(
            engine.stats().items_ok.get(),
            (n_batches * per_batch) as u64
        );
        // Lane service time was recorded for every item.
        assert_eq!(
            engine.stats().lane_service.count(),
            (n_batches * per_batch) as u64
        );
        assert_eq!(
            engine.stats().items_in.get(),
            (n_batches * per_batch) as u64
        );
    }

    #[test]
    fn chaos_poisons_segments_without_losing_the_batch() {
        use dlb_chaos::{FaultPlan, Stage, StageSpec};
        let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
        device
            .load_mirror(DecoderMirror::jpeg_paper_config())
            .unwrap();
        let resolver = Arc::new(MapResolver::new());
        let t = dlb_telemetry::Telemetry::with_defaults();
        let engine = DecoderEngine::start_with_telemetry(device, resolver.clone(), &t).unwrap();
        let mut plan = FaultPlan::disabled();
        plan.seed = 3;
        plan.fpga = StageSpec::rate(0.5).with_delay(std::time::Duration::from_millis(1));
        engine.attach_chaos(plan.injector(Stage::Fpga, &t).unwrap());
        let pool = MemManager::new(PoolConfig {
            unit_size: 4 << 20,
            unit_count: 2,
            phys_base: 0x4_0000_0000,
        })
        .unwrap();
        let n = 24;
        let mut unit = pool.get_item().unwrap();
        let mut cmds = Vec::new();
        for i in 0..n {
            let src = resolver.put_disk(i as u64 * 1_000_000, jpeg_bytes(i as u64, 48, 48));
            let off = unit.reserve(16 * 16 * 3, i as u64, 16, 16, 3).unwrap();
            cmds.push(
                DecodeCmd {
                    cmd_id: i as u64,
                    src,
                    dst_phys: unit.phys_addr() + off as u64,
                    dst_capacity: 16 * 16 * 3,
                    target_w: 16,
                    target_h: 16,
                    format: OutputFormat::Rgb8,
                }
                .pack(),
            );
        }
        engine.submit(Submission { unit, cmds }).unwrap();
        let done = engine.completions().pop().unwrap();
        // The batch always completes: every cmd gets a FINISH signal.
        assert_eq!(done.finishes.len(), n);
        let poisoned = done
            .finishes
            .iter()
            .filter(|f| matches!(&f.status, ItemStatus::DecodeError { detail } if detail.contains("chaos")))
            .count();
        assert!(poisoned > 0, "a 50% rate must poison some segments");
        assert!(done.ok_count() > 0, "a 50% rate must pass some segments");
        assert_eq!(done.ok_count() + poisoned, n);
        let snap = t.registry.snapshot();
        assert!(snap.counter("chaos.injected.fpga") > 0);
        pool.recycle_item(done.unit).unwrap();
    }

    #[test]
    fn shutdown_closes_completion_queue() {
        let (engine, _resolver, _pool) = engine_with_resolver();
        let completions = engine.completions().clone();
        let _device = engine.shutdown();
        assert!(completions.pop().is_err());
    }
}

//! Steady-state benchmark of the real-thread DLBooster pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (the seed picks the corpus and every random choice):
//!
//! * `train_cold` — FPGA-mirror decode of 512 ILSVRC-geometry JPEGs to
//!   224×224, batch 32, reshuffled epochs, no memory cache; closed loop.
//!   Decode-bound: codec, FPGA lanes, reader and pool do the work.
//! * `serve_open` — open loop: a seeded Poisson schedule of 300 req/s over
//!   five tenants flows NIC → serving bridge → stream collector → FPGA
//!   decode → consumer. Latency counts from each request's due time.
//! * `train_cpu` — the paper's CPU baseline, two decode workers.
//!
//! `--trace 0` runs untraced and ends with the end-to-end metrics:
//!
//! * `img_per_s` — images the consumer received per second of the window;
//! * `cpu_ms_per_img` — process user + system CPU (`/proc/self/stat`) in
//!   the window per image;
//! * `wait_ms_p50` — median time the user waits for data: a training step
//!   blocked in `next_batch`, or a request from its *scheduled* send to the
//!   pop of the batch that holds it (the tails, `batch_wait_ms_p95` and
//!   `req_latency_ms_p99`, are printed with their sample counts);
//! * `peak_rss_mib` — `VmHWM` of the process;
//! * `setup_s` — corpus generation plus the median of three device,
//!   engine and pipeline starts, each up to its first delivered batch.
//!
//! `--trace 1` runs the pipeline once untraced and once with a `Tracer`
//! installed, half the time each, adds the benchmark's own timed calls
//! into each layer, and ends with the per-layer metrics.
//! `trace.overhead_frac` is the capacity tracing costs: 1 − traced /
//! untraced `img_per_s` on the closed-loop workloads, and traced /
//! untraced `cpu_ms_per_img` − 1 on `serve_open`, whose rate the schedule
//! pins. Every metric is
//! also printed on its own line with unit and sample count, and the whole
//! set goes to `.bench_out/` next to any stall artifact. The last stdout
//! line is the JSON result. The exit code is non-zero when a delivered
//! output is wrong: a batch or request out of place, or pixels that differ
//! from an independent decode.
//!
//! `failed_frac` and `slo_miss_frac` are printed too; they read 0 on a
//! healthy run, so the result line carries them as `failed` out of
//! `attempted`. A layer a workload does not use is still timed through the
//! benchmark's own calls on that workload's corpus (`net.deliver_us_per_req`
//! on the training workloads), so every per-layer metric exists on every
//! workload.
//!
//! Which end-to-end metric each layer metric should move, and on which
//! workload:
//!
//! | layer | metrics | should move | on |
//! |---|---|---|---|
//! | codec | `codec.*` | img/s, cpu_ms_per_img, req latency | train_cold, train_cpu, serve_open |
//! | fpga | `fpga.*` | cpu_ms_per_img, img/s, failed_frac | train_cold, serve_open |
//! | core reader | `reader.*`, `backend.busy_cores` | cpu_ms_per_img, req latency, img/s | serve_open, train_cold |
//! | membridge | `pool.*`, `membridge.restore_us_per_batch`, `consumer.recycle_us_p50` | batch wait, img/s | train_cold |
//! | storage | `storage.read_us_per_img` | img/s (share ≈ 0) | train_cold, train_cpu |
//! | net | `net.deliver_us_per_req` | req latency | serve_open |
//! | serving | `serving.*` | req latency p99, slo_miss_frac, cpu_ms_per_img | serve_open |
//! | backends (cpu) | `cpu.decode_ms_per_img`, `backend.busy_cores` | img/s, cpu_ms_per_img | train_cpu |
//! | trace | `trace.*` | shows which layer a change moved | all |
//! | benchmark | `gen.late_ms_*` | whether req latency can be trusted | serve_open |

mod check;
mod layers;
mod report;
mod serve;
mod stats;
mod train;

use dlbooster::prelude::*;
use dlbooster::telemetry::Json;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Images in every workload's corpus: 16 batches of 32, so an epoch is a
/// whole number of batches.
pub const CORPUS_IMAGES: usize = 512;
/// Decoder output geometry.
pub const TARGET: (u32, u32) = (224, 224);
/// Pipeline starts timed per untraced run. `setup_s` is the corpus
/// generation time plus the median start-to-first-batch time.
pub const SETUP_REPEATS: usize = 3;
/// A consumer that waits this long for one batch records a stall.
pub const STALL_DEADLINE: Duration = Duration::from_secs(5);
/// Delivered items kept for the byte-for-byte check.
pub const SAMPLES: usize = 24;
/// Where results and stall artifacts go, relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainCold,
    ServeOpen,
    TrainCpu,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "train_cold" => Self::TrainCold,
            "serve_open" => Self::ServeOpen,
            "train_cpu" => Self::TrainCpu,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::TrainCold => "train_cold",
            Self::ServeOpen => "serve_open",
            Self::TrainCpu => "train_cpu",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A workload's input: JPEGs on a simulated NVMe disk.
pub struct Corpus {
    pub disk: Arc<NvmeDisk>,
    pub dataset: Dataset,
}

impl Corpus {
    pub fn build(seed: u64) -> Corpus {
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let dataset = Dataset::build(DatasetSpec::ilsvrc_like(CORPUS_IMAGES, seed), &disk)
            .expect("corpus generation");
        Corpus { disk, dataset }
    }

    /// Encoded bytes of record `i`.
    pub fn bytes(&self, i: usize) -> Arc<Vec<u8>> {
        let r = &self.dataset.records[i];
        self.disk.read(r.disk_offset, r.len).expect("corpus record")
    }
}

/// Writes `text` to `OUT_DIR/name` and returns the path.
pub fn write_artifact(name: &str, text: &str) -> String {
    let dir = PathBuf::from(OUT_DIR);
    let path = dir.join(name);
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
    }
    path.display().to_string()
}

/// The text a stall leaves behind: the pipeline snapshot plus the
/// watchdog's view of every watched queue.
pub fn stall_artifact(
    args: &Args,
    pass: &str,
    what: &str,
    telemetry: Option<&Telemetry>,
) -> String {
    let mut text = format!(
        "stall in {} (seed {}, {pass} pass): {what}\n\n",
        args.workload.name(),
        args.seed
    );
    match telemetry {
        Some(t) => {
            text.push_str(&t.pipeline_snapshot().to_text());
            text.push_str("\nwatchdog stall reports:\n");
            for s in t.watchdog.stalled() {
                text.push_str(&format!("  {s:?}\n"));
            }
            text.push_str("watched queues (last progress, depth):\n");
            for q in t.watchdog.queue_progress() {
                text.push_str(&format!(
                    "  {} {:?} {}\n",
                    q.stage, q.last_progress, q.depth
                ));
            }
        }
        None => text.push_str("(backend runs without telemetry on this pass)\n"),
    }
    write_artifact(
        &format!(
            "stall-{}-seed{}-{pass}.txt",
            args.workload.name(),
            args.seed
        ),
        &text,
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload train_cold|serve_open|train_cpu \
                 --seed N [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed={} seconds={} trace={} host_cores={cores}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = match args.workload {
        Workload::ServeOpen => serve::run(&args),
        _ => train::run(&args),
    };
    report.put("host_cores", "count", cores as f64, 1);

    print!("{}", report.render());
    for m in &report.mismatches {
        println!("MISMATCH {m}");
    }
    for a in &report.artifacts {
        println!("artifact {a}");
    }
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            Json::object(vec![
                ("name", Json::Str(m.name.clone())),
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
                ("samples", Json::Num(m.samples as f64)),
            ])
        })
        .collect();
    let json = Json::object(vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host_cores", Json::Num(cores as f64)),
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Array(metrics)),
        (
            "mismatches",
            Json::Array(report.mismatches.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "artifacts",
            Json::Array(report.artifacts.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    let path = write_artifact(
        &format!(
            "result-{}-seed{}-trace{}.json",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        ),
        &json.to_string_pretty(),
    );
    println!("results {path}");
    let declared = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    println!("{}", report.result_line(declared));
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve_open --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeOpen);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        for bad in [
            "--workload nope --seed 1",
            "--seed 1",
            "--workload train_cold",
            "--workload train_cold --seed x",
            "--workload train_cold --seed 1 --trace 2",
            "--workload train_cold --seed 1 --seconds 0",
            "--workload train_cold --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}

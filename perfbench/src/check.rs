//! The correctness gate: delivered batches against the corpus.
//!
//! Delivered items carry only a label and decoded pixels, so a batch is
//! identified by its label vector: an independent `DataCollector` over the
//! same manifest and shuffle seed replays the dispense order, and each
//! dispensed batch of 32 labels names its records (and so their disk
//! offsets). Pixels are then tied to those offsets by decoding a seeded
//! sample of delivered items again, byte for byte.

use crate::stats::Rng;
use dlbooster::codec::resize::{resize, ResizeFilter};
use dlbooster::fpga::DataRef;
use dlbooster::prelude::*;
use std::collections::HashMap;

/// One record as the checker knows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordRef {
    pub index: u32,
    pub offset: u64,
}

/// Checks that every delivery epoch holds every record exactly once.
///
/// The j-th delivery of a record must land in delivery epoch j, give or
/// take `slack` batches of reordering at epoch edges (batches in flight at
/// once can overtake each other on a multi-worker backend). A record that
/// is lost or duplicated shifts all its later deliveries by an epoch and
/// fails this within an epoch or two; one that never comes back fails the
/// final count check.
pub struct EpochChecker {
    reference: DataCollector,
    by_offset: HashMap<u64, RecordRef>,
    batch: usize,
    per_epoch: u64,
    slack: u64,
    /// Label vector → the records of the dispensed batch it names.
    chunks: HashMap<Vec<u64>, Vec<RecordRef>>,
    /// Dispensed reference batches so far.
    generated: u64,
    /// Deliveries per record, indexed by `RecordRef::index`.
    counts: Vec<u64>,
    delivered: u64,
    /// Label vectors shared by two different record sets (identity by
    /// label is then ambiguous; the first wins).
    ambiguous: u64,
}

impl EpochChecker {
    pub fn new(
        records: &[dlbooster::storage::Record],
        shuffle_seed: u64,
        batch: usize,
        slack: u64,
    ) -> Self {
        assert!(
            records.len().is_multiple_of(batch),
            "epochs must be whole batches for per-epoch coverage"
        );
        let by_offset = records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                (
                    r.disk_offset,
                    RecordRef {
                        index: i as u32,
                        offset: r.disk_offset,
                    },
                )
            })
            .collect();
        Self {
            reference: DataCollector::load_from_disk(records, shuffle_seed),
            by_offset,
            batch,
            per_epoch: (records.len() / batch) as u64,
            slack,
            chunks: HashMap::new(),
            generated: 0,
            counts: vec![0; records.len()],
            delivered: 0,
            ambiguous: 0,
        }
    }

    /// Dispenses whole reference epochs until `upto` batches exist. Each
    /// reference epoch must itself cover every record once, or the
    /// collector is broken and the comparison means nothing.
    fn generate(&mut self, upto: u64, report: &mut crate::report::Report) {
        while self.generated < upto {
            let epoch = self.generated / self.per_epoch;
            let mut seen = vec![false; self.counts.len()];
            for _ in 0..self.per_epoch {
                let metas = self.reference.next_metas(self.batch).expect("dataset mode");
                let mut refs = Vec::with_capacity(metas.len());
                for m in &metas {
                    let DataRef::Disk { offset, .. } = m.src else {
                        unreachable!("dataset metas live on disk")
                    };
                    let r = self.by_offset[&offset];
                    if std::mem::replace(&mut seen[r.index as usize], true) {
                        report.mismatch(format!(
                            "reference epoch {epoch} dispenses record {} twice",
                            r.index
                        ));
                    }
                    refs.push(r);
                }
                let labels: Vec<u64> = metas.iter().map(|m| m.label).collect();
                match self.chunks.get(&labels) {
                    Some(prev) if *prev != refs => self.ambiguous += 1,
                    Some(_) => {}
                    None => {
                        self.chunks.insert(labels, refs);
                    }
                }
            }
            self.generated += self.per_epoch;
        }
    }

    /// Accounts one delivered batch. Returns the records it holds, or
    /// `None` (after recording a mismatch) if it matches no dispensed
    /// batch.
    pub fn deliver(
        &mut self,
        labels: &[u64],
        report: &mut crate::report::Report,
    ) -> Option<Vec<RecordRef>> {
        let s = self.delivered;
        self.delivered += 1;
        self.generate(s + 2 * self.per_epoch + self.slack, report);
        let Some(refs) = self.chunks.get(labels).cloned() else {
            report.mismatch(format!("delivered batch {s} matches no dispensed batch"));
            return None;
        };
        for r in &refs {
            let j = self.counts[r.index as usize];
            self.counts[r.index as usize] += 1;
            let lo = (j * self.per_epoch).saturating_sub(self.slack);
            let hi = (j + 1) * self.per_epoch - 1 + self.slack;
            if !(lo..=hi).contains(&s) {
                report.mismatch(format!(
                    "record {} delivered for the {} time in batch {s}, outside epoch {j}",
                    r.index,
                    j + 1
                ));
            }
        }
        Some(refs)
    }

    /// Final check: every record came back as often as the delivered
    /// epochs require.
    pub fn finish(&self, report: &mut crate::report::Report) {
        let full = self.delivered.saturating_sub(self.slack) / self.per_epoch;
        let short = self.counts.iter().filter(|&&c| c < full).count();
        if short > 0 {
            report.mismatch(format!(
                "{short} records delivered fewer than {full} times in {} batches",
                self.delivered
            ));
        }
        if self.ambiguous > 0 {
            report.note(format!(
                "{} dispensed batches share a label vector",
                self.ambiguous
            ));
        }
    }
}

/// A delivered item kept for the byte-for-byte check.
pub struct Sample {
    pub what: String,
    pub src: Vec<u8>,
    pub pixels: Vec<u8>,
}

/// Seeded reservoir of delivered items (Algorithm R): every delivered item
/// has the same chance to be checked, at a copy cost bounded by
/// `capacity · ln(items)`.
pub struct Sampler {
    rng: Rng,
    capacity: usize,
    seen: u64,
    pub kept: Vec<Sample>,
}

impl Sampler {
    pub fn new(seed: u64, capacity: usize) -> Self {
        Self {
            rng: Rng::new(seed ^ 0x5A3D_1E00),
            capacity,
            seen: 0,
            kept: Vec::with_capacity(capacity),
        }
    }

    /// Offers one item; `take` builds the sample only if it is kept.
    pub fn offer(&mut self, take: impl FnOnce() -> Sample) {
        self.seen += 1;
        if self.kept.len() < self.capacity {
            self.kept.push(take());
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < self.capacity {
                self.kept[j] = take();
            }
        }
    }

    /// Decodes every kept source independently and compares pixels.
    pub fn verify(&self, target: (u32, u32), report: &mut crate::report::Report) {
        let decoder = JpegDecoder::new();
        for s in &self.kept {
            let expected = decoder
                .decode(&s.src)
                .map_err(|e| e.to_string())
                .and_then(|img| {
                    resize(&img, target.0, target.1, ResizeFilter::Bilinear)
                        .map_err(|e| e.to_string())
                })
                .map(|img| img.to_rgb().into_vec());
            match expected {
                Ok(px) if px == s.pixels => {}
                Ok(px) => report.mismatch(format!(
                    "{}: {} of {} bytes differ from an independent decode",
                    s.what,
                    px.iter().zip(&s.pixels).filter(|(a, b)| a != b).count()
                        + px.len().abs_diff(s.pixels.len()),
                    px.len()
                )),
                Err(e) => report.mismatch(format!("{}: reference decode failed: {e}", s.what)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;
    use dlbooster::storage::Record;

    fn records(n: usize) -> Vec<Record> {
        (0..n as u64)
            .map(|i| Record {
                id: i,
                label: (i * 7919) % 1000,
                disk_offset: 1000 + i * 64,
                len: 64,
                width: 8,
                height: 8,
                channels: 3,
            })
            .collect()
    }

    /// The label vectors a pipeline fed by the same collector dispenses.
    fn dispensed(recs: &[Record], seed: u64, batches: usize) -> Vec<Vec<u64>> {
        let c = DataCollector::load_from_disk(recs, seed);
        (0..batches)
            .map(|_| c.next_metas(4).unwrap().iter().map(|m| m.label).collect())
            .collect()
    }

    #[test]
    fn in_order_and_bounded_reorder_pass() {
        let recs = records(16);
        let mut seq = dispensed(&recs, 9, 40);
        // Swap two batches across an epoch edge: a two-worker overtake.
        seq.swap(3, 4);
        let mut report = Report::default();
        let mut c = EpochChecker::new(&recs, 9, 4, 2);
        for labels in &seq {
            assert!(c.deliver(labels, &mut report).is_some());
        }
        c.finish(&mut report);
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
    }

    #[test]
    fn replayed_first_epoch_passes() {
        // A memory cache replaying epoch 0 in its original order still
        // delivers every record once per epoch.
        let recs = records(16);
        let first = dispensed(&recs, 9, 4);
        let mut report = Report::default();
        let mut c = EpochChecker::new(&recs, 9, 4, 0);
        for e in 0..5 {
            for labels in &first {
                assert!(c.deliver(labels, &mut report).is_some(), "epoch {e}");
            }
        }
        c.finish(&mut report);
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
    }

    #[test]
    fn duplicate_lost_and_foreign_batches_fail() {
        let recs = records(16);
        let seq = dispensed(&recs, 9, 12);

        let mut dup = seq.clone();
        dup[2] = dup[1].clone();
        let mut lost = seq.clone();
        lost.remove(1);
        let mut foreign = seq.clone();
        foreign[5][0] = 1_000_000;
        for (name, bad) in [("duplicate", dup), ("lost", lost), ("foreign", foreign)] {
            let mut report = Report::default();
            let mut c = EpochChecker::new(&recs, 9, 4, 0);
            for labels in &bad {
                c.deliver(labels, &mut report);
            }
            c.finish(&mut report);
            assert!(!report.mismatches.is_empty(), "{name} went unnoticed");
        }
    }

    #[test]
    fn sampler_keeps_a_seeded_uniform_reservoir() {
        let run = |seed| {
            let mut s = Sampler::new(seed, 4);
            for i in 0..1000 {
                s.offer(|| Sample {
                    what: i.to_string(),
                    src: Vec::new(),
                    pixels: Vec::new(),
                });
            }
            s.kept.iter().map(|k| k.what.clone()).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
        assert!(run(1).iter().any(|w| w.parse::<u32>().unwrap() >= 4));
    }

    #[test]
    fn verify_flags_pixel_differences() {
        let img = dlbooster::codec::synth::generate(
            40,
            30,
            dlbooster::codec::synth::SynthStyle::Photo,
            3,
        );
        let jpeg = JpegEncoder::new(90).unwrap().encode(&img).unwrap();
        let good = resize(
            &JpegDecoder::new().decode(&jpeg).unwrap(),
            16,
            16,
            ResizeFilter::Bilinear,
        )
        .unwrap()
        .to_rgb()
        .into_vec();
        let mut bad = good.clone();
        bad[5] ^= 1;
        let mut s = Sampler::new(0, 2);
        for (what, px) in [("good", good), ("bad", bad)] {
            s.offer(|| Sample {
                what: what.into(),
                src: jpeg.clone(),
                pixels: px,
            });
        }
        let mut report = Report::default();
        s.verify((16, 16), &mut report);
        assert_eq!(report.mismatches.len(), 1, "{:?}", report.mismatches);
        assert!(report.mismatches[0].starts_with("bad: 1 of 768 bytes"));
    }
}

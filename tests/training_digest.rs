//! Pins the bits of seeded MEMHD fits.
//!
//! Training is deterministic by seed, and every speed-up of its front end
//! (projection encoding, classwise k-means) must keep it bit-identical:
//! the same encoded hypervectors, the same clustered centroids, the same
//! QAT trajectory. This test records FNV-1a digests of two small fits —
//! a 128×128 MNIST-like one and a 512×128 ISOLET-like one — covering
//!
//! * the encoded training set (`encode_dataset`: fp bits and binary words)
//!   and the held-out batch (`encode_binary_batch`),
//! * the trained [`FloatAm`](hdc::FloatAm) centroid bits and class labels,
//! * the quantized [`BinaryAm`](hdc::BinaryAm) words,
//! * every [`TrainingHistory`](memhd::TrainingHistory) record.
//!
//! Any change to the arithmetic order of encoding or clustering, or any
//! dependence on the thread count of their fan-outs, shows up here as a
//! changed pin. CI also runs this test pinned to one core.

use hd_datasets::synthetic::SyntheticSpec;
use hd_datasets::Dataset;
use hdc::{encode_dataset, Encoder};
use memhd::{MemhdConfig, MemhdModel};

/// Streaming FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f32]) {
        values.iter().for_each(|v| self.word(u64::from(v.to_bits())));
    }

    fn words(&mut self, words: &[u64]) {
        words.iter().for_each(|&w| self.word(w));
    }
}

/// Digests of one seeded fit.
#[derive(Debug, PartialEq)]
struct Pin {
    encoded: u64,
    held_out: u64,
    float_am: u64,
    binary_am: u64,
    history: u64,
}

fn pin(ds: &Dataset, dim: usize, columns: usize, seed: u64) -> Pin {
    let config =
        MemhdConfig::new(dim, columns, ds.num_classes).expect("valid config").with_seed(seed);
    let model = MemhdModel::fit(&config, &ds.train_features, &ds.train_labels).expect("fit");

    let mut h = Fnv::new();
    let encoded = encode_dataset(model.encoder(), &ds.train_features).expect("encode");
    h.floats(encoded.fp.as_slice());
    encoded.bin.iter().for_each(|b| h.words(b.as_words()));
    let encoded = h.0;

    let mut h = Fnv::new();
    let batch = model.encoder().encode_binary_batch(&ds.test_features).expect("encode batch");
    (0..batch.len()).for_each(|q| h.words(batch.query(q).as_words()));
    let held_out = h.0;

    let mut h = Fnv::new();
    let fam = model.float_am();
    h.floats(fam.as_matrix().as_slice());
    fam.class_labels().iter().for_each(|&c| h.word(c as u64));
    let float_am = h.0;

    let mut h = Fnv::new();
    let bam = model.binary_am().as_bit_matrix();
    (0..bam.rows()).for_each(|r| h.words(bam.row_view(r).as_words()));
    model.binary_am().class_labels().iter().for_each(|&c| h.word(c as u64));
    let binary_am = h.0;

    let mut h = Fnv::new();
    for r in model.history().records() {
        h.word(r.epoch as u64);
        h.word(r.updates as u64);
        h.word(r.train_accuracy.to_bits());
        h.word(r.eval_accuracy.map_or(u64::MAX, f64::to_bits));
    }
    let history = h.0;

    Pin { encoded, held_out, float_am, binary_am, history }
}

#[test]
fn mnist_like_128x128_fit_is_pinned() {
    let ds = SyntheticSpec::mnist_like(60, 20).generate(11).expect("valid spec");
    assert_eq!(
        pin(&ds, 128, 128, 3),
        Pin {
            encoded: 3189234800567713051,
            held_out: 1233594777204116184,
            float_am: 11326024742536781436,
            binary_am: 3813223197797007476,
            history: 6871377952573842524,
        }
    );
}

#[test]
fn isolet_like_512x128_fit_is_pinned() {
    let ds = SyntheticSpec::isolet_like(12, 4).generate(13).expect("valid spec");
    assert_eq!(
        pin(&ds, 512, 128, 5),
        Pin {
            encoded: 4715041603993388410,
            held_out: 1765100553182009002,
            float_am: 9008261449783399509,
            binary_am: 5791364790149603167,
            history: 16112165446334658436,
        }
    );
}

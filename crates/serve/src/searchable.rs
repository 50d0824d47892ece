//! The model interface the server batches over, plus adapters for every
//! associative memory in the workspace.
//!
//! A [`Searchable`] answers a packed [`QueryBatch`] with each query's
//! k-best slate ([`Searchable::search_topk`]); the winner is the slate's
//! first entry, and [`Searchable::search_winners`] is that k=1 view. The
//! server hands each flush a single `Arc<QueryBatch>` so sharded
//! implementations can ship the batch to worker threads without copying;
//! plain implementations just deref.
//!
//! Adapters are provided for:
//!
//! * [`hd_linalg::SearchMemory`] — raw row store, `class == row`;
//! * [`hdc::BinaryAm`] — centroid rows with class labels;
//! * [`memhd::MemhdModel`] — serves the model's quantized AM (queries are
//!   pre-encoded `D`-bit hypervectors; encoding stays with the client,
//!   matching the paper's architecture where the encoding module and AM
//!   are separate IMC structures);
//! * [`imc_sim::AmMapping`] / [`imc_sim::FaultyAmMapping`] /
//!   [`imc_sim::ReplicatedAmMapping`] — mapped (possibly fault-injected,
//!   possibly replicated-with-majority-readout) arrays, bit-exact
//!   against software search;
//! * the four baselines ([`hd_baselines::BasicHdc`],
//!   [`hd_baselines::QuantHd`], [`hd_baselines::SearcHd`],
//!   [`hd_baselines::LeHdc`]) via their binary AMs.

use crate::error::{Result, ServeError};
use hd_linalg::{QueryBatch, SearchMemory};
use std::sync::Arc;

/// The winning centroid of one served query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Winner {
    /// Winning row in the served memory.
    pub row: usize,
    /// Class owning the winning row (equal to `row` for unlabeled
    /// memories).
    pub class: usize,
    /// Dot-similarity score of the winning row.
    pub score: u32,
}

/// A model the serving layer can drive: batched k-best associative
/// search with the workspace's highest-score / lowest-row order.
///
/// Implementations must be [`Send`] + [`Sync`]: the deadline flusher and
/// any submitting thread may execute a flush, and snapshot swaps hand
/// `Arc`s across threads.
pub trait Searchable: Send + Sync {
    /// Hypervector dimensionality `D` queries must match.
    fn dim(&self) -> usize;

    /// Number of stored rows (centroids).
    fn rows(&self) -> usize;

    /// Answers every query of `batch` with its winning row, class, and
    /// score: the first entry of its [`Searchable::search_topk`] slate
    /// (highest score, then lowest row).
    ///
    /// The provided body runs `search_topk(batch, 1)`; implementations
    /// with a 1-slot path that allocates nothing per query override it.
    ///
    /// # Errors
    ///
    /// As [`Searchable::search_topk`], plus [`ServeError::Model`] when
    /// the model returns an empty slate.
    fn search_winners(&self, batch: Arc<QueryBatch>) -> Result<Vec<Winner>> {
        self.search_topk(batch, 1)?
            .iter()
            .map(|slate| slate.first().copied().ok_or_else(empty_slate))
            .collect()
    }

    /// Answers every query with its `min(k, rows)` best rows, sorted by
    /// score descending then row ascending.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `k == 0`,
    /// [`ServeError::DimensionMismatch`] when the batch width differs
    /// from [`Searchable::dim`], and [`ServeError::Model`] for
    /// model-internal failures.
    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> Result<Vec<Vec<Winner>>>;

    /// Shards this model has permanently lost, ascending. Non-empty
    /// means searches answer exactly over the *surviving* rows only —
    /// the server flags such answers with [`crate::Prediction::degraded`]
    /// rather than failing them. Must be monotone within one model
    /// instance: a shard reported missing stays missing. The default
    /// (for unsharded models) is "none".
    fn missing_shards(&self) -> Vec<usize> {
        Vec::new()
    }
}

/// The error for a slate with no entry to take the winner from.
pub(crate) fn empty_slate() -> ServeError {
    ServeError::Model { reason: "model returned an empty top-k slate".into() }
}

/// Wraps a lower layer's failure as a model error.
pub(crate) fn model_error(e: impl std::fmt::Display) -> ServeError {
    ServeError::Model { reason: e.to_string() }
}

fn check_dim(expected: usize, batch: &QueryBatch) -> Result<()> {
    if batch.dim() != expected {
        return Err(ServeError::DimensionMismatch { expected, found: batch.dim() });
    }
    Ok(())
}

pub(crate) fn check_topk(k: usize) -> Result<()> {
    if k == 0 {
        return Err(ServeError::InvalidConfig { reason: "top-k search requires k >= 1".into() });
    }
    Ok(())
}

/// Winners over a row store whose row `r` belongs to class `class(r)`,
/// through the 1-slot kernel.
fn memory_winners(
    memory: &SearchMemory,
    batch: &QueryBatch,
    class: impl Fn(usize) -> usize,
) -> Result<Vec<Winner>> {
    check_dim(memory.cols(), batch)?;
    let winners = memory.winners_batch(batch).map_err(model_error)?;
    Ok(winners.into_iter().map(|(row, score)| Winner { row, class: class(row), score }).collect())
}

/// The k-best slates over a row store whose row `r` belongs to class
/// `class(r)`, through the fused top-k sweep.
fn memory_topk(
    memory: &SearchMemory,
    batch: &QueryBatch,
    k: usize,
    class: impl Fn(usize) -> usize,
) -> Result<Vec<Vec<Winner>>> {
    check_topk(k)?;
    check_dim(memory.cols(), batch)?;
    let topk = memory.topk_batch(batch, k).map_err(model_error)?;
    Ok((0..topk.len())
        .map(|q| {
            topk.hits(q)
                .iter()
                .map(|&(row, score)| Winner { row, class: class(row), score })
                .collect()
        })
        .collect())
}

impl Searchable for SearchMemory {
    fn dim(&self) -> usize {
        self.cols()
    }

    fn rows(&self) -> usize {
        self.rows()
    }

    fn search_winners(&self, batch: Arc<QueryBatch>) -> Result<Vec<Winner>> {
        memory_winners(self, &batch, |row| row)
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> Result<Vec<Vec<Winner>>> {
        memory_topk(self, &batch, k, |row| row)
    }
}

impl Searchable for hdc::BinaryAm {
    fn dim(&self) -> usize {
        self.dim()
    }

    fn rows(&self) -> usize {
        self.num_centroids()
    }

    fn search_winners(&self, batch: Arc<QueryBatch>) -> Result<Vec<Winner>> {
        memory_winners(self.search_memory(), &batch, |row| self.class_of(row))
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> Result<Vec<Vec<Winner>>> {
        memory_topk(self.search_memory(), &batch, k, |row| self.class_of(row))
    }
}

impl Searchable for imc_sim::AmMapping {
    fn dim(&self) -> usize {
        self.dim()
    }

    fn rows(&self) -> usize {
        self.num_vectors()
    }

    fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> Result<Vec<Vec<Winner>>> {
        check_topk(k)?;
        check_dim(self.dim(), &batch)?;
        let stats = self.search_batch_topk(&batch, k).map_err(model_error)?;
        Ok(stats
            .hits
            .into_iter()
            .map(|slate| {
                slate
                    .into_iter()
                    .map(|h| Winner { row: h.row, class: h.class, score: h.score })
                    .collect()
            })
            .collect())
    }
}

/// Implements [`Searchable`] for a model by forwarding every call to the
/// associative memory it searches (`$memory` is the accessor).
macro_rules! forward_searchable {
    ($($ty:ty => $memory:ident),* $(,)?) => {$(
        impl Searchable for $ty {
            fn dim(&self) -> usize {
                Searchable::dim(self.$memory())
            }

            fn rows(&self) -> usize {
                Searchable::rows(self.$memory())
            }

            fn search_winners(&self, batch: Arc<QueryBatch>) -> Result<Vec<Winner>> {
                Searchable::search_winners(self.$memory(), batch)
            }

            fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> Result<Vec<Vec<Winner>>> {
                Searchable::search_topk(self.$memory(), batch, k)
            }
        }
    )*};
}

forward_searchable!(
    memhd::MemhdModel => binary_am,
    hd_baselines::BasicHdc => binary_am,
    hd_baselines::QuantHd => binary_am,
    hd_baselines::SearcHd => binary_am,
    hd_baselines::LeHdc => binary_am,
    imc_sim::FaultyAmMapping => as_mapping,
    imc_sim::ReplicatedAmMapping => majority_mapping,
);

#[cfg(test)]
mod tests {
    use super::*;
    use hd_linalg::{BitMatrix, BitVector, SearchMemory};

    fn bits(pattern: &[u8]) -> BitVector {
        BitVector::from_bools(&pattern.iter().map(|&b| b == 1).collect::<Vec<_>>())
    }

    #[test]
    fn search_memory_adapter_uses_row_as_class() {
        let mem = SearchMemory::from_rows(&[bits(&[1, 1, 0, 0]), bits(&[0, 0, 1, 1])]).unwrap();
        let batch = Arc::new(
            QueryBatch::from_vectors(&[bits(&[0, 0, 1, 1]), bits(&[1, 1, 0, 0])]).unwrap(),
        );
        let winners = mem.search_winners(batch).unwrap();
        assert_eq!(winners[0], Winner { row: 1, class: 1, score: 2 });
        assert_eq!(winners[1], Winner { row: 0, class: 0, score: 2 });
    }

    #[test]
    fn binary_am_adapter_maps_classes() {
        let am = hdc::BinaryAm::from_centroids(
            2,
            vec![(1, bits(&[1, 1, 0, 0])), (0, bits(&[0, 0, 1, 1]))],
        )
        .unwrap();
        let batch = Arc::new(QueryBatch::from_vectors(&[bits(&[1, 1, 0, 0])]).unwrap());
        let winners = Searchable::search_winners(&am, batch).unwrap();
        assert_eq!(winners[0], Winner { row: 0, class: 1, score: 2 });
        assert_eq!(Searchable::dim(&am), 4);
        assert_eq!(Searchable::rows(&am), 2);
    }

    #[test]
    fn adapters_agree_on_topk_and_default_winners_take_the_first_entry() {
        let mem = SearchMemory::from_rows(&[
            bits(&[1, 1, 0, 0]),
            bits(&[0, 0, 1, 1]),
            bits(&[1, 1, 0, 0]),
        ])
        .unwrap();
        let batch = Arc::new(QueryBatch::from_vectors(&[bits(&[1, 1, 1, 0])]).unwrap());
        // SearchMemory adapter: rows double as classes; duplicate rows
        // tie and order by row index.
        let lists = Searchable::search_topk(&mem, Arc::clone(&batch), 3).unwrap();
        assert_eq!(
            lists[0],
            vec![
                Winner { row: 0, class: 0, score: 2 },
                Winner { row: 2, class: 2, score: 2 },
                Winner { row: 1, class: 1, score: 1 },
            ]
        );
        assert!(Searchable::search_topk(&mem, Arc::clone(&batch), 0).is_err());

        // A foreign top-k-only implementation gets its winners from the
        // provided k=1 view: each slate's first entry.
        struct TopKOnly(SearchMemory);
        impl Searchable for TopKOnly {
            fn dim(&self) -> usize {
                self.0.cols()
            }
            fn rows(&self) -> usize {
                self.0.rows()
            }
            fn search_topk(&self, batch: Arc<QueryBatch>, k: usize) -> Result<Vec<Vec<Winner>>> {
                Searchable::search_topk(&self.0, batch, k)
            }
        }
        let foreign = TopKOnly(mem.clone());
        assert_eq!(
            foreign.search_winners(Arc::clone(&batch)).unwrap(),
            vec![Winner { row: 0, class: 0, score: 2 }]
        );
        assert_eq!(foreign.search_topk(Arc::clone(&batch), 2).unwrap()[0], lists[0][..2]);

        // An empty slate has no winner: a typed model error, never an
        // index panic.
        struct EmptySlates;
        impl Searchable for EmptySlates {
            fn dim(&self) -> usize {
                4
            }
            fn rows(&self) -> usize {
                1
            }
            fn search_topk(&self, batch: Arc<QueryBatch>, _k: usize) -> Result<Vec<Vec<Winner>>> {
                Ok(vec![Vec::new(); batch.len()])
            }
        }
        assert!(matches!(EmptySlates.search_winners(batch), Err(ServeError::Model { .. })));
    }

    #[test]
    fn mapping_adapter_topk_matches_am_topk() {
        use hd_linalg::rng::seeded;
        use rand::Rng;
        let mut rng = seeded(9);
        let centroids: Vec<(usize, BitVector)> = (0..6)
            .map(|v| {
                let b: Vec<bool> = (0..96).map(|_| rng.gen()).collect();
                (v % 3, BitVector::from_bools(&b))
            })
            .collect();
        let am = hdc::BinaryAm::from_centroids(3, centroids).unwrap();
        let queries: Vec<BitVector> = (0..5)
            .map(|_| BitVector::from_bools(&(0..96).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect();
        let batch = Arc::new(QueryBatch::from_vectors(&queries).unwrap());
        for strategy in [
            imc_sim::MappingStrategy::Basic,
            imc_sim::MappingStrategy::Partitioned { partitions: 2 },
        ] {
            let mapping =
                imc_sim::AmMapping::new(&am, imc_sim::ArraySpec::default(), strategy).unwrap();
            for k in [1usize, 4, 8] {
                assert_eq!(
                    mapping.search_topk(Arc::clone(&batch), k).unwrap(),
                    Searchable::search_topk(&am, Arc::clone(&batch), k).unwrap(),
                    "mapped top-k must stay bit-exact against the software AM"
                );
            }
        }
    }

    #[test]
    fn dimension_mismatch_reported() {
        let mem = SearchMemory::new(BitMatrix::zeros(2, 8));
        let batch = Arc::new(QueryBatch::from_vectors(&[BitVector::zeros(9)]).unwrap());
        assert_eq!(
            mem.search_winners(batch),
            Err(ServeError::DimensionMismatch { expected: 8, found: 9 })
        );
    }

    #[test]
    fn mapping_adapter_matches_am_search() {
        use hd_linalg::rng::seeded;
        use rand::Rng;
        let mut rng = seeded(5);
        let centroids: Vec<(usize, BitVector)> = (0..6)
            .map(|v| {
                let b: Vec<bool> = (0..96).map(|_| rng.gen()).collect();
                (v % 3, BitVector::from_bools(&b))
            })
            .collect();
        let am = hdc::BinaryAm::from_centroids(3, centroids).unwrap();
        let mapping = imc_sim::AmMapping::new(
            &am,
            imc_sim::ArraySpec::default(),
            imc_sim::MappingStrategy::Partitioned { partitions: 2 },
        )
        .unwrap();
        let queries: Vec<BitVector> = (0..5)
            .map(|_| BitVector::from_bools(&(0..96).map(|_| rng.gen()).collect::<Vec<_>>()))
            .collect();
        let batch = Arc::new(QueryBatch::from_vectors(&queries).unwrap());
        assert_eq!(
            mapping.search_winners(Arc::clone(&batch)).unwrap(),
            Searchable::search_winners(&am, batch).unwrap(),
            "mapped search must stay bit-exact against the software AM"
        );
        assert_eq!(Searchable::rows(&mapping), 6);
    }
}

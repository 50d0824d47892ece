//! The winner is the k=1 view of the k-best slate, for every
//! `Searchable` in the workspace: `search_winners(b)[q]` equals the first
//! entry of `search_topk(b, k)[q]` for every k, and slates are
//! prefix-monotone in k (the k-best list is a prefix of the (k+1)-best).

use hd_linalg::rng::seeded;
use hd_linalg::{BitVector, CascadePlan, QueryBatch};
use hd_serve::{Searchable, ShardedSearcher, Winner};
use imc_sim::{
    AmMapping, ArraySpec, FaultModel, FaultyAmMapping, MappingStrategy, ReplicatedAmMapping,
};
use rand::Rng;
use std::sync::Arc;

const DIM: usize = 192;
const ROWS: usize = 53;

fn random_vectors(n: usize, seed: u64) -> Vec<BitVector> {
    let mut rng = seeded(seed);
    (0..n)
        .map(|_| BitVector::from_bools(&(0..DIM).map(|_| rng.gen()).collect::<Vec<_>>()))
        .collect()
}

fn random_am(seed: u64) -> hdc::BinaryAm {
    let centroids = random_vectors(ROWS, seed).into_iter().enumerate().map(|(r, v)| (r % 7, v));
    hdc::BinaryAm::from_centroids(7, centroids.collect()).unwrap()
}

/// Every model under test, by name. The degraded searcher has already
/// lost shard 0 when it is returned, so every call below answers over the
/// same surviving rows.
fn models() -> Vec<(String, Box<dyn Searchable>)> {
    let am = random_am(1);
    let memory = am.search_memory().clone();
    let classes = am.class_labels().to_vec();
    let mut models: Vec<(String, Box<dyn Searchable>)> = vec![
        ("SearchMemory".into(), Box::new(memory.clone())),
        ("BinaryAm".into(), Box::new(am.clone())),
    ];
    for strategy in [MappingStrategy::Basic, MappingStrategy::Partitioned { partitions: 2 }] {
        let mapping = AmMapping::new(&am, ArraySpec::default(), strategy).unwrap();
        models.push((format!("AmMapping {strategy:?}"), Box::new(mapping)));
    }
    let ideal = AmMapping::new(&am, ArraySpec::default(), MappingStrategy::Basic).unwrap();
    let faulty = FaultyAmMapping::program(&ideal, FaultModel::bit_flip(0.1), 7).unwrap();
    models.push(("FaultyAmMapping BER 0.1".into(), Box::new(faulty)));
    let replicated = ReplicatedAmMapping::program(&ideal, FaultModel::bit_flip(0.1), 3, 8).unwrap();
    models.push(("ReplicatedAmMapping R=3".into(), Box::new(replicated)));
    for shards in [1usize, 2, 3] {
        let exact = ShardedSearcher::new(memory.clone(), classes.clone(), shards).unwrap();
        models.push((format!("ShardedSearcher {shards} exact"), Box::new(exact)));
        let plan = CascadePlan::prefix(DIM, 64).unwrap();
        let cascade =
            ShardedSearcher::with_cascade(memory.clone(), classes.clone(), shards, plan).unwrap();
        models.push((format!("ShardedSearcher {shards} prefix"), Box::new(cascade)));
    }
    let degraded = ShardedSearcher::new(memory, classes, 2).unwrap();
    assert_eq!(degraded.num_shards(), 2);
    degraded.inject_shard_panics(0, 100).unwrap();
    let probe = Arc::new(QueryBatch::from_vectors(&random_vectors(1, 99)).unwrap());
    degraded.search_winners(probe).unwrap();
    assert_eq!(degraded.missing_shards(), vec![0]);
    models.push(("ShardedSearcher 2 degraded".into(), Box::new(degraded)));
    models
}

#[test]
fn winners_are_the_first_entry_of_every_slate() {
    let batch = Arc::new(QueryBatch::from_vectors(&random_vectors(17, 2)).unwrap());
    for (name, model) in models() {
        let rows = model.rows();
        let winners = model.search_winners(Arc::clone(&batch)).unwrap();
        assert_eq!(winners.len(), batch.len(), "{name}");
        let mut previous: Option<Vec<Vec<Winner>>> = None;
        for k in [1usize, 2, 5, rows, rows + 3] {
            let slates = model.search_topk(Arc::clone(&batch), k).unwrap();
            assert_eq!(slates.len(), batch.len(), "{name} k {k}");
            for (q, slate) in slates.iter().enumerate() {
                assert!(!slate.is_empty() && slate.len() <= k, "{name} k {k} query {q}");
                if model.missing_shards().is_empty() {
                    assert_eq!(slate.len(), k.min(rows), "{name} k {k} query {q}");
                }
                assert_eq!(slate[0], winners[q], "{name} k {k} query {q}");
                if let Some(shorter) = &previous {
                    assert_eq!(&slate[..shorter[q].len()], &shorter[q][..], "{name} k {k} q {q}");
                }
            }
            previous = Some(slates);
        }
    }
}

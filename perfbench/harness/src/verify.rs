//! Checks every served response against an in-process `KorEngine` on
//! the same world and epoch, after the timed window.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use kor::graph::Graph;
use kor::json::JsonValue;

use crate::client::Sample;
use crate::engine::{classify, kor_query, search, served_answer, Answer, Engine, Served};
use crate::workload::{Op, Plan};

/// Outcome counts over a set of served requests.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    pub attempted: u64,
    /// Answered `ok` and equal to the engine's answer.
    pub verified: u64,
    /// `ok` answers that differ from the engine (or are malformed).
    pub wrong: u64,
    /// Structured errors, `overloaded` included.
    pub errors: u64,
    pub overloaded: u64,
    /// Never answered within the phase's grace period.
    pub timeouts: u64,
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.wrong + self.errors + self.timeouts
    }
}

/// Verifies `samples` (any phases, any epochs). `known` holds answers
/// the caller already computed in-process, keyed by (query, epoch);
/// `warm` is an epoch-0 engine to reuse for the rest.
pub fn verify(
    plan: &Plan,
    graph0: &Arc<Graph>,
    samples: &[&Sample],
    known: &HashMap<(usize, u64), Answer>,
    warm: Option<Engine>,
) -> Verdict {
    let mut v = Verdict::default();
    let mut reads: Vec<(usize, Answer)> = Vec::new();
    for s in samples {
        v.attempted += 1;
        let Some(_) = s.answered else {
            v.timeouts += 1;
            continue;
        };
        match (classify(&s.response), s.op) {
            (Served::Ok(result), Op::Read(i)) => match served_answer(&result) {
                Some(a) => reads.push((i, a)),
                None => v.wrong += 1,
            },
            (Served::Ok(result), Op::Update(b)) => {
                let epoch = result.get("epoch").and_then(JsonValue::as_u64);
                if epoch == Some(b as u64 + 1) {
                    v.verified += 1;
                } else {
                    v.wrong += 1;
                }
            }
            (Served::Error(code), _) => {
                v.errors += 1;
                if code == "overloaded" {
                    v.overloaded += 1;
                }
            }
            (Served::Garbled, _) => v.wrong += 1,
        }
    }

    let mut todo: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, a) in &reads {
        if !known.contains_key(&(*i, a.epoch)) {
            todo.entry(a.epoch).or_default().push(*i);
        }
    }
    let mut computed: HashMap<(usize, u64), Answer> = HashMap::new();
    let mut chain = warm.unwrap_or_else(|| Engine::new(graph0.clone()));
    assert_eq!(chain.graph().epoch(), 0, "verification starts at epoch 0");
    for (epoch, mut idxs) in todo {
        while chain.graph().epoch() < epoch {
            let b = chain.graph().epoch() as usize;
            let Some(batch) = plan.script.get(b) else {
                break;
            };
            chain = chain
                .apply_edge_mutations(batch)
                .expect("the script applies in order")
                .0;
        }
        if chain.graph().epoch() != epoch {
            continue; // an epoch the script never produced: left wrong
        }
        idxs.sort_unstable();
        idxs.dedup();
        let engine = &chain;
        let parts: Vec<Vec<(usize, Answer)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let idxs = &idxs;
                    s.spawn(move || {
                        idxs.iter()
                            .skip(t)
                            .step_by(2)
                            .map(|&i| {
                                let q = kor_query(engine.graph(), &plan.queries[i]);
                                (i, search(engine, &q, plan.queries[i].algo).0)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("verification thread panicked"))
                .collect()
        });
        for (i, a) in parts.into_iter().flatten() {
            computed.insert((i, epoch), a);
        }
    }
    for (i, a) in reads {
        let expected = known
            .get(&(i, a.epoch))
            .or_else(|| computed.get(&(i, a.epoch)));
        if expected == Some(&a) {
            v.verified += 1;
        } else {
            v.wrong += 1;
        }
    }
    v
}

//! The in-process side: running a query through `KorEngine` exactly as
//! the server's handler does, and comparing served answers with it.

use std::sync::Arc;

use kor::core::{
    BucketBoundParams, GreedyParams, KorEngine, KorQuery, OsScalingParams, RouteResult, SearchStats,
};
use kor::graph::{Graph, NodeId};
use kor::json::JsonValue;

use crate::workload::{Algo, Query};

pub type Engine = KorEngine<Arc<Graph>>;

/// One route as the wire reports it: node ids and the exact bits of
/// its objective and budget scores.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RouteKey {
    pub nodes: Vec<u32>,
    pub objective: u64,
    pub budget: u64,
}

impl RouteKey {
    fn of(r: &RouteResult) -> RouteKey {
        RouteKey {
            nodes: r.route.nodes().iter().map(|n| n.0).collect(),
            objective: r.objective.to_bits(),
            budget: r.budget.to_bits(),
        }
    }
}

/// A query answer: which graph epoch produced it and its routes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Answer {
    pub epoch: u64,
    pub routes: Vec<RouteKey>,
}

pub fn kor_query(graph: &Graph, q: &Query) -> KorQuery {
    KorQuery::from_terms(
        graph,
        NodeId(q.from),
        NodeId(q.to),
        q.keywords.iter(),
        q.budget,
    )
    .expect("generated queries use known nodes and keywords")
}

/// Runs `query` with the handler's default knobs. Label searches also
/// return their [`SearchStats`].
pub fn search(engine: &Engine, query: &KorQuery, algo: Algo) -> (Answer, Option<SearchStats>) {
    let (routes, stats): (Vec<RouteResult>, Option<SearchStats>) = match algo {
        Algo::OsScaling => {
            let r = engine
                .os_scaling(query, &OsScalingParams::default())
                .expect("os-scaling runs without a deadline");
            (r.route.into_iter().collect(), Some(r.stats))
        }
        Algo::BucketBound => {
            let r = engine
                .bucket_bound(query, &BucketBoundParams::default())
                .expect("bucket-bound runs without a deadline");
            (r.route.into_iter().collect(), Some(r.stats))
        }
        Algo::OsScalingK3 => {
            let r = engine
                .top_k_os_scaling(query, &OsScalingParams::default(), 3)
                .expect("top-k runs without a deadline");
            (r.routes, Some(r.stats))
        }
        Algo::Greedy => {
            let g = engine
                .greedy(query, &GreedyParams::default())
                .expect("greedy runs without a deadline");
            let routes = g
                .map(|g| RouteResult {
                    route: g.route,
                    objective: g.objective,
                    budget: g.budget,
                })
                .into_iter()
                .collect();
            (routes, None)
        }
    };
    let answer = Answer {
        epoch: engine.graph().epoch(),
        routes: routes.iter().map(RouteKey::of).collect(),
    };
    (answer, stats)
}

/// How a served response ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Served {
    Ok(JsonValue),
    /// `ok: false`, with the error code.
    Error(String),
    /// Not a response the protocol allows.
    Garbled,
}

pub fn classify(line: &str) -> Served {
    let Ok(v) = JsonValue::parse(line) else {
        return Served::Garbled;
    };
    match v.get("ok").and_then(JsonValue::as_bool) {
        Some(true) => match v.get("result") {
            Some(r) => Served::Ok(r.clone()),
            None => Served::Garbled,
        },
        Some(false) => Served::Error(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_str)
                .unwrap_or("?")
                .to_string(),
        ),
        None => Served::Garbled,
    }
}

/// The answer carried by a successful `query` result.
pub fn served_answer(result: &JsonValue) -> Option<Answer> {
    let epoch = result.get("epoch")?.as_u64()?;
    let routes = result
        .get("routes")?
        .as_arr()?
        .iter()
        .map(|r| {
            Some(RouteKey {
                nodes: r
                    .get("nodes")?
                    .as_arr()?
                    .iter()
                    .map(|n| n.as_u64().map(|n| n as u32))
                    .collect::<Option<_>>()?,
                objective: r.get("objective")?.as_f64()?.to_bits(),
                budget: r.get("budget")?.as_f64()?.to_bits(),
            })
        })
        .collect::<Option<_>>()?;
    Some(Answer { epoch, routes })
}

/// FNV-1a over answers in request order: the run's result digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn add(&mut self, idx: usize, a: &Answer) {
        self.word(idx as u64);
        self.word(a.epoch);
        self.word(a.routes.len() as u64);
        for r in &a.routes {
            self.word(r.nodes.len() as u64);
            for &n in &r.nodes {
                self.word(u64::from(n));
            }
            self.word(r.objective);
            self.word(r.budget);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

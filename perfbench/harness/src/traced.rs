//! The traced run (`--trace 1`): per-layer numbers. It replays the
//! workload's seeded stream in-process on one thread with spans around
//! every public call it makes into a layer, and probes the server at
//! the lowest ladder rate for the serve layer's share.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use kor::apsp::QueryContext;
use kor::core::OsScalingParams;
use kor::data::journal::{graph_digest, Journal};
use kor::graph::{Graph, NodeId};
use kor::index::InvertedIndex;
use kor::json::JsonValue;
use kor::serve::protocol::parse_request;

use crate::client::{self, Sample, Server};
use crate::engine::{kor_query, search, Answer, Digest, Engine};
use crate::stats::{median, pct, ratio, Metrics};
use crate::trace::Tracer;
use crate::untraced::render;
use crate::verify::verify;
use crate::workload::{Algo, Event, Op, Plan, CHUNKS};
use crate::Outcome;

/// Repeats for the one-off timings (snapshot read, index build, lazy
/// dataset set-up); medians are reported.
const REPEATS: usize = 5;
/// Distinct targets timed for `QueryContext::new`.
const CONTEXT_SAMPLES: usize = 32;

/// Per-read measurements of the traced replay.
#[derive(Default)]
struct Layers {
    ctx: (u64, u64),
    reach: (u64, u64),
    opt2: (u64, u64),
    ctx_build_ms: Vec<f64>,
    parse_us: Vec<f64>,
    request_us: HashMap<usize, f64>,
    search_us: HashMap<Algo, Vec<f64>>,
    labels_created: u64,
    labels_expanded: u64,
    label_searches: u64,
    apply_ms: Vec<f64>,
    append_ms: Vec<f64>,
    retained: usize,
    evicted: usize,
}

fn hit(counter: &mut (u64, u64), was_hit: bool) {
    counter.0 += u64::from(was_hit);
    counter.1 += 1;
}

/// Plays `events` through `engine`, tracing every layer call.
fn replay_traced(
    plan: &Plan,
    mut engine: Engine,
    events: &[Event],
    tracer: &mut Tracer,
    journal: &mut Journal,
    layers: &mut Layers,
    digest: &mut Digest,
) -> Engine {
    let threshold = OsScalingParams::default().infrequent_threshold;
    for e in events {
        match e.op {
            Op::Read(i) => {
                let line = render(plan, e.op);
                let id = i as u64;
                let root = tracer.enter("request", id);
                let s = tracer.enter("serve.parse", id);
                parse_request(&line).expect("generated requests parse");
                layers.parse_us.push(tracer.exit(s).micros());
                // Resolving node ids and keyword terms against the graph.
                let s = tracer.enter("serve.validate", id);
                let algo = plan.queries[i].algo;
                let q = kor_query(engine.graph(), &plan.queries[i]);
                tracer.exit(s);

                let graph = engine.graph();
                let cache = engine.preprocess_cache();
                let s = tracer.enter("prep.context", id);
                let (ctx, was_hit) = cache.context(graph, q.target);
                let span = tracer.exit(s);
                hit(&mut layers.ctx, was_hit);
                if !was_hit {
                    layers.ctx_build_ms.push(span.micros() / 1e3);
                }
                if algo != Algo::Greedy {
                    for &kw in q.keywords.ids() {
                        let s = tracer.enter("prep.reach", id);
                        let (_, was_hit) = cache.reach_tree(graph, kw, engine.index().postings(kw));
                        tracer.exit(s);
                        hit(&mut layers.reach, was_hit);
                    }
                    if let Some((kw, df)) = engine.index().least_frequent(q.keywords.ids()) {
                        if (df as f64) / (graph.node_count() as f64) < threshold {
                            let s = tracer.enter("prep.opt2", id);
                            let (_, was_hit) = cache.opt2_trees(graph, engine.index(), &ctx, kw);
                            tracer.exit(s);
                            hit(&mut layers.opt2, was_hit);
                        }
                    }
                }
                let s = tracer.enter(search_span(algo), id);
                let (answer, stats) = search(&engine, &q, algo);
                layers
                    .search_us
                    .entry(algo)
                    .or_default()
                    .push(tracer.exit(s).micros());
                if let Some(st) = stats {
                    layers.labels_created += st.labels_created;
                    layers.labels_expanded += st.labels_expanded;
                    layers.label_searches += 1;
                }
                layers.request_us.insert(i, tracer.exit(root).micros());
                digest.add(i, &answer);
            }
            Op::Update(b) => {
                let batch = &plan.script[b];
                let id = b as u64;
                let root = tracer.enter("update", id);
                // Write-ahead, as the server does: append, then apply.
                let s = tracer.enter("data.journal_append", id);
                journal
                    .append(engine.graph().epoch() + 1, batch)
                    .expect("journal append");
                layers.append_ms.push(tracer.exit(s).micros() / 1e3);
                let s = tracer.enter("mutate.apply", id);
                let (next, report) = engine
                    .apply_edge_mutations(batch)
                    .expect("the script applies in order");
                layers.apply_ms.push(tracer.exit(s).micros() / 1e3);
                tracer.exit(root);
                layers.retained += report.total_retained();
                layers.evicted += report.total_evicted();
                engine = next;
            }
        }
    }
    engine
}

fn search_span(algo: Algo) -> &'static str {
    match algo {
        Algo::OsScaling => "search.os-scaling",
        Algo::BucketBound => "search.bucket-bound",
        Algo::OsScalingK3 => "search.os-scaling-k3",
        Algo::Greedy => "search.greedy",
    }
}

/// The same events with no tracing: the untraced engine figure.
fn replay_plain(
    plan: &Plan,
    mut engine: Engine,
    events: &[Event],
    digest: &mut Digest,
) -> (Engine, usize) {
    let mut reads = 0;
    for e in events {
        match e.op {
            Op::Read(i) => {
                let q = kor_query(engine.graph(), &plan.queries[i]);
                digest.add(i, &search(&engine, &q, plan.queries[i].algo).0);
                reads += 1;
            }
            Op::Update(b) => {
                engine = engine
                    .apply_edge_mutations(&plan.script[b])
                    .expect("the script applies in order")
                    .0;
            }
        }
    }
    (engine, reads)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64() * 1e3)
}

pub fn run(plan: &Plan, kor: &Path, world: &Path, out: &Path) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let mut notes = Vec::new();

    // kor-data and kor-index: what every server start pays.
    let mut read_ms = Vec::new();
    let mut index_ms = Vec::new();
    let mut graph0: Option<Arc<Graph>> = None;
    for _ in 0..REPEATS {
        let (w, ms) = timed(|| kor::data::read_world_auto(world));
        read_ms.push(ms);
        let g = Arc::new(w.map_err(|e| format!("read world: {e}"))?.graph);
        let (_, ms) = timed(|| InvertedIndex::build(&g));
        index_ms.push(ms);
        graph0 = Some(g);
    }
    let graph0 = graph0.expect("REPEATS ≥ 1");

    // serve: the lowest ladder rate against the real server.
    let lowest = &plan.ladder[0];
    let line = |op: Op| render(plan, op);
    let server = Server::spawn(kor, world)?;
    let mut warm_answers = Vec::new();
    crate::untraced::warm(plan, CHUNKS, &server, &mut warm_answers)?;
    let served = client::run_phase(&server.addr, &lowest.events, &line)?;
    let stats = crate::client::stats(&server)?;
    server.stop();
    let overloaded = stats
        .get("server")
        .and_then(|s| s.get("overloaded"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    let late: Vec<f64> = served.iter().map(Sample::late_ms).collect();
    let rtt: Vec<f64> = served
        .iter()
        .filter(|s| matches!(s.op, Op::Read(_)))
        .filter_map(Sample::rtt_us)
        .collect();

    // The stream: the first reference stretch, then the write probe
    // (read-only workloads), and the lowest ladder step.
    let reference = &plan.reference[0].events;
    let journal_dir = out.join("trace-journal");
    let _ = std::fs::remove_dir_all(&journal_dir);
    std::fs::create_dir_all(&journal_dir).map_err(|e| format!("create journal dir: {e}"))?;
    let journal_at = |name: &str| {
        Journal::create(&journal_dir.join(name), 0, graph_digest(&graph0))
            .map_err(|e| format!("create journal: {e}"))
    };
    // A fresh engine that has answered server `lifetime`'s warm-up, as
    // each server starts its timed traffic.
    let warmed = |lifetime: usize| {
        let warmup: Vec<Event> = plan.warmup[lifetime]
            .iter()
            .map(|&i| Event {
                at: 0.0,
                op: Op::Read(i),
            })
            .collect();
        let engine = Engine::new(graph0.clone());
        replay_plain(plan, engine, &warmup, &mut Digest::default()).0
    };

    // Tracing overhead: the stretch untraced and traced in turn; the
    // fastest of each side counts.
    let (mut plain_s, mut traced_s) = (f64::INFINITY, f64::INFINITY);
    let (mut plain_digest, mut traced_digest) = (Digest::default(), Digest::default());
    let mut plain_reads = 0;
    for k in 0..REPEATS {
        let engine = warmed(0);
        plain_digest = Digest::default();
        let t0 = Instant::now();
        plain_reads = replay_plain(plan, engine, reference, &mut plain_digest).1;
        plain_s = plain_s.min(t0.elapsed().as_secs_f64());

        let engine = warmed(0);
        let mut journal = journal_at(&format!("overhead-{k}.korj"))?;
        traced_digest = Digest::default();
        let t0 = Instant::now();
        replay_traced(
            plan,
            engine,
            reference,
            &mut Tracer::new(),
            &mut journal,
            &mut Layers::default(),
            &mut traced_digest,
        );
        traced_s = traced_s.min(t0.elapsed().as_secs_f64());
    }
    if plain_digest.hex() != traced_digest.hex() {
        return Err("tracing changed the answers".into());
    }
    let (plain_qps, traced_qps) = (plain_reads as f64 / plain_s, plain_reads as f64 / traced_s);

    // The traced replay proper, one engine per server lifetime: the
    // stretch and then the write probe, and the lowest ladder step.
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut journal = journal_at("stretch.korj")?;
    let engine = warmed(0);
    let before = engine.preprocess_stats();
    let engine = replay_traced(
        plan,
        engine,
        reference,
        &mut tracer,
        &mut journal,
        &mut layers,
        &mut Digest::default(),
    );
    let after = engine.preprocess_stats();
    let stretch_reads = layers.request_us.len() as f64;
    let pair_trees = engine.cached_tree_count();
    replay_traced(
        plan,
        engine,
        &plan.probe.events,
        &mut tracer,
        &mut journal,
        &mut layers,
        &mut Digest::default(),
    );
    let mut journal = journal_at("lowest.korj")?;
    let engine = replay_traced(
        plan,
        warmed(CHUNKS),
        &lowest.events,
        &mut tracer,
        &mut journal,
        &mut layers,
        &mut Digest::default(),
    );
    let lowest_epoch = engine.graph().epoch();
    drop(engine);

    // Served answers of the probe, checked like the measured run's.
    let known: HashMap<(usize, u64), Answer> = HashMap::new();
    let refs: Vec<&Sample> = warm_answers.iter().chain(&served).collect();
    let checked = verify(plan, &graph0, &refs, &known, None);

    // kor-apsp: cold context trees, and the lazy dataset-level set-up
    // the first label search on a fresh engine pays.
    let mut targets: Vec<u32> = Vec::new();
    for i in plan.reference[0].reads() {
        let t = plan.queries[i].to;
        if !targets.contains(&t) {
            targets.push(t);
        }
        if targets.len() == CONTEXT_SAMPLES {
            break;
        }
    }
    let context_ms: Vec<f64> = targets
        .iter()
        .map(|&t| timed(|| QueryContext::new(&graph0, NodeId(t))).1)
        .collect();
    let first_label = plan.reference[0]
        .reads()
        .find(|&i| plan.queries[i].algo != Algo::Greedy)
        .ok_or("no label search in the reference window")?;
    // Each search is timed twice on a fresh engine, after the replay
    // pre-warmed its own trees: the difference is the dataset-level
    // work the first search pays once.
    let first_event = [Event {
        at: 0.0,
        op: Op::Read(first_label),
    }];
    let mut lazy_ms = Vec::new();
    for _ in 0..REPEATS {
        let mut lazy_layers = Layers::default();
        let mut t = Tracer::new();
        let mut d = Digest::default();
        let engine = Engine::new(graph0.clone());
        let engine = replay_traced(
            plan,
            engine,
            &first_event,
            &mut t,
            &mut journal,
            &mut lazy_layers,
            &mut d,
        );
        replay_traced(
            plan,
            engine,
            &first_event,
            &mut t,
            &mut journal,
            &mut lazy_layers,
            &mut d,
        );
        let us = &lazy_layers.search_us[&plan.queries[first_label].algo];
        lazy_ms.push((us[0] - us[1]) / 1e3);
    }

    tracer
        .write(&out.join("spans.tsv"))
        .map_err(|e| format!("write spans: {e}"))?;

    // serve
    let lowest_us: Vec<f64> = lowest
        .reads()
        .filter_map(|i| layers.request_us.get(&i).copied())
        .collect();
    m.put(
        "serve.overhead_us_p50",
        median(&rtt) - median(&lowest_us),
        "us",
    );
    m.put("serve.rtt_us_p50", median(&rtt), "us");
    m.put("serve.parse_us_p50", median(&layers.parse_us), "us");
    m.put("serve.overloaded", overloaded, "count");
    m.put("loadgen.late_ms_p99", pct(&late, 0.99), "ms");
    // prep cache
    let rate = |c: (u64, u64)| ratio(c.0 as f64, c.1 as f64);
    m.put("prep.ctx_hit_rate", rate(layers.ctx), "ratio");
    m.put("prep.opt2_hit_rate", rate(layers.opt2), "ratio");
    m.put(
        "prep.opt2_lookups_per_query",
        layers.opt2.1 as f64 / layers.request_us.len() as f64,
        "count",
    );
    m.put("prep.reach_hit_rate", rate(layers.reach), "ratio");
    m.put("prep.ctx_build_ms_p50", median(&layers.ctx_build_ms), "ms");
    m.put(
        "prep.trees_built_per_query",
        (after.trees_built - before.trees_built) as f64 / stretch_reads,
        "count",
    );
    m.put(
        "prep.evictions_per_query",
        (after.evictions - before.evictions) as f64 / stretch_reads,
        "count",
    );
    // apsp
    m.put("apsp.context_tree_ms_p50", median(&context_ms), "ms");
    m.put("apsp.lazy_setup_ms", median(&lazy_ms), "ms");
    m.put("pair.cached_trees", pair_trees as f64, "count");
    // search
    for algo in Algo::ALL {
        let us = layers.search_us.get(&algo).cloned().unwrap_or_default();
        m.put(format!("search.us_p50.{}", algo.label()), median(&us), "us");
        m.put(
            format!("search.us_p99.{}", algo.label()),
            pct(&us, 0.99),
            "us",
        );
    }
    let searches = layers.label_searches as f64;
    m.put(
        "search.labels_created_per_query",
        ratio(layers.labels_created as f64, searches),
        "count",
    );
    m.put(
        "search.labels_expanded_per_query",
        ratio(layers.labels_expanded as f64, searches),
        "count",
    );
    m.put(
        "search.useful_ratio",
        ratio(layers.labels_expanded as f64, layers.labels_created as f64),
        "ratio",
    );
    // mutate, data, index
    m.put("mutate.apply_ms_p50", median(&layers.apply_ms), "ms");
    m.put(
        "mutate.retained_share",
        ratio(
            layers.retained as f64,
            (layers.retained + layers.evicted) as f64,
        ),
        "ratio",
    );
    m.put("data.snapshot_read_ms", median(&read_ms), "ms");
    m.put("index.build_ms", median(&index_ms), "ms");
    m.put(
        "data.journal_append_ms_p50",
        median(&layers.append_ms),
        "ms",
    );
    m.put("engine_qps", plain_qps, "1/s");
    m.put("engine_qps_traced", traced_qps, "1/s");
    m.put(
        "trace.overhead_pct",
        (plain_qps / traced_qps - 1.0) * 100.0,
        "%",
    );

    notes.push(format!(
        "traced replay: {} reads + {} batches on one thread, {} spans in spans.tsv; \
         engine_qps untraced {plain_qps:.1}, traced {traced_qps:.1} (fastest of {REPEATS} each): tracing overhead {:.2}%",
        layers.request_us.len(),
        layers.apply_ms.len(),
        tracer.spans().len(),
        (plain_qps / traced_qps - 1.0) * 100.0
    ));
    for (name, t) in tracer.totals() {
        notes.push(format!(
            "span {name}: {} calls, total {:.1} ms, self {:.1} ms",
            t.count,
            t.total_us / 1e3,
            t.self_us / 1e3
        ));
    }
    notes.push(format!(
        "serve probe at {} q/s: {} responses checked, {} wrong; engine at epoch {lowest_epoch} after it; \
         stretch digest {}",
        lowest.rate,
        checked.attempted,
        checked.wrong,
        traced_digest.hex()
    ));
    Ok(Outcome {
        correct: checked.wrong == 0,
        attempted: checked.attempted,
        failed: checked.failed(),
        metrics: m,
        notes,
    })
}

//! The `.korbin` versioned binary snapshot format.
//!
//! One file carries a whole *world* — the CSR graph, the keyword
//! postings, and optional canned query sets — so a single artifact feeds
//! every front end (`kor gen` → `kor serve` / `kor batch` / `kor bench`)
//! without re-parsing text or re-deriving workloads. Loading is O(V + E)
//! straight into [`Graph::from_csr_parts`], which re-validates every
//! builder invariant, so a corrupt file can never produce a graph the
//! rest of the system could not have built.
//!
//! # Layout (all integers and floats little-endian)
//!
//! ```text
//! magic    8 bytes  b"KORBIN\r\n"   (the \r\n catches text-mode mangling)
//! version  u32      currently 1
//! sections u32      section count
//! section  ×N       tag [u8;4] · payload_len u64 · payload · crc32 u32
//! ```
//!
//! Sections, in fixed order (unknown tags are rejected):
//!
//! | tag    | payload |
//! |--------|---------|
//! | `GRPH` | `node_count u32 · edge_count u32 · has_positions u8 · out_offsets (n+1)×u32 · out_targets m×u32 · out_objective m×f64 · out_budget m×f64 · positions n×(f64,f64) if flagged` |
//! | `VOCB` | `term_count u32 · (len u32 · UTF-8 bytes) × terms` (id order) |
//! | `POST` | `node_count u32 · (count u32 · keyword_id u32 × count) × nodes` |
//! | `QRYS` | `set_count u32 · (keyword_count u32 · n u32 · (source u32 · target u32 · budget f64 · k u32 · keyword_id u32 × k) × n) × sets` |
//! | `SHRD` | `shard_count u32 · node_count u32 · assignment n×u32` — only in sharded snapshots |
//! | `BNDR` | `cut_count u32 · (source u32 · target u32 · objective f64 · budget f64) × cuts · escape n×f64 · enter n×f64` — only with `SHRD` |
//!
//! `SHRD` and `BNDR` appear together or not at all: the boundary summary
//! is meaningless without the assignment and vice versa. On read, both
//! are re-validated against the graph (dense non-empty shard ids, the
//! cut-edge list and escape/enter tables recomputed and compared
//! bit-for-bit), so a tampered summary can never weaken the router's
//! confinement proof.
//!
//! Each section checksum is IEEE CRC-32 of its payload. Writing the same
//! in-memory [`Snapshot`] always produces the same bytes (fixed section
//! and iteration order, IEEE-754 bit patterns), which is what makes
//! `kor gen --seed N` byte-reproducible and `kor shard` shard layouts
//! byte-reproducible with it.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use kor_graph::{Graph, GraphError, KeywordId, KeywordSet, NodeId, Vocab};

use crate::queries::{CannedQuery, CannedQuerySet};
use crate::shard::{validate_sharding, CutEdge, ShardingInfo};

/// File magic: `KORBIN` plus a CRLF that breaks if the file ever passes
/// through newline translation.
pub const MAGIC: [u8; 8] = *b"KORBIN\r\n";

/// Current format version.
pub const VERSION: u32 = 1;

const TAG_GRAPH: [u8; 4] = *b"GRPH";
const TAG_VOCAB: [u8; 4] = *b"VOCB";
const TAG_POSTINGS: [u8; 4] = *b"POST";
const TAG_QUERIES: [u8; 4] = *b"QRYS";
const TAG_SHARDS: [u8; 4] = *b"SHRD";
const TAG_BOUNDARY: [u8; 4] = *b"BNDR";

/// A world: the graph plus the canned query sets generated with it, and
/// optionally a shard layout produced by `kor shard`.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The road-network graph.
    pub graph: Graph,
    /// Canned query sets (possibly empty) replayed by the batch front
    /// end and the oracle cross-validation tests.
    pub query_sets: Vec<CannedQuerySet>,
    /// The shard layout (`SHRD` + `BNDR` sections), present only in
    /// sharded snapshots. The graph and query sections are byte-wise
    /// unchanged by sharding, so a sharded snapshot feeds non-sharded
    /// front ends identically.
    pub sharding: Option<ShardingInfo>,
}

impl Snapshot {
    /// Wraps a graph with no canned queries.
    pub fn graph_only(graph: Graph) -> Snapshot {
        Snapshot {
            graph,
            query_sets: Vec::new(),
            sharding: None,
        }
    }

    /// Total canned queries across all sets.
    pub fn query_count(&self) -> usize {
        self.query_sets.iter().map(|s| s.queries.len()).sum()
    }
}

/// Why a snapshot could not be read (or written). Every malformed input
/// maps to a typed error — no panic paths.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file I/O failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is not [`VERSION`].
    UnsupportedVersion(u32),
    /// The file ends before the named piece of data.
    Truncated(String),
    /// A section's CRC-32 does not match its payload.
    ChecksumMismatch {
        /// The four-character section tag.
        section: String,
    },
    /// Structurally invalid content (bad tag, count, or value).
    Corrupt(String),
    /// The decoded CSR arrays fail graph validation.
    Graph(GraphError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a .korbin snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            SnapshotError::Truncated(what) => write!(f, "snapshot truncated reading {what}"),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section:?}")
            }
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::Graph(e) => write!(f, "snapshot graph invalid: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<GraphError> for SnapshotError {
    fn from(e: GraphError) -> Self {
        SnapshotError::Graph(e)
    }
}

/// IEEE CRC-32 slicing-by-8 tables, built at compile time. `CRC_TABLES[0]`
/// is the classic bytewise table; `CRC_TABLES[k][b]` is the CRC register
/// after byte `b` is followed by `k` zero bytes, so eight input bytes
/// fold into the register with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// IEEE CRC-32 of `bytes` (shared with the mutation journal, whose
/// chained record checksums use the same polynomial), eight bytes per
/// step. Same values as the bytewise loop, so existing files verify.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------- writing

struct SectionWriter {
    out: Vec<u8>,
}

impl SectionWriter {
    fn new() -> Self {
        Self { out: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

pub(crate) fn graph_section(graph: &Graph) -> Vec<u8> {
    let csr = graph.csr();
    let mut w = SectionWriter::new();
    w.u32(graph.node_count() as u32);
    w.u32(graph.edge_count() as u32);
    w.u8(u8::from(graph.has_positions()));
    for &off in csr.out_offsets {
        w.u32(off);
    }
    for t in csr.out_targets {
        w.u32(t.0);
    }
    for &o in csr.out_objective {
        w.f64(o);
    }
    for &b in csr.out_budget {
        w.f64(b);
    }
    if let Some(positions) = graph.positions() {
        for &(x, y) in positions {
            w.f64(x);
            w.f64(y);
        }
    }
    w.out
}

fn vocab_section(vocab: &Vocab) -> Vec<u8> {
    let mut w = SectionWriter::new();
    w.u32(vocab.len() as u32);
    for (_, term) in vocab.iter() {
        w.u32(term.len() as u32);
        w.out.extend_from_slice(term.as_bytes());
    }
    w.out
}

fn postings_section(graph: &Graph) -> Vec<u8> {
    let mut w = SectionWriter::new();
    w.u32(graph.node_count() as u32);
    for v in graph.nodes() {
        let set = graph.keywords(v);
        w.u32(set.len() as u32);
        for t in set.iter() {
            w.u32(t.0);
        }
    }
    w.out
}

fn queries_section(sets: &[CannedQuerySet]) -> Vec<u8> {
    let mut w = SectionWriter::new();
    w.u32(sets.len() as u32);
    for set in sets {
        w.u32(set.keyword_count as u32);
        w.u32(set.queries.len() as u32);
        for q in &set.queries {
            w.u32(q.source.0);
            w.u32(q.target.0);
            w.f64(q.budget);
            w.u32(q.keywords.len() as u32);
            for t in &q.keywords {
                w.u32(t.0);
            }
        }
    }
    w.out
}

fn shards_section(info: &ShardingInfo) -> Vec<u8> {
    let mut w = SectionWriter::new();
    w.u32(info.shard_count);
    w.u32(info.assignment.len() as u32);
    for &s in &info.assignment {
        w.u32(s);
    }
    w.out
}

fn boundary_section(info: &ShardingInfo) -> Vec<u8> {
    let mut w = SectionWriter::new();
    w.u32(info.cut_edges.len() as u32);
    for cut in &info.cut_edges {
        w.u32(cut.source.0);
        w.u32(cut.target.0);
        w.f64(cut.objective);
        w.f64(cut.budget);
    }
    for &d in &info.escape {
        w.f64(d);
    }
    for &d in &info.enter {
        w.f64(d);
    }
    w.out
}

/// Serializes a snapshot to its canonical byte form.
pub fn snapshot_to_bytes(snapshot: &Snapshot) -> Vec<u8> {
    let mut sections: Vec<([u8; 4], Vec<u8>)> = vec![
        (TAG_GRAPH, graph_section(&snapshot.graph)),
        (TAG_VOCAB, vocab_section(snapshot.graph.vocab())),
        (TAG_POSTINGS, postings_section(&snapshot.graph)),
        (TAG_QUERIES, queries_section(&snapshot.query_sets)),
    ];
    if let Some(info) = &snapshot.sharding {
        sections.push((TAG_SHARDS, shards_section(info)));
        sections.push((TAG_BOUNDARY, boundary_section(info)));
    }
    let mut out = Vec::with_capacity(
        MAGIC.len() + 8 + sections.iter().map(|(_, p)| p.len() + 16).sum::<usize>(),
    );
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in &sections {
        out.extend_from_slice(tag);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&crc32(payload).to_le_bytes());
    }
    out
}

/// Writes a snapshot to `path` in the `.korbin` format.
pub fn write_snapshot(path: &Path, snapshot: &Snapshot) -> Result<(), SnapshotError> {
    fs::write(path, snapshot_to_bytes(snapshot))?;
    Ok(())
}

// ---------------------------------------------------------------- reading

/// Bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated(what.to_string()));
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A count that is about to size an allocation of `elem_bytes`-sized
    /// items: rejected up front unless the remaining payload could
    /// actually hold that many, so a corrupt length can never trigger an
    /// absurd allocation.
    fn count(&mut self, elem_bytes: usize, what: &str) -> Result<usize, SnapshotError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(elem_bytes) > self.remaining() {
            return Err(SnapshotError::Truncated(what.to_string()));
        }
        Ok(n)
    }
}

fn parse_graph_section(
    payload: &[u8],
    vocab: Vocab,
    keywords: Vec<KeywordSet>,
) -> Result<Graph, SnapshotError> {
    let mut c = Cursor::new(payload);
    let n = c.u32("node count")? as usize;
    let m = c.u32("edge count")? as usize;
    let has_positions = match c.u8("position flag")? {
        0 => false,
        1 => true,
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "position flag must be 0 or 1, got {other}"
            )))
        }
    };
    if keywords.len() != n {
        return Err(SnapshotError::Corrupt(format!(
            "postings cover {} nodes but the graph has {n}",
            keywords.len()
        )));
    }
    // Fixed-size region check up front: (n+1) offsets + m targets as
    // u32, 2m weights as f64, optionally 2n position floats.
    let need = (n + 1) * 4 + m * 4 + m * 16 + if has_positions { n * 16 } else { 0 };
    if c.remaining() < need {
        return Err(SnapshotError::Truncated("graph arrays".into()));
    }
    let mut out_offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        out_offsets.push(c.u32("offset")?);
    }
    let mut out_targets = Vec::with_capacity(m);
    for _ in 0..m {
        out_targets.push(NodeId(c.u32("edge target")?));
    }
    let mut out_objective = Vec::with_capacity(m);
    for _ in 0..m {
        out_objective.push(c.f64("edge objective")?);
    }
    let mut out_budget = Vec::with_capacity(m);
    for _ in 0..m {
        out_budget.push(c.f64("edge budget")?);
    }
    let positions = if has_positions {
        let mut p = Vec::with_capacity(n);
        for _ in 0..n {
            let x = c.f64("position x")?;
            let y = c.f64("position y")?;
            p.push((x, y));
        }
        Some(p)
    } else {
        None
    };
    if c.remaining() != 0 {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes in graph section",
            c.remaining()
        )));
    }
    Ok(Graph::from_csr_parts(
        out_offsets,
        out_targets,
        out_objective,
        out_budget,
        keywords,
        positions,
        vocab,
    )?)
}

fn parse_vocab_section(payload: &[u8]) -> Result<Vocab, SnapshotError> {
    let mut c = Cursor::new(payload);
    let count = c.count(4, "vocabulary size")?;
    let mut vocab = Vocab::new();
    for _ in 0..count {
        let len = c.u32("term length")? as usize;
        let bytes = c.take(len, "term bytes")?;
        let term = std::str::from_utf8(bytes)
            .map_err(|_| SnapshotError::Corrupt("vocabulary term is not UTF-8".into()))?;
        vocab.intern(term);
    }
    if vocab.len() != count {
        return Err(SnapshotError::Corrupt(
            "duplicate vocabulary term (ids would shift)".into(),
        ));
    }
    if c.remaining() != 0 {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes in vocabulary section",
            c.remaining()
        )));
    }
    Ok(vocab)
}

fn parse_postings_section(payload: &[u8]) -> Result<Vec<KeywordSet>, SnapshotError> {
    let mut c = Cursor::new(payload);
    let n = c.count(4, "postings node count")?;
    let mut keywords = Vec::with_capacity(n);
    for _ in 0..n {
        let k = c.count(4, "node keyword count")?;
        let mut ids = Vec::with_capacity(k);
        for _ in 0..k {
            ids.push(KeywordId(c.u32("keyword id")?));
        }
        keywords.push(KeywordSet::new(ids));
    }
    if c.remaining() != 0 {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes in postings section",
            c.remaining()
        )));
    }
    Ok(keywords)
}

fn parse_queries_section(payload: &[u8]) -> Result<Vec<CannedQuerySet>, SnapshotError> {
    let mut c = Cursor::new(payload);
    let sets = c.count(8, "query set count")?;
    let mut out = Vec::with_capacity(sets);
    for _ in 0..sets {
        let keyword_count = c.u32("set keyword count")? as usize;
        let n = c.count(20, "query count")?;
        let mut queries = Vec::with_capacity(n);
        for _ in 0..n {
            let source = NodeId(c.u32("query source")?);
            let target = NodeId(c.u32("query target")?);
            let budget = c.f64("query budget")?;
            if !budget.is_finite() || budget < 0.0 {
                return Err(SnapshotError::Corrupt(format!(
                    "query budget {budget} must be finite and ≥ 0"
                )));
            }
            let k = c.count(4, "query keyword count")?;
            let mut keywords = Vec::with_capacity(k);
            for _ in 0..k {
                keywords.push(KeywordId(c.u32("query keyword")?));
            }
            queries.push(CannedQuery {
                source,
                target,
                keywords,
                budget,
            });
        }
        out.push(CannedQuerySet {
            keyword_count,
            queries,
        });
    }
    if c.remaining() != 0 {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes in query section",
            c.remaining()
        )));
    }
    Ok(out)
}

fn parse_shards_section(payload: &[u8]) -> Result<(u32, Vec<u32>), SnapshotError> {
    let mut c = Cursor::new(payload);
    let shard_count = c.u32("shard count")?;
    let n = c.count(4, "shard assignment length")?;
    let mut assignment = Vec::with_capacity(n);
    for _ in 0..n {
        assignment.push(c.u32("shard assignment")?);
    }
    if c.remaining() != 0 {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes in shard section",
            c.remaining()
        )));
    }
    Ok((shard_count, assignment))
}

/// Parsed `BNDR` payload: the cut-edge list plus the escape/enter tables.
type BoundaryParts = (Vec<CutEdge>, Vec<f64>, Vec<f64>);

fn parse_boundary_section(
    payload: &[u8],
    node_count: usize,
) -> Result<BoundaryParts, SnapshotError> {
    let mut c = Cursor::new(payload);
    let cuts = c.count(24, "cut edge count")?;
    let mut cut_edges = Vec::with_capacity(cuts);
    for _ in 0..cuts {
        let source = NodeId(c.u32("cut edge source")?);
        let target = NodeId(c.u32("cut edge target")?);
        let objective = c.f64("cut edge objective")?;
        let budget = c.f64("cut edge budget")?;
        cut_edges.push(CutEdge {
            source,
            target,
            objective,
            budget,
        });
    }
    let mut read_table = |what: &str| -> Result<Vec<f64>, SnapshotError> {
        let mut table = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let d = c.f64(what)?;
            if d.is_nan() || d < 0.0 {
                return Err(SnapshotError::Corrupt(format!(
                    "{what} must be non-negative, got {d}"
                )));
            }
            table.push(d);
        }
        Ok(table)
    };
    let escape = read_table("escape distance")?;
    let enter = read_table("enter distance")?;
    if c.remaining() != 0 {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes in boundary section",
            c.remaining()
        )));
    }
    Ok((cut_edges, escape, enter))
}

/// Parses a snapshot from its byte form.
pub fn snapshot_from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    let mut c = Cursor::new(bytes);
    if c.take(8, "magic").map_err(|_| SnapshotError::BadMagic)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = c.u32("version")?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let section_count = c.u32("section count")?;

    let mut graph_payload: Option<&[u8]> = None;
    let mut vocab_payload: Option<&[u8]> = None;
    let mut postings_payload: Option<&[u8]> = None;
    let mut queries_payload: Option<&[u8]> = None;
    let mut shards_payload: Option<&[u8]> = None;
    let mut boundary_payload: Option<&[u8]> = None;
    for _ in 0..section_count {
        let tag: [u8; 4] = c.take(4, "section tag")?.try_into().unwrap();
        let len = c.u64("section length")? as usize;
        let payload = c.take(len, "section payload")?;
        let stored = c.u32("section checksum")?;
        if crc32(payload) != stored {
            return Err(SnapshotError::ChecksumMismatch {
                section: String::from_utf8_lossy(&tag).into_owned(),
            });
        }
        let slot = match tag {
            TAG_GRAPH => &mut graph_payload,
            TAG_VOCAB => &mut vocab_payload,
            TAG_POSTINGS => &mut postings_payload,
            TAG_QUERIES => &mut queries_payload,
            TAG_SHARDS => &mut shards_payload,
            TAG_BOUNDARY => &mut boundary_payload,
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown section tag {:?}",
                    String::from_utf8_lossy(&other)
                )))
            }
        };
        if slot.replace(payload).is_some() {
            return Err(SnapshotError::Corrupt(format!(
                "duplicate section {:?}",
                String::from_utf8_lossy(&tag)
            )));
        }
    }
    if c.remaining() != 0 {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after the last section",
            c.remaining()
        )));
    }

    let missing = |name: &str| SnapshotError::Corrupt(format!("missing section {name:?}"));
    let vocab = parse_vocab_section(vocab_payload.ok_or_else(|| missing("VOCB"))?)?;
    let keywords = parse_postings_section(postings_payload.ok_or_else(|| missing("POST"))?)?;
    let graph = parse_graph_section(
        graph_payload.ok_or_else(|| missing("GRPH"))?,
        vocab,
        keywords,
    )?;
    let query_sets = match queries_payload {
        Some(p) => parse_queries_section(p)?,
        None => Vec::new(),
    };
    // Canned queries must reference the graph they ship with.
    for set in &query_sets {
        for q in &set.queries {
            if !graph.contains(q.source) || !graph.contains(q.target) {
                return Err(SnapshotError::Corrupt(format!(
                    "canned query endpoint out of range ({} -> {})",
                    q.source, q.target
                )));
            }
            for t in &q.keywords {
                if t.index() >= graph.vocab().len() {
                    return Err(SnapshotError::Corrupt(format!(
                        "canned query keyword id {} outside the vocabulary",
                        t.0
                    )));
                }
            }
        }
    }
    let sharding = match (shards_payload, boundary_payload) {
        (None, None) => None,
        (Some(_), None) => {
            return Err(SnapshotError::Corrupt(
                "section \"SHRD\" present without \"BNDR\"".into(),
            ))
        }
        (None, Some(_)) => {
            return Err(SnapshotError::Corrupt(
                "section \"BNDR\" present without \"SHRD\"".into(),
            ))
        }
        (Some(shards), Some(boundary)) => {
            let (shard_count, assignment) = parse_shards_section(shards)?;
            let (cut_edges, escape, enter) = parse_boundary_section(boundary, graph.node_count())?;
            let info = ShardingInfo {
                shard_count,
                assignment,
                cut_edges,
                escape,
                enter,
            };
            // The summary feeds the router's confinement proof, so it
            // must be *exactly* what the assignment implies — recomputed
            // and compared bit-for-bit, like every other invariant here.
            validate_sharding(&graph, &info)
                .map_err(|msg| SnapshotError::Corrupt(format!("shard layout: {msg}")))?;
            Some(info)
        }
    };
    Ok(Snapshot {
        graph,
        query_sets,
        sharding,
    })
}

/// Reads a `.korbin` snapshot from `path`.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, SnapshotError> {
    snapshot_from_bytes(&fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_world, GenConfig};
    use kor_graph::fixtures::figure1;

    fn world() -> Snapshot {
        generate_world(&GenConfig::grid(5, 4, 11))
    }

    /// The bytewise reference the sliced CRC must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_matches_bytewise_on_every_length_and_offset() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC3C3);
        let buf: Vec<u8> = (0..4096).map(|_| rng.gen_range(0..256u32) as u8).collect();
        // Every short length at random (unaligned) offsets: covers each
        // split between the 8-byte body and the bytewise tail.
        for len in 0..=64usize {
            for _ in 0..8 {
                let at = rng.gen_range(0..buf.len() - len);
                let s = &buf[at..at + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} at {at}");
            }
        }
        // Long random inputs.
        for _ in 0..16 {
            let len = rng.gen_range(65..buf.len());
            let at = rng.gen_range(0..buf.len() - len);
            let s = &buf[at..at + len];
            assert_eq!(crc32(s), crc32_bytewise(s), "len {len} at {at}");
        }
    }

    #[test]
    fn write_read_write_is_byte_identical() {
        let snap = world();
        let bytes = snapshot_to_bytes(&snap);
        let read = snapshot_from_bytes(&bytes).unwrap();
        let again = snapshot_to_bytes(&read);
        assert_eq!(bytes, again, "write→read→write must be byte-identical");
        assert_eq!(read.graph.node_count(), snap.graph.node_count());
        assert_eq!(read.graph.edge_count(), snap.graph.edge_count());
        assert_eq!(read.query_sets, snap.query_sets);
        // Structure survives, including vocab resolution and positions.
        for v in snap.graph.nodes() {
            assert_eq!(read.graph.keywords(v), snap.graph.keywords(v));
            assert_eq!(read.graph.position(v), snap.graph.position(v));
            let e1: Vec<_> = snap
                .graph
                .out_edges(v)
                .map(|e| (e.node, e.objective.to_bits(), e.budget.to_bits()))
                .collect();
            let e2: Vec<_> = read
                .graph
                .out_edges(v)
                .map(|e| (e.node, e.objective.to_bits(), e.budget.to_bits()))
                .collect();
            assert_eq!(e1, e2);
        }
        for (id, term) in snap.graph.vocab().iter() {
            assert_eq!(read.graph.vocab().resolve(id), Some(term));
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("kor-snapshot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.korbin");
        let snap = world();
        write_snapshot(&path, &snap).unwrap();
        let read = read_snapshot(&path).unwrap();
        assert_eq!(snapshot_to_bytes(&read), snapshot_to_bytes(&snap));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn positionless_graph_survives() {
        let snap = Snapshot::graph_only(figure1());
        let read = snapshot_from_bytes(&snapshot_to_bytes(&snap)).unwrap();
        assert!(!read.graph.has_positions());
        assert_eq!(read.graph.node_count(), 8);
        assert_eq!(read.query_count(), 0);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = snapshot_to_bytes(&world());
        bytes[0] = b'X';
        assert!(matches!(
            snapshot_from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
        // A short file is also a magic problem, not a panic.
        assert!(matches!(
            snapshot_from_bytes(b"KOR"),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = snapshot_to_bytes(&world());
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            snapshot_from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncation_anywhere_is_typed() {
        let bytes = snapshot_to_bytes(&world());
        // Every prefix must fail cleanly with a typed error — never a
        // panic, never a silent partial success.
        for cut in 0..bytes.len() {
            let err = snapshot_from_bytes(&bytes[..cut]).expect_err("prefix must fail");
            assert!(
                matches!(
                    err,
                    SnapshotError::BadMagic
                        | SnapshotError::Truncated(_)
                        | SnapshotError::Corrupt(_)
                        | SnapshotError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn checksum_mismatch_is_typed_and_names_the_section() {
        let snap = world();
        let bytes = snapshot_to_bytes(&snap);
        // Flip one payload byte inside the first (graph) section; its
        // payload begins after magic(8) + version(4) + count(4) +
        // tag(4) + len(8).
        let mut corrupted = bytes.clone();
        corrupted[28] ^= 0xFF;
        match snapshot_from_bytes(&corrupted) {
            Err(SnapshotError::ChecksumMismatch { section }) => assert_eq!(section, "GRPH"),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn unknown_section_and_garbage_counts_are_typed() {
        let snap = world();
        let mut bytes = snapshot_to_bytes(&snap);
        // Rewrite the first section tag to an unknown one (checksum
        // still matches the payload, so the tag check must fire).
        bytes[16..20].copy_from_slice(b"WHAT");
        assert!(matches!(
            snapshot_from_bytes(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    fn sharded_world() -> Snapshot {
        let mut snap = world();
        snap.sharding = Some(crate::shard::compute_sharding(&snap.graph, 2));
        snap
    }

    #[test]
    fn sharded_write_read_write_is_byte_identical() {
        let snap = sharded_world();
        let bytes = snapshot_to_bytes(&snap);
        let read = snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(bytes, snapshot_to_bytes(&read));
        let info = read.sharding.expect("shard layout survives");
        assert_eq!(Some(&info), snap.sharding.as_ref());
        assert_eq!(info.assignment.len(), snap.graph.node_count());
    }

    #[test]
    fn sharding_does_not_change_the_unsharded_sections() {
        // `kor shard` appends sections; the graph/vocab/postings/queries
        // bytes must be untouched so the fused engine rebuilt from a
        // sharded snapshot is bit-identical to the unsharded one.
        let plain = snapshot_to_bytes(&world());
        let sharded = snapshot_to_bytes(&sharded_world());
        // The prefix differs only in the section count field.
        assert_eq!(plain[..12], sharded[..12]);
        let mut expected = plain.clone();
        expected[12..16].copy_from_slice(&6u32.to_le_bytes());
        assert_eq!(sharded[..plain.len()], expected[..]);
    }

    #[test]
    fn sharded_truncation_anywhere_is_typed() {
        let bytes = snapshot_to_bytes(&sharded_world());
        for cut in 0..bytes.len() {
            let err = snapshot_from_bytes(&bytes[..cut]).expect_err("prefix must fail");
            assert!(
                matches!(
                    err,
                    SnapshotError::BadMagic
                        | SnapshotError::Truncated(_)
                        | SnapshotError::Corrupt(_)
                        | SnapshotError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn shard_section_without_boundary_is_rejected() {
        // Write a sharded snapshot, then drop the last section (BNDR)
        // by rewriting the section count and truncating.
        let snap = sharded_world();
        let with = snapshot_to_bytes(&snap);
        let without_info = snapshot_to_bytes(&world());
        // BNDR is the final section; SHRD ends where we can compute:
        // everything except the BNDR section's bytes.
        let info = snap.sharding.as_ref().unwrap();
        let bndr_payload = 4 + info.cut_edges.len() * 24 + info.escape.len() * 16;
        let bndr_total = 4 + 8 + bndr_payload + 4;
        let mut bytes = with[..with.len() - bndr_total].to_vec();
        bytes[12..16].copy_from_slice(&5u32.to_le_bytes());
        match snapshot_from_bytes(&bytes) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("SHRD"), "{msg}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
        drop(without_info);
    }

    #[test]
    fn tampered_boundary_summary_is_rejected() {
        // Flip the shard of one node inside the SHRD payload (keeping
        // the CRC consistent by recomputing it): validation must catch
        // the now-inconsistent cut-edge list.
        let snap = sharded_world();
        let info = snap.sharding.clone().unwrap();
        let mut tampered = snap.clone();
        let mut bad = info;
        bad.assignment[0] = (bad.assignment[0] + 1) % bad.shard_count;
        tampered.sharding = Some(bad);
        let bytes = snapshot_to_bytes(&tampered);
        match snapshot_from_bytes(&bytes) {
            Err(SnapshotError::Corrupt(msg)) => {
                assert!(msg.contains("shard layout"), "{msg}")
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::UnsupportedVersion(9)
            .to_string()
            .contains('9'));
        assert!(SnapshotError::Truncated("edge target".into())
            .to_string()
            .contains("edge target"));
        assert!(SnapshotError::ChecksumMismatch {
            section: "GRPH".into()
        }
        .to_string()
        .contains("GRPH"));
    }
}

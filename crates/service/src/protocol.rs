//! The hand-rolled newline-delimited wire protocol.
//!
//! One request per block, one verb per line, demand payloads in the
//! versioned demand-list format of [`grooming_graph::io`]. No serde, no
//! framing bytes — a transcript is readable with `nc` and diffable with
//! `diff`, which is exactly how the determinism contract is asserted.
//!
//! # Requests
//!
//! ```text
//! PING
//! STATS
//! SHUTDOWN
//! BATCH id=<u64> count=<N> [deadline_ms=<D>] [algo=<name>]
//!   ⟨N × item stanza⟩
//! END
//! RECONFIGURE id=<u64> count=<N> [deadline_ms=<D>] [algo=<name>]
//!   ⟨N × reconfigure stanza⟩
//! END
//! ```
//!
//! Each item stanza is one `ITEM` line followed by a strict demand-list
//! block (its `demands v1 <n> <m>` header plus exactly `m` entry lines —
//! no comments or blank lines inside a stanza; those are only allowed
//! *between* top-level requests):
//!
//! ```text
//! ITEM <kind> k=<K> [budget=<B>]
//! demands v1 <n> <m>
//! <u> <v> [units]
//! ...
//! ```
//!
//! Kinds: `upsr`, `ring`, `budgeted` (requires `budget=`), `weighted`,
//! `blsr`, `mesh` (requires `routes=`), `reconfigure`. Any other kind is
//! refused as malformed (`ITEM (unknown kind)`), and so is a key the kind
//! does not consume. Multi-ring instances are in-process only — their
//! gateway topology has no demand-list encoding — so [`format_batch_request`]
//! refuses them with [`WireFormatError::NotWireable`].
//!
//! A `mesh` stanza carries the physical topology in the `topology v1`
//! block format of [`grooming_graph::io`] followed by the demand list;
//! the demand node count must equal the topology node count:
//!
//! ```text
//! ITEM mesh k=<K> routes=<R>
//! topology v1 <n> <m>         ⟨n cap lines, then m link lines⟩
//! <ports|*> <switch|*>
//! <u> <v> [weight]
//! demands v1 <n> <d>          ⟨d entry lines⟩
//! ```
//!
//! A `reconfigure` stanza is the warm-start workload: the prior demand
//! snapshot, the prior plan, and the churn delta, all in the same
//! `demands v1` framing plus one `plan v1` block:
//!
//! ```text
//! ITEM reconfigure k=<K>
//! demands v1 <n> <m>        ⟨prior snapshot, m entry lines⟩
//! plan v1 <W>               ⟨prior partition, W part lines⟩
//! <len> <e1> ... <elen>
//! demands v1 <n> <a>        ⟨added pairs, a entry lines⟩
//! demands v1 <n> <r>        ⟨removed pairs, r entry lines⟩
//! ```
//!
//! Part lines reference prior-snapshot edge ids (entry `i` of the prior
//! block, units expanded, is edge `i`). `RECONFIGURE` is `BATCH` restricted
//! to `reconfigure` stanzas — either verb admits them, and responses use
//! the same `RESULT` transcript shape. Because [`format_item`] covers the
//! stanza, the solve cache keys on the (prior plan, delta) content
//! automatically.
//!
//! # Responses
//!
//! ```text
//! RESULT <id> count=<N>
//! PLAN <i> sadms=<S> wavelengths=<W> timed_out=<bool> cancelled=<bool>
//! ERROR <i> <message>
//! END
//! ```
//!
//! plus `REJECTED <id> ...` for refused admissions, `PONG` for `PING`, a
//! single `STATS ...` line, and `BYE` acknowledging `SHUTDOWN`. `PLAN`
//! lines carry costs, not wall-clock — transcripts are pure functions of
//! `(request, master_seed)` and compare byte for byte across worker
//! counts.
//!
//! # Admission limits on the wire
//!
//! Parsing enforces [`crate::ServiceConfig::max_nodes`] /
//! [`crate::ServiceConfig::max_units`] *before* expanding a payload into a
//! graph or demand set, so an adversarial `demands v1 1000000000 …` header
//! is refused as text and never allocates.
//!
//! # Where a block ends
//!
//! [`parse_request`] alone decides it, from the declared sizes. A
//! malformed block is read to its declared end and answered with its
//! first error, so the stream resynchronizes at the next block instead of
//! misreading payload lines as verbs. Where the sizes themselves cannot be
//! trusted (no usable `count=`, one past the queue, `END` where an `ITEM`
//! was due, a `demands`/`topology`/`plan` header that is malformed or past
//! the caps), the block ends right after that line, and the lines that
//! follow are read as new requests.

use std::fmt::Write as _;
use std::io::{self, BufRead};
use std::time::Duration;

use grooming::algorithm::Algorithm;
use grooming::partition::EdgePartition;
use grooming::solve::{DemandDelta, Instance};
use grooming_graph::graph::Graph;
use grooming_graph::ids::{EdgeId, NodeId};
use grooming_graph::io::{
    parse_demand_list, parse_topology, write_demand_list, write_topology, DemandList, ParseError,
};
use grooming_graph::topology::Topology;
use grooming_sonet::blsr::BlsrRing;
use grooming_sonet::demand::{DemandPair, DemandSet};
use grooming_sonet::weighted::WeightedDemandSet;

use crate::service::{
    BatchResponse, ItemOutcome, Request, ServiceConfig, StatsSnapshot, SubmitError,
};

/// A parsed top-level request.
#[derive(Debug)]
pub enum WireRequest {
    /// Liveness probe; answered with `PONG`.
    Ping,
    /// Stats snapshot; answered with one `STATS` line.
    Stats,
    /// Begin graceful shutdown; answered with `BYE`.
    Shutdown,
    /// A batch submission.
    Batch(Request),
}

/// Why a request block failed to parse (the connection can keep going —
/// the server answers `ERR <reason>` and reads the next block).
#[derive(Clone, Debug)]
pub enum WireError {
    /// A structurally invalid line.
    Malformed {
        /// What was being parsed.
        context: &'static str,
        /// The offending line.
        line: String,
    },
    /// A demand-list payload failed to parse.
    Demand(ParseError),
    /// The payload exceeds an admission limit; refused before expansion.
    TooLarge {
        /// What exceeded the limit.
        what: &'static str,
        /// The declared size.
        got: u64,
        /// The configured limit.
        limit: u64,
    },
    /// The stream ended in the middle of a request block.
    UnexpectedEof,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed { context, line } => {
                write!(f, "malformed {context}: {line:?}")
            }
            WireError::Demand(e) => write!(f, "bad demand list: {e}"),
            WireError::TooLarge { what, got, limit } => {
                write!(f, "payload too large: {got} {what} exceeds limit {limit}")
            }
            WireError::UnexpectedEof => write!(f, "unexpected end of stream mid-request"),
        }
    }
}

impl std::error::Error for WireError {}

/// A parse failure or an underlying transport failure.
#[derive(Debug)]
pub enum RequestError {
    /// The socket/reader failed; the connection is dead.
    Io(io::Error),
    /// The bytes arrived but did not parse; the connection survives.
    Wire(WireError),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Io(e) => write!(f, "transport error: {e}"),
            RequestError::Wire(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<WireError> for RequestError {
    fn from(e: WireError) -> Self {
        RequestError::Wire(e)
    }
}

fn malformed(context: &'static str, line: &str) -> WireError {
    WireError::Malformed {
        context,
        line: line.to_string(),
    }
}

/// One request block being parsed: the lines it has left, and the first
/// error found in it so far.
struct Block<'a> {
    rest: &'a mut dyn Iterator<Item = io::Result<String>>,
    config: &'a ServiceConfig,
    error: Option<WireError>,
}

impl Block<'_> {
    /// The block's next line. A failing `rest` ends the parse with
    /// [`RequestError::Io`]; an exhausted one ends the block.
    fn line(&mut self) -> Result<String, RequestError> {
        match self.rest.next() {
            None => Err(self.end(WireError::UnexpectedEof)),
            Some(Err(e)) => Err(RequestError::Io(e)),
            Some(Ok(line)) => Ok(line),
        }
    }

    /// Records `error` unless an earlier one stands.
    fn note(&mut self, error: WireError) {
        self.error.get_or_insert(error);
    }

    /// `result`'s value, or `None` with its error recorded.
    fn check<T>(&mut self, result: Result<T, WireError>) -> Option<T> {
        result.map_err(|e| self.note(e)).ok()
    }

    /// Ends the block before its declared end: the first error found in
    /// it, else `error`.
    fn end(&mut self, error: WireError) -> RequestError {
        RequestError::Wire(self.error.take().unwrap_or(error))
    }

    /// Ends the block early if `check` failed.
    fn end_if(&mut self, check: Result<(), WireError>) -> Result<(), RequestError> {
        check.map_err(|e| self.end(e))
    }
}

/// Parses one request block. `first` is the verb line (already read, known
/// non-empty); `rest` yields the following lines of the same stream.
/// Limits from `config` are enforced on declared sizes before any payload
/// is expanded.
///
/// This is the only code that knows where a block ends (see *Where a
/// block ends* in the module docs): a malformed block is read to its end
/// and its first error, in parse order, is returned there. An `Err` from
/// `rest` ends the parse at once as [`RequestError::Io`], whatever was
/// found before it.
pub fn parse_request(
    first: &str,
    rest: &mut dyn Iterator<Item = io::Result<String>>,
    config: &ServiceConfig,
) -> Result<WireRequest, RequestError> {
    let first = first.trim();
    let mut toks = first.split_whitespace();
    let verb = toks.next().ok_or_else(|| malformed("request", first))?;
    match verb {
        "PING" | "STATS" | "SHUTDOWN" => {
            if toks.next().is_some() {
                return Err(malformed("request (verb takes no arguments)", first).into());
            }
            Ok(match verb {
                "PING" => WireRequest::Ping,
                "STATS" => WireRequest::Stats,
                _ => WireRequest::Shutdown,
            })
        }
        "BATCH" | "RECONFIGURE" => {
            let mut block = Block {
                rest,
                config,
                error: None,
            };
            parse_batch(first, toks, &mut block, verb == "RECONFIGURE")
        }
        _ => Err(malformed("request (unknown verb)", first).into()),
    }
}

fn parse_batch(
    header: &str,
    fields: std::str::SplitWhitespace<'_>,
    block: &mut Block<'_>,
    reconfigure_only: bool,
) -> Result<WireRequest, RequestError> {
    let mut id: Option<u64> = None;
    // The last count= sizes the block, even after a field that failed.
    let mut count: Option<usize> = None;
    let mut deadline = None;
    let mut algo = None;
    for tok in fields {
        let Some((key, value)) = tok.split_once('=') else {
            block.note(malformed("BATCH header", header));
            continue;
        };
        match key {
            "id" => id = block.check(value.parse().map_err(|_| malformed("BATCH id", header))),
            "count" => {
                count = block.check(value.parse().map_err(|_| malformed("BATCH count", header)))
            }
            "deadline_ms" => {
                deadline = block.check(
                    value
                        .parse()
                        .map(Duration::from_millis)
                        .map_err(|_| malformed("BATCH deadline_ms", header)),
                )
            }
            "algo" => {
                algo = block.check(
                    Algorithm::by_name(value)
                        .ok_or_else(|| malformed("BATCH algo (unknown name)", header)),
                )
            }
            _ => block.note(malformed("BATCH header (unknown field)", header)),
        }
    }
    if id.is_none() {
        block.note(malformed("BATCH header (missing id=)", header));
    }
    let Some(count) = count else {
        return Err(block.end(malformed("BATCH header (missing count=)", header)));
    };
    // A batch bigger than the whole queue can never be admitted; refuse it
    // as text before reading (or allocating for) a single stanza.
    block.end_if(within(
        "items",
        count as u64,
        block.config.queue_capacity as u64,
    ))?;

    let mut items = Vec::new();
    for _ in 0..count {
        let line = block.line()?;
        let line = line.trim();
        let kind = line.split_whitespace().nth(1);
        if reconfigure_only && kind != Some("reconfigure") {
            block.note(malformed(
                "RECONFIGURE item (kind must be reconfigure)",
                line,
            ));
        }
        if line == "END" {
            // Where an ITEM was due, END closes the block early.
            return Err(block.end(malformed("BATCH (END before count= items)", line)));
        }
        let item = match kind {
            Some("reconfigure") => parse_reconfigure_item(line, block)?,
            Some("mesh") => parse_mesh_item(line, block)?,
            // The demand block is read first, so its errors outrank the
            // ITEM line's.
            _ => read_demand_block(block)?.and_then(|list| block.check(parse_item(line, &list))),
        };
        items.extend(item);
    }
    let end = block.line()?;
    if end.trim() != "END" {
        block.note(malformed("BATCH terminator (expected END)", end.trim()));
    }
    if let Some(e) = block.error.take() {
        return Err(e.into());
    }
    Ok(WireRequest::Batch(Request {
        // A missing id was an error above.
        id: id.unwrap_or_default(),
        items,
        deadline,
        algo,
    }))
}

/// Reads one strict block whose header declares `<n> <m>` as its third
/// and fourth tokens (`demands v1`, `topology v1`): the header and then
/// `body(n, m)` lines, handed to `parse` as one text. `n` is checked
/// against `max_nodes` and `m` (as `what`) against `max_units` before any
/// body line is read.
fn read_sized_block<T>(
    block: &mut Block<'_>,
    what: &'static str,
    body: fn(u64, u64) -> u64,
    parse: impl Fn(&str) -> Result<T, WireError>,
) -> Result<Option<T>, RequestError> {
    let header = block.line()?;
    let header = header.trim();
    let mut peek = header.split_whitespace().skip(2);
    let n = peek.next().and_then(|t| t.parse::<u64>().ok());
    let m = peek.next().and_then(|t| t.parse::<u64>().ok());
    let (Some(n), Some(m)) = (n, m) else {
        // Not even header-shaped: let the real parser name the problem.
        let e = parse(header).err();
        return Err(block.end(e.unwrap_or_else(|| malformed("block header", header))));
    };
    let config = block.config;
    block.end_if(within("nodes", n, config.max_nodes as u64))?;
    // Every entry or link line is at least one unit of per-edge solver
    // work, so m alone can trip the cap.
    block.end_if(within(what, m, config.max_units))?;

    // The text grows as body lines arrive: nothing is reserved from the
    // counts a header declares.
    let mut text = String::from(header);
    text.push('\n');
    for _ in 0..body(n, m) {
        let line = block.line()?;
        text.push_str(line.trim());
        text.push('\n');
    }
    Ok(block.check(parse(&text)))
}

/// Reads one strict demand-list block (`demands v1 <n> <m>` + exactly `m`
/// entry lines).
fn read_demand_block(block: &mut Block<'_>) -> Result<Option<DemandList>, RequestError> {
    let max_units = block.config.max_units;
    read_sized_block(
        block,
        "units",
        |_, m| m,
        |text| {
            let list = parse_demand_list(text).map_err(WireError::Demand)?;
            if list.nodes < 2 {
                let header = text.lines().next().unwrap_or_default();
                return Err(malformed("demand list (need at least 2 nodes)", header));
            }
            within("units", list.total_units(), max_units)?;
            Ok(list)
        },
    )
}

/// Reads one strict topology block (`topology v1 <n> <m>` + exactly `n`
/// cap lines and `m` link lines). Physical links are bounded by the same
/// budget as demand units: both feed per-edge work in the solver.
fn read_topology_block(block: &mut Block<'_>) -> Result<Option<Topology>, RequestError> {
    read_sized_block(
        block,
        "links",
        |n, m| n + m,
        |text| parse_topology(text).map_err(WireError::Demand),
    )
}

/// Reads one strict plan block (`plan v1 <W>` header + exactly `W` part
/// lines). Edge-id *semantics* (coverage of the prior snapshot) are the
/// solver's job — [`grooming::solve::SolveError::PriorPlan`] surfaces as a
/// per-item `ERROR`, not a wire error.
fn read_plan_block(block: &mut Block<'_>) -> Result<Option<Vec<Vec<EdgeId>>>, RequestError> {
    let header = block.line()?;
    let header = header.trim();
    let mut toks = header.split_whitespace();
    let w = match (toks.next(), toks.next(), toks.next(), toks.next()) {
        (Some("plan"), Some("v1"), Some(w), None) => w.parse::<u64>().ok(),
        _ => None,
    };
    let Some(w) = w else {
        return Err(block.end(malformed("plan block header", header)));
    };
    // A non-degenerate part holds at least one edge, and edges are capped
    // by the unit limit — so the part count is too.
    block.end_if(within("plan parts", w, block.config.max_units))?;
    let mut parts = Vec::new();
    let mut whole = true;
    for _ in 0..w {
        let line = block.line()?;
        match block.check(parse_part(line.trim())) {
            Some(part) => parts.push(part),
            None => whole = false,
        }
    }
    Ok(whole.then_some(parts))
}

/// One `<len> <e1> ... <elen>` part line.
fn parse_part(line: &str) -> Result<Vec<EdgeId>, WireError> {
    let mut toks = line.split_whitespace();
    let len = toks
        .next()
        .and_then(|t| t.parse::<usize>().ok())
        .ok_or_else(|| malformed("plan part line (length)", line))?;
    // Each id takes at least two bytes of the line.
    let mut part = Vec::with_capacity(len.min(line.len() / 2));
    for _ in 0..len {
        let id = toks
            .next()
            .and_then(|t| t.parse::<u32>().ok())
            .ok_or_else(|| malformed("plan part line (edge id)", line))?;
        part.push(EdgeId(id));
    }
    if toks.next().is_some() {
        return Err(malformed("plan part line (trailing tokens)", line));
    }
    Ok(part)
}

/// Reads an `ITEM <kind> k=<K> [<extra>=<X>]` line: its kind, which must
/// be one of `kinds`, its `k` (at least 1), and the value of `extra`, the
/// one other key the kind takes. Any other key is `unknown_key`.
fn item_fields<'a>(
    line: &'a str,
    kinds: &[&str],
    extra: Option<&str>,
    unknown_key: &'static str,
) -> Result<(&'a str, usize, Option<usize>), WireError> {
    let mut toks = line.split_whitespace();
    if toks.next() != Some("ITEM") {
        return Err(malformed("item stanza (expected ITEM)", line));
    }
    let kind = toks.next().ok_or_else(|| malformed("ITEM kind", line))?;
    // The kind is checked before its keys: an unknown kind is reported as
    // such whatever keys it carries.
    if !kinds.contains(&kind) {
        return Err(malformed("ITEM (unknown kind)", line));
    }
    let mut k = None;
    let mut extra_value = None;
    for tok in toks {
        let (key, value) = tok
            .split_once('=')
            .ok_or_else(|| malformed("ITEM field", line))?;
        let parsed = value
            .parse::<usize>()
            .map_err(|_| malformed("ITEM field value", line))?;
        if key == "k" {
            k = Some(parsed);
        } else if Some(key) == extra {
            extra_value = Some(parsed);
        } else {
            return Err(malformed(unknown_key, line));
        }
    }
    let k = required(k, "ITEM (missing k=)", "ITEM (k must be >= 1)", line)?;
    Ok((kind, k, extra_value))
}

/// A field `line` must carry, with a value of at least 1.
fn required(
    value: Option<usize>,
    missing: &'static str,
    zero: &'static str,
    line: &str,
) -> Result<usize, WireError> {
    match value {
        None => Err(malformed(missing, line)),
        Some(0) => Err(malformed(zero, line)),
        Some(value) => Ok(value),
    }
}

/// `Err(TooLarge)` if the declared `got` exceeds `limit`.
fn within(what: &'static str, got: u64, limit: u64) -> Result<(), WireError> {
    match got > limit {
        true => Err(WireError::TooLarge { what, got, limit }),
        false => Ok(()),
    }
}

/// Parses one `mesh` stanza: the `ITEM` line, the physical topology, and
/// the demand list routed over it.
fn parse_mesh_item(line: &str, block: &mut Block<'_>) -> Result<Option<Instance>, RequestError> {
    let fields = block.check(
        item_fields(
            line,
            &["mesh"],
            Some("routes"),
            "ITEM (field not valid for this kind)",
        )
        .and_then(|(_, k, routes)| {
            let missing = "ITEM mesh (missing routes=)";
            Ok((
                k,
                required(routes, missing, "ITEM mesh (routes must be >= 1)", line)?,
            ))
        }),
    );
    let topology = read_topology_block(block)?;
    let list = read_demand_block(block)?;
    let (Some((k, routes)), Some(topology), Some(list)) = (fields, topology, list) else {
        return Ok(None);
    };
    if list.nodes != topology.num_nodes() {
        block.note(malformed(
            "mesh demands (node count differs from the topology)",
            line,
        ));
        return Ok(None);
    }
    Ok(Some(Instance::mesh(
        topology,
        demand_set_from_list(&list),
        k,
        routes,
    )))
}

/// Parses one `reconfigure` stanza: the `ITEM` line, then the prior
/// snapshot, the prior plan, the added pairs, and the removed pairs.
fn parse_reconfigure_item(
    line: &str,
    block: &mut Block<'_>,
) -> Result<Option<Instance>, RequestError> {
    let k = block.check(item_fields(
        line,
        &["reconfigure"],
        None,
        "ITEM (field not valid for this kind)",
    ));
    let prior = read_demand_block(block)?;
    let parts = read_plan_block(block)?;
    let added = read_demand_block(block)?;
    let removed = read_demand_block(block)?;
    let (Some((_, k, _)), Some(prior), Some(parts), Some(added), Some(removed)) =
        (k, prior, parts, added, removed)
    else {
        return Ok(None);
    };
    if added.nodes != prior.nodes || removed.nodes != prior.nodes {
        block.note(malformed(
            "reconfigure delta (node count differs from the prior snapshot)",
            line,
        ));
        return Ok(None);
    }
    Ok(Some(Instance::reconfigure(
        demand_set_from_list(&prior),
        EdgePartition::new(parts),
        DemandDelta::new(pairs_from_list(&added), pairs_from_list(&removed)),
        k,
    )))
}

fn parse_item(line: &str, list: &DemandList) -> Result<Instance, WireError> {
    let (kind, k, budget) = item_fields(
        line,
        &["upsr", "ring", "budgeted", "weighted", "blsr"],
        Some("budget"),
        "ITEM field (unknown key)",
    )?;
    // Fields that a kind does not consume are rejected, not ignored.
    let instance = match kind {
        "budgeted" => {
            let missing = "ITEM budgeted (missing budget=)";
            let budget = required(budget, missing, "ITEM budgeted (budget must be >= 1)", line)?;
            Instance::budgeted(graph_from_list(list), k, budget)
        }
        _ if budget.is_some() => {
            return Err(malformed("ITEM (field not valid for this kind)", line))
        }
        "upsr" => Instance::upsr(graph_from_list(list), k),
        "ring" => Instance::ring(demand_set_from_list(list), k),
        "weighted" => Instance::weighted(weighted_from_list(list), k),
        "blsr" => Instance::blsr(BlsrRing::new(list.nodes), demand_set_from_list(list), k),
        _ => unreachable!("kind checked above"),
    };
    Ok(instance)
}

/// Each entry of `list` expanded to one `(u, v)` pair per unit, in
/// order. Units were checked against `max_units` when the block was read.
fn unit_pairs(list: &DemandList) -> impl Iterator<Item = (NodeId, NodeId)> + Clone + '_ {
    list.entries
        .iter()
        .flat_map(|&(u, v, units)| std::iter::repeat_n((NodeId(u), NodeId(v)), units as usize))
}

fn graph_from_list(list: &DemandList) -> Graph {
    Graph::from_endpoints(list.nodes, unit_pairs(list))
}

fn demand_set_from_list(list: &DemandList) -> DemandSet {
    let mut d = DemandSet::new(list.nodes);
    for (u, v) in unit_pairs(list) {
        d.add(u, v);
    }
    d
}

fn pairs_from_list(list: &DemandList) -> Vec<DemandPair> {
    unit_pairs(list)
        .map(|(u, v)| DemandPair::new(u, v))
        .collect()
}

fn weighted_from_list(list: &DemandList) -> WeightedDemandSet {
    let mut w = WeightedDemandSet::new(list.nodes);
    for &(u, v, units) in &list.entries {
        w.add(NodeId(u), NodeId(v), units);
    }
    w
}

/// Why an in-process value cannot be put on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireFormatError {
    /// The instance kind has no wire encoding (e.g. multi-ring).
    NotWireable(&'static str),
}

impl std::fmt::Display for WireFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireFormatError::NotWireable(what) => {
                write!(f, "not representable on the wire: {what}")
            }
        }
    }
}

impl std::error::Error for WireFormatError {}

/// Serializes a request block, the inverse of [`parse_request`].
///
/// Non-default tree strategies flatten to their canonical wire spelling
/// (`spant-euler` always means the BFS strategy on the wire).
pub fn format_batch_request(request: &Request) -> Result<String, WireFormatError> {
    format_request_with_verb("BATCH", request)
}

/// Serializes a request under the `RECONFIGURE` verb — `BATCH` restricted
/// to warm-start items; any other kind is refused.
pub fn format_reconfigure_request(request: &Request) -> Result<String, WireFormatError> {
    if request
        .items
        .iter()
        .any(|i| !matches!(i, Instance::Reconfigure { .. }))
    {
        return Err(WireFormatError::NotWireable(
            "RECONFIGURE carries only reconfigure items",
        ));
    }
    format_request_with_verb("RECONFIGURE", request)
}

fn format_request_with_verb(verb: &str, request: &Request) -> Result<String, WireFormatError> {
    let mut out = format!("{verb} id={} count={}", request.id, request.items.len());
    if let Some(deadline) = request.deadline {
        let _ = write!(out, " deadline_ms={}", deadline.as_millis());
    }
    if let Some(algo) = request.algo {
        let _ = write!(out, " algo={}", algo.wire_name());
    }
    out.push('\n');
    for item in &request.items {
        write_item(&mut out, item)?;
    }
    out.push_str("END\n");
    Ok(out)
}

/// Serializes one item stanza (`ITEM` line + its blocks).
pub fn format_item(instance: &Instance) -> Result<String, WireFormatError> {
    let mut out = String::new();
    write_item(&mut out, instance)?;
    Ok(out)
}

/// Appends one item stanza to `out`, each block written straight from what
/// the instance holds.
fn write_item(out: &mut String, instance: &Instance) -> Result<(), WireFormatError> {
    match instance {
        Instance::Upsr { graph, k } => {
            let _ = writeln!(out, "ITEM upsr k={k}");
            write_edges(out, graph);
        }
        Instance::Ring { demands, k } => {
            let _ = writeln!(out, "ITEM ring k={k}");
            write_pairs(out, demands.num_nodes(), demands.pairs());
        }
        Instance::Budgeted { graph, k, budget } => {
            let _ = writeln!(out, "ITEM budgeted k={k} budget={budget}");
            write_edges(out, graph);
        }
        Instance::WeightedSplittable { demands, k } => {
            let _ = writeln!(out, "ITEM weighted k={k}");
            let entries = demands.demands().iter();
            let entries = entries.map(|d| (d.pair.lo().0, d.pair.hi().0, d.units));
            write_demand_list(out, demands.num_nodes(), entries);
        }
        Instance::Blsr { ring, demands, k } => {
            if ring.num_nodes() != demands.num_nodes() {
                return Err(WireFormatError::NotWireable(
                    "blsr ring size differs from demand node count",
                ));
            }
            let _ = writeln!(out, "ITEM blsr k={k}");
            write_pairs(out, demands.num_nodes(), demands.pairs());
        }
        Instance::Reconfigure {
            demands,
            prior,
            delta,
            k,
        } => {
            let n = demands.num_nodes();
            let _ = writeln!(out, "ITEM reconfigure k={k}");
            write_pairs(out, n, demands.pairs());
            let _ = writeln!(out, "plan v1 {}", prior.parts().len());
            for part in prior.parts() {
                let _ = write!(out, "{}", part.len());
                for e in part {
                    let _ = write!(out, " {}", e.index());
                }
                out.push('\n');
            }
            write_pairs(out, n, &delta.added);
            write_pairs(out, n, &delta.removed);
        }
        Instance::Mesh {
            topology,
            demands,
            k,
            routes,
        } => {
            let _ = writeln!(out, "ITEM mesh k={k} routes={routes}");
            write_topology(out, topology);
            write_pairs(out, demands.num_nodes(), demands.pairs());
        }
        Instance::MultiRing { .. } => return Err(WireFormatError::NotWireable("multi-ring")),
        _ => return Err(WireFormatError::NotWireable("unknown instance kind")),
    }
    Ok(())
}

/// Appends `graph`'s edges, in edge-id order, as a demand list of unit
/// entries.
fn write_edges(out: &mut String, graph: &Graph) {
    let edges = graph.edge_list().iter().map(|&(u, v)| (u.0, v.0, 1));
    write_demand_list(out, graph.num_nodes(), edges);
}

/// Appends `pairs` on `nodes` nodes as a demand list of unit entries.
fn write_pairs(out: &mut String, nodes: usize, pairs: &[DemandPair]) {
    write_demand_list(out, nodes, pairs.iter().map(|p| (p.lo().0, p.hi().0, 1)));
}

/// Serializes a batch response. This is *the* transcript shape: the TCP
/// server and [`crate::Client::solve_transcript`] both emit these bytes,
/// and they are a pure function of `(request, master_seed)` — no
/// wall-clock, no worker identity.
pub fn format_batch_response(response: &BatchResponse) -> String {
    let mut out = format!("RESULT {} count={}\n", response.id, response.items.len());
    for (i, item) in response.items.iter().enumerate() {
        match item {
            ItemOutcome::Solved {
                plan,
                timed_out,
                cancelled,
            } => {
                let _ = writeln!(
                    out,
                    "PLAN {i} sadms={} wavelengths={} timed_out={timed_out} cancelled={cancelled}",
                    plan.sadm_cost(),
                    plan.wavelengths(),
                );
            }
            ItemOutcome::Failed { error } => {
                let _ = writeln!(out, "ERROR {i} {error}");
            }
        }
    }
    out.push_str("END\n");
    out
}

/// Reads one reply off a groomd connection: a `RESULT` block through its
/// `END` line, or else one line. A server that hangs up first is
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_reply(reader: &mut impl BufRead) -> io::Result<String> {
    let mut reply = String::new();
    loop {
        let start = reply.len();
        reader.read_line(&mut reply)?;
        let line = &reply[start..];
        if !line.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "groomd closed the connection mid-reply",
            ));
        }
        if !reply.starts_with("RESULT ") || line == "END\n" {
            return Ok(reply);
        }
    }
}

/// Serializes an admission refusal. Every numeric field is a deterministic
/// function of the queue contents at rejection time, so saturation tests
/// can assert rejection lines byte for byte.
pub fn format_rejected(id: u64, error: &SubmitError) -> String {
    match error {
        SubmitError::QueueFull {
            queue_depth,
            queued_cost,
        } => {
            format!("REJECTED {id} queue_full depth={queue_depth} cost={queued_cost}\n")
        }
        SubmitError::Shed {
            estimated_wait_ms,
            deadline_ms,
        } => {
            format!("REJECTED {id} shed wait_ms={estimated_wait_ms} deadline_ms={deadline_ms}\n")
        }
        SubmitError::ShuttingDown => format!("REJECTED {id} shutting_down\n"),
    }
}

/// Serializes a stats snapshot as a single `STATS` line.
///
/// Counter fields are deterministic, except `route_table_hits`: each
/// worker keeps its own route table, so the count depends on which
/// worker solved what before. The trailing `qwait_*`/`solve_*`
/// percentile fields are wall-clock observations (histogram bucket upper
/// bounds, in µs). Neither is transcript-stable — determinism checks
/// digest `BATCH` responses, not `STATS` lines.
pub fn format_stats(snapshot: &StatsSnapshot) -> String {
    let c = &snapshot.counters;
    let s = &snapshot.solve;
    format!(
        "STATS accepted_requests={} accepted_items={} rejected_requests={} shed_requests={} \
         completed_items={} reconfigures_completed={} failed_items={} timed_out_items={} \
         cancelled_items={} \
         cache_hits={} cache_misses={} cache_entries={} cache_evictions={} \
         queue_depth={} queued_cost={} in_flight={} workers={} \
         attempts={} swaps_evaluated={} scratch_resets={} stage_calls={} \
         parts_repaired={} sadms_moved={} \
         routes_evaluated={} route_table_hits={} groom_ports_used={} blocked_demands={} \
         lower_bound={} \
         qwait_p50_us={} qwait_p99_us={} solve_p50_us={} solve_p99_us={}\n",
        c.accepted_requests,
        c.accepted_items,
        c.rejected_requests,
        c.shed_requests,
        c.completed_items,
        c.reconfigures_completed,
        c.failed_items,
        c.timed_out_items,
        c.cancelled_items,
        c.cache_hits,
        c.cache_misses,
        snapshot.cache_entries,
        snapshot.cache_evictions,
        snapshot.queue_depth,
        snapshot.queued_cost,
        snapshot.in_flight,
        snapshot.workers,
        s.attempts,
        s.swaps_evaluated,
        s.scratch_resets,
        s.stage_calls(),
        s.parts_repaired,
        s.sadms_moved,
        s.routes_evaluated,
        s.route_table_hits,
        s.groom_ports_used,
        s.blocked_demands,
        s.lower_bound,
        snapshot.queue_wait.percentile(0.5).as_micros(),
        snapshot.queue_wait.percentile(0.99).as_micros(),
        snapshot.solve_time.percentile(0.5).as_micros(),
        snapshot.solve_time.percentile(0.99).as_micros(),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::service::{ItemError, ServiceConfig};
    use grooming::solve::{SolveContext, Solver};
    use grooming_graph::generators;
    use grooming_graph::topology::NodeCaps;
    use grooming_sonet::multiring::{rn, MultiRingNetwork};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn parse_str(text: &str, config: &ServiceConfig) -> Result<WireRequest, RequestError> {
        let mut lines = text.lines().map(|l| Ok(l.to_string()));
        let first = lines.next().unwrap().unwrap();
        parse_request(&first, &mut lines, config)
    }

    fn sample_request() -> Request {
        let mut rng = StdRng::seed_from_u64(11);
        let graph = generators::gnm(8, 14, &mut rng);
        let demands = DemandSet::random(9, 16, &mut rng);
        let mut weighted = WeightedDemandSet::new(6);
        weighted.add(NodeId(0), NodeId(3), 3);
        weighted.add(NodeId(1), NodeId(4), 1);
        // A 3×3 grid topology with one capacitated core node and one
        // non-unit weight, so the mesh stanza exercises every token form.
        let mut caps = vec![NodeCaps::UNLIMITED; 9];
        caps[4] = NodeCaps::new(6, 3);
        let mut weights = vec![1u32; 12];
        weights[0] = 2;
        let topology = Topology::new(generators::grid(3, 3), weights, caps);
        Request {
            id: 42,
            items: vec![
                Instance::upsr(graph.clone(), 4),
                Instance::ring(demands.clone(), 3),
                Instance::budgeted(graph, 4, 7),
                Instance::weighted(weighted, 4),
                Instance::mesh(topology, demands.clone(), 3, 2),
                Instance::blsr(BlsrRing::new(9), demands, 3),
            ],
            deadline: Some(Duration::from_millis(250)),
            algo: Some(Algorithm::Brauner),
        }
    }

    /// One instance of each wire kind, each holding its kind's awkward
    /// cases: reversed and parallel edges, a multi-unit entry, `*` beside
    /// finite capacities with a non-unit weight, and a reconfigure with a
    /// non-empty plan and delta.
    pub(crate) fn one_of_each_kind() -> Vec<Instance> {
        let graph = Graph::from_edges(5, &[(0, 1), (3, 1), (2, 4), (0, 1)]);
        let demands = DemandSet::from_pairs(6, &[(0, 3), (4, 1), (0, 3), (5, 2)]);
        let mut weighted = WeightedDemandSet::new(6);
        weighted.add(NodeId(0), NodeId(3), 4);
        weighted.add(NodeId(5), NodeId(1), 1);
        let caps = vec![
            NodeCaps::UNLIMITED,
            NodeCaps::new(2, u32::MAX),
            NodeCaps::new(u32::MAX, 0),
            NodeCaps::new(3, 5),
        ];
        let links = Graph::from_edges(4, &[(0, 1), (2, 1), (2, 3), (3, 0), (0, 2)]);
        let topology = Topology::new(links, vec![1, 3, 1, 1, 2], caps);
        let mesh_demands = DemandSet::from_pairs(4, &[(0, 2), (3, 1), (0, 2)]);
        let prior =
            EdgePartition::new(vec![vec![EdgeId(0), EdgeId(2)], vec![EdgeId(3), EdgeId(1)]]);
        let delta = DemandDelta::new(
            vec![DemandPair::new(NodeId(4), NodeId(2))],
            vec![DemandPair::new(NodeId(3), NodeId(0))],
        );
        vec![
            Instance::upsr(graph.clone(), 3),
            Instance::ring(demands.clone(), 2),
            Instance::budgeted(graph, 3, 2),
            Instance::weighted(weighted, 4),
            Instance::blsr(BlsrRing::new(6), demands.clone(), 2),
            Instance::mesh(topology, mesh_demands, 2, 3),
            Instance::reconfigure(demands, prior, delta, 2),
        ]
    }

    #[test]
    fn batch_request_round_trips_byte_for_byte() {
        let mut request = sample_request();
        request.items.extend(one_of_each_kind());
        let wire = format_batch_request(&request).unwrap();
        let parsed = match parse_str(&wire, &ServiceConfig::default()).unwrap() {
            WireRequest::Batch(r) => r,
            other => panic!("expected batch, got {other:?}"),
        };
        assert_eq!(parsed.id, request.id);
        assert_eq!(parsed.deadline, request.deadline);
        assert_eq!(parsed.algo, request.algo);
        assert_eq!(parsed.items.len(), request.items.len());
        // Instance has no PartialEq; format → parse → format must be the
        // identity on the wire bytes.
        assert_eq!(format_batch_request(&parsed).unwrap(), wire);
    }

    fn sample_reconfigure() -> Instance {
        let mut rng = StdRng::seed_from_u64(23);
        let demands = DemandSet::random(8, 12, &mut rng);
        let prior =
            grooming::algorithm::Algorithm::SpanTEuler(grooming_graph::spanning::TreeStrategy::Bfs)
                .solve(
                    &Instance::ring(demands.clone(), 3),
                    &mut SolveContext::seeded(2),
                )
                .unwrap()
                .plan
                .partition()
                .expect("ring plan")
                .clone();
        let delta = DemandDelta::new(
            vec![DemandPair::new(NodeId(1), NodeId(6))],
            vec![demands.pairs()[2]],
        );
        Instance::reconfigure(demands, prior, delta, 3)
    }

    #[test]
    fn reconfigure_request_round_trips_byte_for_byte() {
        let request = Request::batch(7, vec![sample_reconfigure(), sample_reconfigure()]);
        let wire = format_reconfigure_request(&request).unwrap();
        assert!(wire.starts_with("RECONFIGURE id=7 count=2\n"));
        let parsed = match parse_str(&wire, &ServiceConfig::default()).unwrap() {
            WireRequest::Batch(r) => r,
            other => panic!("expected batch, got {other:?}"),
        };
        assert_eq!(parsed.id, request.id);
        assert_eq!(parsed.items.len(), 2);
        assert_eq!(format_reconfigure_request(&parsed).unwrap(), wire);
        // The same stanzas ride in a plain BATCH too.
        let batch_wire = format_batch_request(&request).unwrap();
        let reparsed = match parse_str(&batch_wire, &ServiceConfig::default()).unwrap() {
            WireRequest::Batch(r) => r,
            other => panic!("expected batch, got {other:?}"),
        };
        assert_eq!(format_batch_request(&reparsed).unwrap(), batch_wire);
    }

    #[test]
    fn reconfigure_verb_rejects_other_item_kinds() {
        let config = ServiceConfig::default();
        let text = "RECONFIGURE id=1 count=1\nITEM upsr k=4\ndemands v1 2 1\n0 1\nEND\n";
        assert!(matches!(
            parse_str(text, &config),
            Err(RequestError::Wire(WireError::Malformed { .. }))
        ));
        let mixed = Request::batch(
            1,
            vec![
                sample_reconfigure(),
                Instance::ring(DemandSet::random(6, 5, &mut StdRng::seed_from_u64(1)), 2),
            ],
        );
        assert_eq!(
            format_reconfigure_request(&mixed),
            Err(WireFormatError::NotWireable(
                "RECONFIGURE carries only reconfigure items"
            ))
        );
    }

    #[test]
    fn malformed_reconfigure_stanzas_error_instead_of_panicking() {
        let config = ServiceConfig::default();
        let cases = [
            // Plan header is not a plan header.
            "BATCH id=1 count=1\nITEM reconfigure k=2\ndemands v1 3 1\n0 1\nplans v1 1\n1 0\n\
             demands v1 3 0\ndemands v1 3 0\nEND\n",
            // Delta node count differs from the prior snapshot.
            "BATCH id=1 count=1\nITEM reconfigure k=2\ndemands v1 3 1\n0 1\nplan v1 1\n1 0\n\
             demands v1 4 0\ndemands v1 3 0\nEND\n",
            // Fields from other kinds are rejected.
            "BATCH id=1 count=1\nITEM reconfigure k=2 budget=3\ndemands v1 3 1\n0 1\n\
             plan v1 1\n1 0\ndemands v1 3 0\ndemands v1 3 0\nEND\n",
            // Part line with trailing garbage.
            "BATCH id=1 count=1\nITEM reconfigure k=2\ndemands v1 3 1\n0 1\nplan v1 1\n1 0 9\n\
             demands v1 3 0\ndemands v1 3 0\nEND\n",
        ];
        for text in cases {
            assert!(
                matches!(parse_str(text, &config), Err(RequestError::Wire(_))),
                "expected wire error for {text:?}"
            );
        }
        // A plan declaring more parts than the unit cap is refused off the
        // header, before any part line is read.
        let config = ServiceConfig {
            max_units: 4,
            ..ServiceConfig::default()
        };
        let text = "BATCH id=1 count=1\nITEM reconfigure k=2\ndemands v1 3 1\n0 1\n\
                    plan v1 4000000000\nEND\n";
        assert!(matches!(
            parse_str(text, &config),
            Err(RequestError::Wire(WireError::TooLarge {
                what: "plan parts",
                ..
            }))
        ));
    }

    #[test]
    fn mesh_stanzas_parse_and_malformed_ones_error() {
        let config = ServiceConfig::default();
        // A minimal well-formed mesh stanza parses into a mesh instance.
        let text = "BATCH id=1 count=1\nITEM mesh k=2 routes=2\ntopology v1 3 3\n* *\n* *\n* *\n\
                    0 1\n1 2\n2 0\ndemands v1 3 2\n0 1\n1 2\nEND\n";
        let parsed = match parse_str(text, &config).unwrap() {
            WireRequest::Batch(r) => r,
            other => panic!("expected batch, got {other:?}"),
        };
        assert!(matches!(
            parsed.items[0],
            Instance::Mesh {
                k: 2,
                routes: 2,
                ..
            }
        ));
        let cases = [
            // Missing routes=.
            "BATCH id=1 count=1\nITEM mesh k=2\ntopology v1 3 3\n* *\n* *\n* *\n\
             0 1\n1 2\n2 0\ndemands v1 3 1\n0 1\nEND\n",
            // Zero route fan-out.
            "BATCH id=1 count=1\nITEM mesh k=2 routes=0\ntopology v1 3 3\n* *\n* *\n* *\n\
             0 1\n1 2\n2 0\ndemands v1 3 1\n0 1\nEND\n",
            // Fields from other kinds are rejected.
            "BATCH id=1 count=1\nITEM mesh k=2 routes=2 budget=3\ntopology v1 3 3\n* *\n* *\n\
             * *\n0 1\n1 2\n2 0\ndemands v1 3 1\n0 1\nEND\n",
            // Demand node count differs from the topology.
            "BATCH id=1 count=1\nITEM mesh k=2 routes=2\ntopology v1 3 3\n* *\n* *\n* *\n\
             0 1\n1 2\n2 0\ndemands v1 4 1\n0 1\nEND\n",
            // Zero-weight link.
            "BATCH id=1 count=1\nITEM mesh k=2 routes=2\ntopology v1 3 3\n* *\n* *\n* *\n\
             0 1 0\n1 2\n2 0\ndemands v1 3 1\n0 1\nEND\n",
            // Cap line with the wrong arity.
            "BATCH id=1 count=1\nITEM mesh k=2 routes=2\ntopology v1 3 3\n* * *\n* *\n* *\n\
             0 1\n1 2\n2 0\ndemands v1 3 1\n0 1\nEND\n",
        ];
        for text in cases {
            assert!(
                matches!(parse_str(text, &config), Err(RequestError::Wire(_))),
                "expected wire error for {text:?}"
            );
        }
        // Oversized topology declarations are refused off the header,
        // before a single cap or link line is buffered.
        let config = ServiceConfig {
            max_nodes: 16,
            max_units: 10,
            ..ServiceConfig::default()
        };
        let text = "BATCH id=1 count=1\nITEM mesh k=2 routes=2\ntopology v1 1000000000 1\nEND\n";
        assert!(matches!(
            parse_str(text, &config),
            Err(RequestError::Wire(WireError::TooLarge {
                what: "nodes",
                ..
            }))
        ));
        let text = "BATCH id=1 count=1\nITEM mesh k=2 routes=2\ntopology v1 4 4000000000\nEND\n";
        assert!(matches!(
            parse_str(text, &config),
            Err(RequestError::Wire(WireError::TooLarge {
                what: "links",
                ..
            }))
        ));
    }

    #[test]
    fn simple_verbs_parse_and_reject_arguments() {
        let config = ServiceConfig::default();
        assert!(matches!(
            parse_str("PING\n", &config),
            Ok(WireRequest::Ping)
        ));
        assert!(matches!(
            parse_str("  STATS \n", &config),
            Ok(WireRequest::Stats)
        ));
        assert!(matches!(
            parse_str("SHUTDOWN\n", &config),
            Ok(WireRequest::Shutdown)
        ));
        assert!(matches!(
            parse_str("PING now\n", &config),
            Err(RequestError::Wire(WireError::Malformed { .. }))
        ));
        assert!(matches!(
            parse_str("HELLO\n", &config),
            Err(RequestError::Wire(WireError::Malformed { .. }))
        ));
    }

    #[test]
    fn oversized_declarations_are_refused_before_expansion() {
        let config = ServiceConfig {
            max_nodes: 16,
            max_units: 10,
            queue_capacity: 4,
            ..ServiceConfig::default()
        };
        // A huge node count is refused off the header alone.
        let text = "BATCH id=1 count=1\nITEM upsr k=4\ndemands v1 1000000000 1\n0 1\nEND\n";
        assert!(matches!(
            parse_str(text, &config),
            Err(RequestError::Wire(WireError::TooLarge {
                what: "nodes",
                ..
            }))
        ));
        // So is an entry count beyond the unit cap (units >= entries).
        let text = "BATCH id=1 count=1\nITEM upsr k=4\ndemands v1 4 4000000000\n0 1\nEND\n";
        assert!(matches!(
            parse_str(text, &config),
            Err(RequestError::Wire(WireError::TooLarge {
                what: "units",
                ..
            }))
        ));
        // Weighted units multiply out; the cap applies to the total.
        let text = "BATCH id=1 count=1\nITEM weighted k=4\ndemands v1 4 2\n0 1 9\n1 2 9\nEND\n";
        assert!(matches!(
            parse_str(text, &config),
            Err(RequestError::Wire(WireError::TooLarge {
                what: "units",
                ..
            }))
        ));
        // A batch that can never fit the queue is refused as text.
        let text = "BATCH id=1 count=5\n";
        assert!(matches!(
            parse_str(text, &config),
            Err(RequestError::Wire(WireError::TooLarge {
                what: "items",
                ..
            }))
        ));
    }

    #[test]
    fn malformed_blocks_error_instead_of_panicking() {
        let config = ServiceConfig::default();
        let cases = [
            "BATCH count=1\nITEM upsr k=4\ndemands v1 2 0\nEND\n", // missing id
            "BATCH id=1\nEND\n",                                   // missing count
            "BATCH id=1 count=1 algo=nope\nITEM upsr k=4\ndemands v1 2 0\nEND\n",
            "BATCH id=1 count=1\nITEM upsr\ndemands v1 2 0\nEND\n", // missing k
            "BATCH id=1 count=1\nITEM upsr k=0\ndemands v1 2 0\nEND\n",
            "BATCH id=1 count=1\nITEM upsr k=4 budget=3\ndemands v1 2 0\nEND\n",
            "BATCH id=1 count=1\nITEM budgeted k=4\ndemands v1 2 0\nEND\n", // missing budget
            "BATCH id=1 count=1\nITEM online k=4 sadms=3\ndemands v1 2 0\nEND\n", // retired kind
            "BATCH id=1 count=1\nITEM ring k=4 sadms=3\ndemands v1 2 0\nEND\n", // unknown key
            "BATCH id=1 count=1\nITEM warp k=4\ndemands v1 2 0\nEND\n",     // unknown kind
            "BATCH id=1 count=1\nITEM upsr k=4\ndemands v1 1 0\nEND\n",     // < 2 nodes
            "BATCH id=1 count=1\nITEM upsr k=4\ndemands v2 2 0\nEND\n",     // bad version
            "BATCH id=1 count=1\nITEM upsr k=4\ndemands v1 2 1\n0 0\nEND\n", // self-demand
            "BATCH id=1 count=1\nITEM upsr k=4\ndemands v1 2 1\n0 1\nEXTRA\n", // no END
        ];
        for text in cases {
            assert!(
                matches!(parse_str(text, &config), Err(RequestError::Wire(_))),
                "expected wire error for {text:?}"
            );
        }
        // An unknown kind is reported as such whatever keys it carries.
        let text = "BATCH id=1 count=1\nITEM online k=4 sadms=3\ndemands v1 2 0\nEND\n";
        assert!(matches!(
            parse_str(text, &config),
            Err(RequestError::Wire(WireError::Malformed {
                context: "ITEM (unknown kind)",
                ..
            }))
        ));
        // Truncation mid-block is EOF, not a panic.
        let text = "BATCH id=1 count=2\nITEM upsr k=4\ndemands v1 3 2\n0 1\n";
        assert!(matches!(
            parse_str(text, &config),
            Err(RequestError::Wire(WireError::UnexpectedEof))
        ));
        // END where an ITEM was due is a short batch, not the stream's end.
        let text = "BATCH id=1 count=2\nITEM upsr k=4\ndemands v1 3 1\n0 1\nEND\n";
        let err = parse_str(text, &config).unwrap_err();
        assert_eq!(
            err.to_string(),
            r#"malformed BATCH (END before count= items): "END""#
        );
    }

    #[test]
    fn multi_ring_instances_are_not_wireable() {
        let mut network = MultiRingNetwork::new(vec![4, 4]);
        network.add_gateway(rn(0, 0), rn(1, 0));
        let instance = Instance::multi_ring(network, vec![(rn(0, 1), rn(1, 2))], 4);
        assert_eq!(
            format_item(&instance),
            Err(WireFormatError::NotWireable("multi-ring"))
        );
        let request = Request::batch(1, vec![instance]);
        assert!(format_batch_request(&request).is_err());
    }

    #[test]
    fn response_transcript_has_the_documented_shape() {
        let graph = generators::gnm(8, 14, &mut StdRng::seed_from_u64(3));
        let mut ctx = SolveContext::seeded(1);
        let solution = Algorithm::Goldschmidt
            .solve(&Instance::upsr(graph, 4), &mut ctx)
            .unwrap();
        let response = BatchResponse {
            id: 7,
            items: vec![
                ItemOutcome::Solved {
                    plan: solution.plan.clone(),
                    timed_out: false,
                    cancelled: false,
                },
                ItemOutcome::Failed {
                    error: ItemError::TooLarge {
                        what: "nodes",
                        got: 99,
                        limit: 8,
                    },
                },
            ],
        };
        let transcript = format_batch_response(&response);
        let lines: Vec<&str> = transcript.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "RESULT 7 count=2");
        assert_eq!(
            lines[1],
            format!(
                "PLAN 0 sadms={} wavelengths={} timed_out=false cancelled=false",
                solution.plan.sadm_cost(),
                solution.plan.wavelengths()
            )
        );
        assert_eq!(
            lines[2],
            "ERROR 1 instance too large: 99 nodes exceeds limit 8"
        );
        assert_eq!(lines[3], "END");
    }

    #[test]
    fn rejections_and_stats_format_one_line_each() {
        assert_eq!(
            format_rejected(
                3,
                &SubmitError::QueueFull {
                    queue_depth: 17,
                    queued_cost: 4096
                }
            ),
            "REJECTED 3 queue_full depth=17 cost=4096\n"
        );
        assert_eq!(
            format_rejected(
                5,
                &SubmitError::Shed {
                    estimated_wait_ms: 900,
                    deadline_ms: 250
                }
            ),
            "REJECTED 5 shed wait_ms=900 deadline_ms=250\n"
        );
        assert_eq!(
            format_rejected(4, &SubmitError::ShuttingDown),
            "REJECTED 4 shutting_down\n"
        );
        let counters = crate::ServiceCounters {
            completed_items: 9,
            reconfigures_completed: 4,
            ..Default::default()
        };
        let snapshot = StatsSnapshot {
            counters,
            queue_depth: 2,
            queued_cost: 640,
            in_flight: 1,
            workers: 3,
            solve: Default::default(),
            queue_wait: Default::default(),
            solve_time: Default::default(),
            cache_entries: 0,
            cache_evictions: 0,
        };
        let line = format_stats(&snapshot);
        assert!(line.starts_with("STATS accepted_requests=0 accepted_items=0 "));
        assert!(line.contains(" completed_items=9 reconfigures_completed=4 "));
        assert!(line.contains(" queue_depth=2 queued_cost=640 in_flight=1 workers=3 "));
        assert!(line.contains(" cache_hits=0 cache_misses=0 "));
        assert!(line.ends_with("qwait_p50_us=0 qwait_p99_us=0 solve_p50_us=0 solve_p99_us=0\n"));
        assert_eq!(line.lines().count(), 1);
    }
}

//! Plain-text edge-list interchange format.
//!
//! ```text
//! # optional comments
//! n m
//! u v
//! u v
//! ...
//! ```
//!
//! `upsr-groom groom FILE` reads traffic graphs as edge lists or graph6
//! and exports plans as Graphviz DOT; groomd's wire protocol carries its
//! demands and topologies in the versioned [`DemandList`] and topology
//! blocks. Each `format_*` is its parser's round-trip partner in the tests.

use crate::graph::Graph;
use crate::ids::NodeId;

/// Errors from [`parse_edge_list`], [`parse_demand_list`], and friends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The `n m` header line is missing or malformed.
    BadHeader(String),
    /// The format version is not one this build understands.
    UnsupportedVersion {
        /// The version token found in the header.
        found: String,
    },
    /// An edge line is malformed.
    BadEdge {
        /// 1-based line number.
        line: usize,
        /// Offending line content.
        content: String,
    },
    /// An endpoint is out of the declared node range or is a self-loop.
    BadEndpoint {
        /// 1-based line number.
        line: usize,
        /// Offending line content.
        content: String,
    },
    /// A demand entry carries an invalid unit count (zero or unparsable).
    BadUnits {
        /// 1-based line number.
        line: usize,
        /// Offending line content.
        content: String,
    },
    /// The number of edge lines does not match the header.
    ///
    /// For [`parse_topology`] payloads the count covers the whole body —
    /// the `n` capacity lines plus the `m` link lines.
    EdgeCountMismatch {
        /// Edge count from the header.
        declared: usize,
        /// Edge lines actually present.
        found: usize,
    },
    /// A node-capacity line of a topology payload is malformed.
    BadCaps {
        /// 1-based line number.
        line: usize,
        /// Offending line content.
        content: String,
    },
    /// A link line of a topology payload carries an invalid weight (zero
    /// or unparsable).
    BadWeight {
        /// 1-based line number.
        line: usize,
        /// Offending line content.
        content: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader(s) => write!(f, "bad header line: {s:?}"),
            ParseError::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {found:?}")
            }
            ParseError::BadEdge { line, content } => {
                write!(f, "bad edge on line {line}: {content:?}")
            }
            ParseError::BadEndpoint { line, content } => {
                write!(f, "bad endpoint on line {line}: {content:?}")
            }
            ParseError::BadUnits { line, content } => {
                write!(f, "bad unit count on line {line}: {content:?}")
            }
            ParseError::EdgeCountMismatch { declared, found } => {
                write!(f, "header declares {declared} edges, found {found}")
            }
            ParseError::BadCaps { line, content } => {
                write!(f, "bad node capacities on line {line}: {content:?}")
            }
            ParseError::BadWeight { line, content } => {
                write!(f, "bad link weight on line {line}: {content:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Serializes a graph to the edge-list format.
pub fn format_edge_list(g: &Graph) -> String {
    let mut out = String::with_capacity(16 + 8 * g.num_edges());
    out.push_str(&format!("{} {}\n", g.num_nodes(), g.num_edges()));
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        out.push_str(&format!("{u} {v}\n"));
    }
    out
}

/// Parses the edge-list format. Comment lines start with `#`; blank lines
/// are ignored.
pub fn parse_edge_list(text: &str) -> Result<Graph, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseError::BadHeader("<empty input>".into()))?;
    let mut parts = header.split_whitespace();
    let n: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ParseError::BadHeader(header.into()))?;
    let m: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ParseError::BadHeader(header.into()))?;
    if parts.next().is_some() {
        return Err(ParseError::BadHeader(header.into()));
    }

    let mut g = Graph::new(n);
    let mut found = 0usize;
    for (line_no, line) in lines {
        let mut parts = line.split_whitespace();
        let (u, v) = match (
            parts.next().and_then(|t| t.parse::<u32>().ok()),
            parts.next().and_then(|t| t.parse::<u32>().ok()),
            parts.next(),
        ) {
            (Some(u), Some(v), None) => (u, v),
            _ => {
                return Err(ParseError::BadEdge {
                    line: line_no,
                    content: line.into(),
                })
            }
        };
        if u as usize >= n || v as usize >= n || u == v {
            return Err(ParseError::BadEndpoint {
                line: line_no,
                content: line.into(),
            });
        }
        g.add_edge(NodeId(u), NodeId(v));
        found += 1;
    }
    if found != m {
        return Err(ParseError::EdgeCountMismatch { declared: m, found });
    }
    Ok(g)
}

// ---------------------------------------------------------------------------
// demand lists: the versioned wire format for (weighted) demand sets
// ---------------------------------------------------------------------------
//
// The grooming service ships demand sets over a newline-delimited text
// protocol; this is the instance payload it speaks. The format is
// explicitly versioned so the wire protocol can evolve without silently
// misreading old captures:
//
// ```text
// demands v1 <n> <m>
// u v          # one unit of symmetric demand between u and v
// u v units    # `units` units (weighted entry; units >= 1)
// ```
//
// `#` comments and blank lines are ignored, endpoints are 0-based and must
// be distinct and `< n`, and exactly `m` entry lines must follow the
// header. A demand set is graph-shaped (one parallel edge per unit), but
// the list is kept as raw `(u, v, units)` triples so this crate stays
// ignorant of the SONET-side `DemandSet`/`WeightedDemandSet` types — the
// caller decides whether to expand units into parallel edges.

/// The magic+version token opening a [`parse_demand_list`] payload.
pub const DEMAND_LIST_V1: &str = "demands v1";

/// A parsed (possibly weighted) demand list: `n` ring nodes and `(u, v,
/// units)` entries in input order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DemandList {
    /// Number of ring nodes.
    pub nodes: usize,
    /// `(u, v, units)` triples, `u != v`, both `< nodes`, `units >= 1`.
    pub entries: Vec<(u32, u32, u32)>,
}

impl DemandList {
    /// Total demand units (entries weighted by their unit count).
    pub fn total_units(&self) -> u64 {
        self.entries.iter().map(|&(_, _, u)| u as u64).sum()
    }
}

/// Serializes a demand list in canonical v1 form (unit entries omit the
/// trailing `1`), the inverse of [`parse_demand_list`].
pub fn format_demand_list(list: &DemandList) -> String {
    let mut out = String::with_capacity(24 + 8 * list.entries.len());
    out.push_str(&format!(
        "{DEMAND_LIST_V1} {} {}\n",
        list.nodes,
        list.entries.len()
    ));
    for &(u, v, units) in &list.entries {
        if units == 1 {
            out.push_str(&format!("{u} {v}\n"));
        } else {
            out.push_str(&format!("{u} {v} {units}\n"));
        }
    }
    out
}

/// Parses the versioned demand-list format. Malformed input — including
/// unknown versions, self-demands, out-of-range endpoints, zero units, and
/// count mismatches — returns `Err`; this function never panics.
pub fn parse_demand_list(text: &str) -> Result<DemandList, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseError::BadHeader("<empty input>".into()))?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("demands") {
        return Err(ParseError::BadHeader(header.into()));
    }
    let version = parts
        .next()
        .ok_or_else(|| ParseError::BadHeader(header.into()))?;
    if version != "v1" {
        return Err(ParseError::UnsupportedVersion {
            found: version.into(),
        });
    }
    let n: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ParseError::BadHeader(header.into()))?;
    let m: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ParseError::BadHeader(header.into()))?;
    if parts.next().is_some() {
        return Err(ParseError::BadHeader(header.into()));
    }

    let mut entries = Vec::new();
    for (line_no, line) in lines {
        let mut toks = line.split_whitespace();
        let (u, v) = match (
            toks.next().and_then(|t| t.parse::<u32>().ok()),
            toks.next().and_then(|t| t.parse::<u32>().ok()),
        ) {
            (Some(u), Some(v)) => (u, v),
            _ => {
                return Err(ParseError::BadEdge {
                    line: line_no,
                    content: line.into(),
                })
            }
        };
        let units = match toks.next() {
            None => 1,
            Some(tok) => match tok.parse::<u32>() {
                Ok(u) if u >= 1 => u,
                _ => {
                    return Err(ParseError::BadUnits {
                        line: line_no,
                        content: line.into(),
                    })
                }
            },
        };
        if toks.next().is_some() {
            return Err(ParseError::BadEdge {
                line: line_no,
                content: line.into(),
            });
        }
        if u as usize >= n || v as usize >= n || u == v {
            return Err(ParseError::BadEndpoint {
                line: line_no,
                content: line.into(),
            });
        }
        entries.push((u, v, units));
    }
    if entries.len() != m {
        return Err(ParseError::EdgeCountMismatch {
            declared: m,
            found: entries.len(),
        });
    }
    Ok(DemandList { nodes: n, entries })
}

// ---------------------------------------------------------------------------
// topologies: the versioned wire format for physical meshes
// ---------------------------------------------------------------------------
//
// The mesh grooming workload routes demands over a physical
// [`Topology`](crate::topology::Topology) — a weighted multigraph with
// per-node grooming hardware — and topologies ride the same newline wire
// protocol demand sets do. Versioned for the same reason:
//
// ```text
// topology v1 <n> <m>
// <ports> <switch>   # n capacity lines, one per node; `*` = unlimited
// u v                # m link lines; weight omitted = 1
// u v w              # explicit weight (w >= 1)
// ```
//
// `#` comments and blank lines are ignored. Endpoints are 0-based,
// distinct, and `< n`; parallel links are allowed (it is a multigraph).
// `u32::MAX` capacities always serialize as `*`, so the canonical form is
// bytewise stable under round trips.

/// The magic+version token opening a [`parse_topology`] payload.
pub const TOPOLOGY_V1: &str = "topology v1";

use crate::topology::{NodeCaps, Topology};

/// Serializes a topology in canonical v1 form (unlimited capacities as
/// `*`, unit weights omitted), the inverse of [`parse_topology`].
pub fn format_topology(topo: &Topology) -> String {
    let g = topo.graph();
    let mut out = String::with_capacity(24 + 6 * g.num_nodes() + 8 * g.num_edges());
    out.push_str(&format!(
        "{TOPOLOGY_V1} {} {}\n",
        g.num_nodes(),
        g.num_edges()
    ));
    let cap = |c: u32| {
        if c == u32::MAX {
            "*".to_string()
        } else {
            c.to_string()
        }
    };
    for &c in topo.node_caps() {
        out.push_str(&format!(
            "{} {}\n",
            cap(c.add_drop_ports),
            cap(c.switch_capacity)
        ));
    }
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        let w = topo.weight(e);
        if w == 1 {
            out.push_str(&format!("{u} {v}\n"));
        } else {
            out.push_str(&format!("{u} {v} {w}\n"));
        }
    }
    out
}

fn parse_cap_token(tok: &str) -> Option<u32> {
    if tok == "*" {
        Some(u32::MAX)
    } else {
        tok.parse().ok()
    }
}

/// Parses the versioned topology format. Malformed input — unknown
/// versions, bad capacities, self-loop links, out-of-range endpoints,
/// zero weights, and line-count mismatches — returns `Err`; this function
/// never panics.
pub fn parse_topology(text: &str) -> Result<Topology, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseError::BadHeader("<empty input>".into()))?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("topology") {
        return Err(ParseError::BadHeader(header.into()));
    }
    let version = parts
        .next()
        .ok_or_else(|| ParseError::BadHeader(header.into()))?;
    if version != "v1" {
        return Err(ParseError::UnsupportedVersion {
            found: version.into(),
        });
    }
    let n: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ParseError::BadHeader(header.into()))?;
    let m: usize = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ParseError::BadHeader(header.into()))?;
    if parts.next().is_some() {
        return Err(ParseError::BadHeader(header.into()));
    }

    let body: Vec<(usize, &str)> = lines.collect();
    if body.len() != n + m {
        return Err(ParseError::EdgeCountMismatch {
            declared: n + m,
            found: body.len(),
        });
    }

    let mut caps = Vec::with_capacity(n);
    for &(line_no, line) in &body[..n] {
        let mut toks = line.split_whitespace();
        match (
            toks.next().and_then(parse_cap_token),
            toks.next().and_then(parse_cap_token),
            toks.next(),
        ) {
            (Some(ports), Some(switch), None) => caps.push(NodeCaps::new(ports, switch)),
            _ => {
                return Err(ParseError::BadCaps {
                    line: line_no,
                    content: line.into(),
                })
            }
        }
    }

    let mut g = Graph::new(n);
    let mut weights = Vec::with_capacity(m);
    for &(line_no, line) in &body[n..] {
        let mut toks = line.split_whitespace();
        let (u, v) = match (
            toks.next().and_then(|t| t.parse::<u32>().ok()),
            toks.next().and_then(|t| t.parse::<u32>().ok()),
        ) {
            (Some(u), Some(v)) => (u, v),
            _ => {
                return Err(ParseError::BadEdge {
                    line: line_no,
                    content: line.into(),
                })
            }
        };
        let w = match toks.next() {
            None => 1,
            Some(tok) => match tok.parse::<u32>() {
                Ok(w) if w >= 1 => w,
                _ => {
                    return Err(ParseError::BadWeight {
                        line: line_no,
                        content: line.into(),
                    })
                }
            },
        };
        if toks.next().is_some() {
            return Err(ParseError::BadEdge {
                line: line_no,
                content: line.into(),
            });
        }
        if u as usize >= n || v as usize >= n || u == v {
            return Err(ParseError::BadEndpoint {
                line: line_no,
                content: line.into(),
            });
        }
        g.add_edge(NodeId(u), NodeId(v));
        weights.push(w);
    }
    Ok(Topology::new(g, weights, caps))
}

/// Serializes a graph to Graphviz DOT, with an optional color class per
/// edge (`edge_color[e]` indexes a fixed palette; `usize::MAX` = default).
/// Used by the CLI to render wavelength assignments.
pub fn format_dot(g: &Graph, name: &str, edge_color: Option<&[usize]>) -> String {
    const PALETTE: [&str; 10] = [
        "#4E79A7", "#F28E2B", "#E15759", "#76B7B2", "#59A14F", "#EDC948", "#B07AA1", "#9C755F",
        "#FF9DA7", "#86BCB6",
    ];
    let mut out = String::new();
    out.push_str(&format!("graph {} {{\n", sanitize_dot_id(name)));
    out.push_str("  layout=circo;\n  node [shape=circle fontsize=10];\n");
    for v in g.nodes() {
        out.push_str(&format!("  {v};\n"));
    }
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        let attrs = match edge_color.and_then(|c| c.get(e.index())) {
            Some(&c) if c != usize::MAX => format!(
                " [color=\"{}\" penwidth=2 tooltip=\"wavelength {c}\"]",
                PALETTE[c % PALETTE.len()]
            ),
            _ => String::new(),
        };
        out.push_str(&format!("  {u} -- {v}{attrs};\n"));
    }
    out.push_str("}\n");
    out
}

fn sanitize_dot_id(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() || cleaned.chars().next().unwrap().is_ascii_digit() {
        format!("g_{cleaned}")
    } else {
        cleaned
    }
}

// ---------------------------------------------------------------------------
// graph6: the nauty/GenReg interchange format
// ---------------------------------------------------------------------------
//
// The paper generated its regular instances with Meringer's GenReg, whose
// ecosystem speaks graph6. Supporting the format lets users replay their
// own GenReg/nauty outputs through this library.
//
// Format (simple undirected graphs, n ≤ 258047 supported here):
//   N(n): n ≤ 62 → one byte n+63; else byte 126 followed by three bytes
//         encoding n in 18 bits (6 bits each, +63).
//   R(x): the upper-triangle bits x_{0,1}, x_{0,2}, x_{1,2}, x_{0,3}, …
//         (column-major), padded with zeros to a multiple of 6, each
//         6-bit group +63.

/// Serializes a **simple** graph to graph6.
///
/// # Panics
/// Panics if the graph has parallel edges or more than 258047 nodes.
pub fn format_graph6(g: &Graph) -> String {
    assert!(g.is_simple(), "graph6 encodes simple graphs only");
    let n = g.num_nodes();
    assert!(n <= 258_047, "graph6 n-encoding limited to 258047 here");
    let mut out = String::new();
    if n <= 62 {
        out.push((n as u8 + 63) as char);
    } else {
        out.push(126 as char);
        out.push((((n >> 12) & 0x3F) as u8 + 63) as char);
        out.push((((n >> 6) & 0x3F) as u8 + 63) as char);
        out.push(((n & 0x3F) as u8 + 63) as char);
    }
    let mut bits: Vec<bool> = Vec::with_capacity(n * (n - 1) / 2);
    for j in 1..n {
        for i in 0..j {
            bits.push(g.has_edge(NodeId::new(i), NodeId::new(j)));
        }
    }
    for chunk in bits.chunks(6) {
        let mut v = 0u8;
        for (pos, &b) in chunk.iter().enumerate() {
            if b {
                v |= 1 << (5 - pos);
            }
        }
        out.push((v + 63) as char);
    }
    out
}

/// Parses a graph6 string (optionally prefixed with `>>graph6<<`).
pub fn parse_graph6(text: &str) -> Result<Graph, ParseError> {
    let text = text.trim();
    let text = text.strip_prefix(">>graph6<<").unwrap_or(text);
    let bytes = text.as_bytes();
    let bad = |msg: &str| ParseError::BadHeader(format!("graph6: {msg}"));
    if bytes.is_empty() {
        return Err(bad("empty input"));
    }
    let (n, mut pos) = if bytes[0] == 126 {
        if bytes.len() < 4 {
            return Err(bad("truncated n encoding"));
        }
        if bytes[1] == 126 {
            return Err(bad("n > 258047 not supported"));
        }
        let mut n = 0usize;
        for &b in &bytes[1..4] {
            if !(63..=126).contains(&b) {
                return Err(bad("invalid n byte"));
            }
            n = (n << 6) | (b - 63) as usize;
        }
        (n, 4usize)
    } else {
        if !(63..=126).contains(&bytes[0]) {
            return Err(bad("invalid n byte"));
        }
        ((bytes[0] - 63) as usize, 1usize)
    };
    let nbits = n * n.saturating_sub(1) / 2;
    let nbytes = nbits.div_ceil(6);
    if bytes.len() - pos != nbytes {
        return Err(bad(&format!(
            "expected {nbytes} payload bytes, found {}",
            bytes.len() - pos
        )));
    }
    let mut bits = Vec::with_capacity(nbytes * 6);
    while pos < bytes.len() {
        let b = bytes[pos];
        if !(63..=126).contains(&b) {
            return Err(bad("invalid payload byte"));
        }
        let v = b - 63;
        for shift in (0..6).rev() {
            bits.push((v >> shift) & 1 == 1);
        }
        pos += 1;
    }
    if bits[nbits..].iter().any(|&b| b) {
        return Err(bad("nonzero padding bits"));
    }
    let mut g = Graph::new(n);
    let mut idx = 0usize;
    for j in 1..n {
        for i in 0..j {
            if bits[idx] {
                g.add_edge(NodeId::new(i), NodeId::new(j));
            }
            idx += 1;
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip_random_graph() {
        let mut r = StdRng::seed_from_u64(3);
        let g = generators::gnm(15, 40, &mut r);
        let text = format_edge_list(&g);
        let h = parse_edge_list(&text).unwrap();
        assert_eq!(g.num_nodes(), h.num_nodes());
        assert_eq!(g.edge_list(), h.edge_list());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a graph\n\n3 2\n# edges follow\n0 1\n\n1 2\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Graph::new(4);
        let h = parse_edge_list(&format_edge_list(&g)).unwrap();
        assert_eq!(h.num_nodes(), 4);
        assert_eq!(h.num_edges(), 0);
    }

    #[test]
    fn bad_header_rejected() {
        assert!(matches!(parse_edge_list(""), Err(ParseError::BadHeader(_))));
        assert!(matches!(
            parse_edge_list("x y\n"),
            Err(ParseError::BadHeader(_))
        ));
        assert!(matches!(
            parse_edge_list("3 1 9\n0 1\n"),
            Err(ParseError::BadHeader(_))
        ));
    }

    #[test]
    fn bad_edges_rejected() {
        assert!(matches!(
            parse_edge_list("3 1\n0\n"),
            Err(ParseError::BadEdge { line: 2, .. })
        ));
        assert!(matches!(
            parse_edge_list("3 1\n0 9\n"),
            Err(ParseError::BadEndpoint { .. })
        ));
        assert!(matches!(
            parse_edge_list("3 1\n1 1\n"),
            Err(ParseError::BadEndpoint { .. })
        ));
    }

    #[test]
    fn dot_export_has_nodes_edges_and_colors() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let plain = format_dot(&g, "ring", None);
        assert!(plain.starts_with("graph ring {"));
        assert!(plain.contains("0 -- 1;"));
        assert!(plain.contains("1 -- 2;"));
        assert_eq!(plain.matches(";\n").count(), 3 + 2 + 2); // nodes+edges+2 style lines

        let colored = format_dot(&g, "9 bad name!", Some(&[0, usize::MAX]));
        assert!(colored.starts_with("graph g_9_bad_name_ {"));
        assert!(colored.contains("wavelength 0"));
        assert!(colored.contains("1 -- 2;")); // uncolored edge stays bare
    }

    #[test]
    fn graph6_known_vectors() {
        // Canonical encodings from the nauty documentation.
        assert_eq!(format_graph6(&generators::complete(3)), "Bw");
        assert_eq!(format_graph6(&generators::complete(4)), "C~");
        assert_eq!(format_graph6(&generators::complete(5)), "D~{");
        assert_eq!(format_graph6(&generators::path(3)), "Bg");
        // And the empty graph on 5 nodes.
        assert_eq!(format_graph6(&Graph::new(5)), "D??");
    }

    #[test]
    fn graph6_decodes_known_vectors() {
        let k4 = parse_graph6("C~").unwrap();
        assert_eq!(k4.num_edges(), 6);
        assert!(k4.is_regular(3));
        let p3 = parse_graph6("Bg").unwrap();
        assert_eq!(p3.num_edges(), 2);
        let with_header = parse_graph6(">>graph6<<Bw").unwrap();
        assert_eq!(with_header.num_edges(), 3);
    }

    #[test]
    fn graph6_round_trips_random_graphs() {
        for seed in 0..10u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let g = generators::gnm(30, 120, &mut r);
            let s = format_graph6(&g);
            let h = parse_graph6(&s).unwrap();
            assert_eq!(h.num_nodes(), 30);
            assert_eq!(h.num_edges(), g.num_edges());
            for e in g.edges() {
                let (u, v) = g.endpoints(e);
                assert!(h.has_edge(u, v));
            }
        }
    }

    #[test]
    fn graph6_round_trips_large_n_encoding() {
        // n = 100 > 62 uses the 3-byte encoding.
        let g = generators::cycle(100);
        let s = format_graph6(&g);
        assert_eq!(s.as_bytes()[0], 126);
        let h = parse_graph6(&s).unwrap();
        assert_eq!(h.num_nodes(), 100);
        assert!(h.is_regular(2));
    }

    #[test]
    fn graph6_rejects_malformed_input() {
        assert!(parse_graph6("").is_err());
        assert!(parse_graph6("C").is_err()); // missing payload
        assert!(parse_graph6("C~~").is_err()); // extra payload
        assert!(parse_graph6("B\x1f").is_err()); // invalid byte
                                                 // Nonzero padding: K3 payload with a stray low bit.
        assert!(parse_graph6("Bz").is_err());
    }

    #[test]
    #[should_panic(expected = "simple graphs only")]
    fn graph6_rejects_multigraphs() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        let _ = format_graph6(&g);
    }

    #[test]
    fn count_mismatch_rejected() {
        assert!(matches!(
            parse_edge_list("3 2\n0 1\n"),
            Err(ParseError::EdgeCountMismatch {
                declared: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn demand_list_round_trips_with_comments_and_weights() {
        let text = "# metro demands\ndemands v1 6 3\n0 3\n\n2 1 4\n# trailing\n5 0 1\n";
        let list = parse_demand_list(text).unwrap();
        assert_eq!(list.nodes, 6);
        assert_eq!(list.entries, vec![(0, 3, 1), (2, 1, 4), (5, 0, 1)]);
        assert_eq!(list.total_units(), 6);
        // Canonical form: unit entries drop the trailing `1`.
        let canonical = format_demand_list(&list);
        assert_eq!(canonical, "demands v1 6 3\n0 3\n2 1 4\n5 0\n");
        assert_eq!(parse_demand_list(&canonical).unwrap(), list);
    }

    #[test]
    fn demand_list_rejects_malformed_input() {
        // Every adversarial case is an Err, never a panic.
        for (case, text) in [
            ("empty", ""),
            ("not demands", "edges v1 3 1\n0 1\n"),
            ("missing version", "demands\n"),
            ("future version", "demands v2 3 1\n0 1\n"),
            ("junk version", "demands vx 3 1\n0 1\n"),
            ("missing counts", "demands v1 3\n"),
            ("extra header field", "demands v1 3 1 9\n0 1\n"),
            ("negative n", "demands v1 -3 1\n0 1\n"),
            (
                "huge n overflow",
                "demands v1 99999999999999999999 1\n0 1\n",
            ),
            ("one endpoint", "demands v1 3 1\n0\n"),
            ("non-numeric endpoint", "demands v1 3 1\n0 x\n"),
            ("four fields", "demands v1 3 1\n0 1 2 3\n"),
            ("out of range", "demands v1 3 1\n0 3\n"),
            ("self demand", "demands v1 3 1\n1 1\n"),
            ("zero units", "demands v1 3 1\n0 1 0\n"),
            ("negative units", "demands v1 3 1\n0 1 -2\n"),
            ("units overflow", "demands v1 3 1\n0 1 5000000000\n"),
            ("too few entries", "demands v1 3 2\n0 1\n"),
            ("too many entries", "demands v1 3 1\n0 1\n1 2\n"),
        ] {
            assert!(parse_demand_list(text).is_err(), "case {case:?}");
        }
        assert!(matches!(
            parse_demand_list("demands v7 2 0\n"),
            Err(ParseError::UnsupportedVersion { found }) if found == "v7"
        ));
        assert!(matches!(
            parse_demand_list("demands v1 3 1\n0 1 0\n"),
            Err(ParseError::BadUnits { line: 2, .. })
        ));
    }

    #[test]
    fn empty_demand_list_round_trips() {
        let list = DemandList {
            nodes: 4,
            entries: vec![],
        };
        let text = format_demand_list(&list);
        assert_eq!(parse_demand_list(&text).unwrap(), list);
        assert_eq!(list.total_units(), 0);
    }

    #[test]
    fn topology_round_trips_with_comments_caps_and_weights() {
        let text = "# metro core\ntopology v1 4 4\n* *\n2 1\n\n# capped node\n0 4\n* 0\n0 1\n1 2 3\n2 3\n3 0 2\n";
        let topo = parse_topology(text).unwrap();
        assert_eq!(topo.num_nodes(), 4);
        assert_eq!(topo.num_links(), 4);
        assert_eq!(topo.caps(NodeId(0)), NodeCaps::UNLIMITED);
        assert_eq!(topo.caps(NodeId(1)), NodeCaps::new(2, 1));
        assert_eq!(topo.caps(NodeId(2)), NodeCaps::new(0, 4));
        assert_eq!(topo.caps(NodeId(3)), NodeCaps::new(u32::MAX, 0));
        assert_eq!(topo.weights(), &[1, 3, 1, 2]);
        // Canonical form: `*` for unlimited, unit weights omitted.
        let canonical = format_topology(&topo);
        assert_eq!(
            canonical,
            "topology v1 4 4\n* *\n2 1\n0 4\n* 0\n0 1\n1 2 3\n2 3\n3 0 2\n"
        );
        let back = parse_topology(&canonical).unwrap();
        assert_eq!(format_topology(&back), canonical);
    }

    #[test]
    fn topology_rejects_malformed_input() {
        // Every adversarial case is an Err, never a panic.
        for (case, text) in [
            ("empty", ""),
            ("not topology", "demands v1 2 0\n* *\n* *\n"),
            ("missing version", "topology\n"),
            ("future version", "topology v2 2 0\n* *\n* *\n"),
            ("missing counts", "topology v1 2\n"),
            ("extra header field", "topology v1 2 0 7\n* *\n* *\n"),
            ("huge n overflow", "topology v1 99999999999999999999 0\n"),
            ("missing caps line", "topology v1 2 1\n* *\n0 1\n"),
            ("caps one token", "topology v1 2 0\n*\n* *\n"),
            ("caps three tokens", "topology v1 2 0\n* * *\n* *\n"),
            ("caps junk", "topology v1 2 0\n* x\n* *\n"),
            ("caps negative", "topology v1 2 0\n-1 *\n* *\n"),
            ("link one endpoint", "topology v1 2 1\n* *\n* *\n0\n"),
            ("link junk", "topology v1 2 1\n* *\n* *\n0 y\n"),
            ("link four fields", "topology v1 2 1\n* *\n* *\n0 1 2 3\n"),
            ("link out of range", "topology v1 2 1\n* *\n* *\n0 2\n"),
            ("self loop", "topology v1 2 1\n* *\n* *\n1 1\n"),
            ("zero weight", "topology v1 2 1\n* *\n* *\n0 1 0\n"),
            (
                "weight overflow",
                "topology v1 2 1\n* *\n* *\n0 1 5000000000\n",
            ),
            ("too few links", "topology v1 2 2\n* *\n* *\n0 1\n"),
            ("too many links", "topology v1 2 1\n* *\n* *\n0 1\n0 1\n"),
        ] {
            assert!(parse_topology(text).is_err(), "case {case:?}");
        }
        assert!(matches!(
            parse_topology("topology v9 2 0\n* *\n* *\n"),
            Err(ParseError::UnsupportedVersion { found }) if found == "v9"
        ));
        assert!(matches!(
            parse_topology("topology v1 2 0\n* x\n* *\n"),
            Err(ParseError::BadCaps { line: 2, .. })
        ));
        assert!(matches!(
            parse_topology("topology v1 2 1\n* *\n* *\n0 1 0\n"),
            Err(ParseError::BadWeight { line: 4, .. })
        ));
    }

    #[test]
    fn linkless_topology_round_trips() {
        let topo = parse_topology("topology v1 3 0\n* *\n1 2\n* *\n").unwrap();
        assert_eq!(topo.num_links(), 0);
        assert_eq!(format_topology(&topo), "topology v1 3 0\n* *\n1 2\n* *\n");
    }
}

#[cfg(test)]
mod demand_list_props {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// A random demand list: `n` in 2..=40, up to 60 entries, units 1..=9.
    fn arb_demand_list() -> impl Strategy<Value = DemandList> {
        (2usize..=40, 0usize..=60, any::<u64>()).prop_map(|(n, m, seed)| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let entries = (0..m)
                .map(|_| {
                    let u = rng.gen_range(0..n as u32);
                    let v = loop {
                        let v = rng.gen_range(0..n as u32);
                        if v != u {
                            break v;
                        }
                    };
                    (u, v, rng.gen_range(1..=9u32))
                })
                .collect();
            DemandList { nodes: n, entries }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn demand_list_round_trip(list in arb_demand_list()) {
            let text = format_demand_list(&list);
            let back = parse_demand_list(&text).unwrap();
            prop_assert_eq!(&back, &list);
            // Serialization is canonical: a second round trip is bytewise
            // stable.
            prop_assert_eq!(format_demand_list(&back), text);
        }

        #[test]
        fn demand_list_parse_never_panics_on_mutations(
            list in arb_demand_list(),
            flip in any::<u64>(),
        ) {
            // Corrupt one byte of a valid serialization; the parser must
            // return (Ok or Err), not panic.
            let mut bytes = format_demand_list(&list).into_bytes();
            if !bytes.is_empty() {
                let i = (flip as usize) % bytes.len();
                bytes[i] = bytes[i].wrapping_add((flip >> 32) as u8 | 1);
            }
            if let Ok(text) = String::from_utf8(bytes) {
                let _ = parse_demand_list(&text);
            }
        }
    }
}

#[cfg(test)]
mod topology_props {
    use super::*;
    use crate::topology::{NodeCaps, Topology};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// A random topology: n in 2..=24, up to 48 links (parallels allowed),
    /// weights 1..=9, capacities mixing `*` with small finite values.
    fn arb_topology() -> impl Strategy<Value = Topology> {
        (2usize..=24, 0usize..=48, any::<u64>()).prop_map(|(n, m, seed)| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut g = Graph::new(n);
            let mut weights = Vec::with_capacity(m);
            for _ in 0..m {
                let u = rng.gen_range(0..n as u32);
                let v = loop {
                    let v = rng.gen_range(0..n as u32);
                    if v != u {
                        break v;
                    }
                };
                g.add_edge(NodeId(u), NodeId(v));
                weights.push(rng.gen_range(1..=9u32));
            }
            let caps = (0..n)
                .map(|_| {
                    let pick = |rng: &mut rand::rngs::StdRng| {
                        if rng.gen_range(0..3u32) == 0 {
                            u32::MAX
                        } else {
                            rng.gen_range(0..=12)
                        }
                    };
                    NodeCaps::new(pick(&mut rng), pick(&mut rng))
                })
                .collect();
            Topology::new(g, weights, caps)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn topology_round_trip(topo in arb_topology()) {
            let text = format_topology(&topo);
            let back = parse_topology(&text).unwrap();
            prop_assert_eq!(back.num_nodes(), topo.num_nodes());
            prop_assert_eq!(back.num_links(), topo.num_links());
            prop_assert_eq!(back.weights(), topo.weights());
            prop_assert_eq!(back.node_caps(), topo.node_caps());
            for e in topo.graph().edges() {
                prop_assert_eq!(back.graph().endpoints(e), topo.graph().endpoints(e));
            }
            // Serialization is canonical: a second round trip is bytewise
            // stable.
            prop_assert_eq!(format_topology(&back), text);
        }

        #[test]
        fn topology_parse_never_panics_on_mutations(
            topo in arb_topology(),
            flip in any::<u64>(),
        ) {
            // Corrupt one byte of a valid serialization; the parser must
            // return (Ok or Err), not panic.
            let mut bytes = format_topology(&topo).into_bytes();
            if !bytes.is_empty() {
                let i = (flip as usize) % bytes.len();
                bytes[i] = bytes[i].wrapping_add((flip >> 32) as u8 | 1);
            }
            if let Ok(text) = String::from_utf8(bytes) {
                let _ = parse_topology(&text);
            }
        }
    }
}

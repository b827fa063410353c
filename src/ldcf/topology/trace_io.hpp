// Trace (de)serialization.
//
// The benches are trace-driven like the paper's evaluation: a topology is
// generated once, written to a trace file, and simulations load it back.
// The format is a line-oriented CSV:
//
//   # ldcf-trace v1
//   node,<id>,<x>,<y>
//   link,<from>,<to>,<prr>
//
// Nodes must appear before links; ids must be dense 0..n-1.
#pragma once

#include <iosfwd>
#include <string>

#include "ldcf/topology/topology.hpp"

namespace ldcf::topology {

/// Serialize a topology to the stream.
void write_trace(const Topology& topo, std::ostream& out);

/// Serialize to a file; throws InvalidArgument if the file cannot be opened.
void write_trace_file(const Topology& topo, const std::string& path);

/// Parse a trace from the stream. Throws InvalidArgument naming the line on
/// malformed input (bad header, unknown record, missing or extra field,
/// out-of-order nodes, out-of-range node id, self-loop, invalid PRR, ...);
/// a duplicate link names the pair and the line of its second occurrence.
/// Every scalar goes through the
/// strict common/parse.hpp helpers: no trailing junk or whitespace, no
/// signs on ids, ids within 32 bits.
[[nodiscard]] Topology read_trace(std::istream& in);

/// Parse from a file; throws InvalidArgument if the file cannot be opened.
[[nodiscard]] Topology read_trace_file(const std::string& path);

/// Graphviz export for eyeballing a trace:
///   neato -n2 -Tsvg trace.dot > trace.svg
/// Nodes carry their deployment coordinates; edges are drawn once per
/// unordered pair, shaded by the better direction's PRR.
void write_dot(const Topology& topo, std::ostream& out);
void write_dot_file(const Topology& topo, const std::string& path);

}  // namespace ldcf::topology

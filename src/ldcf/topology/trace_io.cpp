#include "ldcf/topology/trace_io.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ldcf/common/error.hpp"
#include "ldcf/common/parse.hpp"

namespace ldcf::topology {

namespace {
constexpr const char* kHeader = "# ldcf-trace v1";
}

void write_trace(const Topology& topo, std::ostream& out) {
  // max_digits10 guarantees doubles survive the text round-trip exactly.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << kHeader << '\n';
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    const auto& p = topo.position(n);
    out << "node," << n << ',' << p.x << ',' << p.y << '\n';
  }
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (const Link& l : topo.neighbors(n)) {
      out << "link," << n << ',' << l.to << ',' << l.prr << '\n';
    }
  }
}

void write_trace_file(const Topology& topo, const std::string& path) {
  std::ofstream out(path);
  LDCF_REQUIRE(out.good(), "cannot open trace file for writing: " + path);
  write_trace(topo, out);
  LDCF_REQUIRE(out.good(), "write to trace file failed: " + path);
}

Topology read_trace(std::istream& in) {
  std::string line;
  LDCF_REQUIRE(std::getline(in, line) && line == kHeader,
               "missing or unknown trace header");

  std::vector<Point2D> positions;
  std::vector<LinkRecord> links;
  // (from << 32 | to, line) per link, to name a duplicate's second line.
  std::vector<std::pair<std::uint64_t, std::size_t>> link_lines;
  bool seen_link = false;

  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::string_view rest = line;
    bool more = true;  // a comma followed the last field taken.
    const auto next_field = [&](const char* what) {
      LDCF_REQUIRE(more, std::string("missing ") + what + " at line " +
                             std::to_string(line_no));
      const std::size_t comma = rest.find(',');
      const std::string_view field = rest.substr(0, comma);
      more = comma != std::string_view::npos;
      if (more) rest.remove_prefix(comma + 1);
      return field;
    };
    const std::string_view kind = next_field("record kind");
    // Strict scalars (common/parse.hpp): the whole field must be one value
    // and ids must fit 32 bits unsigned. The error names the line.
    const auto parse_field = [&](const char* what, auto parse) {
      const std::string_view field = next_field(what);
      try {
        return parse(field, what);
      } catch (const InvalidArgument& e) {
        throw InvalidArgument(std::string(e.what()) + " at line " +
                              std::to_string(line_no));
      }
    };
    if (kind == "node") {
      LDCF_REQUIRE(!seen_link, "node record after link records at line " +
                                   std::to_string(line_no));
      const NodeId id = parse_field("node id", common::parse_u32);
      LDCF_REQUIRE(id == positions.size(),
                   "node ids must be dense and ascending at line " +
                       std::to_string(line_no));
      const double x = parse_field("x", common::parse_double);
      const double y = parse_field("y", common::parse_double);
      positions.push_back(Point2D{x, y});
    } else if (kind == "link") {
      seen_link = true;
      const NodeId from = parse_field("from", common::parse_u32);
      const NodeId to = parse_field("to", common::parse_u32);
      const double prr = parse_field("prr", common::parse_double);
      // Checked here, so the error names the trace line, not our source.
      const auto require = [&](bool ok, const char* why) {
        if (!ok) {
          throw InvalidArgument(std::string(why) + " at line " +
                                std::to_string(line_no));
        }
      };
      require(from < positions.size() && to < positions.size(),
              "node id out of range");
      require(from != to, "self-loop");
      require(prr > 0.0 && prr <= 1.0, "PRR must be in (0, 1]");
      links.push_back(LinkRecord{from, to, prr});
      link_lines.emplace_back(std::uint64_t{from} << 32 | to, line_no);
    } else {
      throw InvalidArgument("unknown record kind '" + std::string(kind) +
                            "' at line " + std::to_string(line_no));
    }
    LDCF_REQUIRE(!more,
                 "unexpected extra field at line " + std::to_string(line_no));
  }

  LDCF_REQUIRE(!positions.empty(), "trace contains no nodes");
  std::sort(link_lines.begin(), link_lines.end());
  for (std::size_t i = 1; i < link_lines.size(); ++i) {
    const auto [key, dup_line] = link_lines[i];
    if (key == link_lines[i - 1].first) {
      throw InvalidArgument("duplicate link " + std::to_string(key >> 32) +
                            " -> " + std::to_string(key & 0xffffffffu) +
                            " at line " + std::to_string(dup_line));
    }
  }
  return Topology::from_links(std::move(positions), std::move(links));
}

Topology read_trace_file(const std::string& path) {
  std::ifstream in(path);
  LDCF_REQUIRE(in.good(), "cannot open trace file for reading: " + path);
  return read_trace(in);
}

void write_dot(const Topology& topo, std::ostream& out) {
  out << "graph ldcf_trace {\n"
      << "  node [shape=point width=0.08];\n"
      << "  0 [shape=circle width=0.15 label=\"S\" style=filled "
         "fillcolor=black fontcolor=white];\n";
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    const auto& p = topo.position(n);
    // Graphviz "pos" is in points; scale meters 1:1 for neato -n2.
    out << "  " << n << " [pos=\"" << p.x << ',' << p.y << "!\"];\n";
  }
  std::vector<NodeId> peers;
  for (NodeId a = 0; a < topo.num_nodes(); ++a) {
    // Draw each unordered pair once, from its lower id, whichever way it
    // links: the higher ids a reaches or is reached from, ascending.
    peers.clear();
    for (const Link& link : topo.neighbors(a)) {
      if (link.to > a) peers.push_back(link.to);
    }
    for (const InLink& in : topo.in_links(a)) {
      if (in.from > a) peers.push_back(in.from);
    }
    std::sort(peers.begin(), peers.end());
    peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
    for (const NodeId b : peers) {
      const double best = std::max(topo.prr(a, b).value_or(0.0),
                                   topo.prr(b, a).value_or(0.0));
      const int gray = static_cast<int>(90.0 - 80.0 * best);  // dark = good.
      out << "  " << a << " -- " << b << " [color=gray" << gray << "];\n";
    }
  }
  out << "}\n";
}

void write_dot_file(const Topology& topo, const std::string& path) {
  std::ofstream out(path);
  LDCF_REQUIRE(out.good(), "cannot open dot file for writing: " + path);
  write_dot(topo, out);
  LDCF_REQUIRE(out.good(), "write to dot file failed: " + path);
}

}  // namespace ldcf::topology

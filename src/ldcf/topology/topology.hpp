// Network topology: node positions plus a weighted link graph.
//
// Links carry a packet reception ratio (PRR) per direction; the graph is
// stored in a CSR (compressed sparse row) layout — one flat, id-sorted link
// array plus per-node offsets — so the simulator's scatter/gather passes
// walk contiguous memory even at 100k nodes. Node 0 is the flooding source
// by convention (paper §III-A).
//
// A Topology never changes once constructed: the paper floods a fixed
// graph. Two ways in. Generators hand over a finished CSR to the adopting
// constructor, which validates it once; traces, hand-built test graphs and
// make_complete pass a list of directed link records to from_links, which
// sorts them into that CSR. The constructor also builds the in-link index.
// Every query reads plain vectors, so concurrent readers need no
// synchronisation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ldcf/common/error.hpp"
#include "ldcf/common/types.hpp"
#include "ldcf/topology/geometry.hpp"

namespace ldcf::topology {

/// One directed link entry in a node's adjacency row.
struct Link {
  NodeId to = kNoNode;
  double prr = 0.0;  ///< packet reception ratio in (0, 1].
};

/// A directed link's offset in the CSR link array: stable for the
/// topology's lifetime.
using LinkId = std::uint32_t;

/// No link: the id a broadcast intent carries.
inline constexpr LinkId kNoLink = 0xffffffffU;

/// One entry of a node's in-link row: the sender and its link's id.
struct InLink {
  NodeId from = kNoNode;
  LinkId id = 0;
};

/// One directed link u -> v, in any order: the input of from_links.
struct LinkRecord {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  double prr = 0.0;
};

/// Network graph, fixed at construction.
class Topology {
 public:
  /// No nodes; only useful as the target of an assignment.
  Topology() = default;

  /// Adopt a finished CSR adjacency: row n is links[offsets[n],
  /// offsets[n+1]). Validated once in O(links) — offsets has one entry per
  /// node plus one, starts at 0, never decreases and ends at links.size();
  /// every id is in range, no self-loops, PRR in (0, 1], each row strictly
  /// ascending by id, at most 2^32 - 1 links — and InvalidArgument is
  /// thrown otherwise.
  Topology(std::vector<Point2D> positions, std::vector<std::size_t> offsets,
           std::vector<Link> links);

  /// Build from directed link records in any order: sorts them by
  /// (from, to) into the CSR. Throws InvalidArgument on an empty position
  /// list, an out-of-range id, a self-loop, a PRR outside (0, 1] or a
  /// duplicate (from, to) pair (the message names the pair).
  [[nodiscard]] static Topology from_links(std::vector<Point2D> positions,
                                           std::vector<LinkRecord> links);

  /// Number of nodes including the source.
  [[nodiscard]] std::size_t num_nodes() const { return positions_.size(); }

  /// Number of nominal sensors (excludes the source, paper's N).
  [[nodiscard]] std::uint64_t num_sensors() const {
    return positions_.empty() ? 0 : positions_.size() - 1;
  }

  /// Total directed link count.
  [[nodiscard]] std::size_t num_links() const { return links_.size(); }

  [[nodiscard]] const Point2D& position(NodeId n) const;

  /// All node positions, indexed by id. Valid for the topology's lifetime.
  [[nodiscard]] std::span<const Point2D> positions() const {
    return positions_;
  }

  /// Out-neighbors of `n`, sorted by neighbor id. The span points into the
  /// CSR link array and is valid for the topology's lifetime.
  [[nodiscard]] std::span<const Link> neighbors(NodeId n) const {
    LDCF_REQUIRE(n < num_nodes(), "node id out of range");
    return {links_.data() + offsets_[n], links_.data() + offsets_[n + 1]};
  }

  /// The link with CSR offset `id`: Link{to, prr} of its from -> to.
  [[nodiscard]] const Link& link(LinkId id) const {
    LDCF_REQUIRE(id < links_.size(), "link id out of range");
    return links_[id];
  }

  /// In-links of `to`: one InLink per link u -> to, ascending by u (the
  /// order a 0..N scan of the out-rows meets them). Valid for the
  /// topology's lifetime.
  [[nodiscard]] std::span<const InLink> in_links(NodeId to) const {
    LDCF_REQUIRE(to < num_nodes(), "node id out of range");
    return {in_links_.data() + in_offsets_[to],
            in_links_.data() + in_offsets_[to + 1]};
  }

  /// Id of the first link in `n`'s out-row: neighbors(n)[i] has id
  /// first_link(n) + i.
  [[nodiscard]] LinkId first_link(NodeId n) const {
    LDCF_REQUIRE(n < num_nodes(), "node id out of range");
    return static_cast<LinkId>(offsets_[n]);
  }

  /// Id of the directed link u -> v, or nullopt if absent (a binary search
  /// of u's row; hot paths carry the id instead).
  [[nodiscard]] std::optional<LinkId> link_id(NodeId from, NodeId to) const {
    const Link* link = find_link(from, to);
    if (link == nullptr) return std::nullopt;
    return static_cast<LinkId>(link - links_.data());
  }

  /// Whether `id` names the directed link u -> v: it lies inside u's
  /// out-row and points at v. O(1); false for any out-of-range argument.
  [[nodiscard]] bool is_link(LinkId id, NodeId from, NodeId to) const {
    return from < num_nodes() && id >= offsets_[from] &&
           id < offsets_[from + 1] && links_[id].to == to;
  }

  /// PRR of the directed link u -> v, or nullopt if absent.
  [[nodiscard]] std::optional<double> prr(NodeId from, NodeId to) const {
    const Link* link = find_link(from, to);
    if (link == nullptr) return std::nullopt;
    return link->prr;
  }

  [[nodiscard]] bool has_link(NodeId from, NodeId to) const {
    return prr(from, to).has_value();
  }

  /// Mean out-degree over all nodes.
  [[nodiscard]] double mean_degree() const;

  /// Mean PRR over all directed links (0 when there are none).
  [[nodiscard]] double mean_prr() const;

  /// Hop distance from `from` to every node (BFS over links); unreachable
  /// nodes get kNeverSlot.
  [[nodiscard]] std::vector<std::uint64_t> hop_distances(NodeId from) const;

  /// Nodes reachable from `from` (including itself).
  [[nodiscard]] std::size_t reachable_count(NodeId from) const;

  /// Fraction of the sensors the source (node 0) reaches; 1 when there
  /// are no sensors.
  [[nodiscard]] double reachable_fraction() const;

  /// Maximum finite hop distance from the source.
  [[nodiscard]] std::uint64_t eccentricity_from_source() const;

  /// Structural fingerprint: FNV-1a over the node count, then every
  /// (from, to, prr bits) link in CSR order. Any changed PRR bit changes
  /// it. Hashed once, by the constructor; a default-constructed topology's
  /// is 0.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

  /// Does nothing: a constructed topology is already in its final CSR
  /// form. Kept only because perfbench/src/paper_sweep.cpp still calls it.
  void seal() const {}

 private:
  /// The link u -> v in u's row, or nullptr if absent.
  [[nodiscard]] const Link* find_link(NodeId from, NodeId to) const {
    LDCF_REQUIRE(to < num_nodes(), "node id out of range");
    const std::span<const Link> row = neighbors(from);
    const auto it = std::lower_bound(
        row.begin(), row.end(), to,
        [](const Link& l, NodeId id) { return l.to < id; });
    return it != row.end() && it->to == to ? &*it : nullptr;
  }

  std::vector<Point2D> positions_;
  // CSR adjacency: row n is links_[offsets_[n] .. offsets_[n+1]).
  std::vector<std::size_t> offsets_;
  std::vector<Link> links_;
  // Reverse CSR: row v is in_links_[in_offsets_[v] .. in_offsets_[v+1]).
  std::vector<std::size_t> in_offsets_;
  std::vector<InLink> in_links_;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace ldcf::topology

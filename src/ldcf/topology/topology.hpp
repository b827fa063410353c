// Network topology: node positions plus a weighted link graph.
//
// Links carry a packet reception ratio (PRR) per direction; the graph is
// stored in a CSR (compressed sparse row) layout — one flat, id-sorted link
// array plus per-node offsets — so the simulator's scatter/gather passes
// walk contiguous memory even at 100k nodes. Node 0 is the flooding source
// by convention (paper §III-A).
//
// Two ways in. Generators hand over a finished CSR (the adopting
// constructor validates it once and the topology starts sealed). Traces,
// hand-built test graphs and make_complete use add_link, which inserts into
// per-node staging rows (with immediate duplicate/range validation); the
// first read-side query seals the staging rows into the CSR arrays and
// releases them. A later add_link thaws the CSR back into staging, so
// interleaved build/query code keeps working; it just pays a re-seal.
// Sealing is idempotent, thread-safe (double-checked under a global mutex)
// and observable only through memory locality.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ldcf/common/types.hpp"
#include "ldcf/topology/geometry.hpp"

namespace ldcf::topology {

/// One directed link entry in a node's adjacency row.
struct Link {
  NodeId to = kNoNode;
  double prr = 0.0;  ///< packet reception ratio in (0, 1].
};

/// Immutable-after-build network graph.
class Topology {
 public:
  Topology() = default;

  /// Construct with `count` nodes (ids 0..count-1) at the given positions.
  explicit Topology(std::vector<Point2D> positions);

  /// Adopt a finished CSR adjacency: row n is links[offsets[n],
  /// offsets[n+1]). Validated once in O(links) — offsets has one entry per
  /// node plus one, starts at 0, never decreases and ends at links.size();
  /// every id is in range, no self-loops, PRR in (0, 1], each row strictly
  /// ascending by id — and InvalidArgument is thrown otherwise. The result
  /// is already sealed.
  Topology(std::vector<Point2D> positions, std::vector<std::size_t> offsets,
           std::vector<Link> links);

  Topology(const Topology& other);
  Topology& operator=(const Topology& other);
  Topology(Topology&& other) noexcept;
  Topology& operator=(Topology&& other) noexcept;
  ~Topology() = default;

  /// Add a directed link u -> v with the given PRR. Throws on out-of-range
  /// ids, self-loops, PRR outside (0, 1], or duplicate links. Invalidates
  /// spans previously returned by neighbors().
  void add_link(NodeId from, NodeId to, double prr);

  /// Add u <-> v with the same PRR both ways.
  void add_symmetric_link(NodeId a, NodeId b, double prr);

  /// Number of nodes including the source.
  [[nodiscard]] std::size_t num_nodes() const { return positions_.size(); }

  /// Number of nominal sensors (excludes the source, paper's N).
  [[nodiscard]] std::uint64_t num_sensors() const {
    return positions_.empty() ? 0 : positions_.size() - 1;
  }

  /// Total directed link count.
  [[nodiscard]] std::size_t num_links() const { return num_links_; }

  [[nodiscard]] const Point2D& position(NodeId n) const;

  /// All node positions, indexed by id. Valid for the topology's lifetime.
  [[nodiscard]] std::span<const Point2D> positions() const {
    return positions_;
  }

  /// Out-neighbors of `n`, sorted by neighbor id. The span points into the
  /// CSR link array and stays valid until the next add_link.
  [[nodiscard]] std::span<const Link> neighbors(NodeId n) const;

  /// PRR of the directed link u -> v, or nullopt if absent.
  [[nodiscard]] std::optional<double> prr(NodeId from, NodeId to) const;

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

  /// True if every node is reachable from the source (node 0).
  [[nodiscard]] bool connected_from_source() const;

  /// Maximum finite hop distance from the source.
  [[nodiscard]] std::uint64_t eccentricity_from_source() const;

  /// Structural fingerprint: FNV-1a over the node count, then every
  /// (from, to, prr bits) link in CSR order. Any changed PRR bit changes
  /// it. Hashed on the first call and memoized; add_link drops the memo,
  /// copies and moves carry it.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Force the CSR seal now (it otherwise happens lazily on first query).
  /// Call this before handing an add_link-built topology to concurrent
  /// readers.
  void seal() const { ensure_sealed(); }

  /// True when the CSR arrays are current (introspection for tests).
  [[nodiscard]] bool sealed() const {
    return sealed_.load(std::memory_order_acquire);
  }

  /// True when fingerprint() is memoized (introspection for tests).
  [[nodiscard]] bool fingerprinted() const {
    return fingerprint_valid_.load(std::memory_order_acquire);
  }

 private:
  /// Seal staging rows into the CSR arrays (idempotent, thread-safe).
  void ensure_sealed() const;
  /// Rebuild staging rows from the CSR arrays before a mutation.
  void thaw();

  std::vector<Point2D> positions_;
  std::size_t num_links_ = 0;

  // Build-phase adjacency rows; emptied by the seal, rebuilt by a thaw.
  mutable std::vector<std::vector<Link>> staging_;

  // CSR adjacency: row n is csr_links_[csr_offsets_[n] .. csr_offsets_[n+1]).
  mutable std::vector<std::size_t> csr_offsets_;
  mutable std::vector<Link> csr_links_;
  mutable std::atomic<bool> sealed_{false};

  // fingerprint() memo; published under the seal lock.
  mutable std::uint64_t fingerprint_ = 0;
  mutable std::atomic<bool> fingerprint_valid_{false};
};

}  // namespace ldcf::topology

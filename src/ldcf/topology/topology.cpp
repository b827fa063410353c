#include "ldcf/topology/topology.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <queue>
#include <string>
#include <utility>

#include "ldcf/common/error.hpp"
#include "ldcf/common/math_utils.hpp"

namespace ldcf::topology {

namespace {

/// FNV-1a over the node count, then every (from, to, prr bits) link in
/// CSR order.
std::uint64_t hash_csr(std::span<const std::size_t> offsets,
                       std::span<const Link> links) {
  const std::size_t n = offsets.size() - 1;
  std::uint64_t hash = fnv1a_mix(kFnv1aOffset, n);
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t i = offsets[from]; i < offsets[from + 1]; ++i) {
      hash = fnv1a_mix(hash, from);
      hash = fnv1a_mix(hash, links[i].to);
      hash = fnv1a_mix(hash, std::bit_cast<std::uint64_t>(links[i].prr));
    }
  }
  return hash;
}

}  // namespace

Topology::Topology(std::vector<Point2D> positions,
                   std::vector<std::size_t> offsets, std::vector<Link> links)
    : positions_(std::move(positions)),
      offsets_(std::move(offsets)),
      links_(std::move(links)) {
  LDCF_REQUIRE(!positions_.empty(), "topology needs at least one node");
  const std::size_t n = positions_.size();
  LDCF_REQUIRE(offsets_.size() == n + 1 && offsets_.front() == 0 &&
                   offsets_.back() == links_.size(),
               "CSR offsets must span [0, links] with one entry per node + 1");
  // Checked before any row is read, so every row lies inside the links.
  LDCF_REQUIRE(std::is_sorted(offsets_.begin(), offsets_.end()),
               "CSR offsets must not decrease");
  for (std::size_t from = 0; from < n; ++from) {
    const std::size_t begin = offsets_[from];
    for (std::size_t i = begin; i < offsets_[from + 1]; ++i) {
      const Link& link = links_[i];
      LDCF_REQUIRE(link.to < n, "node id out of range");
      LDCF_REQUIRE(link.to != from, "self-loops are not allowed");
      LDCF_REQUIRE(link.prr > 0.0 && link.prr <= 1.0, "PRR must be in (0, 1]");
      LDCF_REQUIRE(i == begin || links_[i - 1].to < link.to,
                   "CSR rows must be strictly ascending by id");
    }
  }
  LDCF_REQUIRE(links_.size() <= std::numeric_limits<LinkId>::max(),
               "more than 2^32 - 1 links");
  fingerprint_ = hash_csr(offsets_, links_);

  // The in-link index by one counting sort: senders scanned in ascending
  // order fill each row ascending by sender.
  in_offsets_.assign(n + 1, 0);
  for (const Link& link : links_) ++in_offsets_[link.to + 1];
  std::partial_sum(in_offsets_.begin(), in_offsets_.end(), in_offsets_.begin());
  in_links_.resize(links_.size());
  std::vector<std::size_t> fill(in_offsets_.begin(), in_offsets_.end() - 1);
  for (NodeId from = 0; from < n; ++from) {
    for (std::size_t i = offsets_[from]; i < offsets_[from + 1]; ++i) {
      in_links_[fill[links_[i].to]++] = InLink{from, static_cast<LinkId>(i)};
    }
  }
}

Topology Topology::from_links(std::vector<Point2D> positions,
                              std::vector<LinkRecord> records) {
  const std::size_t n = positions.size();
  for (const LinkRecord& r : records) {
    LDCF_REQUIRE(r.from < n && r.to < n, "node id out of range");
  }
  std::sort(records.begin(), records.end(),
            [](const LinkRecord& a, const LinkRecord& b) {
              return a.from != b.from ? a.from < b.from : a.to < b.to;
            });
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<Link> links;
  links.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const LinkRecord& r = records[i];
    LDCF_REQUIRE(i == 0 || records[i - 1].from != r.from ||
                     records[i - 1].to != r.to,
                 "duplicate link " + std::to_string(r.from) + " -> " +
                     std::to_string(r.to));
    ++offsets[r.from + 1];
    links.push_back(Link{r.to, r.prr});
  }
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  // The adopting constructor checks the rest: self-loops and PRR range.
  return Topology(std::move(positions), std::move(offsets), std::move(links));
}

const Point2D& Topology::position(NodeId n) const {
  LDCF_REQUIRE(n < num_nodes(), "node id out of range");
  return positions_[n];
}

double Topology::mean_degree() const {
  if (positions_.empty()) return 0.0;
  return static_cast<double>(links_.size()) /
         static_cast<double>(positions_.size());
}

double Topology::mean_prr() const {
  if (links_.empty()) return 0.0;
  double sum = 0.0;
  for (const Link& l : links_) sum += l.prr;
  return sum / static_cast<double>(links_.size());
}

std::vector<std::uint64_t> Topology::hop_distances(NodeId from) const {
  LDCF_REQUIRE(from < num_nodes(), "node id out of range");
  std::vector<std::uint64_t> dist(num_nodes(), kNeverSlot);
  dist[from] = 0;
  std::queue<NodeId> frontier;
  frontier.push(from);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const Link& l : neighbors(u)) {
      if (dist[l.to] == kNeverSlot) {
        dist[l.to] = dist[u] + 1;
        frontier.push(l.to);
      }
    }
  }
  return dist;
}

std::size_t Topology::reachable_count(NodeId from) const {
  const auto dist = hop_distances(from);
  return static_cast<std::size_t>(
      std::count_if(dist.begin(), dist.end(),
                    [](std::uint64_t d) { return d != kNeverSlot; }));
}

double Topology::reachable_fraction() const {
  if (num_nodes() <= 1) return 1.0;
  return static_cast<double>(reachable_count(0) - 1) /
         static_cast<double>(num_sensors());
}

std::uint64_t Topology::eccentricity_from_source() const {
  const auto dist = hop_distances(0);
  std::uint64_t ecc = 0;
  for (const std::uint64_t d : dist) {
    if (d != kNeverSlot) ecc = std::max(ecc, d);
  }
  return ecc;
}

}  // namespace ldcf::topology

#include "ldcf/topology/topology.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <queue>
#include <utility>

#include "ldcf/common/error.hpp"

namespace ldcf::topology {

namespace {

/// One process-wide mutex guards every lazy seal. Sealing happens once per
/// topology, so contention is irrelevant; sharing the lock keeps Topology
/// movable (a per-instance std::mutex would pin it).
std::mutex& seal_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

Topology::Topology(std::vector<Point2D> positions)
    : positions_(std::move(positions)), staging_(positions_.size()) {
  LDCF_REQUIRE(!positions_.empty(), "topology needs at least one node");
}

Topology::Topology(std::vector<Point2D> positions,
                   std::vector<std::size_t> offsets, std::vector<Link> links)
    : positions_(std::move(positions)),
      num_links_(links.size()),
      csr_offsets_(std::move(offsets)),
      csr_links_(std::move(links)) {
  LDCF_REQUIRE(!positions_.empty(), "topology needs at least one node");
  const std::size_t n = positions_.size();
  LDCF_REQUIRE(csr_offsets_.size() == n + 1 && csr_offsets_.front() == 0 &&
                   csr_offsets_.back() == num_links_,
               "CSR offsets must span [0, links] with one entry per node + 1");
  // Checked before any row is read, so every row lies inside the links.
  LDCF_REQUIRE(std::is_sorted(csr_offsets_.begin(), csr_offsets_.end()),
               "CSR offsets must not decrease");
  for (std::size_t from = 0; from < n; ++from) {
    const std::size_t begin = csr_offsets_[from];
    for (std::size_t i = begin; i < csr_offsets_[from + 1]; ++i) {
      const Link& link = csr_links_[i];
      LDCF_REQUIRE(link.to < n, "node id out of range");
      LDCF_REQUIRE(link.to != from, "self-loops are not allowed");
      LDCF_REQUIRE(link.prr > 0.0 && link.prr <= 1.0, "PRR must be in (0, 1]");
      LDCF_REQUIRE(i == begin || csr_links_[i - 1].to < link.to,
                   "CSR rows must be strictly ascending by id");
    }
  }
  sealed_.store(true, std::memory_order_release);
}

Topology::Topology(const Topology& other)
    : positions_(other.positions_), num_links_(other.num_links_) {
  // Copy under the seal lock: a concurrent lazy seal on `other` moves its
  // rows between staging_ and the CSR arrays, and a concurrent
  // fingerprint() publishes its memo.
  std::lock_guard<std::mutex> lock(seal_mutex());
  staging_ = other.staging_;
  csr_offsets_ = other.csr_offsets_;
  csr_links_ = other.csr_links_;
  sealed_.store(other.sealed_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  fingerprint_ = other.fingerprint_;
  fingerprint_valid_.store(
      other.fingerprint_valid_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
}

Topology& Topology::operator=(const Topology& other) {
  if (this == &other) return *this;
  Topology copy(other);
  *this = std::move(copy);
  return *this;
}

Topology::Topology(Topology&& other) noexcept
    : positions_(std::move(other.positions_)),
      num_links_(other.num_links_),
      staging_(std::move(other.staging_)),
      csr_offsets_(std::move(other.csr_offsets_)),
      csr_links_(std::move(other.csr_links_)),
      fingerprint_(other.fingerprint_) {
  sealed_.store(other.sealed_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  fingerprint_valid_.store(
      other.fingerprint_valid_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  other.num_links_ = 0;
  other.sealed_.store(false, std::memory_order_relaxed);
  other.fingerprint_valid_.store(false, std::memory_order_relaxed);
}

Topology& Topology::operator=(Topology&& other) noexcept {
  if (this == &other) return *this;
  positions_ = std::move(other.positions_);
  num_links_ = other.num_links_;
  staging_ = std::move(other.staging_);
  csr_offsets_ = std::move(other.csr_offsets_);
  csr_links_ = std::move(other.csr_links_);
  sealed_.store(other.sealed_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  fingerprint_ = other.fingerprint_;
  fingerprint_valid_.store(
      other.fingerprint_valid_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  other.num_links_ = 0;
  other.sealed_.store(false, std::memory_order_relaxed);
  other.fingerprint_valid_.store(false, std::memory_order_relaxed);
  return *this;
}

void Topology::ensure_sealed() const {
  if (sealed_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(seal_mutex());
  if (sealed_.load(std::memory_order_relaxed)) return;
  csr_offsets_.assign(positions_.size() + 1, 0);
  for (std::size_t n = 0; n < staging_.size(); ++n) {
    csr_offsets_[n + 1] = csr_offsets_[n] + staging_[n].size();
  }
  csr_links_.clear();
  csr_links_.reserve(num_links_);
  for (const auto& row : staging_) {
    csr_links_.insert(csr_links_.end(), row.begin(), row.end());
  }
  // Release the build-phase rows; a later add_link thaws them back.
  staging_ = std::vector<std::vector<Link>>();
  sealed_.store(true, std::memory_order_release);
}

void Topology::thaw() {
  if (!sealed_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(seal_mutex());
  if (!sealed_.load(std::memory_order_relaxed)) return;
  staging_.assign(positions_.size(), {});
  for (std::size_t n = 0; n < positions_.size(); ++n) {
    staging_[n].assign(
        csr_links_.begin() + static_cast<std::ptrdiff_t>(csr_offsets_[n]),
        csr_links_.begin() + static_cast<std::ptrdiff_t>(csr_offsets_[n + 1]));
  }
  csr_links_ = std::vector<Link>();
  csr_offsets_ = std::vector<std::size_t>();
  sealed_.store(false, std::memory_order_release);
}

void Topology::add_link(NodeId from, NodeId to, double prr_value) {
  LDCF_REQUIRE(from < num_nodes() && to < num_nodes(), "node id out of range");
  LDCF_REQUIRE(from != to, "self-loops are not allowed");
  LDCF_REQUIRE(prr_value > 0.0 && prr_value <= 1.0, "PRR must be in (0, 1]");
  thaw();
  fingerprint_valid_.store(false, std::memory_order_relaxed);
  auto& adj = staging_[from];
  const auto it = std::lower_bound(
      adj.begin(), adj.end(), to,
      [](const Link& l, NodeId id) { return l.to < id; });
  LDCF_REQUIRE(it == adj.end() || it->to != to, "duplicate link");
  adj.insert(it, Link{to, prr_value});
  ++num_links_;
}

void Topology::add_symmetric_link(NodeId a, NodeId b, double prr_value) {
  add_link(a, b, prr_value);
  add_link(b, a, prr_value);
}

std::uint64_t Topology::fingerprint() const {
  if (fingerprint_valid_.load(std::memory_order_acquire)) return fingerprint_;
  ensure_sealed();
  constexpr std::uint64_t kOffset = 14695981039346656037ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  const auto mix = [](std::uint64_t hash, std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= kPrime;
    }
    return hash;
  };
  std::uint64_t hash = mix(kOffset, num_nodes());
  for (std::size_t from = 0; from < num_nodes(); ++from) {
    for (std::size_t i = csr_offsets_[from]; i < csr_offsets_[from + 1]; ++i) {
      hash = mix(hash, from);
      hash = mix(hash, csr_links_[i].to);
      hash = mix(hash, std::bit_cast<std::uint64_t>(csr_links_[i].prr));
    }
  }
  // The CSR is read-only here, so racing first callers hash the same bytes;
  // the lock only orders the publication.
  std::lock_guard<std::mutex> lock(seal_mutex());
  if (!fingerprint_valid_.load(std::memory_order_relaxed)) {
    fingerprint_ = hash;
    fingerprint_valid_.store(true, std::memory_order_release);
  }
  return fingerprint_;
}

const Point2D& Topology::position(NodeId n) const {
  LDCF_REQUIRE(n < num_nodes(), "node id out of range");
  return positions_[n];
}

std::span<const Link> Topology::neighbors(NodeId n) const {
  LDCF_REQUIRE(n < num_nodes(), "node id out of range");
  ensure_sealed();
  return {csr_links_.data() + csr_offsets_[n],
          csr_links_.data() + csr_offsets_[n + 1]};
}

std::optional<double> Topology::prr(NodeId from, NodeId to) const {
  LDCF_REQUIRE(from < num_nodes() && to < num_nodes(), "node id out of range");
  const std::span<const Link> adj = neighbors(from);
  const auto it = std::lower_bound(
      adj.begin(), adj.end(), to,
      [](const Link& l, NodeId id) { return l.to < id; });
  if (it != adj.end() && it->to == to) return it->prr;
  return std::nullopt;
}

double Topology::mean_degree() const {
  if (positions_.empty()) return 0.0;
  return static_cast<double>(num_links_) /
         static_cast<double>(positions_.size());
}

double Topology::mean_prr() const {
  if (num_links_ == 0) return 0.0;
  ensure_sealed();
  double sum = 0.0;
  for (const Link& l : csr_links_) sum += l.prr;
  return sum / static_cast<double>(num_links_);
}

std::vector<std::uint64_t> Topology::hop_distances(NodeId from) const {
  LDCF_REQUIRE(from < num_nodes(), "node id out of range");
  ensure_sealed();
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

bool Topology::connected_from_source() const {
  return reachable_count(0) == num_nodes();
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

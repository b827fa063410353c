#include "ldcf/topology/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "ldcf/common/error.hpp"
#include "ldcf/topology/generators.hpp"
#include "support/graphs.hpp"

namespace ldcf::topology {
namespace {

Topology line_of(std::size_t n, double prr = 1.0) {
  std::vector<LinkRecord> links;
  for (NodeId i = 0; i + 1 < n; ++i) {
    links.push_back({i, i + 1, prr});
    links.push_back({i + 1, i, prr});
  }
  return Topology::from_links(std::vector<Point2D>(n), std::move(links));
}

/// `nodes` nodes at the origin and the given directed links.
Topology directed(std::size_t nodes, std::vector<LinkRecord> links) {
  return Topology::from_links(std::vector<Point2D>(nodes), std::move(links));
}

TEST(Topology, CountsNodesAndSensors) {
  const Topology topo = directed(5, {});
  EXPECT_EQ(topo.num_nodes(), 5u);
  EXPECT_EQ(topo.num_sensors(), 4u);
  EXPECT_EQ(topo.num_links(), 0u);
}

TEST(Topology, RejectsEmpty) {
  EXPECT_THROW((void)directed(0, {}), InvalidArgument);
}

TEST(Topology, FromLinksValidation) {
  const auto rejects = [](std::vector<LinkRecord> links) {
    EXPECT_THROW((void)directed(3, std::move(links)), InvalidArgument);
  };
  rejects({{0, 1, 0.5}, {2, 0, 0.5}, {0, 1, 0.25}});  // duplicate.
  rejects({{0, 0, 0.5}});                              // self loop.
  rejects({{0, 3, 0.5}});                              // out of range.
  rejects({{3, 0, 0.5}});
  rejects({{kNoNode, 0, 0.5}});
  rejects({{1, 2, 0.0}});                              // bad prr.
  rejects({{1, 2, 1.5}});
  rejects({{1, 2, std::nan("")}});
  try {
    (void)directed(3, {{2, 1, 0.5}, {0, 1, 0.5}, {2, 1, 0.5}});
    ADD_FAILURE() << "duplicate accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate link 2 -> 1"),
              std::string::npos)
        << e.what();
  }
}

/// Three nodes, row 0 -> {1, 2}, row 1 -> {0}, row 2 empty.
struct Csr {
  std::vector<std::size_t> offsets{0, 2, 3, 3};
  std::vector<Link> links{{1, 0.5}, {2, 0.25}, {0, 1.0}};
  Topology build() const {
    return Topology(std::vector<Point2D>(3), offsets, links);
  }
};

TEST(Topology, CsrConstructorAdoptsASealedGraph) {
  const Topology topo = Csr{}.build();
  EXPECT_EQ(topo.num_links(), 3u);
  EXPECT_DOUBLE_EQ(topo.prr(0, 2).value(), 0.25);
  EXPECT_DOUBLE_EQ(topo.prr(1, 0).value(), 1.0);
  EXPECT_TRUE(topo.neighbors(2).empty());

  // The same links in any order build the same CSR.
  const Topology same = directed(3, {{1, 0, 1.0}, {0, 2, 0.25}, {0, 1, 0.5}});
  EXPECT_EQ(topo.fingerprint(), same.fingerprint());
}

TEST(Topology, CsrConstructorRejectsBadOffsets) {
  const auto rejects = [](std::vector<std::size_t> offsets) {
    Csr csr;
    csr.offsets = std::move(offsets);
    EXPECT_THROW((void)csr.build(), InvalidArgument);
  };
  rejects({0, 2, 3});           // one entry short.
  rejects({0, 2, 3, 3, 3});     // one entry long.
  rejects({1, 2, 3, 3});        // does not start at 0.
  rejects({0, 2, 3, 2});        // does not end at links.size().
  rejects({0, 2, 1, 3});        // decreasing.
  // Decreasing offsets whose overlapping rows each pass the link checks:
  // row 0 = {1, 3} and row 2 = {3, 4} share the middle link.
  EXPECT_THROW(Topology(std::vector<Point2D>(5), {0, 2, 1, 3, 3, 3},
                        {{1, 0.5}, {3, 0.5}, {4, 0.5}}),
               InvalidArgument);
  rejects({0, 5, 3, 3});        // a row past the links, then decreasing.
  rejects({0, 2, 3, 4});        // runs past the links.
  EXPECT_THROW(Topology({}, {0}, {}), InvalidArgument);  // no nodes.
}

TEST(Topology, CsrConstructorRejectsBadLinks) {
  const auto rejects = [](std::size_t index, Link link) {
    Csr csr;
    csr.links[index] = link;
    EXPECT_THROW((void)csr.build(), InvalidArgument)
        << "link " << index << " -> " << link.to << " prr " << link.prr;
  };
  rejects(0, Link{3, 0.5});           // id out of range.
  rejects(0, Link{kNoNode, 0.5});
  rejects(2, Link{1, 0.5});           // self-loop in row 1.
  rejects(0, Link{2, 0.5});           // duplicate in row 0.
  rejects(1, Link{1, 0.25});          // row 0 unsorted: {1, 1}.
  rejects(0, Link{1, 0.0});           // prr <= 0.
  rejects(0, Link{1, -0.5});
  rejects(0, Link{1, 1.0000001});     // prr > 1.
  rejects(0, Link{1, std::nan("")});
  Csr descending;
  descending.links[0] = Link{2, 0.5};
  descending.links[1] = Link{1, 0.25};
  EXPECT_THROW((void)descending.build(), InvalidArgument);
}

TEST(Topology, CopyAndMoveCarryTheFingerprintMemo) {
  Topology topo = Csr{}.build();
  const std::uint64_t fp = topo.fingerprint();

  const Topology copy(topo);
  EXPECT_EQ(copy.fingerprint(), fp);
  Topology assigned;
  EXPECT_EQ(assigned.fingerprint(), 0u);  // no nodes, nothing hashed.
  assigned = topo;
  EXPECT_EQ(assigned.fingerprint(), fp);

  Topology moved(std::move(topo));
  EXPECT_EQ(moved.fingerprint(), fp);
  Topology move_assigned;
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.fingerprint(), fp);

  // The constructor hashed every link: one more link changes it.
  const Topology grown =
      directed(3, {{0, 1, 0.5}, {0, 2, 0.25}, {1, 0, 1.0}, {2, 1, 0.5}});
  EXPECT_NE(grown.fingerprint(), fp);
}

TEST(Topology, DirectedLinksAreIndependent) {
  const Topology topo = directed(3, {{0, 1, 0.9}, {1, 0, 0.4}});
  EXPECT_DOUBLE_EQ(topo.prr(0, 1).value(), 0.9);
  EXPECT_DOUBLE_EQ(topo.prr(1, 0).value(), 0.4);
  EXPECT_FALSE(topo.prr(0, 2).has_value());
  EXPECT_TRUE(topo.has_link(0, 1));
  EXPECT_FALSE(topo.has_link(2, 0));
}

TEST(Topology, NeighborsSortedById) {
  const Topology topo = directed(5, {{0, 4, 0.5}, {0, 2, 0.6}, {0, 3, 0.7}});
  const auto nbrs = topo.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0].to, 2u);
  EXPECT_EQ(nbrs[1].to, 3u);
  EXPECT_EQ(nbrs[2].to, 4u);
}

TEST(Topology, MeanDegreeAndPrr) {
  const Topology topo =
      test_support::undirected(4, {{0, 1, 0.5}, {1, 2, 1.0}});
  EXPECT_DOUBLE_EQ(topo.mean_degree(), 1.0);  // 4 directed links / 4 nodes.
  EXPECT_DOUBLE_EQ(topo.mean_prr(), 0.75);
}

TEST(Topology, HopDistancesOnALine) {
  const Topology topo = line_of(5);
  const auto dist = topo.hop_distances(0);
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(dist[i], i);
  }
  EXPECT_EQ(topo.eccentricity_from_source(), 4u);
}

TEST(Topology, DisconnectedComponentDetected) {
  const Topology topo =
      test_support::undirected(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  EXPECT_EQ(topo.reachable_count(0), 2u);
  EXPECT_DOUBLE_EQ(topo.reachable_fraction(), 1.0 / 3.0);  // 1 of 3 sensors.
  const auto dist = topo.hop_distances(0);
  EXPECT_EQ(dist[2], kNeverSlot);
  EXPECT_EQ(dist[3], kNeverSlot);
}

TEST(Topology, ConnectedFromSource) {
  EXPECT_DOUBLE_EQ(line_of(10).reachable_fraction(), 1.0);
}

TEST(Topology, PositionAccess) {
  const Topology topo =
      Topology::from_links(std::vector<Point2D>{{0, 0}, {3, 4}}, {});
  EXPECT_DOUBLE_EQ(topo.position(1).x, 3.0);
  EXPECT_DOUBLE_EQ(distance(topo.position(0), topo.position(1)), 5.0);
  EXPECT_THROW((void)topo.position(2), InvalidArgument);
}

TEST(Topology, HopDistanceRespectsDirectedness) {
  const Topology topo = directed(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  // No reverse links: node 2 cannot reach 0.
  EXPECT_EQ(topo.hop_distances(0)[2], 2u);
  EXPECT_EQ(topo.hop_distances(2)[0], kNeverSlot);
}

TEST(Topology, CsrRowsAreContiguousAndSorted) {
  const Topology topo = line_of(6, 0.8);
  // Adjacent nodes' spans tile one flat array: row n ends where row n+1
  // starts (links of a line: 1, 2, 2, 2, 2, 1).
  const auto first = topo.neighbors(0);
  EXPECT_EQ(first.size(), 1u);
  const Link* expected_next = first.data() + first.size();
  for (NodeId n = 1; n < topo.num_nodes(); ++n) {
    const auto row = topo.neighbors(n);
    EXPECT_EQ(row.data(), expected_next);
    EXPECT_TRUE(std::is_sorted(
        row.begin(), row.end(),
        [](const Link& a, const Link& b) { return a.to < b.to; }));
    expected_next = row.data() + row.size();
  }
}

TEST(Topology, CopyAndMovePreserveGraphAndSealState) {
  Topology topo = line_of(5, 0.9);
  const Topology copy(topo);
  EXPECT_EQ(copy.num_links(), topo.num_links());
  EXPECT_EQ(copy.prr(1, 2).value(), 0.9);

  Topology moved(std::move(topo));
  EXPECT_EQ(moved.num_links(), 8u);
  EXPECT_EQ(moved.prr(0, 1).value(), 0.9);

  Topology assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.num_links(), 8u);
  EXPECT_TRUE(assigned.has_link(4, 3));
}

TEST(Topology, InLinksMirrorOutLinks) {
  for (const std::string& name : generator_names()) {
    SCOPED_TRACE(name);
    const Topology topo = make_network(name, 60, 2);
    EXPECT_GT(topo.num_links(), 0u);
    EXPECT_TRUE(test_support::in_links_mirror_out_links(topo));
  }

  // Records in no particular order; node 4 has out-links but no in-links.
  const Topology topo = directed(
      5, {{3, 0, 0.4}, {4, 1, 0.9}, {0, 2, 0.7}, {4, 0, 0.6}, {2, 0, 0.5},
          {1, 2, 0.8}, {0, 1, 0.3}, {4, 3, 1.0}});
  EXPECT_TRUE(test_support::in_links_mirror_out_links(topo));
  EXPECT_TRUE(topo.in_links(4).empty());
  std::vector<NodeId> senders;
  for (const InLink& in : topo.in_links(0)) senders.push_back(in.from);
  EXPECT_EQ(senders, (std::vector<NodeId>{2, 3, 4}));
  EXPECT_EQ(topo.link(topo.in_links(0)[1].id).prr, 0.4);
  EXPECT_THROW((void)topo.in_links(5), InvalidArgument);
  EXPECT_THROW((void)topo.link(static_cast<LinkId>(topo.num_links())),
               InvalidArgument);
}

TEST(Topology, LinkIdsNameTheirLinks) {
  const Topology topo = directed(
      4, {{0, 1, 0.3}, {0, 2, 0.7}, {2, 0, 0.5}, {3, 1, 0.9}});
  for (NodeId from = 0; from < topo.num_nodes(); ++from) {
    const auto row = topo.neighbors(from);
    for (std::size_t i = 0; i < row.size(); ++i) {
      const auto id = static_cast<LinkId>(topo.first_link(from) + i);
      EXPECT_EQ(&topo.link(id), &row[i]);
      EXPECT_EQ(topo.link_id(from, row[i].to), id);
      EXPECT_TRUE(topo.is_link(id, from, row[i].to));
    }
  }
  EXPECT_FALSE(topo.link_id(0, 3).has_value());
  const LinkId zero_two = *topo.link_id(0, 2);
  EXPECT_FALSE(topo.is_link(zero_two, 0, 1));  // another receiver.
  EXPECT_FALSE(topo.is_link(zero_two, 2, 2));  // another sender's row.
  EXPECT_FALSE(topo.is_link(*topo.link_id(3, 1), 0, 1));
  EXPECT_FALSE(topo.is_link(kNoLink, 0, 2));  // out of range.
  EXPECT_FALSE(topo.is_link(zero_two, 9, 2));  // sender out of range.
  EXPECT_EQ(topo.first_link(1), topo.first_link(2));  // 1 has no out-links.
}

TEST(Topology, PositionsSpanMatchesAccessor) {
  const Topology topo =
      Topology::from_links(std::vector<Point2D>{{0, 0}, {3, 4}, {6, 8}}, {});
  const auto span = topo.positions();
  ASSERT_EQ(span.size(), 3u);
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    EXPECT_EQ(span[n], topo.position(n));
  }
}

}  // namespace
}  // namespace ldcf::topology

#include "ldcf/topology/trace_io.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ldcf/common/error.hpp"
#include "ldcf/common/rng.hpp"
#include "ldcf/topology/generators.hpp"
#include "support/graphs.hpp"

namespace ldcf::topology {
namespace {

void expect_same(const Topology& a, const Topology& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_links(), b.num_links());
  for (NodeId n = 0; n < a.num_nodes(); ++n) {
    EXPECT_NEAR(a.position(n).x, b.position(n).x, 1e-4);
    EXPECT_NEAR(a.position(n).y, b.position(n).y, 1e-4);
    const auto na = a.neighbors(n);
    const auto nb = b.neighbors(n);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].to, nb[i].to);
      EXPECT_NEAR(na[i].prr, nb[i].prr, 1e-4);
    }
  }
}

TEST(TraceIo, RoundTripsSmallTopology) {
  const Topology topo =
      Topology::from_links(std::vector<Point2D>{{0, 0}, {10, 0}, {10, 10}},
                           {{0, 1, 0.8}, {1, 0, 0.8}, {1, 2, 0.33}});
  std::stringstream stream;
  write_trace(topo, stream);
  const Topology loaded = read_trace(stream);
  expect_same(topo, loaded);
}

TEST(TraceIo, RoundTripsGreenOrbsLike) {
  const Topology topo = make_greenorbs_like(4);
  std::stringstream stream;
  write_trace(topo, stream);
  const Topology loaded = read_trace(stream);
  expect_same(topo, loaded);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/ldcf_trace_test.csv";
  const Topology topo = make_greenorbs_like(6);
  write_trace_file(topo, path);
  const Topology loaded = read_trace_file(path);
  expect_same(topo, loaded);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMissingHeader) {
  std::stringstream stream("node,0,0,0\n");
  EXPECT_THROW((void)read_trace(stream), InvalidArgument);
}

TEST(TraceIo, RejectsUnknownRecord) {
  std::stringstream stream("# ldcf-trace v1\nfrobnicate,1,2,3\n");
  EXPECT_THROW((void)read_trace(stream), InvalidArgument);
}

TEST(TraceIo, RejectsNonDenseNodeIds) {
  std::stringstream stream("# ldcf-trace v1\nnode,0,0,0\nnode,2,1,1\n");
  EXPECT_THROW((void)read_trace(stream), InvalidArgument);
}

TEST(TraceIo, RejectsNodeAfterLink) {
  std::stringstream stream(
      "# ldcf-trace v1\nnode,0,0,0\nnode,1,1,1\nlink,0,1,0.5\nnode,2,2,2\n");
  EXPECT_THROW((void)read_trace(stream), InvalidArgument);
}

TEST(TraceIo, RejectsInvalidLink) {
  std::stringstream stream(
      "# ldcf-trace v1\nnode,0,0,0\nnode,1,1,1\nlink,0,1,1.5\n");
  EXPECT_THROW((void)read_trace(stream), InvalidArgument);
}

/// read_trace must throw the typed InvalidArgument (not the untyped
/// std::invalid_argument of std::stoul) and name the offending line.
void expect_rejected_at_line(const std::string& trace, const std::string& at) {
  std::stringstream stream(trace);
  try {
    (void)read_trace(stream);
    ADD_FAILURE() << "accepted: " << trace;
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(at), std::string::npos) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped error: " << e.what();
  }
}

TEST(TraceIo, RejectsTrailingJunk) {
  expect_rejected_at_line("# ldcf-trace v1\nnode,0,0,0\nnode,1,1.5x,1\n",
                          "at line 3");
  expect_rejected_at_line(
      "# ldcf-trace v1\nnode,0,0,0\nnode,1,1,1\nlink,0,1,0.5abc\n",
      "at line 4");
  expect_rejected_at_line(
      "# ldcf-trace v1\nnode,0,0,0\nnode,1,1,1\nlink,0,1z,0.5\n",
      "at line 4");
  expect_rejected_at_line("# ldcf-trace v1\nnode,0,0,0,7\n", "at line 2");
  expect_rejected_at_line("# ldcf-trace v1\nnode,0,0,0\r\n", "at line 2");
}

TEST(TraceIo, RejectsNegativeIds) {
  // std::stoul wrapped "-4294967295" to 2^64 - 2^32 + 1, which narrowed to
  // node 1: a silently valid link 0 -> 1.
  expect_rejected_at_line(
      "# ldcf-trace v1\nnode,0,0,0\nnode,1,1,1\nlink,0,-4294967295,0.5\n",
      "at line 4");
  expect_rejected_at_line("# ldcf-trace v1\nnode,-0,0,0\n", "at line 2");
}

TEST(TraceIo, RejectsIdsAbove32Bits) {
  // 2^32 + 1 used to narrow to node 1.
  expect_rejected_at_line(
      "# ldcf-trace v1\nnode,0,0,0\nnode,1,1,1\nlink,0,4294967297,0.5\n",
      "at line 4");
  expect_rejected_at_line(
      "# ldcf-trace v1\nnode,0,0,0\nnode,4294967296,1,1\n", "at line 3");
}

TEST(TraceIo, RejectsNonNumericFieldsTyped) {
  expect_rejected_at_line("# ldcf-trace v1\nnode,abc,0,0\n", "at line 2");
  expect_rejected_at_line("# ldcf-trace v1\nnode,0,,0\n", "at line 2");
}

// Link records are checked at the line that holds them, not deep inside
// the topology build.
constexpr const char* kTwoNodes = "# ldcf-trace v1\nnode,0,0,0\nnode,1,1,1\n";

TEST(TraceIo, RejectsOutOfRangeIdAtItsLine) {
  expect_rejected_at_line(std::string(kTwoNodes) + "link,0,2,0.5\n",
                          "node id out of range at line 4");
  expect_rejected_at_line(
      std::string(kTwoNodes) + "link,0,1,0.5\nlink,7,0,1\n",
      "node id out of range at line 5");
  // A link before any node names no node in range.
  expect_rejected_at_line("# ldcf-trace v1\nlink,0,1,0.5\n",
                          "node id out of range at line 2");
}

TEST(TraceIo, RejectsSelfLoopAtItsLine) {
  expect_rejected_at_line(std::string(kTwoNodes) + "link,1,1,0.5\n",
                          "self-loop at line 4");
}

TEST(TraceIo, RejectsBadPrrAtItsLine) {
  expect_rejected_at_line(std::string(kTwoNodes) + "link,0,1,1.5\n",
                          "PRR must be in (0, 1] at line 4");
  expect_rejected_at_line(std::string(kTwoNodes) + "link,0,1,0\n",
                          "PRR must be in (0, 1] at line 4");
  expect_rejected_at_line(std::string(kTwoNodes) + "link,0,1,nan\n",
                          "at line 4");
}

TEST(TraceIo, DuplicateLinkNamesThePairAndItsSecondLine) {
  expect_rejected_at_line(std::string(kTwoNodes) +
                              "link,1,0,0.5\nlink,0,1,0.5\n# gap\n"
                              "link,0,1,0.25\n",
                          "duplicate link 0 -> 1 at line 7");
  // The reverse direction is a different link.
  std::stringstream both(std::string(kTwoNodes) +
                         "link,0,1,0.5\nlink,1,0,0.5\n");
  EXPECT_EQ(read_trace(both).num_links(), 2u);
}

TEST(TraceIo, RejectsEmptyTrace) {
  std::stringstream stream("# ldcf-trace v1\n");
  EXPECT_THROW((void)read_trace(stream), InvalidArgument);
}

TEST(TraceIo, SkipsCommentsAndBlankLines) {
  std::stringstream stream(
      "# ldcf-trace v1\n# a comment\n\nnode,0,0,0\nnode,1,3,4\n\n"
      "# more\nlink,0,1,0.5\n");
  const Topology topo = read_trace(stream);
  EXPECT_EQ(topo.num_nodes(), 2u);
  EXPECT_DOUBLE_EQ(topo.prr(0, 1).value(), 0.5);
}

TEST(TraceIo, DotExportContainsNodesAndEdges) {
  const Topology topo =
      Topology::from_links(std::vector<Point2D>{{0, 0}, {10, 20}, {30, 40}},
                           {{0, 1, 0.9}, {1, 0, 0.9}, {1, 2, 0.3}});
  std::stringstream stream;
  write_dot(topo, stream);
  const std::string dot = stream.str();
  EXPECT_NE(dot.find("graph ldcf_trace"), std::string::npos);
  EXPECT_NE(dot.find("1 [pos=\"10,20!\"]"), std::string::npos);
  // Each unordered pair appears exactly once.
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_EQ(dot.find("1 -- 0"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2"), std::string::npos);
  // Better links get darker (smaller gray index).
  const auto strong = dot.find("0 -- 1 [color=gray");
  const auto weak = dot.find("1 -- 2 [color=gray");
  ASSERT_NE(strong, std::string::npos);
  ASSERT_NE(weak, std::string::npos);
  const int strong_gray = std::stoi(dot.substr(strong + 18, 2));
  const int weak_gray = std::stoi(dot.substr(weak + 18, 2));
  EXPECT_LT(strong_gray, weak_gray);
}

TEST(TraceIo, DotExportDrawsOneWayLinksToLowerIds) {
  // Node 1 reaches both neighbours, neither answers: the pair {0, 1} is
  // drawn from its lower id although only 1 -> 0 exists.
  std::stringstream trace(
      "# ldcf-trace v1\nnode,0,0,0\nnode,1,10,0\nnode,2,20,0\n"
      "link,1,0,0.75\nlink,1,2,0.25\n");
  const Topology topo = read_trace(trace);
  std::stringstream stream;
  write_dot(topo, stream);
  const std::string dot = stream.str();
  EXPECT_NE(dot.find("  0 -- 1 [color=gray30];\n"), std::string::npos) << dot;
  EXPECT_NE(dot.find("  1 -- 2 [color=gray70];\n"), std::string::npos) << dot;
  EXPECT_EQ(dot.find("1 -- 0"), std::string::npos);
  EXPECT_EQ(dot.find("2 -- 1"), std::string::npos);
}

TEST(TraceIo, DotFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/ldcf_dot_test.dot";
  write_dot_file(make_greenorbs_like(2), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first, "graph ldcf_trace {");
  std::remove(path.c_str());
  EXPECT_THROW(write_dot_file(make_greenorbs_like(2), "/nonexistent/x.dot"),
               InvalidArgument);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW((void)read_trace_file("/nonexistent/path/trace.csv"),
               InvalidArgument);
  const Topology topo = Topology::from_links(std::vector<Point2D>(1), {});
  EXPECT_THROW(write_trace_file(topo, "/nonexistent/path/trace.csv"),
               InvalidArgument);
}

/// Offsets where the lines of `text` start.
std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

/// The line of `text` starting at `start`, with its newline.
std::string line_at(const std::string& text, std::size_t start) {
  const std::size_t end = text.find('\n', start);
  return text.substr(start, end == std::string::npos ? end : end - start + 1);
}

/// One seeded mutation of a trace: a byte flip, a deletion, a duplicated
/// line, a line spliced in elsewhere, or a truncation.
void mutate(std::string& text, Rng& rng) {
  static const std::string kAlphabet = "0123456789,.-+e \n#abdiklnortx";
  if (text.empty()) return;
  const std::size_t at = rng.below(text.size());
  const std::vector<std::size_t> starts = line_starts(text);
  switch (rng.below(5)) {
    case 0:
      text[at] = rng.below(2) == 0
                     ? kAlphabet[rng.below(kAlphabet.size())]
                     : static_cast<char>(rng.below(256));
      break;
    case 1:
      text.erase(at, 1 + rng.below(4));
      break;
    case 2: {
      const std::size_t start = starts[rng.below(starts.size())];
      text.insert(start, line_at(text, start));
      break;
    }
    case 3: {
      // The tail of one line joined onto the head of another.
      const std::string donor = line_at(text, starts[rng.below(starts.size())]);
      text.insert(at, donor.substr(rng.below(donor.size())));
      break;
    }
    default:
      text.resize(at);
      break;
  }
}

// Seeded mutants of a valid trace either load into a topology whose
// in-link index mirrors its out-rows, or are rejected with the typed
// InvalidArgument — never another exception, a crash or a broken index.
TEST(TraceIoFuzz, MutantsLoadOrThrowTyped) {
  constexpr std::uint64_t kSeed = 2011;
  constexpr int kMutants = 2000;
  const Topology topo = Topology::from_links(
      std::vector<Point2D>{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {5, 5}},
      {{0, 1, 0.8}, {1, 0, 0.75}, {1, 2, 0.33}, {2, 3, 1.0}, {3, 0, 0.5},
       {4, 0, 0.9}, {0, 4, 0.125}, {2, 4, 0.6}});
  std::stringstream clean;
  write_trace(topo, clean);
  const std::string base = clean.str();

  Rng rng(kSeed);
  int loaded = 0;
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string text = base;
    const std::uint64_t mutations = 1 + rng.below(3);
    for (std::uint64_t m = 0; m < mutations; ++m) mutate(text, rng);
    std::istringstream in(text);
    try {
      const Topology mutant = read_trace(in);
      ++loaded;
      EXPECT_TRUE(test_support::in_links_mirror_out_links(mutant))
          << "seed " << kSeed << " mutant " << i << ":\n" << text;
    } catch (const InvalidArgument&) {
      ++rejected;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "seed " << kSeed << " mutant " << i << " threw "
                    << error.what() << ":\n" << text;
    }
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(loaded, kMutants / 20);
  EXPECT_GT(rejected, kMutants / 20);
}

}  // namespace
}  // namespace ldcf::topology

#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "cc/afforest.hpp"
#include "cc/union_find.hpp"
#include "graph/builder.hpp"
#include "graph/generators/uniform.hpp"

namespace afforest {
namespace {

class IOTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("afforest_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(IOTest, EdgeListRoundTrip) {
  EdgeList<std::int32_t> edges{{0, 1}, {2, 3}, {1, 2}};
  write_edge_list(path("g.el"), edges);
  const auto back = read_edge_list(path("g.el"));
  ASSERT_EQ(back.size(), edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i)
    EXPECT_TRUE(back[i] == edges[i]);
}

TEST_F(IOTest, EdgeListSkipsCommentsAndBlankLines) {
  std::ofstream out(path("c.el"));
  out << "# header comment\n\n% another comment\n3 4\n";
  out.close();
  const auto edges = read_edge_list(path("c.el"));
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].u, 3);
  EXPECT_EQ(edges[0].v, 4);
}

TEST_F(IOTest, EdgeListParseErrorThrows) {
  std::ofstream out(path("bad.el"));
  out << "1 two\n";
  out.close();
  EXPECT_THROW(read_edge_list(path("bad.el")), std::runtime_error);
}

TEST_F(IOTest, EdgeListNegativeIdThrows) {
  std::ofstream out(path("neg.el"));
  out << "-1 2\n";
  out.close();
  EXPECT_THROW(read_edge_list(path("neg.el")), std::runtime_error);
}

TEST_F(IOTest, MissingFileThrows) {
  EXPECT_THROW(read_edge_list(path("nonexistent.el")), std::runtime_error);
  EXPECT_THROW(read_serialized_graph(path("nonexistent.sg")),
               std::runtime_error);
}

TEST_F(IOTest, SerializedGraphRoundTrip) {
  const auto edges = generate_uniform_edges<std::int32_t>(500, 2000, 3);
  const Graph g = build_undirected(edges, 500);
  write_serialized_graph(path("g.sg"), g);
  const Graph h = read_serialized_graph(path("g.sg"));
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_stored_edges(), g.num_stored_edges());
  EXPECT_EQ(h.directed(), g.directed());
  for (std::int64_t v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(h.out_degree(static_cast<std::int32_t>(v)),
              g.out_degree(static_cast<std::int32_t>(v)));
    for (std::int64_t k = 0; k < g.out_degree(static_cast<std::int32_t>(v));
         ++k)
      ASSERT_EQ(h.neighbor(static_cast<std::int32_t>(v), k),
                g.neighbor(static_cast<std::int32_t>(v), k));
  }
}

TEST_F(IOTest, DirectedSerializedGraphKeepsInEdges) {
  // The file stores only the out-CSR; the loader rebuilds the in-edges,
  // so afforest_cc's in-edge pass reaches the arcs of skipped tails.
  const EdgeList<std::int32_t> edges{{0, 1}, {3, 0}, {2, 1}, {5, 4}};
  const Graph g = build_directed(edges, 6);
  write_serialized_graph(path("d.sg"), g);
  const Graph h = read_serialized_graph(path("d.sg"));
  ASSERT_TRUE(h.directed());
  ASSERT_TRUE(h.has_in_edges());
  for (std::int32_t v = 0; v < 6; ++v) {
    ASSERT_EQ(h.in_degree(v), g.in_degree(v)) << v;
    for (std::int64_t k = 0; k < g.in_degree(v); ++k)
      ASSERT_EQ(h.in_neigh(v)[k], g.in_neigh(v)[k]) << v;
  }
  const auto want = union_find_cc(edges, 6);
  using Link = decltype(AfforestOptions::link);
  for (const Link link : {Link{RootHook{}}, Link{RemSplice{}}}) {
    AfforestOptions opts;
    opts.link = link;
    const auto got = afforest_cc(h, opts);
    for (std::size_t v = 0; v < want.size(); ++v)
      EXPECT_EQ(got[v], want[v]) << "v=" << v << " link=" << link.index();
  }
}

TEST_F(IOTest, AfforestRefusesDirectedGraphWithoutInEdges) {
  // Phase 3 reaches a skipped tail's arc only through the head's in-edges,
  // so a directed CSR without them is refused before any work.
  pvector<std::int64_t> offsets{0, 1, 1, 2};
  pvector<std::int32_t> neighbors{1, 0};
  const Graph g(3, std::move(offsets), std::move(neighbors),
                /*directed=*/true);
  ASSERT_FALSE(g.has_in_edges());
  EXPECT_THROW(afforest_cc(g), std::invalid_argument);
  AfforestOptions root_hook;
  root_hook.link = RootHook{};
  EXPECT_THROW(afforest_cc(g, root_hook), std::invalid_argument);
}

TEST_F(IOTest, BadMagicThrows) {
  std::ofstream out(path("junk.sg"), std::ios::binary);
  out << "NOTAGRAPHFILE_____________";
  out.close();
  EXPECT_THROW(read_serialized_graph(path("junk.sg")), std::runtime_error);
}

TEST_F(IOTest, TruncatedSerializedGraphThrows) {
  EdgeList<std::int32_t> edges{{0, 1}, {1, 2}};
  const Graph g = build_undirected(edges);
  write_serialized_graph(path("t.sg"), g);
  // Truncate the file to cut off the neighbor array.
  const auto full = std::filesystem::file_size(path("t.sg"));
  std::filesystem::resize_file(path("t.sg"), full - 4);
  EXPECT_THROW(read_serialized_graph(path("t.sg")), std::runtime_error);
}

TEST_F(IOTest, LoadGraphDispatchesOnExtension) {
  EdgeList<std::int32_t> edges{{0, 1}, {1, 2}};
  write_edge_list(path("g.el"), edges);
  const Graph from_el = load_graph(path("g.el"));
  EXPECT_EQ(from_el.num_nodes(), 3);
  EXPECT_EQ(from_el.num_edges(), 2);

  write_serialized_graph(path("g.sg"), from_el);
  const Graph from_sg = load_graph(path("g.sg"));
  EXPECT_EQ(from_sg.num_nodes(), 3);
  EXPECT_EQ(from_sg.num_edges(), 2);
}

TEST_F(IOTest, LoadGraphUnknownExtensionThrows) {
  EXPECT_THROW(load_graph(path("g.mtx")), std::runtime_error);
}

TEST_F(IOTest, LabelsRoundTrip) {
  pvector<std::int32_t> labels{0, 0, 2, 2, 4};
  write_labels(path("c.cl"), labels);
  const auto back = read_labels(path("c.cl"));
  ASSERT_EQ(back.size(), labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i)
    EXPECT_EQ(back[i], labels[i]);
}

TEST_F(IOTest, LabelsBadMagicThrows) {
  std::ofstream out(path("junk.cl"), std::ios::binary);
  out << "NOTLABELS________________";
  out.close();
  EXPECT_THROW(read_labels(path("junk.cl")), std::runtime_error);
}

TEST_F(IOTest, LabelsTruncationThrows) {
  pvector<std::int32_t> labels(100, 7);
  write_labels(path("t.cl"), labels);
  const auto full = std::filesystem::file_size(path("t.cl"));
  std::filesystem::resize_file(path("t.cl"), full - 8);
  EXPECT_THROW(read_labels(path("t.cl")), std::runtime_error);
}

TEST_F(IOTest, EmptyLabelsSerialize) {
  pvector<std::int32_t> labels;
  write_labels(path("e.cl"), labels);
  EXPECT_TRUE(read_labels(path("e.cl")).empty());
}

TEST_F(IOTest, EmptyGraphSerializes) {
  EdgeList<std::int32_t> edges;
  const Graph g = build_undirected(edges, 0);
  write_serialized_graph(path("empty.sg"), g);
  const Graph h = read_serialized_graph(path("empty.sg"));
  EXPECT_EQ(h.num_nodes(), 0);
  EXPECT_EQ(h.num_stored_edges(), 0);
}

}  // namespace
}  // namespace afforest

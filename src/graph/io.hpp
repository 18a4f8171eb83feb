// Graph file I/O.
//
// Three formats:
//  - ".el"  — whitespace-separated text edge list ("u v" per line, '#' or
//             '%' comment lines allowed), the lingua franca of graph
//             datasets (SNAP, GAP).
//  - ".mtx" — MatrixMarket coordinate format (SuiteSparse collection);
//             1-indexed, `pattern`/`real`/`integer` fields accepted (values
//             ignored), `symmetric` and `general` symmetries supported.
//  - ".sg"  — this library's binary serialized CSR: magic, header, offset
//             array, neighbor array.  Loading is O(|E|) with no rebuild;
//             a directed file stores out-edges only, and the loader
//             derives its in-edges.
//
// Every loader is hardened against corrupt and adversarial inputs: all
// failures throw IoError (io_error.hpp) with a machine-checkable kind and
// the line/byte position, header-sized allocations are validated against
// the actual file size first, and 64-bit ids that do not fit the 32-bit
// NodeID are rejected rather than silently narrowed.  See
// docs/ROBUSTNESS.md for the full taxonomy.
#pragma once

#include <cstdint>
#include <string>

#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "graph/io_error.hpp"

namespace afforest {

/// Reads a text edge list.  Throws IoError (kParseError / kNegativeId /
/// kIdOverflow / kOpenFailed) on malformed input.
EdgeList<std::int32_t> read_edge_list(const std::string& path);

/// Writes a text edge list.
void write_edge_list(const std::string& path,
                     const EdgeList<std::int32_t>& edges);

/// Result of parsing a MatrixMarket file: edges are converted to
/// 0-indexing; num_nodes is max(rows, cols) from the size line.
struct MatrixMarketData {
  EdgeList<std::int32_t> edges;
  std::int64_t num_nodes = 0;
};

/// Reads a MatrixMarket coordinate file.  Throws IoError on malformed
/// headers, unsupported variants (complex field, array format),
/// out-of-range indices, or entry counts disagreeing with the size line.
MatrixMarketData read_matrix_market(const std::string& path);

/// Serializes a CSR graph to the binary .sg format.
void write_serialized_graph(const std::string& path, const Graph& g);

/// Loads a binary .sg graph.  The header's n/m are reconciled against the
/// file's size before anything is allocated; neighbor ids are validated
/// against [0, n).  A directed graph comes back with its in-edges
/// (has_in_edges() is true).  Throws IoError (kBadMagic / kCorruptHeader /
/// kTruncated / kTrailingGarbage / kMalformedOffsets /
/// kOutOfRangeNeighbor / kIdOverflow).
Graph read_serialized_graph(const std::string& path);

/// Dispatches on extension: ".el" and ".mtx" are read + built
/// (undirected), ".sg" is loaded directly.
Graph load_graph(const std::string& path);

/// Persists component labels as a binary .cl file (magic + count +
/// int32 labels), so expensive CC runs can be checkpointed and reused.
void write_labels(const std::string& path,
                  const pvector<std::int32_t>& labels);

/// Loads a .cl label file.  The header's count is reconciled against the
/// file size before allocating.  Throws IoError on bad magic, truncation,
/// or trailing garbage.
pvector<std::int32_t> read_labels(const std::string& path);

}  // namespace afforest

#include "graph/io.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "graph/builder.hpp"
#include "util/failpoint.hpp"

namespace afforest {
namespace {

constexpr char kMagic[8] = {'A', 'F', 'F', 'S', 'G', '0', '0', '1'};
constexpr char kLabelMagic[8] = {'A', 'F', 'F', 'C', 'L', '0', '0', '1'};

constexpr std::int64_t kMaxNodeID =
    std::numeric_limits<std::int32_t>::max();

[[noreturn]] void fail(IoErrorKind kind, const std::string& path,
                       const std::string& detail,
                       std::int64_t line = IoError::kNoPosition,
                       std::int64_t byte_offset = IoError::kNoPosition) {
  throw IoError(kind, path, detail, line, byte_offset);
}

/// Size of `path` in bytes, surfaced as kOpenFailed when it cannot be
/// stat'ed.  Every binary reader consults this BEFORE allocating anything
/// sized by a header field, so a corrupt header cannot request more memory
/// than the file could possibly back.
std::uint64_t checked_file_size(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) fail(IoErrorKind::kOpenFailed, path, "cannot stat: " + ec.message());
  return static_cast<std::uint64_t>(size);
}

void open_for_reading(std::ifstream& in, const std::string& path,
                      std::ios::openmode mode = std::ios::in) {
  if (failpoint_triggered("io.read.open"))
    fail(IoErrorKind::kOpenFailed, path, "cannot open for reading (failpoint)");
  in.open(path, mode);
  if (!in) fail(IoErrorKind::kOpenFailed, path, "cannot open for reading");
}

}  // namespace

EdgeList<std::int32_t> read_edge_list(const std::string& path) {
  std::ifstream in;
  open_for_reading(in, path);
  EdgeList<std::int32_t> edges;
  std::string line;
  std::int64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    std::int64_t u, v;
    if (!(ls >> u >> v))
      fail(IoErrorKind::kParseError, path, "expected 'u v' edge", lineno);
    if (u < 0 || v < 0)
      fail(IoErrorKind::kNegativeId, path, "negative vertex id", lineno);
    if (u > kMaxNodeID || v > kMaxNodeID)
      fail(IoErrorKind::kIdOverflow, path,
           "vertex id " + std::to_string(std::max(u, v)) +
               " exceeds the 32-bit NodeID range",
           lineno);
    edges.push_back({static_cast<std::int32_t>(u),
                     static_cast<std::int32_t>(v)});
  }
  return edges;
}

void write_edge_list(const std::string& path,
                     const EdgeList<std::int32_t>& edges) {
  std::ofstream out(path);
  if (!out) fail(IoErrorKind::kOpenFailed, path, "cannot open for writing");
  for (const auto& [u, v] : edges) out << u << ' ' << v << '\n';
  if (!out || failpoint_triggered("io.write"))
    fail(IoErrorKind::kWriteFailed, path, "write error");
}

MatrixMarketData read_matrix_market(const std::string& path) {
  std::ifstream in;
  open_for_reading(in, path);
  std::string header;
  if (!std::getline(in, header))
    fail(IoErrorKind::kTruncated, path, "empty file");
  std::istringstream hs(header);
  std::string banner, object, format, field, symmetry;
  hs >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket")
    fail(IoErrorKind::kBadMagic, path, "missing %%MatrixMarket banner", 1);
  if (object != "matrix" || format != "coordinate")
    fail(IoErrorKind::kUnsupportedFormat, path,
         "only 'matrix coordinate' files are supported", 1);
  const bool has_value = field == "real" || field == "integer";
  if (!has_value && field != "pattern")
    fail(IoErrorKind::kUnsupportedFormat, path,
         "unsupported field type: " + field, 1);
  if (symmetry != "symmetric" && symmetry != "general")
    fail(IoErrorKind::kUnsupportedFormat, path,
         "unsupported symmetry: " + symmetry, 1);

  std::string line;
  std::int64_t lineno = 1;
  // Skip comment lines to the size line.
  std::int64_t rows = 0, cols = 0, entries = 0;
  bool have_size = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '%') continue;
    std::istringstream ls(line);
    if (!(ls >> rows >> cols >> entries))
      fail(IoErrorKind::kParseError, path, "malformed size line", lineno);
    have_size = true;
    break;
  }
  if (!have_size)
    fail(IoErrorKind::kTruncated, path, "missing size line");
  if (rows <= 0 || cols <= 0 || entries < 0)
    fail(IoErrorKind::kCorruptHeader, path, "invalid size line", lineno);
  if (rows > kMaxNodeID || cols > kMaxNodeID)
    fail(IoErrorKind::kIdOverflow, path,
         "matrix dimension exceeds the 32-bit NodeID range", lineno);

  MatrixMarketData data;
  data.num_nodes = std::max(rows, cols);
  // reserve, not resize: a lying `entries` cannot force an allocation
  // larger than one edge per remaining input line anyway (push_back grows
  // geometrically from whatever reserve granted).
  data.edges.reserve(static_cast<std::size_t>(
      std::min<std::int64_t>(entries, 1 << 20)));
  std::int64_t seen = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '%') continue;
    std::istringstream ls(line);
    std::int64_t r, c;
    if (!(ls >> r >> c))
      fail(IoErrorKind::kParseError, path, "malformed entry", lineno);
    if (r < 1 || r > rows || c < 1 || c > cols)
      fail(IoErrorKind::kOutOfRangeNeighbor, path,
           "index out of declared range", lineno);
    data.edges.push_back({static_cast<std::int32_t>(r - 1),
                          static_cast<std::int32_t>(c - 1)});
    ++seen;
  }
  if (seen < entries)
    fail(IoErrorKind::kTruncated, path,
         "size line promises " + std::to_string(entries) +
             " entries, found only " + std::to_string(seen));
  if (seen > entries)
    fail(IoErrorKind::kTrailingGarbage, path,
         "size line promises " + std::to_string(entries) +
             " entries, found " + std::to_string(seen));
  return data;
}

void write_serialized_graph(const std::string& path, const Graph& g) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail(IoErrorKind::kOpenFailed, path, "cannot open for writing");
  out.write(kMagic, sizeof(kMagic));
  const std::int64_t n = g.num_nodes();
  const std::int64_t m = g.num_stored_edges();
  const std::int64_t directed = g.directed() ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  out.write(reinterpret_cast<const char*>(&directed), sizeof(directed));
  out.write(reinterpret_cast<const char*>(g.offsets().data()),
            static_cast<std::streamsize>((n + 1) * sizeof(std::int64_t)));
  out.write(reinterpret_cast<const char*>(g.neighbors().data()),
            static_cast<std::streamsize>(m * sizeof(std::int32_t)));
  if (!out || failpoint_triggered("io.write"))
    fail(IoErrorKind::kWriteFailed, path, "write error");
}

Graph read_serialized_graph(const std::string& path) {
  constexpr std::uint64_t kHeaderBytes = sizeof(kMagic) + 3 * 8;
  const std::uint64_t file_size = checked_file_size(path);
  std::ifstream in;
  open_for_reading(in, path, std::ios::in | std::ios::binary);
  if (file_size < sizeof(kMagic))
    fail(IoErrorKind::kTruncated, path, "file smaller than the magic bytes",
         IoError::kNoPosition, static_cast<std::int64_t>(file_size));
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    fail(IoErrorKind::kBadMagic, path, "bad magic (not an .sg file)",
         IoError::kNoPosition, 0);
  if (file_size < kHeaderBytes)
    fail(IoErrorKind::kTruncated, path, "file ends inside the header",
         IoError::kNoPosition, static_cast<std::int64_t>(file_size));
  std::int64_t n = 0, m = 0, directed = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&m), sizeof(m));
  in.read(reinterpret_cast<char*>(&directed), sizeof(directed));
  if (!in || n < 0 || m < 0 || (directed != 0 && directed != 1))
    fail(IoErrorKind::kCorruptHeader, path,
         "header counts are negative or the flag byte is invalid",
         IoError::kNoPosition, sizeof(kMagic));
  if (n > kMaxNodeID)
    fail(IoErrorKind::kIdOverflow, path,
         "header claims " + std::to_string(n) +
             " vertices, beyond the 32-bit NodeID range",
         IoError::kNoPosition, sizeof(kMagic));

  // Reconcile the header against the actual file size BEFORE allocating:
  // a 16-byte file claiming n = 2^60 must die here, not in the allocator.
  // All arithmetic stays within range because n <= kMaxNodeID and m is
  // re-bounded by the payload size first.
  const std::uint64_t payload = file_size - kHeaderBytes;
  const std::uint64_t offsets_bytes =
      (static_cast<std::uint64_t>(n) + 1) * sizeof(std::int64_t);
  if (offsets_bytes > payload)
    fail(IoErrorKind::kTruncated, path,
         "header promises " + std::to_string(n + 1) +
             " offsets but the file holds only " + std::to_string(payload) +
             " payload bytes",
         IoError::kNoPosition, static_cast<std::int64_t>(file_size));
  const std::uint64_t neighbor_bytes = payload - offsets_bytes;
  const std::uint64_t promised_neighbor_bytes =
      static_cast<std::uint64_t>(m) * sizeof(std::int32_t);
  if (promised_neighbor_bytes > neighbor_bytes)
    fail(IoErrorKind::kTruncated, path,
         "header promises " + std::to_string(m) +
             " neighbors but the file ends early",
         IoError::kNoPosition, static_cast<std::int64_t>(file_size));
  if (promised_neighbor_bytes < neighbor_bytes)
    fail(IoErrorKind::kTrailingGarbage, path,
         std::to_string(neighbor_bytes - promised_neighbor_bytes) +
             " bytes beyond the header-promised payload",
         IoError::kNoPosition,
         static_cast<std::int64_t>(kHeaderBytes + offsets_bytes +
                                   promised_neighbor_bytes));
  if (failpoint_triggered("io.read.truncate"))
    fail(IoErrorKind::kTruncated, path, "truncated read (failpoint)");

  pvector<std::int64_t> offsets(static_cast<std::size_t>(n) + 1);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets_bytes));
  pvector<std::int32_t> neighbors(static_cast<std::size_t>(m));
  in.read(reinterpret_cast<char*>(neighbors.data()),
          static_cast<std::streamsize>(promised_neighbor_bytes));
  if (!in) fail(IoErrorKind::kTruncated, path, "truncated read");

  if (offsets[0] != 0 || offsets[n] != m)
    fail(IoErrorKind::kMalformedOffsets, path,
         "offset array does not span [0, m]", IoError::kNoPosition,
         kHeaderBytes);
  std::int64_t bad_offset = std::numeric_limits<std::int64_t>::max();
#pragma omp parallel for reduction(min : bad_offset) schedule(static)
  for (std::int64_t v = 0; v < n; ++v)
    if (offsets[v] > offsets[v + 1]) bad_offset = std::min(bad_offset, v);
  if (bad_offset != std::numeric_limits<std::int64_t>::max())
    fail(IoErrorKind::kMalformedOffsets, path,
         "non-monotone offsets at vertex " + std::to_string(bad_offset),
         IoError::kNoPosition,
         static_cast<std::int64_t>(kHeaderBytes) + bad_offset * 8);

  std::int64_t bad_neighbor = std::numeric_limits<std::int64_t>::max();
#pragma omp parallel for reduction(min : bad_neighbor) schedule(static)
  for (std::int64_t i = 0; i < m; ++i)
    if (neighbors[i] < 0 || neighbors[i] >= n)
      bad_neighbor = std::min(bad_neighbor, i);
  if (bad_neighbor != std::numeric_limits<std::int64_t>::max())
    fail(IoErrorKind::kOutOfRangeNeighbor, path,
         "neighbor id " + std::to_string(neighbors[bad_neighbor]) +
             " outside [0, " + std::to_string(n) + ")",
         IoError::kNoPosition,
         static_cast<std::int64_t>(kHeaderBytes + offsets_bytes) +
             bad_neighbor * 4);

  // The file stores only the out-CSR; a directed graph gets its in-edges
  // back, as build_directed gives them, so weakly-connected kernels see
  // every arc from both endpoints.
  if (directed == 0)
    return Graph(n, std::move(offsets), std::move(neighbors));
  auto [in_offsets, in_neighbors] =
      Builder<std::int32_t>::invert(offsets, neighbors);
  return Graph(n, std::move(offsets), std::move(neighbors),
               std::move(in_offsets), std::move(in_neighbors));
}

void write_labels(const std::string& path,
                  const pvector<std::int32_t>& labels) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail(IoErrorKind::kOpenFailed, path, "cannot open for writing");
  out.write(kLabelMagic, sizeof(kLabelMagic));
  const std::int64_t n = static_cast<std::int64_t>(labels.size());
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(labels.data()),
            static_cast<std::streamsize>(n * sizeof(std::int32_t)));
  if (!out || failpoint_triggered("io.write"))
    fail(IoErrorKind::kWriteFailed, path, "write error");
}

pvector<std::int32_t> read_labels(const std::string& path) {
  constexpr std::uint64_t kHeaderBytes = sizeof(kLabelMagic) + 8;
  const std::uint64_t file_size = checked_file_size(path);
  std::ifstream in;
  open_for_reading(in, path, std::ios::in | std::ios::binary);
  if (file_size < sizeof(kLabelMagic))
    fail(IoErrorKind::kTruncated, path, "file smaller than the magic bytes",
         IoError::kNoPosition, static_cast<std::int64_t>(file_size));
  char magic[sizeof(kLabelMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kLabelMagic, sizeof(kLabelMagic)) != 0)
    fail(IoErrorKind::kBadMagic, path, "bad magic (not a .cl file)",
         IoError::kNoPosition, 0);
  if (file_size < kHeaderBytes)
    fail(IoErrorKind::kTruncated, path, "file ends inside the header",
         IoError::kNoPosition, static_cast<std::int64_t>(file_size));
  std::int64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!in || n < 0)
    fail(IoErrorKind::kCorruptHeader, path, "negative label count",
         IoError::kNoPosition, sizeof(kLabelMagic));
  const std::uint64_t payload = file_size - kHeaderBytes;
  if (static_cast<std::uint64_t>(n) > payload / sizeof(std::int32_t))
    fail(IoErrorKind::kTruncated, path,
         "header promises " + std::to_string(n) +
             " labels but the file holds only " + std::to_string(payload) +
             " payload bytes",
         IoError::kNoPosition, static_cast<std::int64_t>(file_size));
  if (static_cast<std::uint64_t>(n) * sizeof(std::int32_t) < payload)
    fail(IoErrorKind::kTrailingGarbage, path,
         "bytes beyond the header-promised payload", IoError::kNoPosition,
         static_cast<std::int64_t>(kHeaderBytes +
                                   static_cast<std::uint64_t>(n) * 4));
  if (failpoint_triggered("io.read.truncate"))
    fail(IoErrorKind::kTruncated, path, "truncated read (failpoint)");
  pvector<std::int32_t> labels(static_cast<std::size_t>(n));
  in.read(reinterpret_cast<char*>(labels.data()),
          static_cast<std::streamsize>(n * sizeof(std::int32_t)));
  if (!in) fail(IoErrorKind::kTruncated, path, "truncated read");
  return labels;
}

Graph load_graph(const std::string& path) {
  const auto dot = path.rfind('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot);
  if (ext == ".el") return build_undirected(read_edge_list(path));
  if (ext == ".mtx") {
    auto data = read_matrix_market(path);
    return build_undirected(data.edges, data.num_nodes);
  }
  if (ext == ".sg") return read_serialized_graph(path);
  fail(IoErrorKind::kUnsupportedFormat, path,
       "unsupported extension (expected .el, .mtx, or .sg)");
}

}  // namespace afforest

#include "data/io.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/check.hpp"

namespace gsj {

namespace {
constexpr char kMagic[4] = {'G', 'S', 'J', 'D'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ofstream& f, const T& v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& f) {
  T v{};
  f.read(reinterpret_cast<char*>(&v), sizeof(T));
  GSJ_CHECK_MSG(f.good(), "truncated dataset file");
  return v;
}
}  // namespace

void save_binary(const Dataset& ds, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  GSJ_CHECK_MSG(f.good(), "cannot open " << path);
  f.write(kMagic, 4);
  write_pod(f, kVersion);
  write_pod(f, static_cast<std::uint32_t>(ds.dims()));
  write_pod(f, static_cast<std::uint64_t>(ds.size()));
  for (int d = 0; d < ds.dims(); ++d) {
    const auto col = ds.dim(d);
    f.write(reinterpret_cast<const char*>(col.data()),
            static_cast<std::streamsize>(col.size() * sizeof(double)));
  }
  GSJ_CHECK_MSG(f.good(), "write failed: " << path);
}

Dataset load_binary(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  GSJ_CHECK_MSG(f.good(), "cannot open " << path);
  char magic[4];
  f.read(magic, 4);
  GSJ_CHECK_MSG(f.good() && std::memcmp(magic, kMagic, 4) == 0,
                "bad magic in " << path);
  const auto version = read_pod<std::uint32_t>(f);
  GSJ_CHECK_MSG(version == kVersion, "unsupported version " << version);
  const auto dims = read_pod<std::uint32_t>(f);
  const auto n = read_pod<std::uint64_t>(f);
  GSJ_CHECK_MSG(dims >= 1 && dims <= static_cast<std::uint32_t>(kMaxDims),
                "bad dims " << dims);
  // Size the payload from the file before allocating it: a corrupt
  // header must not turn into a huge allocation.
  const std::streamoff header_end = f.tellg();
  f.seekg(0, std::ios::end);
  const std::streamoff file_end = f.tellg();
  f.seekg(header_end);
  GSJ_CHECK_MSG(f.good() && header_end >= 0 && file_end >= header_end,
                "cannot size dataset file " << path);
  const auto remaining = static_cast<std::uint64_t>(file_end - header_end);
  const std::uint64_t per_point = std::uint64_t{dims} * sizeof(double);
  GSJ_CHECK_MSG(n <= remaining / per_point,
                "truncated dataset file " << path << ": header declares "
                    << n << " points, payload holds "
                    << remaining / per_point);
  Dataset ds(static_cast<int>(dims), static_cast<std::size_t>(n));
  for (std::uint32_t d = 0; d < dims; ++d) {
    auto col = ds.fill_dim(static_cast<int>(d));
    f.read(reinterpret_cast<char*>(col.data()),
           static_cast<std::streamsize>(col.size() * sizeof(double)));
    GSJ_CHECK_MSG(f.good(), "truncated dataset file " << path);
    for (std::size_t i = 0; i < col.size(); ++i) {
      if (!std::isfinite(col[i])) {
        check_finite(path.c_str(), i, col.subspan(i, 1), static_cast<int>(d));
      }
    }
  }
  return ds;
}

Dataset load_csv(const std::string& path, int dims) {
  std::ifstream f(path);
  GSJ_CHECK_MSG(f.good(), "cannot open " << path);
  Dataset ds(dims);
  std::string line;
  std::vector<double> row(static_cast<std::size_t>(dims));
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string cell;
    for (int d = 0; d < dims; ++d) {
      GSJ_CHECK_MSG(std::getline(ls, cell, ','),
                    "row with <" << dims << " columns in " << path);
      row[static_cast<std::size_t>(d)] = std::stod(cell);
    }
    check_finite(path.c_str(), ds.size(), row);
    ds.push_back(row);
  }
  return ds;
}

void save_csv(const Dataset& ds, const std::string& path) {
  std::ofstream f(path);
  GSJ_CHECK_MSG(f.good(), "cannot open " << path);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (int d = 0; d < ds.dims(); ++d) {
      if (d) f << ',';
      f << ds.coord(i, d);
    }
    f << '\n';
  }
}

}  // namespace gsj

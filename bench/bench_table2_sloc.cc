/// \file bench_table2_sloc.cc
/// Reproduces Table 2 and the §5.2.1 implementation-effort comparison:
/// source lines of code per sub-operator, the total for the operators the
/// Fig. 3 join plan uses, the platform-specific share (MPI executor /
/// histogram / exchange), the monolithic hand-tuned join's size, and the
/// engine's SLOC per layer (top-level directory of src/) with its total.
/// Counts are computed from this repository's actual sources.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"

namespace modularis {
namespace {

/// Counts non-blank, non-pure-comment lines of a source file.
int CountSloc(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return -1;
  int lines = 0;
  std::string line;
  bool in_block_comment = false;
  while (std::getline(in, line)) {
    size_t begin = line.find_first_not_of(" \t");
    if (begin == std::string::npos) continue;
    std::string_view sv(line);
    sv.remove_prefix(begin);
    if (in_block_comment) {
      if (sv.find("*/") != std::string_view::npos) in_block_comment = false;
      continue;
    }
    if (sv.substr(0, 2) == "//") continue;
    if (sv.substr(0, 2) == "/*") {
      if (sv.find("*/", 2) == std::string_view::npos) {
        in_block_comment = true;
      }
      continue;
    }
    ++lines;
  }
  return lines;
}

/// Prints SLOC per engine layer — every .h/.cc under each top-level
/// directory of src/ — plus the engine total, so a change that deletes a
/// mechanism shows which layer the lines left.
void PrintLayerSloc(const std::string& root) {
  namespace fs = std::filesystem;
  struct Layer {
    std::string name;
    int files = 0;
    int sloc = 0;
  };
  std::vector<Layer> layers;
  for (const fs::directory_entry& dir : fs::directory_iterator(root + "/src")) {
    if (!dir.is_directory()) continue;
    Layer layer{dir.path().filename().string()};
    for (const fs::directory_entry& f :
         fs::recursive_directory_iterator(dir.path())) {
      const std::string ext = f.path().extension().string();
      if (!f.is_regular_file() || (ext != ".h" && ext != ".cc")) continue;
      ++layer.files;
      layer.sloc += CountSloc(f.path().string());
    }
    layers.push_back(std::move(layer));
  }
  std::sort(layers.begin(), layers.end(),
            [](const Layer& a, const Layer& b) { return a.name < b.name; });

  std::printf("\nEngine SLOC per layer (src/<layer>, .h + .cc):\n");
  std::printf("  %-20s %7s %9s\n", "layer", "files", "SLOC");
  int total_files = 0, total_sloc = 0;
  for (const Layer& layer : layers) {
    std::printf("  %-20s %7d %9d\n", layer.name.c_str(), layer.files,
                layer.sloc);
    total_files += layer.files;
    total_sloc += layer.sloc;
  }
  std::printf("  %-20s %7d %9d\n", "total", total_files, total_sloc);
}

struct OperatorEntry {
  const char* abbrev;
  const char* name;
  /// Files whose SLOC are attributed to this operator; a trailing
  /// fragment "#<tag>" restricts counting to the region between
  /// "// --- <tag>" markers — we instead count whole focused files.
  std::vector<std::string> files;
  bool platform_specific = false;
};

int Main() {
  bench::PrintHeader("Table 2: SLOC per sub-operator + §5.2.1 totals",
                     "Table 2, §5.2.1");
  const std::string root = MODULARIS_SOURCE_DIR;

  // The operator inventory of the Fig. 3 join plan. Several operators
  // share a source file pair; shared-file SLOC are split evenly across
  // the operators defined there (noted in the output).
  struct FileGroup {
    std::string path;
    std::vector<const char*> operators;
    bool platform_specific;
  };
  std::vector<FileGroup> groups = {
      {"/src/suboperators/basic_ops", {"ParameterLookup", "NestedMap",
        "Projection", "Filter", "Map", "ParametrizedMap", "Zip",
        "CartesianProduct"}, false},
      {"/src/suboperators/scan_ops", {"RowScan", "ColumnScan",
        "TableToCollection", "MaterializeRowVector"}, false},
      {"/src/suboperators/partition_ops", {"LocalHistogram",
        "LocalPartition", "Partition"}, false},
      {"/src/suboperators/join_ops", {"BuildProbe"}, false},
      {"/src/suboperators/agg_ops", {"ReduceByKey", "Reduce", "Sort",
        "TopK", "GroupBy"}, false},
      {"/src/mpi/mpi_ops", {"MpiExecutor", "MpiHistogram", "MpiExchange",
        "MpiBroadcast"}, true},
  };

  std::printf("%-60s %9s %9s\n", "source (operators defined there)", "SLOC",
              "per-op");
  int total_modular = 0;
  int total_platform = 0;
  for (const FileGroup& g : groups) {
    int sloc = CountSloc(root + g.path + ".h") +
               CountSloc(root + g.path + ".cc");
    std::string label = g.path + "  (";
    for (size_t i = 0; i < g.operators.size(); ++i) {
      if (i > 0) label += ", ";
      label += g.operators[i];
    }
    label += ")";
    if (label.size() > 59) label = label.substr(0, 56) + "...";
    std::printf("%-60s %9d %9d\n", label.c_str(), sloc,
                sloc / static_cast<int>(g.operators.size()));
    total_modular += sloc;
    if (g.platform_specific) total_platform += sloc;
  }

  int mono = CountSloc(root + "/src/baseline/monolithic_join.h") +
             CountSloc(root + "/src/baseline/monolithic_join.cc");
  int plan = CountSloc(root + "/src/plans/distributed_join.cc") +
             CountSloc(root + "/src/plans/distributed_join.h");

  std::printf("\n§5.2.1 comparison (this repository's own sources):\n");
  std::printf("  %-50s %9d\n",
              "sub-operator repository used by the join plan", total_modular);
  std::printf("  %-50s %9d\n", "  of which platform-specific (MPI ops)",
              total_platform);
  std::printf("  %-50s %9d\n", "join plan assembly (Fig. 3 wiring)", plan);
  std::printf("  %-50s %9d\n", "monolithic hand-tuned join (§5.2 baseline)",
              mono);
  std::printf(
      "  hardware-agnostic share of the modular code: %.0f%% "
      "(paper: platform-specific code is the smaller part;\n"
      "   the monolithic baseline must be rewritten per platform — the "
      "paper reports a 3.8x ratio)\n",
      100.0 * (total_modular - total_platform) / total_modular);
  std::printf(
      "  NOTE: the modular repository also powers GROUP BY, join "
      "sequences and all TPC-H plans;\n  the monolithic file implements "
      "exactly one join variant.\n");

  PrintLayerSloc(root);
  return 0;
}

}  // namespace
}  // namespace modularis

int main() { return modularis::Main(); }

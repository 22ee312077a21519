#include "bench/common.hpp"

#include <ostream>
#include <utility>

namespace lassm::bench {

model::CsvWriter bench_csv(const std::string& stem,
                           std::vector<std::string> header) {
  return model::CsvWriter(model::results_dir() + "/" + stem + ".csv",
                          std::move(header));
}

void write_artifacts(std::ostream& os, const model::CsvWriter& csv) {
  os << "\nCSV: " << csv.path() << "\n";
}

}  // namespace lassm::bench

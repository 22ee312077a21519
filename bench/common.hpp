#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "model/csv.hpp"

/// Shared harness for the bench binaries: one way to name a bench's CSV
/// artifact and to report where it went.
namespace lassm::bench {

/// Opens the bench's CSV artifact at `results_dir()/<stem>.csv` — the one
/// way every bench names its data file.
model::CsvWriter bench_csv(const std::string& stem,
                           std::vector<std::string> header);

/// The shared bench epilogue: prints the CSV path.
void write_artifacts(std::ostream& os, const model::CsvWriter& csv);

}  // namespace lassm::bench

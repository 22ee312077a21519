// perfbench: the repository's host wall-time benchmark. One process runs
// one workload for a fixed time on a pool of one worker per hardware
// thread, checks every output, and prints its metrics as the last line of
// standard output. Built and run by run.py, which adds units.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--golden FILE] [--trace-out FILE] [--commit C]
//   perfbench --self-check     every workload once on tiny inputs

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

constexpr const char* kWorkloads[] = {"reads_1rank", "reads_4rank",
                                      "paper_grid", "service_mix"};

bool known(const std::string& w) {
  for (const char* k : kWorkloads) {
    if (w == k) return true;
  }
  return false;
}

/// Recorded digest for (workload, seed): lines of "workload seed hex".
std::optional<std::uint64_t> read_golden(const std::string& path,
                                         const std::string& workload,
                                         std::uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string w;
    std::uint64_t sd = 0;
    std::string digest;
    if (ls >> w >> sd >> digest && w == workload && sd == seed) {
      return std::stoull(digest, nullptr, 16);
    }
  }
  return std::nullopt;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

Report run(const Settings& s) {
  if (s.workload == "service_mix") return run_service(s);
  const auto make = [&] {
    return s.workload == "paper_grid"
               ? make_grid_workload(s)
               : make_reads_workload(s, s.workload == "reads_4rank" ? 4 : 1);
  };
  const std::unique_ptr<BatchWorkload> w = make();
  return s.trace ? run_batch_traced(*w, s) : run_batch(*w, *make(), s);
}

void print(const Settings& s, const Report& r) {
  std::string line = "{\"provenance\": {";
  for (std::size_t i = 0; i < s.provenance.size(); ++i) {
    line += (i ? ", " : "") + quoted(s.provenance[i].first) + ": " +
            quoted(s.provenance[i].second);
  }
  line += "}, \"notes\": {";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    const std::string& v = r.notes[i].second;
    line += (i ? ", " : "") + quoted(r.notes[i].first) + ": " +
            (v.rfind('{', 0) == 0 ? v : quoted(v));
  }
  std::printf("%s}}\n", line.c_str());

  line = "{\"correct\": ";
  line += r.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted) +
          ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", r.metrics[i].second);
    line += (i ? ", " : "") + quoted(r.metrics[i].first) + ": " + num;
  }
  std::printf("%s}}\n", line.c_str());
}

int self_check(Settings base) {
  int bad = 0;
  base.tiny = true;
  base.seconds = 0.2;
  for (const char* w : kWorkloads) {
    for (const bool trace : {false, true}) {
      Settings s = base;
      s.workload = w;
      s.trace = trace;
      const Report r = run(s);
      std::printf("self-check %-12s trace=%d: %s (%llu attempted, %llu "
                  "failed)\n",
                  w, trace ? 1 : 0, r.correct() ? "ok" : "FAILED",
                  static_cast<unsigned long long>(r.attempted),
                  static_cast<unsigned long long>(r.failed));
      std::fflush(stdout);
      bad += r.correct() ? 0 : 1;
    }
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Settings s;
  s.threads = std::max(1u, std::thread::hardware_concurrency());
  std::string golden_path;
  std::string commit = "unknown";
  bool check_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-check") {
      check_mode = true;
    } else if (has_value && a == "--workload") {
      s.workload = argv[++i];
    } else if (has_value && a == "--seed") {
      s.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (has_value && a == "--seconds") {
      s.seconds = std::strtod(argv[++i], nullptr);
    } else if (has_value && a == "--trace") {
      s.trace = std::string(argv[++i]) == "1";
    } else if (has_value && a == "--golden") {
      golden_path = argv[++i];
    } else if (has_value && a == "--trace-out") {
      s.trace_out = argv[++i];
    } else if (has_value && a == "--commit") {
      commit = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s\n", a.c_str());
      return 2;
    }
  }
  s.provenance = {{"workload", s.workload},
                  {"seed", std::to_string(s.seed)},
                  {"trace", s.trace ? "1" : "0"},
                  {"nproc", std::to_string(s.threads)},
                  {"threads", std::to_string(s.threads)},
                  {"build_type", PERFBENCH_BUILD_TYPE},
                  {"compiler", PERFBENCH_COMPILER},
                  {"commit", commit}};
  try {
    if (check_mode) return self_check(s);
    if (!known(s.workload) || !(s.seconds > 0.0)) {
      std::fprintf(stderr, "perfbench: need --workload {reads_1rank, "
                           "reads_4rank, paper_grid, service_mix} and "
                           "--seconds > 0\n");
      return 2;
    }
    if (!golden_path.empty()) {
      s.golden = read_golden(golden_path, s.workload, s.seed);
    }
    print(s, run(s));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}

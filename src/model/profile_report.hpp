#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "resilience/status.hpp"
#include "simt/device.hpp"
#include "trace/attribution.hpp"

/// The `profile_report` artifact: the counter-attribution tree rendered the
/// way the paper explains kernel time — every span placed on the device's
/// INTOP roofline (§V.B conventions: INTOPs == warp-level instructions,
/// intensity == INTOPs per HBM byte), top-down (tree) and bottom-up
/// (aggregated by span name) views, emitted as JSON + CSV + a flame-style
/// ASCII summary. The JSON rows also carry each span's host seconds, so
/// one file is the run's layer ledger; the CSV stays modelled-only (and so
/// byte-identical across runs).
///
/// Named AttributedProfile (not ProfileReport — model/profiler.hpp already
/// uses that name for the vendor-counter emulation view of the same run).
namespace lassm::model {

/// One profile row: a span (top-down) or a span-name aggregate (bottom-up)
/// with its counters and its roofline placement.
struct AttributedRow {
  std::string path;   ///< "/"-joined ancestry, e.g. "pipeline/k-round 21"
  std::string name;
  std::uint32_t depth = 0;         ///< 0 in the bottom-up view
  trace::CounterVector total;      ///< inclusive (== self in bottom-up)
  trace::CounterVector self;       ///< exclusive of children
  double host_s = 0.0;             ///< host seconds, like `total`
  double self_host_s = 0.0;        ///< host seconds, like `self`

  /// Roofline placement of `total`; meaningful only when the span covered
  /// modelled kernel time (sim_time_s > 0 and HBM bytes > 0) — host-only
  /// spans report zeros and bound == "n/a".
  double gintops = 0.0;
  double intensity = 0.0;
  double ceiling = 0.0;
  double arch_eff = 0.0;
  const char* bound = "n/a";
};

struct AttributedProfile {
  std::string device_name;  ///< device whose roofline placed the rows
  std::vector<AttributedRow> top_down;   ///< DFS over the tree, root first
  std::vector<AttributedRow> bottom_up;  ///< self cost by name, hottest first
};

/// Builds the report from an attribution arena (Tracer::attribution()'s
/// nodes() or StudyResults::attribution) against one device's roofline.
AttributedProfile build_attributed_profile(
    const std::vector<trace::AttributionNode>& nodes,
    const simt::DeviceSpec& dev);

void write_profile_json(std::ostream& os, const AttributedProfile& p);
void write_profile_csv(std::ostream& os, const AttributedProfile& p);
/// Flame-style terminal summary: per top-down row an indented name, a bar
/// proportional to its share of root cycles, and its roofline placement.
void print_attributed_profile(std::ostream& os, const AttributedProfile& p);

/// Writes `<stem>.json` and `<stem>.csv` (same I/O contract as the trace
/// exporters: kIoError instead of throwing).
Status write_profile_report(const std::string& stem,
                            const AttributedProfile& p);

}  // namespace lassm::model

#include "model/profile_report.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>

#include "model/roofline.hpp"
#include "trace/json_util.hpp"

namespace lassm::model {

namespace {

void place_on_roofline(AttributedRow& row, const simt::DeviceSpec& dev) {
  const trace::CounterVector& cv = row.total;
  if (cv.sim_time_s <= 0.0 || cv.hbm_bytes() == 0) return;
  row.gintops = static_cast<double>(cv.instructions) / cv.sim_time_s / 1e9;
  row.intensity = static_cast<double>(cv.instructions) /
                  static_cast<double>(cv.hbm_bytes());
  row.ceiling = roofline_ceiling(dev, row.intensity);
  row.arch_eff =
      architectural_efficiency(dev, RooflinePoint{row.gintops, row.intensity});
  row.bound = classify(dev, row.intensity) == RooflineBound::kMemory
                  ? "memory"
                  : "compute";
}

void dfs(const std::vector<trace::AttributionNode>& nodes, std::size_t i,
         const std::string& prefix, const simt::DeviceSpec& dev,
         std::vector<AttributedRow>& out) {
  const trace::AttributionNode& n = nodes[i];
  AttributedRow row;
  row.path = prefix.empty() ? n.name : prefix + "/" + n.name;
  row.name = n.name;
  row.depth = n.depth;
  row.total = n.total;
  row.self = trace::self_cost(nodes, i);
  row.host_s = n.host_s;
  row.self_host_s = trace::self_host_s(nodes, i);
  place_on_roofline(row, dev);
  const std::string child_prefix = row.path;
  out.push_back(std::move(row));
  for (const std::uint32_t c : nodes[i].children) {
    dfs(nodes, c, child_prefix, dev, out);
  }
}

void write_cv_json(std::ostream& os, const trace::CounterVector& cv) {
  os << "{";
  bool first = true;
  for (const trace::CounterVector::Field& f :
       trace::CounterVector::fields()) {
    os << (first ? "" : ", ");
    first = false;
    trace::json_escape(os, f.name);
    os << ": " << cv.*f.member;
  }
  os << ", \"sim_time_s\": ";
  trace::json_number(os, cv.sim_time_s);
  os << "}";
}

void write_row_json(std::ostream& os, const AttributedRow& r) {
  os << "{\"path\": ";
  trace::json_escape(os, r.path);
  os << ", \"name\": ";
  trace::json_escape(os, r.name);
  os << ", \"depth\": " << r.depth << ",\n      \"total\": ";
  write_cv_json(os, r.total);
  os << ",\n      \"self\": ";
  write_cv_json(os, r.self);
  os << ",\n      \"host_s\": ";
  trace::json_number(os, r.host_s);
  os << ", \"self_host_s\": ";
  trace::json_number(os, r.self_host_s);
  os << ",\n      \"roofline\": {\"gintops\": ";
  trace::json_number(os, r.gintops);
  os << ", \"intensity\": ";
  trace::json_number(os, r.intensity);
  os << ", \"ceiling\": ";
  trace::json_number(os, r.ceiling);
  os << ", \"arch_eff\": ";
  trace::json_number(os, r.arch_eff);
  os << ", \"bound\": \"" << r.bound << "\"}}";
}

void write_rows_json(std::ostream& os, const char* key,
                     const std::vector<AttributedRow>& rows) {
  os << "  \"" << key << "\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    write_row_json(os, rows[i]);
  }
  os << "\n  ]";
}

void write_rows_csv(std::ostream& os, const char* view,
                    const std::vector<AttributedRow>& rows) {
  for (const AttributedRow& r : rows) {
    os << view << "," << r.path << "," << r.name << "," << r.depth;
    for (const trace::CounterVector::Field& f :
         trace::CounterVector::fields()) {
      os << "," << r.total.*f.member;
    }
    os << "," << r.total.sim_time_s;
    for (const trace::CounterVector::Field& f :
         trace::CounterVector::fields()) {
      os << "," << r.self.*f.member;
    }
    os << "," << r.self.sim_time_s;
    os << "," << r.gintops << "," << r.intensity << "," << r.ceiling << ","
       << r.arch_eff << "," << r.bound << "\n";
  }
}

}  // namespace

AttributedProfile build_attributed_profile(
    const std::vector<trace::AttributionNode>& nodes,
    const simt::DeviceSpec& dev) {
  AttributedProfile p;
  p.device_name = dev.name;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].parent < 0) dfs(nodes, i, "", dev, p.top_down);
  }

  // Bottom-up: exclusive cost aggregated over every span sharing a name,
  // hottest first (ties broken by name, so the view is deterministic).
  std::map<std::string, AttributedRow> by_name;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    AttributedRow& row = by_name[nodes[i].name];
    row.self.add(trace::self_cost(nodes, i));
    row.self_host_s += trace::self_host_s(nodes, i);
  }
  for (auto& [name, row] : by_name) {
    row.path = name;
    row.name = name;
    row.total = row.self;
    row.host_s = row.self_host_s;
    place_on_roofline(row, dev);
    p.bottom_up.push_back(std::move(row));
  }
  std::stable_sort(p.bottom_up.begin(), p.bottom_up.end(),
                   [](const AttributedRow& a, const AttributedRow& b) {
                     if (a.self.cycles != b.self.cycles) {
                       return a.self.cycles > b.self.cycles;
                     }
                     return a.name < b.name;
                   });
  return p;
}

void write_profile_json(std::ostream& os, const AttributedProfile& p) {
  os << "{\n  \"schema_version\": 1,\n  \"device\": ";
  trace::json_escape(os, p.device_name);
  os << ",\n";
  write_rows_json(os, "top_down", p.top_down);
  os << ",\n";
  write_rows_json(os, "bottom_up", p.bottom_up);
  os << "\n}\n";
}

void write_profile_csv(std::ostream& os, const AttributedProfile& p) {
  os << "view,path,name,depth";
  for (const trace::CounterVector::Field& f :
       trace::CounterVector::fields()) {
    os << ",total_" << f.name;
  }
  os << ",total_sim_time_s";
  for (const trace::CounterVector::Field& f :
       trace::CounterVector::fields()) {
    os << ",self_" << f.name;
  }
  os << ",self_sim_time_s,gintops,intensity,ceiling,arch_eff,bound\n";
  write_rows_csv(os, "top_down", p.top_down);
  write_rows_csv(os, "bottom_up", p.bottom_up);
}

void print_attributed_profile(std::ostream& os, const AttributedProfile& p) {
  std::uint64_t root_cycles = 0;
  for (const AttributedRow& r : p.top_down) {
    if (r.depth == 0) root_cycles += r.total.cycles;
  }
  os << "profile_report (" << p.device_name << " roofline)\n";
  os << "  share  cycles        gintops  bound    span\n";
  constexpr int kBarWidth = 20;
  for (const AttributedRow& r : p.top_down) {
    const double share =
        root_cycles == 0 ? 0.0
                         : static_cast<double>(r.total.cycles) /
                               static_cast<double>(root_cycles);
    const int bar = static_cast<int>(share * kBarWidth + 0.5);
    os << "  ";
    for (int i = 0; i < kBarWidth; ++i) os << (i < bar ? '#' : ' ');
    char pct[16];
    std::snprintf(pct, sizeof pct, " %5.1f%%", share * 100.0);
    os << pct << "  " << r.total.cycles;
    char gi[24];
    std::snprintf(gi, sizeof gi, "  %8.2f", r.gintops);
    os << gi << "  " << r.bound << (r.bound[0] == 'n' ? "      " : "   ");
    os << "  ";
    for (std::uint32_t d = 0; d < r.depth; ++d) os << "  ";
    os << r.name << "\n";
  }
  os << "  hottest by self cycles:\n";
  const std::size_t top = std::min<std::size_t>(p.bottom_up.size(), 5);
  for (std::size_t i = 0; i < top; ++i) {
    const AttributedRow& r = p.bottom_up[i];
    os << "    " << (i + 1) << ". " << r.name << " self_cycles="
       << r.self.cycles << " hbm_bytes=" << r.self.hbm_bytes() << "\n";
  }
}

Status write_profile_report(const std::string& stem,
                            const AttributedProfile& p) {
  const std::filesystem::path parent =
      std::filesystem::path(stem).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  for (const char* ext : {".json", ".csv"}) {
    const std::string path = stem + ext;
    std::ofstream out(path);
    if (!out) {
      return Status(ErrorCode::kIoError, "cannot open for writing",
                    SourceContext{path});
    }
    if (ext[1] == 'j') {
      write_profile_json(out, p);
    } else {
      write_profile_csv(out, p);
    }
    out.flush();
    if (!out) {
      return Status(ErrorCode::kIoError, "write failed (disk full?)",
                    SourceContext{path});
    }
  }
  return Status::ok();
}

}  // namespace lassm::model

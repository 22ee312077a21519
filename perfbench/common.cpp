#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace perfbench {

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

SpanLog::SpanLog() : epoch_(Clock::now()) {}

int SpanLog::begin(std::string name, int parent, std::uint32_t track) {
  const double t0 = seconds_since(epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), parent, track, t0, -1.0});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int id) {
  const double t1 = seconds_since(epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].t1 = t1;
}

double SpanLog::seconds(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.t1 - s.t0;
}

double SpanLog::self_seconds(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  // Children may overlap (concurrent clients), so subtract their union.
  std::vector<std::pair<double, double>> kids;
  for (const Span& c : spans_) {
    if (c.parent == id) {
      kids.emplace_back(std::max(c.t0, s.t0), std::min(c.t1, s.t1));
    }
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double reach = s.t0;
  for (const auto& [a, b] : kids) {
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return (s.t1 - s.t0) - covered;
}

std::vector<int> SpanLog::descendants(int root) const {
  std::vector<int> out{root};
  // Parents precede children, so one forward pass finds the subtree.
  std::vector<char> in(spans_.size(), 0);
  in[static_cast<std::size_t>(root)] = 1;
  for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans_.size();
       ++i) {
    const int p = spans_[i].parent;
    if (p >= 0 && in[static_cast<std::size_t>(p)]) {
      in[i] = 1;
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

std::map<std::string, double> SpanLog::totals_under(int root) const {
  std::map<std::string, double> out;
  std::vector<int> ids;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ids = descendants(root);
    for (int id : ids) {
      if (id == root) continue;
      const Span& s = spans_[static_cast<std::size_t>(id)];
      out[s.name] += s.t1 - s.t0;
    }
  }
  return out;
}

std::map<std::string, double> SpanLog::self_under(int root) const {
  std::vector<std::pair<int, std::string>> ids;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int id : descendants(root)) {
      ids.emplace_back(id, spans_[static_cast<std::size_t>(id)].name);
    }
  }
  std::map<std::string, double> out;
  for (const auto& [id, name] : ids) out[name] += self_seconds(id);
  return out;
}

bool SpanLog::write_chrome(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  lassm::trace::Tracer tracer;
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint32_t, std::uint32_t> rows;
  const auto row = [&](std::uint32_t track) {
    auto it = rows.find(track);
    if (it == rows.end()) {
      const std::string name =
          track == 0 ? "main" : "client " + std::to_string(track);
      it = rows.emplace(track, tracer.track("perfbench", name)).first;
    }
    return it->second;
  };
  lassm::trace::Event prov;
  prov.kind = lassm::trace::Event::Kind::kInstant;
  prov.track = row(0);
  prov.name = "provenance";
  prov.cat = "host";
  for (const auto& [k, v] : meta) {
    prov.args.push_back(lassm::trace::Arg::s(k, v));
  }
  tracer.record(std::move(prov));
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    lassm::trace::Event e;
    e.track = row(s.track);
    e.name = s.name;
    e.cat = "host";
    e.ts_us = s.t0 * 1e6;
    e.dur_us = (s.t1 - s.t0) * 1e6;
    e.args = {lassm::trace::Arg::n("id", static_cast<double>(i)),
              lassm::trace::Arg::n("parent", s.parent)};
    tracer.record(std::move(e));
  }
  return static_cast<bool>(lassm::trace::write_chrome_trace_file(path, tracer));
}

}  // namespace perfbench

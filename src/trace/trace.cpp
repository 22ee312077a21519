#include "trace/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace lassm::trace {

std::vector<Arg> counter_args(const CounterVector& cv) {
  std::vector<Arg> args;
  args.reserve(CounterVector::kNumFields + 1);
  for (const CounterVector::Field& f : CounterVector::fields()) {
    args.push_back(Arg::n(std::string("cv.") + f.name,
                          static_cast<double>(cv.*f.member)));
  }
  args.push_back(Arg::n("cv.sim_time_s", cv.sim_time_s));
  return args;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::uint32_t Tracer::track(const std::string& process,
                            const std::string& thread) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i].process == process && tracks_[i].thread == thread) {
      return static_cast<std::uint32_t>(i);
    }
  }
  tracks_.push_back(TrackInfo{process, thread});
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

void Tracer::record(Event e) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(e));
}

void Tracer::instant(std::uint32_t track, std::string name, const char* cat,
                     std::vector<Arg> args) {
  record(Event{Event::Kind::kInstant, track, std::move(name), cat,
               host_now_us(), 0.0, std::move(args)});
}

double Tracer::host_now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

double Tracer::sim_cursor_us() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sim_cursor_us_;
}

void Tracer::advance_sim_cursor(double end_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  sim_cursor_us_ = std::max(sim_cursor_us_, end_us);
}

void Tracer::Buffer::complete(std::uint32_t track, std::string name,
                              const char* cat, double ts_us, double dur_us,
                              std::vector<Arg> args) {
  Event e;
  e.kind = Event::Kind::kComplete;
  e.track = track;
  e.name = std::move(name);
  e.cat = cat;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void Tracer::Buffer::instant(std::uint32_t track, std::string name,
                             const char* cat, double ts_us,
                             std::vector<Arg> args) {
  Event e;
  e.kind = Event::Kind::kInstant;
  e.track = track;
  e.name = std::move(name);
  e.cat = cat;
  e.ts_us = ts_us;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void Tracer::absorb(Buffer& buffer) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.insert(events_.end(),
                 std::make_move_iterator(buffer.events_.begin()),
                 std::make_move_iterator(buffer.events_.end()));
  buffer.events_.clear();
}

std::vector<TrackInfo> Tracer::tracks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tracks_;
}

std::vector<Event> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

Span::Span(Tracer* tracer, std::uint32_t track, std::string name)
    : tracer_(tracer), track_(track) {
  if (tracer_ == nullptr) return;
  node_ = tracer_->attribution().open(std::move(name));
  open_ = true;
  t0_us_ = tracer_->host_now_us();
}

Span::~Span() {
  try {
    close();
  } catch (const std::exception&) {
    // Only recording the event allocates, and it runs after the node is
    // closed with its host_s: the tree keeps the span, the timeline loses
    // it, and an exception never escapes a destructor.
  }
}

CounterVector Span::close() {
  if (tracer_ == nullptr) return {};
  AttributionProfile& profile = tracer_->attribution();
  if (!open_) return profile.nodes()[node_].total;
  open_ = false;
  const double dur_us = tracer_->host_now_us() - t0_us_;
  const CounterVector cv = profile.close(dur_us * 1e-6);
  tracer_->record(Event{Event::Kind::kComplete, track_,
                        profile.nodes()[node_].name, "host", t0_us_, dur_us,
                        counter_args(cv)});
  return cv;
}

SimTimeline::SimTimeline(Tracer& tracer, std::string process,
                         std::uint32_t max_lanes)
    : tracer_(tracer), process_(std::move(process)) {
  lane_end_cycles_.assign(std::max<std::uint32_t>(1, max_lanes), 0);
  lane_tracks_.assign(lane_end_cycles_.size(), UINT32_MAX);
  start_us_ = tracer_.sim_cursor_us();
  end_us_ = start_us_;
}

SimTimeline::Placement SimTimeline::place(std::uint64_t cycles) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < lane_end_cycles_.size(); ++i) {
    if (lane_end_cycles_[i] < lane_end_cycles_[best]) best = i;
  }
  Placement p;
  p.lane = static_cast<std::uint32_t>(best);
  p.start_cycles = lane_end_cycles_[best];
  lane_end_cycles_[best] += cycles;
  makespan_cycles_ = std::max(makespan_cycles_, lane_end_cycles_[best]);
  return p;
}

void SimTimeline::seal(double modeled_dur_us) {
  if (sealed_) throw std::logic_error("SimTimeline::seal called twice");
  sealed_ = true;
  us_per_cycle_ = makespan_cycles_ == 0
                      ? 0.0
                      : modeled_dur_us /
                            static_cast<double>(makespan_cycles_);
  end_us_ = start_us_ + modeled_dur_us;
  tracer_.advance_sim_cursor(end_us_);
}

std::uint32_t SimTimeline::lane_track(std::uint32_t lane) {
  if (lane_tracks_[lane] == UINT32_MAX) {
    lane_tracks_[lane] =
        tracer_.track(process_, "SM " + std::to_string(lane));
  }
  return lane_tracks_[lane];
}

}  // namespace lassm::trace

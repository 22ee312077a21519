#include "resilience/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace lassm::resilience {
namespace {

// splitmix64 finaliser — a full-avalanche 64-bit mixer. The fault decision
// is the top bits of mix(seed ^ salt(seam) ^ key) compared against
// rate * 2^64, so every (seam, key) pair gets an independent uniform draw
// that is a pure function of the plan seed.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t seam_salt(Seam seam) noexcept {
  // Distinct large odd constants per seam so arming one seam never
  // correlates with another at the same key.
  static constexpr std::uint64_t kSalts[kSeamCount] = {
      0xa24baed4963ee407ULL,  // kTaskException
      0x9fb21c651e98df25ULL,  // kMemStall
      0xd6e8feb86659fd93ULL,  // kBadInput
      0xc2b2ae3d27d4eb4fULL,  // kWalkHang
      0x165667b19e3779f9ULL,  // kDeviceLoss (unused by fires(); reserved)
      0x27d4eb2f165667c5ULL,  // kPoolStart
      0x8fb84e1f9cd3a657ULL,  // kQueueOverflow
      0x5bd1e9955bd1e995ULL,  // kJobTimeout
      0x713b1d4f6a09e667ULL,  // kCacheCorrupt
      0x3c6ef372fe94f82bULL,  // kRankMsgDrop
      0xbb67ae8584caa73bULL,  // kRankLoss
  };
  return kSalts[static_cast<std::size_t>(seam)];
}

bool seam_is_transient(Seam seam) noexcept {
  // Transient faults clear on retry; persistent ones reproduce every
  // attempt (a malformed read stays malformed).
  return seam == Seam::kTaskException || seam == Seam::kMemStall;
}

Error parse_error(const std::string& msg, const std::string& spec) {
  return Error(ErrorCode::kParseError, "FaultPlan spec: " + msg,
               SourceContext{"spec \"" + spec + "\"", 0, 0});
}

// Unsigned integer fields must be plain decimal digits: std::stoull would
// happily accept "-1" and wrap it to 2^64-1, silently arming a plan the
// user never wrote.
bool all_digits(const std::string& s) noexcept {
  if (s.empty()) return false;
  for (char c : s)
    if (c < '0' || c > '9') return false;
  return true;
}

}  // namespace

const char* seam_name(Seam seam) noexcept {
  switch (seam) {
    case Seam::kTaskException: return "task_exception";
    case Seam::kMemStall: return "mem_stall";
    case Seam::kBadInput: return "bad_input";
    case Seam::kWalkHang: return "walk_hang";
    case Seam::kDeviceLoss: return "device_loss";
    case Seam::kPoolStart: return "pool_start";
    case Seam::kQueueOverflow: return "queue_overflow";
    case Seam::kJobTimeout: return "job_timeout";
    case Seam::kCacheCorrupt: return "cache_corrupt";
    case Seam::kRankMsgDrop: return "rank_msg_drop";
    case Seam::kRankLoss: return "rank_loss";
    case Seam::kSeamCount: break;
  }
  return "unknown";
}

void FaultPlan::arm(Seam seam, double rate) {
  if (seam >= Seam::kSeamCount) return;
  rates_[static_cast<std::size_t>(seam)] =
      std::clamp(rate, 0.0, 1.0);
}

double FaultPlan::rate(Seam seam) const noexcept {
  if (seam >= Seam::kSeamCount) return 0.0;
  return rates_[static_cast<std::size_t>(seam)];
}

void FaultPlan::add_device_loss(std::uint32_t rank,
                                std::uint32_t after_batch) {
  device_losses_.push_back({rank, after_batch});
}

bool FaultPlan::empty() const noexcept {
  for (double r : rates_)
    if (r > 0.0) return false;
  return device_losses_.empty();
}

bool FaultPlan::fires(Seam seam, std::uint64_t key, unsigned attempt) const
    noexcept {
  if (seam >= Seam::kSeamCount) return false;
  const double rate = rates_[static_cast<std::size_t>(seam)];
  if (rate <= 0.0) return false;
  if (attempt > 0 && seam_is_transient(seam)) return false;
  if (rate >= 1.0) return true;
  const std::uint64_t draw = mix64(seed_ ^ seam_salt(seam) ^ mix64(key));
  // draw < rate * 2^64, computed as a long-double threshold to keep the
  // comparison exact for the rates tests actually use.
  const long double threshold =
      static_cast<long double>(rate) * 18446744073709551616.0L;
  return static_cast<long double>(draw) < threshold;
}

bool FaultPlan::device_lost(std::uint32_t rank,
                            std::uint32_t batches_done) const noexcept {
  for (const DeviceLossEvent& e : device_losses_)
    if (e.rank == rank && batches_done == e.after_batch) return true;
  return false;
}

Result<FaultPlan> FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::istringstream in(spec);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size())
      return parse_error("expected name=value, got \"" + token + '"', spec);
    const std::string name = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    try {
      if (name == "seed") {
        std::size_t used = 0;
        if (!all_digits(value))
          return parse_error("bad seed \"" + value + '"', spec);
        plan.seed_ = std::stoull(value, &used);
        if (used != value.size())
          return parse_error("bad seed \"" + value + '"', spec);
      } else if (name == "device_loss") {
        const auto at = value.find('@');
        if (at == std::string::npos)
          return parse_error(
              "device_loss wants <rank>@<after_batch>, got \"" + value + '"',
              spec);
        const std::string rank_str = value.substr(0, at);
        const std::string after = value.substr(at + 1);
        if (!all_digits(rank_str))
          return parse_error("bad device_loss rank in \"" + value + '"',
                             spec);
        if (!all_digits(after))
          return parse_error("bad device_loss batch in \"" + value + '"',
                             spec);
        std::size_t used = 0;
        // Both fields are uint32: a wider value would wrap, and rank
        // 0xFFFFFFFF is reserved for recovery reruns (kRecoveryRank), which
        // a parsed plan must never be able to target.
        const unsigned long rank = std::stoul(rank_str, &used);
        if (used != rank_str.size() || rank >= UINT32_MAX)
          return parse_error("bad device_loss rank in \"" + value + '"',
                             spec);
        const unsigned long batch = std::stoul(after, &used);
        if (used != after.size() || batch > UINT32_MAX)
          return parse_error("bad device_loss batch in \"" + value + '"',
                             spec);
        plan.add_device_loss(static_cast<std::uint32_t>(rank),
                             static_cast<std::uint32_t>(batch));
      } else {
        Seam seam = Seam::kSeamCount;
        for (std::size_t i = 0; i < kSeamCount; ++i) {
          if (name == seam_name(static_cast<Seam>(i))) {
            seam = static_cast<Seam>(i);
            break;
          }
        }
        if (seam == Seam::kSeamCount || seam == Seam::kDeviceLoss)
          return parse_error("unknown seam \"" + name + '"', spec);
        std::size_t used = 0;
        const double rate = std::stod(value, &used);
        if (used != value.size() || !(rate >= 0.0) || !(rate <= 1.0))
          return parse_error("rate for " + name +
                                 " must be in [0,1], got \"" + value + '"',
                             spec);
        plan.arm(seam, rate);
      }
    } catch (const std::exception&) {
      return parse_error("bad value \"" + value + "\" for " + name, spec);
    }
  }
  return plan;
}

Result<std::optional<FaultPlan>> FaultPlan::from_env() {
  const char* spec = std::getenv("LASSM_FAULTPLAN");
  if (spec == nullptr || *spec == '\0')
    return std::optional<FaultPlan>{std::nullopt};
  Result<FaultPlan> parsed = parse(spec);
  if (!parsed) return parsed.error();
  return std::optional<FaultPlan>{std::move(parsed).take()};
}

std::string FaultPlan::to_spec() const {
  std::ostringstream out;
  out << "seed=" << seed_;
  for (std::size_t i = 0; i < kSeamCount; ++i) {
    if (static_cast<Seam>(i) == Seam::kDeviceLoss) continue;
    if (rates_[i] > 0.0)
      out << ' ' << seam_name(static_cast<Seam>(i)) << '=' << rates_[i];
  }
  for (const DeviceLossEvent& e : device_losses_)
    out << " device_loss=" << e.rank << '@' << e.after_batch;
  return out.str();
}

std::uint64_t contig_fault_key(std::uint64_t contig_id,
                               bool right_side) noexcept {
  // Side goes into the top bit so (id, left) and (id, right) are distinct
  // keys; the mixer in fires() takes care of avalanche.
  return (contig_id << 1) | (right_side ? 1u : 0u);
}

}  // namespace lassm::resilience

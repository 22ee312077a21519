#include "serve/result_cache.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

namespace lassm::serve {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t h, const void* data,
                    std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) noexcept {
  return fnv1a(h, &v, sizeof v);
}

std::uint64_t fnv_double(std::uint64_t h, double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return fnv_u64(h, bits);
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Length-prefixed little-endian serialisation: the blob layout is fixed so
// the checksum covers exactly the bytes a deserialiser consumes.
void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.append(buf, 8);
}

void put_str(std::string& out, const std::string& s) {
  put_u64(out, s.size());
  out.append(s);
}

bool take_u64(const std::string& in, std::size_t& pos, std::uint64_t& v) {
  if (pos + 8 > in.size()) return false;
  v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[pos + i]))
         << (8 * i);
  pos += 8;
  return true;
}

bool take_str(const std::string& in, std::size_t& pos, std::string& s) {
  std::uint64_t n = 0;
  if (!take_u64(in, pos, n)) return false;
  if (pos + n > in.size()) return false;
  s.assign(in, pos, n);
  pos += n;
  return true;
}

std::string serialize(const CachedResult& value) {
  std::string blob;
  put_u64(blob, value.extensions.size());
  for (const bio::ContigExtension& e : value.extensions) {
    put_u64(blob, e.contig_id);
    put_str(blob, e.left);
    put_str(blob, e.right);
    put_u64(blob, e.left_mer_len);
    put_u64(blob, e.right_mer_len);
  }
  std::uint64_t time_bits = 0;
  std::memcpy(&time_bits, &value.modelled_time_s, sizeof time_bits);
  put_u64(blob, time_bits);
  return blob;
}

bool deserialize(const std::string& blob, CachedResult& out) {
  std::size_t pos = 0;
  std::uint64_t n = 0;
  if (!take_u64(blob, pos, n)) return false;
  out.extensions.clear();
  out.extensions.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    bio::ContigExtension e;
    std::uint64_t mer = 0;
    if (!take_u64(blob, pos, e.contig_id)) return false;
    if (!take_str(blob, pos, e.left)) return false;
    if (!take_str(blob, pos, e.right)) return false;
    if (!take_u64(blob, pos, mer)) return false;
    e.left_mer_len = static_cast<std::uint32_t>(mer);
    if (!take_u64(blob, pos, mer)) return false;
    e.right_mer_len = static_cast<std::uint32_t>(mer);
    out.extensions.push_back(std::move(e));
  }
  std::uint64_t time_bits = 0;
  if (!take_u64(blob, pos, time_bits)) return false;
  std::memcpy(&out.modelled_time_s, &time_bits, sizeof time_bits);
  return pos == blob.size();
}

}  // namespace

std::uint64_t CacheKey::mixed() const noexcept {
  return mix64(dataset_fp ^ mix64(options_fp));
}

std::uint64_t fingerprint_input(const core::AssemblyInput& in) noexcept {
  std::uint64_t h = kFnvOffset;
  h = fnv_u64(h, in.kmer_len);
  h = fnv_u64(h, in.contigs.size());
  for (const bio::Contig& c : in.contigs) {
    h = fnv_u64(h, c.id);
    h = fnv_u64(h, c.seq.size());
    h = fnv1a(h, c.seq.data(), c.seq.size());
    h = fnv_double(h, c.depth);
  }
  h = fnv_u64(h, in.reads.size());
  for (std::size_t r = 0; r < in.reads.size(); ++r) {
    const std::string_view seq = in.reads.seq(r);
    const std::string_view qual = in.reads.qual(r);
    h = fnv_u64(h, seq.size());
    h = fnv1a(h, seq.data(), seq.size());
    h = fnv1a(h, qual.data(), qual.size());
  }
  const auto hash_side = [&](const std::vector<std::vector<std::uint32_t>>&
                                 side) {
    h = fnv_u64(h, side.size());
    for (const auto& v : side) {
      h = fnv_u64(h, v.size());
      for (std::uint32_t r : v) h = fnv_u64(h, r);
    }
  };
  hash_side(in.left_reads);
  hash_side(in.right_reads);
  return h;
}

std::uint64_t fingerprint_options(const core::AssemblyOptions& opts,
                                  const simt::DeviceSpec& dev,
                                  simt::ProgrammingModel pm) noexcept {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, dev.name.data(), dev.name.size());
  h = fnv_u64(h, static_cast<std::uint64_t>(pm));
  h = fnv_u64(h, opts.max_walk_len);
  h = fnv_u64(h, opts.mer_ladder_step);
  h = fnv_u64(h, opts.min_mer_len);
  h = fnv_u64(h, opts.max_mer_rungs);
  h = fnv_double(h, opts.table_load_factor);
  h = fnv_u64(h, opts.bin_contigs ? 1 : 0);
  h = fnv_u64(h, opts.batch_mem_budget_bytes);
  h = fnv_u64(h, opts.subgroup_override);
  h = fnv_u64(h, static_cast<std::uint64_t>(opts.hi_qual_threshold));
  h = fnv_u64(h, static_cast<std::uint64_t>(opts.min_viable_votes));
  return h;
}

ResultCache::Lookup ResultCache::get(const CacheKey& key,
                                     const resilience::FaultPlan* plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (++lookups_ % (10 * std::max<std::size_t>(capacity_, 1)) == 0) {
    for (Entry& e : probation_) e.hits /= 2;
    for (Entry& e : protected_) e.hits /= 2;
  }
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return {};
  }
  Entry& entry = *it->second;
  // The cache_corrupt seam models a storage bit-flip between store and
  // read-back: deterministically selected entries get one byte XOR'd the
  // first time they are read, so the checksum path below must catch it.
  if (plan != nullptr && !entry.seam_fired && !entry.blob.empty() &&
      plan->fires(resilience::Seam::kCacheCorrupt, key.mixed())) {
    entry.seam_fired = true;
    entry.blob[entry.blob.size() / 2] ^= 0x40;
  }
  const std::uint64_t sum =
      fnv1a(kFnvOffset, entry.blob.data(), entry.blob.size());
  CachedResult value;
  if (sum != entry.checksum || !deserialize(entry.blob, value)) {
    // Corrupted: evict so the recompute can re-store a clean copy, and
    // report a miss — a wrong answer must never leave the cache.
    ++stats_.corruptions;
    ++stats_.evictions;
    ++stats_.misses;
    erase(it->second);
    stats_.entries = index_.size();
    return {std::nullopt, /*corrupted=*/true};
  }
  touch(it->second);
  ++stats_.hits;
  return {std::move(value), /*corrupted=*/false};
}

void ResultCache::touch(Slot slot) {
  ++slot->hits;
  if (slot->is_protected) {
    protected_.splice(protected_.begin(), protected_, slot);
    return;
  }
  if (protected_.size() >= protected_capacity_) {
    // The victim: fewest hits, least recently used among ties.
    Slot victim = protected_.end();
    for (Slot p = protected_.begin(); p != protected_.end(); ++p) {
      if (victim == protected_.end() || p->hits <= victim->hits) victim = p;
    }
    if (victim == protected_.end() || victim->hits >= slot->hits) {
      probation_.splice(probation_.begin(), probation_, slot);
      return;
    }
    victim->is_protected = false;
    probation_.splice(probation_.begin(), protected_, victim);
  }
  slot->is_protected = true;
  protected_.splice(protected_.begin(), probation_, slot);
}

void ResultCache::erase(Slot slot) {
  index_.erase(slot->key);
  (slot->is_protected ? protected_ : probation_).erase(slot);
}

void ResultCache::put(const CacheKey& key, const CachedResult& value) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  entry.key = key;
  entry.blob = serialize(value);
  entry.checksum = fnv1a(kFnvOffset, entry.blob.data(), entry.blob.size());
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Overwritten in place: the entry keeps its segment and hit count.
    Slot slot = it->second;
    slot->blob = std::move(entry.blob);
    slot->checksum = entry.checksum;
    slot->seam_fired = false;
    std::list<Entry>& segment = slot->is_protected ? protected_ : probation_;
    segment.splice(segment.begin(), segment, slot);
    return;
  }
  if (index_.size() >= capacity_) {
    // Probation holds at least one entry whenever the cache is full.
    erase(std::prev(probation_.end()));
    ++stats_.evictions;
  }
  probation_.push_front(std::move(entry));
  index_[key] = probation_.begin();
  stats_.entries = index_.size();
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.entries = index_.size();
  return s;
}

}  // namespace lassm::serve

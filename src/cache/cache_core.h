// The storage core shared by the block cache and the result cache.
//
// Both caches are the same mechanism with different values on top, so the
// mechanism lives here once:
//
//   * Sharding. A key lives in shard `KeyHash(key) % shard_count`; each
//     shard has its own mutex, entry map and `capacity / shard_count` bytes.
//   * Recency. Every insert, re-insert and touch gives the entry a fresh
//     *stamp*: a logical sequence number assigned at a serial apply point,
//     never wall or simulated time. A per-shard stamp -> key map orders the
//     entries oldest-first, so eviction order is a pure function of the
//     operation order, whatever the worker count.
//   * Eviction. One routine serves both policies (cache/admission.h). kLru
//     evicts the oldest stamp while the shard is over budget. kTinyLfu
//     evicts the lowest frequency-per-byte (ties to the oldest stamp); when
//     the victim is the entry just inserted, the insert counts as an
//     admission rejection rather than an eviction.
//   * Accounting. Bytes used per shard, the process-wide bytes-pinned gauge,
//     and the hit, miss, insert, eviction, invalidation and rejection totals.
//
// Each cache passes in its metric handles and sim-counter prefix
// ("blockcache." / "resultcache."), so every metric name it exports is its
// own. Lookups take the shard lock and copy one field of the value out; they
// allocate nothing. Mutations (insert, touch, eviction, invalidation,
// Configure, Clear) happen at serial points only, as each cache documents.

#ifndef BIGLAKE_CACHE_CACHE_CORE_H_
#define BIGLAKE_CACHE_CACHE_CORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/admission.h"
#include "common/sim_env.h"
#include "obs/metrics.h"

namespace biglake {
namespace cache {

/// Options of either cache; `BlockCacheOptions` and `ResultCacheOptions`
/// name this struct.
struct CacheOptions {
  /// Total bytes the cache may pin. 0 disables the cache entirely (the
  /// default: existing configurations see no behavior change).
  uint64_t capacity_bytes = 0;
  /// Number of independently-locked shards.
  uint32_t shard_count = 8;
  /// Victim selection / admission gating (see cache/admission.h). kLru is
  /// recency-only; kTinyLfu evicts by lowest frequency-per-byte and rejects
  /// cold candidates outright. Its sketch tracks one key per 64 KiB of
  /// capacity (min 1024).
  AdmissionPolicy admission_policy = AdmissionPolicy::kLru;
};

/// Point-in-time totals (serial-context reads; used by tests and benches).
struct CacheStats {
  uint64_t entries = 0;
  uint64_t bytes_pinned = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  /// Candidates turned away (or immediately reclaimed) by TinyLFU admission
  /// because a resident entry had a higher frequency-per-byte score.
  uint64_t admission_rejections = 0;
};

/// The metric handles and sim-counter prefix a cache reports through.
struct CacheMetrics {
  const char* sim_prefix = "";  // "blockcache." -> "blockcache.evictions"
  obs::Counter* evictions = nullptr;
  obs::Counter* invalidations = nullptr;
  obs::Counter* admission_rejections = nullptr;
  obs::Gauge* bytes_pinned = nullptr;
};

/// Sharded LRU/TinyLFU store of `Value`s, each charged a caller-given byte
/// footprint against the capacity.
template <typename Value>
class CacheCore {
 public:
  CacheCore(SimEnv* env, const CacheMetrics& metrics)
      : env_(env),
        metrics_(metrics),
        evictions_key_(std::string(metrics.sim_prefix) + "evictions"),
        invalidations_key_(std::string(metrics.sim_prefix) + "invalidations"),
        rejections_key_(std::string(metrics.sim_prefix) +
                        "admission_rejected") {
    shards_.resize(CacheOptions().shard_count);
    for (auto& s : shards_) s = std::make_unique<Shard>();
  }
  /// Returns this instance's pinned bytes, so the process-global gauge
  /// stays meaningful across env lifetimes in one test binary.
  ~CacheCore() { Clear(); }
  CacheCore(const CacheCore&) = delete;
  CacheCore& operator=(const CacheCore&) = delete;

  /// (Re)configures capacity, shards and policy. A changed shard count
  /// clears the cache; otherwise each shard evicts down to its new budget
  /// under the new policy, scoring with the frequencies observed so far,
  /// before the TinyLFU sketch is re-sized. Serial context only.
  void Configure(const CacheOptions& options) {
    const uint32_t shard_count = std::max<uint32_t>(1, options.shard_count);
    if (shard_count != shards_.size()) {
      Clear();
      shards_.resize(shard_count);
      for (auto& s : shards_) {
        if (s == nullptr) s = std::make_unique<Shard>();
      }
    }
    capacity_ = options.capacity_bytes;
    per_shard_capacity_ = capacity_ / shards_.size();
    policy_ = options.admission_policy;
    for (auto& s : shards_) EvictOverflow(*s, nullptr);
    if (policy_ == AdmissionPolicy::kTinyLfu) {
      sketch_.Reset(capacity_ / (64ull << 10));
    }
  }

  bool enabled() const { return capacity_ > 0; }
  AdmissionPolicy policy() const { return policy_; }

  /// Fraction of capacity currently pinned, in [0, 1] (0 when disabled).
  double FillFraction() const {
    if (capacity_ == 0) return 0.0;
    return static_cast<double>(Stats().bytes_pinned) /
           static_cast<double>(capacity_);
  }

  /// Copies `value.*field` of the entry under `key` out under the shard
  /// lock, or returns nullptr on a miss. With `touch`, a hit also refreshes
  /// recency (serial context only); frequency is the caller's RecordAccess.
  template <typename T>
  std::shared_ptr<const T> Find(const std::string& key,
                                std::shared_ptr<const T> Value::*field,
                                bool touch) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) return nullptr;
    if (touch) Restamp(shard, it);
    return it->second.value.*field;
  }

  /// Counts one lookup outcome in Stats(); safe from pool workers.
  void CountLookup(bool hit) {
    (hit ? hit_count_ : miss_count_).fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one access of `key` in the TinyLFU sketch (no-op under kLru).
  void RecordAccess(const std::string& key) {
    if (policy_ == AdmissionPolicy::kTinyLfu) sketch_.Increment(KeyHash(key));
  }

  /// An applied hit: records the access and refreshes recency if the key is
  /// still resident.
  void Touch(const std::string& key) {
    RecordAccess(key);
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) Restamp(shard, it);
  }

  /// Admits `value` under `key`, then evicts its shard down to budget; the
  /// new entry itself may be the victim. Returns false, refreshing recency
  /// and keeping the resident value, when `key` is already present.
  bool Insert(const std::string& key, Value value, uint64_t bytes) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      Restamp(shard, it);
      return false;
    }
    const uint64_t stamp = ++seq_;
    shard.lru[stamp] = key;
    shard.entries.emplace(key, Entry{std::move(value), bytes, stamp});
    Account(shard, static_cast<int64_t>(bytes));
    ++insert_count_;
    EvictOverflow(shard, &key);
    return true;
  }

  /// Drops every entry whose key starts with `prefix` and whose value
  /// satisfies `match`; returns how many, counted as invalidations.
  /// Serial context only.
  template <typename Match>
  uint64_t Invalidate(const std::string& prefix, Match match) {
    uint64_t dropped = 0;
    for (auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.entries.lower_bound(prefix);
      while (it != shard.entries.end() &&
             it->first.compare(0, prefix.size(), prefix) == 0) {
        if (match(it->second.value)) {
          it = Drop(shard, it);
          ++dropped;
        } else {
          ++it;
        }
      }
    }
    if (dropped > 0) {
      invalidation_count_ += dropped;
      metrics_.invalidations->Add(dropped);
      env_->counters().Add(invalidations_key_, dropped);
    }
    return dropped;
  }

  /// Drops all entries (capacity and totals are kept). Serial context only.
  void Clear() {
    for (auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      std::lock_guard<std::mutex> lock(shard.mu);
      Account(shard, -static_cast<int64_t>(shard.bytes_used));
      shard.entries.clear();
      shard.lru.clear();
    }
  }

  CacheStats Stats() const {
    CacheStats out;
    out.hits = hit_count_.load(std::memory_order_relaxed);
    out.misses = miss_count_.load(std::memory_order_relaxed);
    out.inserts = insert_count_;
    out.evictions = eviction_count_;
    out.invalidations = invalidation_count_;
    out.admission_rejections = admission_rejection_count_;
    for (const auto& shard_ptr : shards_) {
      std::lock_guard<std::mutex> lock(shard_ptr->mu);
      out.entries += shard_ptr->entries.size();
      out.bytes_pinned += shard_ptr->bytes_used;
    }
    return out;
  }

 private:
  struct Entry {
    Value value;
    uint64_t bytes = 0;
    uint64_t stamp = 0;
  };
  using EntryMap = std::map<std::string, Entry>;
  struct Shard {
    mutable std::mutex mu;
    EntryMap entries;
    std::map<uint64_t, std::string> lru;  // stamp -> key, oldest first
    uint64_t bytes_used = 0;
  };

  Shard& ShardFor(const std::string& key) {
    return *shards_[KeyHash(key) % shards_.size()];
  }

  void Restamp(Shard& shard, typename EntryMap::iterator it) {
    shard.lru.erase(it->second.stamp);
    it->second.stamp = ++seq_;
    shard.lru[it->second.stamp] = it->first;
  }

  /// The one place pinned bytes change: the shard total and the gauge.
  void Account(Shard& shard, int64_t delta) {
    shard.bytes_used += static_cast<uint64_t>(delta);
    metrics_.bytes_pinned->Add(delta);
  }

  typename EntryMap::iterator Drop(Shard& shard,
                                   typename EntryMap::iterator it) {
    Account(shard, -static_cast<int64_t>(it->second.bytes));
    shard.lru.erase(it->second.stamp);
    return shard.entries.erase(it);
  }

  /// Evicts while `shard` is over budget (caller holds its lock).
  /// `candidate` is the key just inserted, or nullptr for a shrink.
  void EvictOverflow(Shard& shard, const std::string* candidate) {
    while (shard.bytes_used > per_shard_capacity_ && !shard.entries.empty()) {
      auto victim = policy_ == AdmissionPolicy::kTinyLfu
                        ? LeastFrequentPerByte(shard)
                        : shard.entries.find(shard.lru.begin()->second);
      const bool rejected = policy_ == AdmissionPolicy::kTinyLfu &&
                            candidate != nullptr && victim->first == *candidate;
      Drop(shard, victim);
      if (rejected) {
        ++admission_rejection_count_;
        metrics_.admission_rejections->Increment();
        env_->counters().Add(rejections_key_, 1);
      } else {
        ++eviction_count_;
        metrics_.evictions->Increment();
        env_->counters().Add(evictions_key_, 1);
      }
    }
  }

  /// TinyLFU victim: lowest frequency-per-byte, comparing freq_a/bytes_a <
  /// freq_b/bytes_b by cross-multiplication (freq <= 15, so no overflow and
  /// no floating point), ties broken oldest-stamp-first. Map iteration
  /// order makes the scan deterministic.
  typename EntryMap::iterator LeastFrequentPerByte(Shard& shard) {
    auto victim = shard.entries.begin();
    uint64_t victim_freq = sketch_.Estimate(KeyHash(victim->first));
    for (auto it = std::next(victim); it != shard.entries.end(); ++it) {
      const uint64_t freq = sketch_.Estimate(KeyHash(it->first));
      const uint64_t lhs = freq * victim->second.bytes;
      const uint64_t rhs = victim_freq * it->second.bytes;
      if (lhs < rhs ||
          (lhs == rhs && it->second.stamp < victim->second.stamp)) {
        victim = it;
        victim_freq = freq;
      }
    }
    return victim;
  }

  SimEnv* env_;
  const CacheMetrics metrics_;
  const std::string evictions_key_;
  const std::string invalidations_key_;
  const std::string rejections_key_;
  uint64_t capacity_ = 0;
  uint64_t per_shard_capacity_ = 0;
  AdmissionPolicy policy_ = AdmissionPolicy::kLru;
  uint64_t seq_ = 0;        // logical recency clock; serial points only
  FrequencySketch sketch_;  // mutated at serial apply points only
  std::vector<std::unique_ptr<Shard>> shards_;
  // Instance-local totals (the obs counters are process-global and mix
  // every LakehouseEnv in a test binary). Lookups are counted from pool
  // workers, hence atomics; the rest change at serial points only.
  std::atomic<uint64_t> hit_count_{0};
  std::atomic<uint64_t> miss_count_{0};
  uint64_t insert_count_ = 0;
  uint64_t eviction_count_ = 0;
  uint64_t invalidation_count_ = 0;
  uint64_t admission_rejection_count_ = 0;
};

}  // namespace cache
}  // namespace biglake

#endif  // BIGLAKE_CACHE_CACHE_CORE_H_

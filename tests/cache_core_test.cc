// The cache core shared by the block cache and the result cache
// (src/cache/cache_core.h), exercised through both caches: the pinned-bytes
// gauges stay balanced through every mutation, a TinyLFU shrink evicts by
// frequency, and a result-cache hit's simulated charge depends only on the
// cached batch.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "cache/block_cache.h"
#include "cache/result_cache.h"
#include "core/environment.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace biglake {
namespace {

using cache::AdmissionPolicy;

std::shared_ptr<const RecordBatch> MakeBatch(size_t rows, int64_t base) {
  BatchBuilder b(MakeSchema({{"id", DataType::kInt64, false}}));
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(
        b.AppendRow({Value::Int64(base + static_cast<int64_t>(i))}).ok());
  }
  return std::make_shared<const RecordBatch>(b.Finish());
}

constexpr size_t kRows = 64;

enum class Kind { kBlock, kResult };

// One cache of either kind behind a common test interface. Entry `name`
// depends on object/table `name`, so invalidating `name` drops exactly it.
class CacheUnderTest {
 public:
  CacheUnderTest(Kind kind, LakehouseEnv* lake) : kind_(kind), lake_(lake) {}

  void Configure(uint64_t capacity, AdmissionPolicy policy) {
    if (kind_ == Kind::kBlock) {
      lake_->ConfigureBlockCache(
          Options<cache::BlockCacheOptions>(capacity, policy));
    } else {
      lake_->ConfigureResultCache(
          Options<cache::ResultCacheOptions>(capacity, policy));
    }
  }
  void Put(const std::string& name, int64_t base) {
    if (kind_ == Kind::kBlock) {
      lake_->block_cache().PutBlock(Key(name), MakeBatch(kRows, base));
    } else {
      lake_->result_cache().Put(Key(name), {name}, MakeBatch(kRows, base));
    }
  }
  bool Get(const std::string& name) {
    return kind_ == Kind::kBlock
               ? lake_->block_cache().GetBlock(Key(name)) != nullptr
               : lake_->result_cache().Get(Key(name)) != nullptr;
  }
  uint64_t Invalidate(const std::string& name) {
    return kind_ == Kind::kBlock
               ? lake_->block_cache().InvalidateObject("gcp", "lake", name)
               : lake_->result_cache().InvalidateTable(name);
  }
  void Clear() {
    if (kind_ == Kind::kBlock) {
      lake_->block_cache().Clear();
    } else {
      lake_->result_cache().Clear();
    }
  }
  uint64_t pinned() const {
    return kind_ == Kind::kBlock ? lake_->block_cache().Stats().bytes_pinned
                                 : lake_->result_cache().Stats().bytes_pinned;
  }
  uint64_t evicted() const {
    return kind_ == Kind::kBlock ? Evicted(lake_->block_cache().Stats())
                                 : Evicted(lake_->result_cache().Stats());
  }

 private:
  template <typename Opts>
  static Opts Options(uint64_t capacity, AdmissionPolicy policy) {
    Opts opts;
    opts.shard_count = 1;  // one shard: victims are fully observable
    opts.capacity_bytes = capacity;
    opts.admission_policy = policy;
    return opts;
  }
  template <typename Stats>
  static uint64_t Evicted(const Stats& stats) {
    return stats.evictions + stats.admission_rejections;
  }

  std::string Key(const std::string& name) const {
    if (kind_ == Kind::kBlock) {
      return cache::BlockKey(cache::ObjectKeyPrefix("gcp", "lake", name), 1,
                             0, 0);
    }
    return "q|" + name;
  }
  Kind kind_;
  LakehouseEnv* lake_;
};

obs::Gauge* PinnedGauge(Kind kind) {
  return obs::MetricsRegistry::Default().GetGauge(
      kind == Kind::kBlock ? METRIC_CACHE_BYTES_PINNED
                           : METRIC_RESULTCACHE_BYTES_PINNED);
}

uint64_t EntryBytes() { return MakeBatch(kRows, 0)->MemoryBytes(); }

class PinnedGaugeTest
    : public ::testing::TestWithParam<std::tuple<Kind, AdmissionPolicy>> {};

TEST_P(PinnedGaugeTest, GaugeMovesExactlyWithPinnedBytes) {
  const auto [kind, policy] = GetParam();
  obs::Gauge* gauge = PinnedGauge(kind);
  const int64_t start = gauge->Value();
  const uint64_t entry = EntryBytes();
  auto lake = std::make_unique<LakehouseEnv>();
  CacheUnderTest c(kind, lake.get());
  c.Configure(2 * entry + entry / 2, policy);  // room for two entries

  int64_t last_gauge = gauge->Value();
  uint64_t last_pinned = c.pinned();
  // After each step the gauge moved by exactly the Stats() delta.
  auto step = [&](const char* what) {
    SCOPED_TRACE(what);
    const int64_t gauge_delta = gauge->Value() - last_gauge;
    const int64_t pinned_delta = static_cast<int64_t>(c.pinned()) -
                                 static_cast<int64_t>(last_pinned);
    EXPECT_EQ(gauge_delta, pinned_delta);
    last_gauge = gauge->Value();
    last_pinned = c.pinned();
    return pinned_delta;
  };

  c.Put("a", 0);
  EXPECT_EQ(step("insert a"), static_cast<int64_t>(entry));
  c.Put("b", 100);
  EXPECT_EQ(step("insert b"), static_cast<int64_t>(entry));
  c.Put("a", 200);
  EXPECT_EQ(step("re-insert a"), 0);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(c.Get("a"));
  c.Put("c", 300);
  EXPECT_EQ(c.evicted(), 1u);
  step("insert c, evicting one");
  c.Configure(entry + entry / 2, policy);
  EXPECT_EQ(c.evicted(), 2u);
  EXPECT_EQ(step("shrink to one entry"), -static_cast<int64_t>(entry));
  c.Configure(4 * entry, policy);
  c.Put("d", 400);
  c.Put("e", 500);
  step("grow, insert d and e");
  EXPECT_EQ(c.Invalidate("d"), 1u);
  EXPECT_EQ(step("invalidate d"), -static_cast<int64_t>(entry));
  c.Clear();
  EXPECT_EQ(c.pinned(), 0u);
  step("clear");
  c.Put("f", 600);
  c.Put("g", 700);
  EXPECT_EQ(step("insert f and g"), 2 * static_cast<int64_t>(entry));

  lake.reset();  // destruction returns the pinned bytes
  EXPECT_EQ(gauge->Value(), start);
}

INSTANTIATE_TEST_SUITE_P(
    BothCachesBothPolicies, PinnedGaugeTest,
    ::testing::Combine(::testing::Values(Kind::kBlock, Kind::kResult),
                       ::testing::Values(AdmissionPolicy::kLru,
                                         AdmissionPolicy::kTinyLfu)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == Kind::kBlock ? "Block"
                                                                 : "Result") +
             (std::get<1>(info.param) == AdmissionPolicy::kLru ? "Lru"
                                                               : "TinyLfu");
    });

class TinyLfuShrinkTest : public ::testing::TestWithParam<Kind> {};

TEST_P(TinyLfuShrinkTest, ShrinkEvictsByFrequencyNotRecency) {
  const uint64_t entry = EntryBytes();
  LakehouseEnv lake;
  CacheUnderTest c(GetParam(), &lake);
  c.Configure(3 * entry + entry / 2, AdmissionPolicy::kTinyLfu);
  c.Put("a", 0);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(c.Get("a"));  // a is hot...
  c.Put("b", 100);  // ...but has the oldest stamp
  c.Put("c", 200);
  ASSERT_EQ(c.evicted(), 0u);

  c.Configure(entry + entry / 2, AdmissionPolicy::kTinyLfu);
  EXPECT_EQ(c.evicted(), 2u);
  EXPECT_TRUE(c.Get("a"));
  EXPECT_FALSE(c.Get("b"));
  EXPECT_FALSE(c.Get("c"));
}

INSTANTIATE_TEST_SUITE_P(BothCaches, TinyLfuShrinkTest,
                         ::testing::Values(Kind::kBlock, Kind::kResult),
                         [](const auto& info) {
                           return std::string(info.param == Kind::kBlock
                                                  ? "Block"
                                                  : "Result");
                         });

TEST(ResultHitChargeTest, SameHitChargesTheSameWhateverCameBefore) {
  LakehouseEnv lake;
  cache::ResultCacheOptions opts;
  opts.capacity_bytes = 16 << 20;
  lake.ConfigureResultCache(opts);
  cache::ResultCache& rc = lake.result_cache();
  // 10 rows: a fraction of a simulated micro of per-row replay.
  rc.Put("q", {"ds.t"}, MakeBatch(10, 0));
  rc.Put("other", {"ds.t"}, MakeBatch(30, 0));
  auto charge = [&](const std::string& key) {
    const SimMicros before = lake.sim().clock().Now();
    EXPECT_NE(rc.Get(key), nullptr);
    return lake.sim().clock().Now() - before;
  };

  const SimMicros first = charge("q");
  EXPECT_EQ(charge("q"), first);
  for (int i = 0; i < 3; ++i) charge("other");
  EXPECT_EQ(charge("q"), first);
  rc.Clear();
  rc.Put("q", {"ds.t"}, MakeBatch(10, 0));
  EXPECT_EQ(charge("q"), first);
}

}  // namespace
}  // namespace biglake

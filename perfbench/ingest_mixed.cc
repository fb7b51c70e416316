// ingest_mixed: writes beside reads. One client follows a fixed seeded
// schedule of committed write operations — Storage Write API pending
// streams with BatchCommit, two-table BLMT transactions, and interleaved
// transaction pairs on overlapping files whose loser is retried as a fresh
// transaction — with dashboard reads on the same tables (both caches on)
// between commits, and periodic OptimizeStorage + GarbageCollect. Every
// commit invalidates caches, so read-path gains paid for by writes show.
//
// Commit latency grows with the transaction log (TryAppend reads and decodes
// the whole log), so the run length is fixed: every round starts from a
// fresh world and runs the same kCommitOps operations.

#include "common/random.h"
#include "common/strings.h"
#include "core/write_api.h"
#include "engine/sql_parser.h"
#include "format/parquet_lite.h"
#include "meta/txn.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace biglake;

constexpr int kCommitOps = 1000;
constexpr int kMaintenanceEvery = 100;
// Initial load: transactional inserts of 250 orders + 500 items each, and
// as many 2 x 100-row event commits.
constexpr int kInitialCommits = 40;
constexpr int64_t kInitialOrders = kInitialCommits * 250;
constexpr const char* kOrders = "ds.orders";
constexpr const char* kItems = "ds.order_items";
constexpr const char* kEvents = "ds.events";
constexpr const char* kWriter = "user:writer";
constexpr const char* kReader = "user:analyst";

SchemaPtr OrdersSchema() {
  return MakeSchema({{"id", DataType::kInt64, false},
                     {"tag", DataType::kInt64, false},
                     {"amount", DataType::kInt64, false}});
}
SchemaPtr ItemsSchema() {
  return MakeSchema({{"id", DataType::kInt64, false},
                     {"order_id", DataType::kInt64, false},
                     {"qty", DataType::kInt64, false}});
}
SchemaPtr EventsSchema() {
  return MakeSchema({{"id", DataType::kInt64, false},
                     {"kind", DataType::kInt64, false},
                     {"value", DataType::kInt64, false}});
}

/// The benchmark's own model of every committed write.
struct Model {
  std::vector<int64_t> order_tag;  // by order id (ids are dense from 0)
  int64_t order_amount = 0;
  int64_t item_rows = 0;
  int64_t item_qty = 0;
  int64_t event_rows = 0;
  int64_t event_value = 0;
  int64_t next_item = 0;
  int64_t next_event = 0;

  int64_t TagSum() const {
    int64_t s = 0;
    for (int64_t t : order_tag) s += t;
    return s;
  }
};

class IngestMixed : public Workload {
 public:
  explicit IngestMixed(uint64_t seed) : seed_(seed) {}

  Status Setup() override {
    world_.reset();
    world_ = std::make_unique<World>();
    Lake& lake = world_->lake;
    world_->coord = lake.env.EnableTransactions(lake.store, "lake");
    BL_RETURN_NOT_OK(CreateTable("orders", "ingest/orders/", OrdersSchema()));
    BL_RETURN_NOT_OK(
        CreateTable("order_items", "ingest/items/", ItemsSchema()));
    BL_RETURN_NOT_OK(CreateTable("events", "ingest/events/", EventsSchema()));
    world_->write_api = std::make_unique<StorageWriteApi>(&lake.env);
    EngineOptions opts;
    opts.num_workers = 1;
    opts.max_read_streams = 4;
    opts.enable_block_cache = true;
    opts.block_cache_capacity_bytes = 32ull << 20;
    opts.enable_result_cache = true;
    world_->engine = std::make_unique<QueryEngine>(&lake.env, &lake.read_api,
                                                   opts);
    // The transactional tables load through transactions too, so the log
    // holds every one of their files.
    Random rng(seed_ * 0x9e3779b97f4a7c15ull + 101);
    for (int i = 0; i < kInitialCommits; ++i) {
      BL_RETURN_NOT_OK(TwoTableInsert(&rng, 250, 500, nullptr, false));
      BL_RETURN_NOT_OK(WriteApiCommit(&rng, 100, nullptr));
    }
    // Warm-up: every read shape once.
    for (int r = 0; r < kReadShapes; ++r) {
      RoundResult scratch;
      BL_RETURN_NOT_OK(Read(r, 0, &scratch));
      if (scratch.failed > 0) {
        return Status::Internal("warm-up read failed its check: " +
                                scratch.errors.front());
      }
    }
    fresh_ = true;
    return Status::OK();
  }

  Status PrepareOracle() override {
    BuildSchedule();
    return Status::OK();
  }

  Status StartRound() override {
    if (fresh_) return Status::OK();
    return Setup();
  }

  Status RunRound(RoundResult* out, SpanStats* trace,
                  uint64_t deadline_ns) override {
    fresh_ = false;
    Random rng(seed_ * 0x2545f4914f6cdd1dull + 7);  // batch contents
    for (size_t i = 0; i < schedule_.size(); ++i) {
      if (NowNs() >= deadline_ns) {
        out->partial = true;
        break;
      }
      RotateCpu();
      const Step& step = schedule_[i];
      const uint64_t t0 = NowNs();
      SimTimer sim(world_->lake.env.sim());
      Status s;
      int committed = 1;
      {
        TraceScope scope(&world_->lake.env.sim(), trace);
        switch (step.kind) {
          case Step::kWriteApi:
            s = WriteApiCommit(&rng, 50, trace != nullptr ? out : nullptr);
            out->rows_ingested += 100;
            break;
          case Step::kTxn:
            s = TwoTableInsert(&rng, 20, 40, out, trace != nullptr);
            out->rows_ingested += 60;
            break;
          case Step::kConflictPair:
            s = ConflictPair(step, out, trace != nullptr);
            committed = 2;
            break;
        }
      }
      const uint64_t t1 = NowNs();
      out->op_seconds += (t1 - t0) / 1e9;
      out->attempted += committed;
      if (!s.ok()) {
        out->Fail(StrCat("write op ", i, ": ", s.ToString()));
        return Status::OK();  // the model no longer matches; stop the round
      }
      for (int c = 0; c < committed; ++c) {
        // A pair's two commits share the op's latency: the client saw both
        // complete within it.
        out->commit_ms.push_back((t1 - t0) / 1e6 / committed);
        out->commit_sim_ms.push_back(sim.ElapsedMicros() / 1e3 / committed);
      }
      for (int r : step.reads) {
        ++out->attempted;
        TraceScope scope(&world_->lake.env.sim(), trace);
        BL_RETURN_NOT_OK(Read(r, step.read_param, out));
      }
      if ((i + 1) % kMaintenanceEvery == 0) {
        TraceScope scope(&world_->lake.env.sim(), trace);
        const uint64_t m0 = NowNs();
        BL_RETURN_NOT_OK(world_->lake.blmt.OptimizeStorage(kEvents).status());
        const uint64_t m1 = NowNs();
        BL_RETURN_NOT_OK(world_->lake.blmt.GarbageCollect(kEvents).status());
        out->op_seconds += (NowNs() - m0) / 1e9;
        if (trace != nullptr) out->TimeCall("blmt_optimize", m1 - m0);
        out->det["optimize_runs"] += 1;
      }
    }
    if (!out->partial) CheckReplay(out);
    return Status::OK();
  }

  Status Probe(ProbeResult* out) override {
    // Encode: 400 batches shaped like the ingest batches (50 rows each).
    Random rng(seed_ + 5);
    uint64_t encode_ns = 0, rows = 0;
    for (int b = 0; b < 400; ++b) {
      BatchBuilder builder(EventsSchema());
      for (int r = 0; r < 50; ++r) {
        BL_RETURN_NOT_OK(builder.AppendRow(
            {Value::Int64(b * 50 + r),
             Value::Int64(static_cast<int64_t>(rng.Uniform(8))),
             Value::Int64(static_cast<int64_t>(rng.Uniform(1000)))}));
      }
      RecordBatch batch = builder.Finish();
      const uint64_t t0 = NowNs();
      BL_ASSIGN_OR_RETURN(std::string bytes, WriteParquetFile(batch));
      encode_ns += NowNs() - t0;
      rows += batch.num_rows();
    }
    out->values["format.encode_ns_per_row"] =
        Per(static_cast<double>(encode_ns), rows, "rows encoded");
    return Status::OK();
  }

  std::map<std::string, std::string> Info() const override {
    return {
        {"loop", "closed, 1 client, fixed seeded schedule"},
        {"engine_workers", "1 (inline pool)"},
        {"prefetch_threads", "0 (readahead_depth=0)"},
        {"commits_per_round", StrCat(kCommitOps)},
        {"reads_per_round", StrCat(reads_per_round_)},
        {"block_cache_bytes", StrCat(32ull << 20)},
        {"result_cache", "on (64 MiB)"},
        {"maintenance", "OptimizeStorage + GarbageCollect on ds.events every "
                        "100 commit ops"},
    };
  }

  uint32_t workers() const override { return 1; }

 private:
  static constexpr int kReadShapes = 4;

  struct World {
    Lake lake;
    meta::TxnCoordinator* coord = nullptr;
    std::unique_ptr<StorageWriteApi> write_api;
    std::unique_ptr<QueryEngine> engine;
    Model model;
  };

  struct Step {
    enum Kind { kWriteApi, kTxn, kConflictPair } kind = kTxn;
    int64_t lo_a = 0, lo_b = 0;   // conflict pair id ranges
    int64_t tag_a = 0, tag_b = 0;
    std::vector<int> reads;
    int64_t read_param = 0;
  };

  Status CreateTable(const std::string& name, const std::string& prefix,
                     SchemaPtr schema) {
    TableDef def;
    def.dataset = "ds";
    def.name = name;
    def.schema = std::move(schema);
    def.connection = "us.lake-conn";
    def.location = world_->lake.gcp;
    def.bucket = "lake";
    def.prefix = prefix;
    def.iam.Grant("*", Role::kWriter);
    return world_->lake.blmt.CreateTable(def);
  }

  static Result<RecordBatch> Rows(SchemaPtr schema, int64_t first_id, int n,
                                  Random* rng, int64_t* value_sum,
                                  int64_t key_range) {
    BatchBuilder b(std::move(schema));
    for (int r = 0; r < n; ++r) {
      const int64_t v = 1 + static_cast<int64_t>(rng->Uniform(1000));
      *value_sum += v;
      BL_RETURN_NOT_OK(b.AppendRow(
          {Value::Int64(first_id + r),
           Value::Int64(static_cast<int64_t>(
               rng->Uniform(static_cast<uint64_t>(key_range)))),
           Value::Int64(v)}));
    }
    return b.Finish();
  }

  /// One transactional insert into both tables. During a round (`out`
  /// set) the object-store bytes read inside the commit call are counted.
  Status TwoTableInsert(Random* rng, int orders, int items, RoundResult* out,
                        bool timed) {
    Model& m = world_->model;
    BlmtService& blmt = world_->lake.blmt;
    const int64_t first_order = static_cast<int64_t>(m.order_tag.size());
    int64_t amount = 0, qty = 0;
    // Orders are written with tag 0; the amount column carries the values.
    BatchBuilder ob(OrdersSchema());
    for (int r = 0; r < orders; ++r) {
      const int64_t a = 1 + static_cast<int64_t>(rng->Uniform(1000));
      amount += a;
      BL_RETURN_NOT_OK(ob.AppendRow({Value::Int64(first_order + r),
                                     Value::Int64(0), Value::Int64(a)}));
    }
    BL_ASSIGN_OR_RETURN(RecordBatch item_rows,
                        Rows(ItemsSchema(), m.next_item, items, rng, &qty,
                             first_order + orders));
    const uint64_t t0 = NowNs();
    BL_ASSIGN_OR_RETURN(std::unique_ptr<meta::LakehouseTxn> txn,
                        blmt.BeginTransaction({kOrders, kItems}));
    BL_RETURN_NOT_OK(blmt.TxnInsert(txn.get(), kWriter, kOrders, ob.Finish()));
    BL_RETURN_NOT_OK(blmt.TxnInsert(txn.get(), kWriter, kItems, item_rows));
    const uint64_t t1 = NowNs();
    const uint64_t bytes0 = ReadBytes();
    BL_RETURN_NOT_OK(blmt.CommitTransaction(txn.get()).status());
    if (out != nullptr) {
      CountCommitRead(out, ReadBytes() - bytes0);
      if (timed) out->TimeCall("blmt_dml", t1 - t0);
    }
    m.order_tag.resize(m.order_tag.size() + orders, 0);
    m.order_amount += amount;
    m.item_rows += items;
    m.item_qty += qty;
    m.next_item += items;
    return Status::OK();
  }

  static uint64_t ReadBytes() {
    static obs::Counter* const bytes =
        obs::MetricsRegistry::Default().GetCounter(METRIC_OBJSTORE_READ_BYTES,
                                                   {{"cloud", "gcp"}});
    return bytes->Value();
  }

  static void CountCommitRead(RoundResult* out, uint64_t bytes) {
    out->det["txn_commit_bytes_read"] += static_cast<double>(bytes);
    out->det["txn_commits_measured"] += 1;
  }

  /// Two pending streams on ds.events, `rows` rows each, committed together.
  Status WriteApiCommit(Random* rng, int rows, RoundResult* calls) {
    Model& m = world_->model;
    StorageWriteApi& api = *world_->write_api;
    std::vector<std::string> streams;
    int64_t value = 0;
    for (int s = 0; s < 2; ++s) {
      BL_ASSIGN_OR_RETURN(std::string id,
                          api.CreateWriteStream(kWriter, kEvents,
                                                WriteMode::kPending));
      BL_ASSIGN_OR_RETURN(RecordBatch batch,
                          Rows(EventsSchema(), m.next_event + s * rows, rows,
                               rng, &value, 8));
      const uint64_t t0 = NowNs();
      BL_RETURN_NOT_OK(api.AppendRows(id, batch).status());
      if (calls != nullptr) calls->TimeCall("write_append", NowNs() - t0);
      BL_RETURN_NOT_OK(api.FinalizeStream(id));
      streams.push_back(std::move(id));
    }
    const uint64_t t0 = NowNs();
    BL_RETURN_NOT_OK(api.BatchCommit(streams).status());
    if (calls != nullptr) calls->TimeCall("write_batch_commit", NowNs() - t0);
    m.event_rows += 2 * rows;
    m.event_value += value;
    m.next_event += 2 * rows;
    return Status::OK();
  }

  Status UpdateTags(meta::LakehouseTxn* txn, int64_t lo, int64_t tag,
                    RoundResult* out, bool timed) {
    const uint64_t t0 = NowNs();
    BL_RETURN_NOT_OK(world_->lake.blmt
                         .TxnUpdate(txn, kWriter, kOrders,
                                    Expr::And(Expr::Ge(Expr::Col("id"),
                                                       Expr::Lit(Value::Int64(lo))),
                                              Expr::Lt(Expr::Col("id"),
                                                       Expr::Lit(Value::Int64(
                                                           lo + kRange)))),
                                    {{"tag", Value::Int64(tag)}})
                         .status());
    if (timed) out->TimeCall("blmt_dml", NowNs() - t0);
    return Status::OK();
  }

  /// Transaction A and B update overlapping id ranges from the same
  /// snapshot; A commits first, B loses first-committer-wins and is retried
  /// as a fresh transaction.
  Status ConflictPair(const Step& step, RoundResult* out, bool timed) {
    BlmtService& blmt = world_->lake.blmt;
    BL_ASSIGN_OR_RETURN(auto a, blmt.BeginTransaction({kOrders}));
    BL_ASSIGN_OR_RETURN(auto b, blmt.BeginTransaction({kOrders}));
    BL_RETURN_NOT_OK(UpdateTags(a.get(), step.lo_a, step.tag_a, out, timed));
    BL_RETURN_NOT_OK(UpdateTags(b.get(), step.lo_b, step.tag_b, out, timed));
    uint64_t bytes0 = ReadBytes();
    BL_RETURN_NOT_OK(blmt.CommitTransaction(a.get()).status());
    CountCommitRead(out, ReadBytes() - bytes0);
    Result<uint64_t> first = blmt.CommitTransaction(b.get());
    if (!first.ok()) {
      if (!first.status().IsFailedPrecondition()) return first.status();
      out->det["conflict_retries"] += 1;
      BL_ASSIGN_OR_RETURN(auto retry, blmt.BeginTransaction({kOrders}));
      BL_RETURN_NOT_OK(
          UpdateTags(retry.get(), step.lo_b, step.tag_b, out, timed));
      bytes0 = ReadBytes();
      BL_RETURN_NOT_OK(blmt.CommitTransaction(retry.get()).status());
      CountCommitRead(out, ReadBytes() - bytes0);
    }
    Model& m = world_->model;
    for (int64_t id = step.lo_a; id < step.lo_a + kRange; ++id) {
      m.order_tag[id] = step.tag_a;
    }
    for (int64_t id = step.lo_b; id < step.lo_b + kRange; ++id) {
      m.order_tag[id] = step.tag_b;
    }
    return Status::OK();
  }

  /// Runs read shape `r` and checks it against the model.
  Status Read(int r, int64_t param, RoundResult* out) {
    const Model& m = world_->model;
    std::string sql;
    std::vector<int64_t> expect;
    switch (r) {
      case 0:
        sql = StrCat("SELECT COUNT(*) AS n, SUM(amount) AS a, SUM(tag) AS t "
                     "FROM ", kOrders);
        expect = {static_cast<int64_t>(m.order_tag.size()), m.order_amount,
                  m.TagSum()};
        break;
      case 1:
        sql = StrCat("SELECT COUNT(*) AS n, SUM(qty) AS q FROM ", kItems);
        expect = {m.item_rows, m.item_qty};
        break;
      case 2:
        sql = StrCat("SELECT COUNT(*) AS n, SUM(value) AS v FROM ", kEvents);
        expect = {m.event_rows, m.event_value};
        break;
      default: {
        const int64_t lo =
            param % std::max<int64_t>(1, static_cast<int64_t>(m.order_tag.size()));
        sql = StrCat("SELECT COUNT(*) AS n, SUM(tag) AS t FROM ", kOrders,
                     " WHERE id >= ", lo);
        int64_t tags = 0;
        for (size_t id = lo; id < m.order_tag.size(); ++id) {
          tags += m.order_tag[id];
        }
        expect = {static_cast<int64_t>(m.order_tag.size()) - lo, tags};
      }
    }
    const uint64_t t0 = NowNs();
    BL_ASSIGN_OR_RETURN(PlanPtr plan, ParseSql(sql));
    Result<QueryResult> q = world_->engine->Execute(kReader, plan);
    const uint64_t t1 = NowNs();
    out->op_seconds += (t1 - t0) / 1e9;
    if (!q.ok()) {
      out->Fail(StrCat("read ", r, ": ", q.status().ToString()));
      return Status::OK();
    }
    bool match = q->batch.num_rows() == 1 &&
                 q->batch.num_columns() == expect.size();
    for (size_t c = 0; match && c < expect.size(); ++c) {
      const Value v = q->batch.GetValue(0, c);
      const int64_t got = v.is_null() ? 0 : static_cast<int64_t>(v.AsDouble());
      match = got == expect[c];
    }
    if (!match) {
      out->Fail(StrCat("read ", r, ": ", q->batch.ToString(2),
                       " disagrees with the committed-write model"));
    }
    out->query_ms.push_back((t1 - t0) / 1e6);
    out->query_sim_ms.push_back(q->stats.wall_micros / 1e3);
    return Status::OK();
  }

  /// Replays the transaction log into an empty store; the live file sets
  /// of both transactional tables must match it.
  void CheckReplay(RoundResult* out) {
    ++out->attempted;
    auto log = world_->coord->ReadLog();
    if (!log.ok()) {
      out->Fail("txn log read: " + log.status().ToString());
      return;
    }
    SimEnv fresh_env;
    BigMetadataStore fresh(&fresh_env);
    Status s = meta::TxnCoordinator::Replay(*log, &fresh);
    if (!s.ok()) {
      out->Fail("txn log replay: " + s.ToString());
      return;
    }
    for (const char* table : {kOrders, kItems}) {
      auto live = world_->lake.env.meta().Snapshot(table);
      auto replayed = fresh.Snapshot(table);
      if (!live.ok() || !replayed.ok()) {
        out->Fail(StrCat("snapshot of ", table, " unavailable"));
        continue;
      }
      std::vector<std::string> a, b;
      for (const CachedFileMeta& f : *live) a.push_back(f.file.path);
      for (const CachedFileMeta& f : *replayed) b.push_back(f.file.path);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a != b) {
        out->Fail(StrCat("replayed txn log disagrees with live files of ",
                         table, " (", a.size(), " live, ", b.size(),
                         " replayed)"));
      }
    }
    out->det["txn_log_records"] = static_cast<double>(log->size());
  }

  void BuildSchedule() {
    // Fixed counts per round, in a seeded order, so the operation mix does
    // not move with the seed: 400 Write API commits, 450 two-table
    // transactions and 75 conflict pairs (150 commits) = kCommitOps, and
    // 250 reads of each shape spread over the steps.
    Random rng(seed_ * 0x9e3779b97f4a7c15ull + 17);
    schedule_.clear();
    auto add = [this](Step::Kind kind, int n) {
      for (int i = 0; i < n; ++i) {
        schedule_.emplace_back();
        schedule_.back().kind = kind;
      }
    };
    add(Step::kWriteApi, 400);
    add(Step::kTxn, 450);
    for (int i = 0; i < 75; ++i) {
      Step step;
      step.kind = Step::kConflictPair;
      step.lo_a = static_cast<int64_t>(rng.Uniform(kInitialOrders - 2 * kRange));
      step.lo_b = step.lo_a + static_cast<int64_t>(rng.Uniform(kRange / 2));
      step.tag_a = 1 + static_cast<int64_t>(rng.Uniform(9));
      step.tag_b = 1 + static_cast<int64_t>(rng.Uniform(9));
      schedule_.push_back(step);
    }
    for (size_t i = schedule_.size(); i > 1; --i) {
      std::swap(schedule_[i - 1], schedule_[rng.Uniform(i)]);
    }
    reads_per_round_ = 0;
    for (int shape = 0; shape < kReadShapes; ++shape) {
      for (int r = 0; r < 250; ++r) {
        Step& step = schedule_[rng.Uniform(schedule_.size())];
        step.reads.push_back(shape);
        ++reads_per_round_;
      }
    }
    for (Step& step : schedule_) {
      step.read_param = static_cast<int64_t>(rng.Uniform(kInitialOrders));
    }
  }

  static constexpr int64_t kRange = 200;

  uint64_t seed_;
  std::unique_ptr<World> world_;
  bool fresh_ = false;
  std::vector<Step> schedule_;
  uint64_t reads_per_round_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeIngestMixed(uint64_t seed) {
  return std::make_unique<IngestMixed>(seed);
}

}  // namespace perfbench

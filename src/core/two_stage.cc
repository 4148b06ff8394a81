#include "core/two_stage.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <unordered_set>

#include "common/logging.h"
#include "core/seismic_schema.h"
#include "engine/plan_profile.h"
#include "exec/sim_schedule.h"
#include "exec/task_group.h"
#include "io/file_io.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace dex {

namespace {

constexpr const char* kQfResultId = "__qf";
constexpr const char* kEmptyResultId = "__empty";
constexpr const char* kIngestedResultId = "__ingested";

// Payload of one scatter request ("mount these files") to a shard. Small and
// fixed: the request is dominated by the link latency, not its bytes.
constexpr uint64_t kShardRequestBytes = 256;

// Warnings accumulated into a query's MountOutcome are bounded the same way
// Mounter bounds its own (the database bounds again at copy time).
constexpr size_t kMaxShardWarnings = 32;

void AddShardWarning(Mounter::MountOutcome* outcome, std::string msg) {
  if (outcome->warnings.size() < kMaxShardWarnings) {
    outcome->warnings.push_back(std::move(msg));
  } else {
    ++outcome->warnings_dropped;
  }
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Result<std::vector<std::string>> TwoStageExecutor::FilesOfInterest(
    const TablePtr& qf_result) {
  // Any column named "uri" identifies the file; F.uri and R.uri agree by the
  // join condition, so the first one found works.
  int uri_idx = -1;
  for (size_t i = 0; i < qf_result->schema()->num_fields(); ++i) {
    if (qf_result->schema()->field(i).name == "uri") {
      uri_idx = static_cast<int>(i);
      break;
    }
  }
  if (uri_idx < 0) {
    return Status::Internal(
        "stage-1 result carries no 'uri' column; files of interest are "
        "unidentifiable in schema " +
        qf_result->schema()->ToString());
  }
  const Column& col = *qf_result->column(static_cast<size_t>(uri_idx));
  std::vector<std::string> files;
  std::unordered_set<int32_t> seen_codes;
  for (size_t r = 0; r < qf_result->num_rows(); ++r) {
    if (seen_codes.insert(col.GetStringCode(r)).second) {
      files.push_back(col.GetString(r));
    }
  }
  return files;
}

ExprPtr TwoStageExecutor::FindActualScanPredicate(const PlanPtr& plan,
                                                  const Catalog& catalog) {
  if (plan->kind == PlanKind::kFilter &&
      plan->children[0]->kind == PlanKind::kScan) {
    auto kind = catalog.GetKind(plan->children[0]->table_name);
    if (kind.ok() && *kind == TableKind::kActual) return plan->predicate;
  }
  for (const PlanPtr& c : plan->children) {
    ExprPtr found = FindActualScanPredicate(c, catalog);
    if (found != nullptr) return found;
  }
  return nullptr;
}

Result<std::vector<FileDecision>> TwoStageExecutor::DecideFiles(
    const std::vector<std::string>& files, const ExprPtr& d_predicate,
    const TwoStageOptions& opts) {
  const std::string pred_repr =
      d_predicate == nullptr ? "" : d_predicate->ToString();
  const CachedWindow query_window = SummarizeTimeWindow(d_predicate);
  double value_lo = 0, value_hi = 0;
  const bool value_bounded =
      opts.pruning.file_level && derived_ != nullptr &&
      ExtractBounds(d_predicate, "sample_value", &value_lo, &value_hi);

  std::vector<FileDecision> decisions;
  decisions.reserve(files.size());
  for (const std::string& uri : files) {
    FileDecision d;
    d.uri = uri;
    DEX_ASSIGN_OR_RETURN(FileRegistry::Entry entry, registry_->Get(uri));
    const int64_t mtime = FileMtimeMillis(uri).ValueOr(entry.mtime_ms);
    if (value_bounded && !derived_->MayMatchValueRange(uri, value_lo, value_hi)) {
      d.action = FileDecision::Action::kSkip;
    } else if (cache_ != nullptr &&
               cache_->Probe(uri,
                             cache_->options().granularity ==
                                     CacheGranularity::kTuple
                                 ? pred_repr
                                 : "",
                             mtime, &query_window)) {
      d.action = FileDecision::Action::kCacheScan;
    } else {
      d.action = FileDecision::Action::kMount;
    }
    decisions.push_back(std::move(d));
  }
  return decisions;
}

Result<PlanPtr> TwoStageExecutor::RewriteStage2Impl(
    const PlanPtr& split_plan, const std::string& qf_result_id,
    const std::vector<FileDecision>& decisions, PlanPtr* union_node_out,
    Catalog* catalog, const TwoStageOptions& opts) {
  // Builds the union replacing one actual-table scan. `pred` is the
  // selection that sat on the scan (may be null).
  auto build_union = [&](const std::string& table_name,
                         const ExprPtr& pred) -> PlanPtr {
    std::vector<PlanPtr> branches;
    for (const FileDecision& d : decisions) {
      switch (d.action) {
        case FileDecision::Action::kSkip:
          break;
        case FileDecision::Action::kCacheScan: {
          PlanPtr node = MakeCacheScan(table_name, d.uri);
          if (pred != nullptr && opts.push_selection_into_union) {
            node = MakeFilter(pred, std::move(node));  // σ(cache-scan(f))
          }
          branches.push_back(std::move(node));
          break;
        }
        case FileDecision::Action::kMount: {
          PlanPtr node = MakeMount(table_name, d.uri);
          if (pred != nullptr && opts.push_selection_into_union) {
            node->predicate = pred;  // combined select-mount access path
          }
          branches.push_back(std::move(node));
          break;
        }
      }
    }
    PlanPtr result;
    if (branches.empty()) {
      // Best case of ALi: an empty set of files of interest means no actual
      // data is ever ingested.
      result = MakeResultScan(std::string(kEmptyResultId) + ":" + table_name,
                              nullptr /* filled by caller context */);
    } else {
      result = MakeUnion(std::move(branches));
    }
    if (union_node_out != nullptr) *union_node_out = result;
    if (pred != nullptr && !opts.push_selection_into_union) {
      result = MakeFilter(pred, std::move(result));
    }
    return result;
  };

  std::function<Result<PlanPtr>(const PlanPtr&)> transform =
      [&](const PlanPtr& node) -> Result<PlanPtr> {
    if (node->kind == PlanKind::kStageBreak) {
      return MakeResultScan(qf_result_id, node->children[0]->output_schema);
    }
    // σ_p(scan(a)) and bare scan(a) both expand via rewrite rule (1).
    if (node->kind == PlanKind::kFilter &&
        node->children[0]->kind == PlanKind::kScan) {
      auto kind = catalog->GetKind(node->children[0]->table_name);
      if (kind.ok() && *kind == TableKind::kActual) {
        return build_union(node->children[0]->table_name, node->predicate);
      }
    }
    if (node->kind == PlanKind::kScan) {
      auto kind = catalog->GetKind(node->table_name);
      if (kind.ok() && *kind == TableKind::kActual) {
        return build_union(node->table_name, nullptr);
      }
    }
    auto copy = std::make_shared<LogicalPlan>(*node);
    copy->children.clear();
    for (const PlanPtr& c : node->children) {
      DEX_ASSIGN_OR_RETURN(PlanPtr t, transform(c));
      copy->children.push_back(std::move(t));
    }
    return copy;
  };

  DEX_ASSIGN_OR_RETURN(PlanPtr rewritten, transform(split_plan));

  if (opts.distribute_join_over_union) {
    // Strategy (b): Join(∪ b_i, X) → ∪ Join(b_i, X) — run the join per
    // mounted sub-table, then merge the results.
    std::function<PlanPtr(const PlanPtr&)> distribute =
        [&](const PlanPtr& node) -> PlanPtr {
      auto copy = std::make_shared<LogicalPlan>(*node);
      copy->children.clear();
      for (const PlanPtr& c : node->children) {
        copy->children.push_back(distribute(c));
      }
      if (copy->kind == PlanKind::kJoin &&
          copy->children[0]->kind == PlanKind::kUnion) {
        std::vector<PlanPtr> joined;
        for (const PlanPtr& b : copy->children[0]->children) {
          joined.push_back(MakeJoin(copy->predicate, b, copy->children[1]));
        }
        if (!joined.empty()) return MakeUnion(std::move(joined));
      }
      return copy;
    };
    rewritten = distribute(rewritten);
  }
  return rewritten;
}

ThreadPool* TwoStageExecutor::Pool(size_t workers) {
  // A shared pool serves every query at its real size; `workers` only drives
  // the deterministic lane count in ListScheduleSimTimes, never the number
  // of OS threads actually running tasks.
  if (shared_pool_ != nullptr) return shared_pool_;
  if (pool_ == nullptr || pool_->num_threads() != workers) {
    pool_ = std::make_unique<ThreadPool>(workers);
  }
  return pool_.get();
}

/// Stage-2 admission for one query: the deadline gate before a mount, the
/// gather and memory gates after it, and what the query holds meanwhile
/// (cache pins, partial-table reservations — released on destruction).
/// Shared by the wave and the mount_fn fallback, and only driven from the
/// coordinator thread in union-branch order, so every decision is a function
/// of the deterministic simulated timeline: the same file triggers a cutoff
/// at any worker count. With no limits set the deadline never fires and
/// reserving against the unlimited budget always succeeds — the step then
/// only maintains the budget's high-water mark (`mem_reserved_peak`).
class TwoStageExecutor::Admission {
 public:
  Admission(QueryContext* qctx, const TwoStageOptions& opts,
            CacheManager* cache, FileRegistry* registry,
            ShardedRepository* shards, int num_shards, TwoStageStats* stats)
      : qctx_(qctx),
        opts_(opts),
        cache_(cache),
        registry_(registry),
        shards_(num_shards > 1 ? shards : nullptr),
        num_shards_(num_shards),
        stats_(stats) {}

  // Partial tables never outlive the query, so their reservations don't
  // either (the tables die with the plan — nothing reaches the catalog).
  ~Admission() {
    if (reserved_bytes_ > 0) qctx_->memory()->Release(reserved_bytes_);
    for (const std::string& uri : pinned_) cache_->Unpin(uri);
    stats_->mem_reserved_peak = qctx_->memory()->peak();
  }
  Admission(const Admission&) = delete;
  Admission& operator=(const Admission&) = delete;

  bool governed() const { return qctx_->has_limits(); }
  bool sharded() const { return shards_ != nullptr; }
  size_t num_shards() const { return static_cast<size_t>(num_shards_); }
  size_t ShardOf(const std::string& uri) const {
    return sharded() ? static_cast<size_t>(shards_->ShardOf(uri, num_shards_))
                     : 0;
  }

  /// Pins a cache-scan branch's entry until the query ends: budget-pressure
  /// eviction must not invalidate a branch of the plan being executed.
  void Pin(const std::string& uri) {
    cache_->Pin(uri);
    pinned_.push_back(uri);
  }

  /// Deadline gate before a mount. `pending` is wave time not yet charged
  /// to the clock. True = mount it; false = admission has stopped and the
  /// branch degrades like a quarantined file (no rows, counted as skipped);
  /// under kFailQuery the stop reason instead.
  Result<bool> Open(uint64_t pending) {
    if (!stopped_) {
      const uint64_t now = SimNow(pending);
      if (qctx_->DeadlineExpired(now)) {
        Stop(qctx_->DeadlineStatus(now), /*by_memory=*/false, now);
      }
    }
    if (!stopped_) return true;
    if (fail_query()) return reason_;
    stats_->is_partial = true;
    ++(stopped_by_memory_ ? stats_->files_skipped_memory
                          : stats_->files_skipped_deadline);
    return false;
  }

  /// Ships `*table` from its shard to the coordinator — after the shard's
  /// scatter request when `request` — and returns the link time, which the
  /// caller charges. A response lost past the resend budget (or a shard
  /// that died mid-query) quarantines the file and empties `*table`: the
  /// same degradation as a governance skip, deterministic because the
  /// per-link fault streams are.
  uint64_t Gather(const std::string& table_name, const std::string& uri,
                  bool request, TablePtr* table) {
    const SimNetwork::LinkId link = shards_->LinkOf(static_cast<int>(ShardOf(uri)));
    uint64_t nanos = 0;
    Status failure;
    {
      SimDisk::TaskTimeScope scope(&nanos);
      if (request) (void)shards_->network()->Transfer(link, kShardRequestBytes);
      failure = shards_->network()->Transfer(link, (*table)->ByteSize()).status();
    }
    if (!failure.ok()) {
      registry_->Quarantine(uri, failure.message());
      AddShardWarning(&stats_->mount, "gather of '" + uri + "' failed: " +
                                          failure.message() +
                                          " (file quarantined)");
      *table = std::make_shared<Table>(table_name, MakeDataSchema());
    }
    return nanos;
  }

  /// Memory gate after a mount (and its gather): `table` when admitted, an
  /// empty table when the budget refused it, the stop reason under
  /// kFailQuery. Two layers: the table must fit under the query's own cap
  /// (if any) *and* in the shared budget. Eviction of unpinned cache entries
  /// is tried only for the shared budget — freeing cache space cannot help
  /// a query that exhausted its private cap.
  Result<TablePtr> Admit(const std::string& table_name, const std::string& uri,
                         TablePtr table, uint64_t pending) {
    const uint64_t bytes = table->ByteSize();
    MemoryBudget* budget = qctx_->memory();
    const uint64_t query_cap = qctx_->query_memory_limit();
    const bool over_query_cap =
        query_cap != 0 && reserved_bytes_ + bytes > query_cap;
    bool reserved = !over_query_cap && budget->TryReserve(bytes);
    if (!reserved && !over_query_cap && cache_ != nullptr) {
      const size_t evicted = cache_->EvictUnpinned(bytes);
      stats_->mem_budget_evictions += evicted;
      if (evicted > 0) {
        obs::FlightEvent ev;
        ev.kind = "budget_eviction";
        ev.detail = std::to_string(evicted) + " cache entries for '" + uri + "'";
        obs::FlightRecorder::Global().Record(std::move(ev));
      }
      reserved = budget->TryReserve(bytes);
    }
    if (reserved) {
      reserved_bytes_ += bytes;
      return table;
    }
    Stop(over_query_cap
             ? Status::ResourceExhausted(
                   "per-query memory cap of " + std::to_string(query_cap) +
                   " bytes exhausted mounting '" + uri + "' (" +
                   std::to_string(bytes) + " bytes needed, " +
                   std::to_string(reserved_bytes_) + " reserved)")
             : Status::ResourceExhausted(
                   "memory budget of " + std::to_string(budget->limit()) +
                   " bytes exhausted mounting '" + uri + "' (" +
                   std::to_string(bytes) + " bytes needed, " +
                   std::to_string(budget->used()) + " in use)"),
         /*by_memory=*/true, SimNow(pending));
    if (fail_query()) return reason_;
    // The triggering file's simulated I/O is charged all the same; its data
    // cannot be admitted and is discarded.
    stats_->is_partial = true;
    ++stats_->files_skipped_memory;
    return Result<TablePtr>(std::make_shared<Table>(table_name, MakeDataSchema()));
  }

 private:
  bool fail_query() const {
    return opts_.on_resource_exhausted == OnResourceExhausted::kFailQuery;
  }

  // The query's own timeline (see QueryContext::sim_now) plus `pending`.
  uint64_t SimNow(uint64_t pending) const {
    return qctx_->sim_now(registry_->disk()->stats().sim_nanos) + pending;
  }

  // Flips the admission gate shut and records the cutoff (once).
  void Stop(Status reason, bool by_memory, uint64_t sim_now) {
    stopped_ = true;
    stopped_by_memory_ = by_memory;
    reason_ = std::move(reason);
    stats_->cutoff_sim_nanos = sim_now - qctx_->sim_start_nanos();
    stats_->cutoff_wall_nanos = qctx_->wall_elapsed_nanos();
    obs::Tracer::Instant(
        by_memory ? "memory_cutoff" : "deadline_cutoff", "governance",
        {{"cutoff_sim_nanos", std::to_string(stats_->cutoff_sim_nanos)}});
    obs::FlightEvent ev;
    ev.kind = by_memory ? "memory_cutoff" : "deadline_cutoff";
    ev.detail = reason_.message();
    obs::FlightRecorder::Global().Record(std::move(ev));
  }

  QueryContext* qctx_;
  const TwoStageOptions& opts_;
  CacheManager* cache_;
  FileRegistry* registry_;
  ShardedRepository* shards_;  // null when unsharded
  int num_shards_;
  TwoStageStats* stats_;
  std::vector<std::string> pinned_;  // cache-scan URIs to unpin
  bool stopped_ = false;             // no further mounts are admitted
  bool stopped_by_memory_ = false;   // why: budget (true) vs deadline (false)
  Status reason_;                    // DeadlineExceeded / ResourceExhausted
  uint64_t reserved_bytes_ = 0;      // partial-table reservations to release
};

/// The grouping pushed into the union (DESIGN.md "Grouping pushdown into
/// the union"): Aggregate(Join(Union(branches), M)) where the join is one
/// string equality between a union column and a column of M (a result-scan),
/// the grouping is by at most one string column of M, and every aggregate is
/// COUNT(*) or a kernel aggregate over a numeric union column. Each branch's
/// rows then all join the one M row matching the branch's key, so the branch
/// aggregates to one partial group that the coordinator merges in branch
/// order under that M row's group key.
struct TwoStageExecutor::PartialAggPlan {
  const LogicalPlan* aggregate = nullptr;
  const LogicalPlan* join = nullptr;
  const LogicalPlan* union_node = nullptr;
  const LogicalPlan* metadata = nullptr;  // M, a result-scan
  int probe_key = -1;  // union-side column of the join key
  int build_key = -1;  // M column of the join key
  int group_key = -1;  // M column of the group key; -1 = no GROUP BY
  std::vector<AggFunc> fns;
  std::vector<int> arg_columns;  // union-side columns; -1 = COUNT(*)
  std::vector<DataType> arg_types;
  /// M's row for each join-key value (filled before the wave).
  std::unordered_map<std::string, uint32_t> build_rows;

  GroupAggState NewState() const {
    return GroupAggState(fns, arg_columns, arg_types);
  }
};

std::optional<TwoStageExecutor::PartialAggPlan>
TwoStageExecutor::FindPartialAggPlan(const PlanPtr& node) {
  for (const PlanPtr& c : node->children) {
    std::optional<PartialAggPlan> found = FindPartialAggPlan(c);
    if (found.has_value()) return found;
  }
  if (node->kind != PlanKind::kAggregate ||
      node->children[0]->kind != PlanKind::kJoin) {
    return std::nullopt;
  }
  const PlanPtr& join = node->children[0];
  const PlanPtr& branches = join->children[0];
  const PlanPtr& metadata = join->children[1];
  if (branches->kind != PlanKind::kUnion ||
      metadata->kind != PlanKind::kResultScan) {
    return std::nullopt;
  }
  // Cache-scan branches keep the shape eligible; they make the query fall
  // back at run time (the wave mounts only kMount branches).
  for (const PlanPtr& b : branches->children) {
    const PlanKind k = b->kind == PlanKind::kFilter ? b->children[0]->kind : b->kind;
    if (k != PlanKind::kMount && k != PlanKind::kCacheScan) return std::nullopt;
  }
  const Schema& left = *branches->output_schema;
  const Schema& right = *metadata->output_schema;
  const Schema& joined = *join->output_schema;
  auto bind_column = [](const ExprPtr& e, const Schema& schema) -> int {
    if (e->kind() != ExprKind::kColumnRef || !e->AllColumnsIn(schema)) return -1;
    Result<ExprPtr> bound = e->Bind(schema);
    return bound.ok() ? (*bound)->column_index() : -1;
  };
  auto is_string = [](const Schema& schema, int i) {
    return i >= 0 && schema.field(static_cast<size_t>(i)).type == DataType::kString;
  };

  PartialAggPlan plan;
  plan.aggregate = node.get();
  plan.join = join.get();
  plan.union_node = branches.get();
  plan.metadata = metadata.get();
  std::vector<ExprPtr> conjuncts;
  Expr::SplitConjuncts(join->predicate, &conjuncts);
  if (conjuncts.size() != 1 || conjuncts[0]->kind() != ExprKind::kComparison ||
      conjuncts[0]->compare_op() != CompareOp::kEq) {
    return std::nullopt;
  }
  const ExprPtr& a = conjuncts[0]->children()[0];
  const ExprPtr& b = conjuncts[0]->children()[1];
  plan.probe_key = bind_column(a, left);
  plan.build_key = bind_column(b, right);
  if (plan.probe_key < 0 || plan.build_key < 0) {
    plan.probe_key = bind_column(b, left);
    plan.build_key = bind_column(a, right);
  }
  if (!is_string(left, plan.probe_key) || !is_string(right, plan.build_key)) {
    return std::nullopt;
  }
  const int width = static_cast<int>(left.num_fields());
  if (node->group_by.size() > 1) return std::nullopt;
  if (node->group_by.size() == 1) {
    const int g = bind_column(node->group_by[0], joined);
    if (g < width || !is_string(joined, g)) return std::nullopt;
    plan.group_key = g - width;
  }
  for (const AggSpec& agg : node->aggregates) {
    plan.fns.push_back(agg.fn);
    if (agg.arg == nullptr) {
      plan.arg_columns.push_back(-1);
      plan.arg_types.push_back(DataType::kInt64);
      continue;
    }
    const int col = bind_column(agg.arg, joined);
    if (col < 0 || col >= width) return std::nullopt;
    const DataType t = left.field(static_cast<size_t>(col)).type;
    if (t != DataType::kDouble && t != DataType::kInt64 &&
        t != DataType::kTimestamp) {
      return std::nullopt;
    }
    plan.arg_columns.push_back(col);
    plan.arg_types.push_back(t);
  }
  return plan;
}

bool TwoStageExecutor::CanPushGroupingIntoUnion(const PlanPtr& stage2_plan) {
  return FindPartialAggPlan(stage2_plan).has_value();
}

std::shared_ptr<const TwoStageExecutor::BranchPartial>
TwoStageExecutor::TakePartial(const PartialAggPlan& plan, const Table& table) {
  auto partial =
      std::make_shared<BranchPartial>(BranchPartial{plan.NewState(), ""});
  partial->state.Resize(1);
  if (table.num_rows() > 0) {
    const Column& key = *table.column(static_cast<size_t>(plan.probe_key));
    const int32_t* codes = key.codes();
    // Codes of one column are interned: equal codes, equal strings.
    for (size_t r = 1; r < table.num_rows(); ++r) {
      if (codes[r] != codes[0]) return nullptr;
    }
    partial->key = key.GetString(0);
    partial->state.AccumulateAll(table, 0);
  }
  return partial;
}

std::string TwoStageExecutor::MergePartials(const PartialAggPlan& plan,
                                            const PremountMap& premounted,
                                            ExecContext* ctx,
                                            PlanProfiler* profiler,
                                            TablePtr* out) {
  const uint64_t t0 = NowNanos();
  const Table& metadata = *ctx->named_results.at(plan.metadata->result_id);
  GroupAggState merged = plan.NewState();
  std::vector<Value> keys;
  std::unordered_map<std::string, size_t> slots;
  uint64_t files = 0, rows = 0, branches = 0;
  for (const PlanPtr& branch : plan.union_node->children) {
    auto it = premounted.find(branch->uri);
    if (it == premounted.end() ||
        it->second.predicate.get() != branch->predicate.get()) {
      return "a branch was not mounted by the wave";
    }
    const PremountEntry& e = it->second;
    ++files;
    rows += e.table->num_rows();
    if (e.partial != nullptr) ++branches;
    // An empty table (refused by admission, lost in the gather, or with no
    // matching row) contributes nothing, as in the joined plan.
    if (e.table->num_rows() == 0) continue;
    if (e.partial == nullptr) return "a branch's join key is not constant";
    auto m = plan.build_rows.find(e.partial->key);
    if (m == plan.build_rows.end()) continue;  // the join drops the branch
    size_t slot = 0;
    if (plan.group_key >= 0) {
      const std::string& g =
          metadata.column(static_cast<size_t>(plan.group_key))->GetString(m->second);
      auto [s, inserted] = slots.try_emplace(g, keys.size());
      if (inserted) keys.push_back(Value::String(g));
      slot = s->second;
    }
    merged.Resize(slot + 1);
    merged.MergeGroup(e.partial->state, 0, slot);
  }
  std::string inexact = merged.MergeInexactReason();
  if (!inexact.empty()) return inexact;

  auto table = std::make_shared<Table>("partial_agg", plan.aggregate->output_schema);
  Batch batch;
  Result<bool> emitted =
      merged.Emit(keys, plan.group_key >= 0, plan.aggregate->output_schema, &batch);
  if (!emitted.ok()) return emitted.status().message();
  if (*emitted) {
    const size_t n = batch.num_rows();
    for (size_t c = 0; c < batch.columns.size(); ++c) {
      table->mutable_column(c)->AppendRange(*batch.columns[c], 0, n);
    }
    if (!table->CommitAppendedRows(n).ok()) return "partial result assembly failed";
  }
  *out = std::move(table);

  // What the joined plan's mounts would have counted, plus the pushdown's
  // own counters; each branch's partial is one kernel aggregation pass.
  ctx->stats.files_mounted += files;
  ctx->stats.mounted_rows += rows;
  ctx->stats.partial_agg_branches += branches;
  ctx->stats.kernel_agg_batches += branches;
  if (profiler != nullptr) {
    for (const PlanPtr& branch : plan.union_node->children) {
      const PremountEntry& e = premounted.at(branch->uri);
      OpProfile* p = profiler->ProfileFor(branch.get());
      p->opens += 1;
      p->open_nanos += e.wall_nanos;
      p->rows_out += e.table->num_rows();
    }
    const std::string folded = "aggregated per branch inside the mount wave";
    profiler->ProfileFor(plan.union_node)->note = folded;
    profiler->ProfileFor(plan.join)->note = folded;
    profiler->ProfileFor(plan.metadata)->note = "read by the partial merge";
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "grouping pushed into the union: %llu branch partials "
                  "merged in %.3fms",
                  static_cast<unsigned long long>(branches),
                  static_cast<double>(NowNanos() - t0) / 1e6);
    profiler->ProfileFor(plan.aggregate)->note = buf;
  }
  return "";
}

Status TwoStageExecutor::PremountUnion(const PlanPtr& union_node, size_t workers,
                                       int priority, TwoStageStats* stats,
                                       PremountMap* premounted,
                                       Admission* admission, QueryContext* qctx,
                                       const PruningOptions* pruning,
                                       const PartialAggPlan* pushdown) {
  if (union_node == nullptr || union_node->kind != PlanKind::kUnion) {
    return Status::OK();
  }
  // The union's branch order is the files-of-interest order (URIs,
  // deterministic), so task index doubles as the deterministic tiebreak for
  // error reporting, admission and time aggregation.
  std::vector<const LogicalPlan*> mounts;
  for (const PlanPtr& child : union_node->children) {
    if (child->kind == PlanKind::kMount) mounts.push_back(child.get());
  }
  if (mounts.empty()) return Status::OK();

  // Governed waves admit one mount at a time on the calling thread: the
  // deadline gate reads the timeline the previous mount (and its gather)
  // left. Real threads only ever shorten wall time.
  const bool governed = admission->governed();
  ThreadPool* pool =
      governed || workers <= 1 || mounts.size() < 2 ? nullptr : Pool(workers);
  const size_t step = governed ? 1 : mounts.size();

  struct Task {
    bool spawned = false;
    TablePtr table;
    Mounter::MountOutcome outcome;
    uint64_t sim_nanos = 0;   // this task's simulated stall time
    uint64_t wall_nanos = 0;  // charged to the serving Mount in EXPLAIN ANALYZE
    std::shared_ptr<const BranchPartial> partial;  // with `pushdown` only
  };
  std::vector<Task> tasks(mounts.size());
  std::vector<TwoStageStats::ShardRow> shard(admission->num_shards());
  uint64_t pending = 0;  // buckets + gathers so far, not yet on the clock

  // Coordinator step after task i, in branch order: merge its outcome,
  // gather its table (sharded), admit it against the memory budget.
  auto finish = [&](size_t i) -> Status {
    Task& t = tasks[i];
    const LogicalPlan* node = mounts[i];
    const Table* mounted = t.table.get();
    TwoStageStats::ShardRow& row = shard[admission->ShardOf(node->uri)];
    stats->mount.MergeFrom(t.outcome);
    ++row.files;
    row.disk_sim_nanos += t.sim_nanos;
    pending += t.sim_nanos;
    if (admission->sharded()) {
      const bool request = row.net_messages == 0;
      const uint64_t nanos =
          admission->Gather(node->table_name, node->uri, request, &t.table);
      row.net_messages += request ? 2 : 1;
      row.net_sim_nanos += nanos;
      pending += nanos;
    }
    DEX_ASSIGN_OR_RETURN(TablePtr admitted,
                         admission->Admit(node->table_name, node->uri,
                                          std::move(t.table), pending));
    // A table emptied by the gather or refused by admission is no longer
    // the one the partial summarizes.
    if (admitted.get() != mounted) t.partial = nullptr;
    (*premounted)[node->uri] = PremountEntry{node->predicate, std::move(admitted),
                                             node, t.wall_nanos,
                                             std::move(t.partial)};
    return Status::OK();
  };

  auto run = [&]() -> Status {
    for (size_t begin = 0; begin < mounts.size(); begin += step) {
      const size_t end = std::min(begin + step, mounts.size());
      TaskGroup group(pool, priority);
      for (size_t i = begin; i < end; ++i) {
        const LogicalPlan* node = mounts[i];
        DEX_ASSIGN_OR_RETURN(const bool admitted, admission->Open(pending));
        if (!admitted) {
          (*premounted)[node->uri] = PremountEntry{
              node->predicate,
              std::make_shared<Table>(node->table_name, MakeDataSchema()), node,
              0, nullptr};
          continue;
        }
        Task* task = &tasks[i];
        task->spawned = true;
        // Trace context (order key + parent span) is captured at spawn time
        // and installed by TaskGroup::Spawn itself, so spans below parent
        // under the coordinator's current span automatically.
        group.Spawn([this, node, task, qctx, pruning, pool,
                     pushdown]() -> Status {
          // A cancelled query skips tasks that have not started yet; the
          // cancel reason propagates through the lowest-index error rule.
          DEX_RETURN_NOT_OK(qctx->CheckInterrupt());
          std::optional<obs::TraceSpan> span;
          if (pool != nullptr) {
            span.emplace("mount_task", "mount");
            span->AddArg("uri", node->uri);
            span->AddArg("lane", static_cast<uint64_t>(obs::CurrentThreadLane()));
          }
          const uint64_t t0 = NowNanos();
          // This task's simulated stall time goes into its own bucket, so
          // the wave's cost is aggregated afterwards independent of real
          // thread interleaving.
          SimDisk::TaskTimeScope scope(&task->sim_nanos);
          Result<TablePtr> mounted =
              mounter_->Mount(node->table_name, node->uri, node->predicate,
                              &task->outcome, qctx, pruning);
          task->wall_nanos = NowNanos() - t0;
          DEX_ASSIGN_OR_RETURN(task->table, std::move(mounted));
          if (pushdown != nullptr) {
            task->partial = TakePartial(*pushdown, *task->table);
          }
          return Status::OK();
        });
      }
      DEX_RETURN_NOT_OK(group.Wait());
      for (size_t i = begin; i < end; ++i) {
        if (tasks[i].spawned) DEX_RETURN_NOT_OK(finish(i));
      }
    }
    return Status::OK();
  };
  // Whatever ran is charged, on the error path too: the I/O happened.
  const Status status = run();

  // The one charging formula over (shard × lane) slots: per slot, the
  // slot's buckets list-scheduled in task order over its lanes, plus the
  // slot's gathers; the wave costs the slowest slot. Unsharded: one slot of
  // `workers` lanes. Sharded: one slot per shard, a storage node with one
  // serial disk. Governed: one slot of one lane — the query's timeline.
  const size_t num_slots = governed ? 1 : shard.size();
  const size_t lanes = governed || admission->sharded() ? 1 : workers;
  std::vector<std::vector<uint64_t>> slot_tasks(num_slots);
  std::vector<uint64_t> slot_gather(num_slots, 0);
  for (size_t i = 0; i < mounts.size(); ++i) {
    if (!tasks[i].spawned) continue;
    ++stats->mount_tasks;
    slot_tasks[governed ? 0 : admission->ShardOf(mounts[i]->uri)].push_back(
        tasks[i].sim_nanos);
  }
  for (size_t s = 0; s < shard.size(); ++s) {
    slot_gather[governed ? 0 : s] += shard[s].net_sim_nanos;
    stats->net_sim_nanos += shard[s].net_sim_nanos;
  }
  uint64_t wave = 0;
  for (size_t slot = 0; slot < num_slots; ++slot) {
    const SimSchedule sched = ListScheduleSimTimes(slot_tasks[slot], lanes);
    wave = std::max(wave, sched.makespan + slot_gather[slot]);
    stats->serial_sim_nanos += sched.serial_sum + slot_gather[slot];
  }
  registry_->disk()->ChargeDelay(wave);
  stats->parallel_sim_nanos += wave;

  // Per-shard accounting rows, merged across batched waves by shard id.
  for (size_t s = 0; admission->sharded() && s < shard.size(); ++s) {
    if (shard[s].files == 0) continue;
    auto row = std::find_if(
        stats->shard_rows.begin(), stats->shard_rows.end(),
        [s](const TwoStageStats::ShardRow& r) { return r.shard == static_cast<int>(s); });
    if (row == stats->shard_rows.end()) {
      row = stats->shard_rows.insert(row, TwoStageStats::ShardRow{});
      row->shard = static_cast<int>(s);
    }
    row->files += shard[s].files;
    row->disk_sim_nanos += shard[s].disk_sim_nanos;
    row->net_sim_nanos += shard[s].net_sim_nanos;
    row->net_messages += shard[s].net_messages;
    obs::Tracer::Instant(
        "shard_gather", "shard",
        {{"shard", std::to_string(s)},
         {"files", std::to_string(shard[s].files)},
         {"disk_nanos", std::to_string(shard[s].disk_sim_nanos)},
         {"net_nanos", std::to_string(shard[s].net_sim_nanos)}});
  }
  return status;
}

Result<TablePtr> TwoStageExecutor::Execute(const PlanPtr& plan,
                                           const BreakpointCallback& callback,
                                           TwoStageStats* stats,
                                           PlanProfiler* profiler,
                                           QueryContext* qctx,
                                           const QueryEnv* env) {
  DEX_CHECK(stats != nullptr);
  DEX_CHECK(qctx != nullptr);
  // The query's own view of the world: its pinned catalog epoch, effective
  // options, and pool priority. Defaults reproduce the single-query behavior.
  Catalog* catalog =
      (env != nullptr && env->catalog != nullptr) ? env->catalog : catalog_;
  const TwoStageOptions& opts =
      (env != nullptr && env->options != nullptr) ? *env->options : options_;
  const int priority = env != nullptr ? env->priority
                                      : ThreadPool::kPriorityNormal;
  ShardedRepository* shards =
      (env != nullptr && env->shards != nullptr) ? env->shards : nullptr;
  const int num_shards =
      shards != nullptr ? shards->ClampShardCount(env->num_shards) : 1;
  const bool sharded = shards != nullptr && num_shards > 1;
  stats->num_shards = static_cast<size_t>(num_shards);

  DEX_ASSIGN_OR_RETURN(SplitResult split, SplitPlan(plan, *catalog));

  const size_t workers = opts.num_threads == 0
                             ? ThreadPool::DefaultConcurrency()
                             : opts.num_threads;
  // Governed queries run the mount wave on one lane; report that.
  stats->workers = qctx->has_limits() ? 1 : workers;

  // Mounts completed (or refused) ahead of plan execution by the wave. The
  // mount_fn serves them on URI + exact-predicate match.
  PremountMap premounted;
  Admission admission(qctx, opts, cache_, registry_, shards, num_shards, stats);

  ExecContext ctx;
  ctx.catalog = catalog;
  ctx.profiler = profiler;
  ctx.use_simd_kernels = opts.pruning.use_simd_kernels;
  // Per-batch cooperative cancellation in the volcano operators. Under
  // kFailQuery a deadline behaves like a cancellation (the whole plan
  // aborts); under kPartialResults it only gates mount admission, so the
  // plan runs to completion over whatever was admitted. Deadlines are
  // measured on the query's own sim timeline (qctx->sim_now): under
  // concurrent serving the global clock advances with everyone's I/O.
  SimDisk* disk = registry_->disk();
  const bool fail_on_deadline =
      qctx->has_deadline() &&
      opts.on_resource_exhausted == OnResourceExhausted::kFailQuery;
  ctx.interrupt_fn = [qctx, disk, fail_on_deadline]() -> Status {
    DEX_RETURN_NOT_OK(qctx->CheckInterrupt());
    if (fail_on_deadline) {
      const uint64_t sim_now = qctx->sim_now(disk->stats().sim_nanos);
      if (qctx->DeadlineExpired(sim_now)) return qctx->DeadlineStatus(sim_now);
    }
    return Status::OK();
  };
  ctx.mount_fn = [this, stats, profiler, qctx, disk, &premounted, &admission,
                  &opts](const std::string& table, const std::string& uri,
                         const ExprPtr& pred) -> Result<TablePtr> {
    auto it = premounted.find(uri);
    if (it != premounted.end() && it->second.predicate.get() == pred.get()) {
      PremountEntry entry = std::move(it->second);
      premounted.erase(it);  // each union branch opens once
      if (profiler != nullptr) {
        profiler->ProfileFor(entry.node)->open_nanos += entry.wall_nanos;
      }
      return Result<TablePtr>(std::move(entry.table));
    }
    // A branch the wave did not premount (a cache-scan whose entry vanished,
    // a second scan of an actual table) mounts here, through the same
    // admission step, charging the clock directly.
    DEX_ASSIGN_OR_RETURN(const bool admitted, admission.Open(0));
    if (!admitted) {
      return Result<TablePtr>(std::make_shared<Table>(table, MakeDataSchema()));
    }
    DEX_ASSIGN_OR_RETURN(TablePtr mounted,
                         mounter_->Mount(table, uri, pred, &stats->mount, qctx,
                                         &opts.pruning));
    if (admission.sharded()) {
      const uint64_t nanos = admission.Gather(table, uri, false, &mounted);
      disk->ChargeDelay(nanos);
      stats->net_sim_nanos += nanos;
    }
    return admission.Admit(table, uri, std::move(mounted), 0);
  };
  ctx.cache_fn = [this](const std::string& table, const std::string& uri) {
    return mounter_->CacheLookup(table, uri);
  };

  // ---- Metadata-only query: the first stage of execution is naturally
  // enough and the query is answered without any actual data ingestion.
  if (!split.references_actual) {
    stats->stage1_only = true;
    const uint64_t t0 = NowNanos();
    TablePtr result;
    {
      obs::TraceSpan span("stage1", "query");
      span.AddArg("stage1_only", uint64_t{1});
      DEX_ASSIGN_OR_RETURN(result, ExecutePlan(split.plan, &ctx));
      span.AddArg("rows", result->num_rows());
    }
    stats->stage1_nanos = NowNanos() - t0;
    stats->exec = ctx.stats;
    if (profiler != nullptr) profiler->AddRoot("stage 1 (metadata only)", split.plan);
    return result;
  }

  // ---- Stage 1: execute Q_f (when the query references metadata at all).
  TablePtr qf_result;
  std::vector<std::string> files;
  if (split.qf != nullptr) {
    stats->split = true;
    const uint64_t t0 = NowNanos();
    {
      obs::TraceSpan span("stage1", "query");
      DEX_ASSIGN_OR_RETURN(qf_result, ExecutePlan(split.qf, &ctx));
      span.AddArg("rows", qf_result->num_rows());
    }
    stats->stage1_nanos = NowNanos() - t0;
    if (profiler != nullptr) profiler->AddRoot("stage 1 (Q_f)", split.qf);
    DEX_ASSIGN_OR_RETURN(files, FilesOfInterest(qf_result));
  } else {
    // Without metadata restriction every available file is "relevant".
    // (AllUris already excludes quarantined files.)
    files = registry_->AllUris();
  }
  // Quarantined files can never be mounted; drop them from the files of
  // interest before planning so a permanently bad file is skipped for free
  // instead of failing (or stalling) every query that touches its stream.
  {
    const size_t before = files.size();
    files.erase(std::remove_if(files.begin(), files.end(),
                               [this](const std::string& uri) {
                                 return registry_->IsQuarantined(uri);
                               }),
                files.end());
    stats->files_quarantined = before - files.size();
  }
  // Files owned by a dead shard cannot be ingested at all: drop them at
  // planning time — before the rewrite builds their branches — so the query
  // degrades to the same deterministic partial-results path a governance
  // cutoff uses, instead of stalling on a link that refuses every transfer.
  if (sharded && shards->HasDeadShards()) {
    const size_t before = files.size();
    files.erase(std::remove_if(files.begin(), files.end(),
                               [&](const std::string& uri) {
                                 return !shards->IsShardAlive(
                                     shards->ShardOf(uri, num_shards));
                               }),
                files.end());
    stats->files_skipped_shard = before - files.size();
    if (stats->files_skipped_shard > 0) {
      stats->is_partial = true;
      obs::Tracer::Instant(
          "shard_skip", "shard",
          {{"files_skipped_shard",
            std::to_string(stats->files_skipped_shard)}});
    }
  }
  stats->files_of_interest = files.size();

  // ---- Run-time query optimization phase. The span closes where
  // rewrite_nanos stops counting (or at any early return on abort/error).
  const uint64_t t_rw = NowNanos();
  std::optional<obs::TraceSpan> rewrite_span;
  rewrite_span.emplace("rewrite", "query");
  rewrite_span->AddArg("files_of_interest", static_cast<uint64_t>(files.size()));
  const ExprPtr d_predicate = FindActualScanPredicate(split.plan, *catalog);
  DEX_ASSIGN_OR_RETURN(std::vector<FileDecision> decisions,
                       DecideFiles(files, d_predicate, opts));
  for (const FileDecision& d : decisions) {
    switch (d.action) {
      case FileDecision::Action::kMount:
        ++stats->files_planned_mount;
        break;
      case FileDecision::Action::kCacheScan:
        ++stats->files_planned_cache;
        break;
      case FileDecision::Action::kSkip:
        ++stats->files_pruned;
        break;
    }
  }
  for (const FileDecision& d : decisions) {
    if (d.action == FileDecision::Action::kCacheScan) admission.Pin(d.uri);
  }

  // Informativeness at the breakpoint. The stage-1-harvested record-window
  // index backs the estimate when Q_f carries no record-level columns.
  DEX_ASSIGN_OR_RETURN(
      stats->breakpoint,
      EstimateInformativeness(qf_result, files, *registry_, cache_, d_predicate,
                              opts.model, info_index_));
  stats->breakpoint.files_pruned = stats->files_pruned;
  stats->breakpoint_evaluated = true;
  if (callback != nullptr &&
      callback(stats->breakpoint) == BreakpointDecision::kAbort) {
    return Status::Aborted("query aborted by the explorer at the breakpoint");
  }

  PlanPtr union_node;
  DEX_ASSIGN_OR_RETURN(PlanPtr stage2_plan,
                       RewriteStage2Impl(split.plan, kQfResultId, decisions,
                                         &union_node, catalog, opts));

  // Named results available to stage 2.
  if (qf_result != nullptr) ctx.named_results[kQfResultId] = qf_result;
  // Empty-relation placeholders (one per actual table) for the zero-files
  // case; fix up the result-scan schemas too.
  std::function<Status(const PlanPtr&)> fix_empties =
      [&](const PlanPtr& node) -> Status {
    if (node->kind == PlanKind::kResultScan &&
        node->result_id.rfind(kEmptyResultId, 0) == 0) {
      const std::string table = node->result_id.substr(strlen(kEmptyResultId) + 1);
      DEX_ASSIGN_OR_RETURN(TablePtr base, catalog->GetTable(table));
      auto empty = std::make_shared<Table>(table, base->schema());
      ctx.named_results[node->result_id] = empty;
      node->output_schema = base->schema();
    }
    for (const PlanPtr& c : node->children) {
      DEX_RETURN_NOT_OK(fix_empties(c));
    }
    return Status::OK();
  };
  DEX_RETURN_NOT_OK(fix_empties(stage2_plan));
  DEX_RETURN_NOT_OK(AnalyzePlan(stage2_plan, *catalog));
  if (rewrite_span.has_value()) {
    rewrite_span->AddArg("planned_mount",
                         static_cast<uint64_t>(stats->files_planned_mount));
    rewrite_span->AddArg("planned_cache",
                         static_cast<uint64_t>(stats->files_planned_cache));
    rewrite_span->AddArg("pruned", static_cast<uint64_t>(stats->files_pruned));
    rewrite_span.reset();
  }
  stats->rewrite_nanos = NowNanos() - t_rw;

  // Grouping pushdown: whether the plan allows it is decided once, here;
  // whether the data does, after the wave. `fallback` says why an eligible
  // query ran the joined plan instead.
  std::optional<PartialAggPlan> pushdown;
  std::string fallback;
  if (opts.pruning.use_simd_kernels && union_node != nullptr) {
    pushdown = FindPartialAggPlan(stage2_plan);
    if (pushdown.has_value() &&
        (pushdown->union_node != union_node.get() ||
         ctx.named_results.count(pushdown->metadata->result_id) == 0)) {
      pushdown.reset();
    }
  }

  // ---- Stage 2: multi-stage (batched) or single-shot.
  const uint64_t t2 = NowNanos();
  std::optional<obs::TraceSpan> stage2_span;
  stage2_span.emplace("stage2", "query");
  const bool batched = opts.mount_batch_size > 0 && union_node != nullptr &&
                       union_node->kind == PlanKind::kUnion &&
                       union_node->children.size() > opts.mount_batch_size;
  if (pushdown.has_value()) {
    const auto not_mount = [](const PlanPtr& b) { return b->kind != PlanKind::kMount; };
    if (batched) {
      fallback = "batched ingestion (mount_batch_size)";
    } else if (std::any_of(union_node->children.begin(),
                           union_node->children.end(), not_mount)) {
      fallback = "a cache-scan branch";
    } else {
      const Table& m = *ctx.named_results.at(pushdown->metadata->result_id);
      const Column& key = *m.column(static_cast<size_t>(pushdown->build_key));
      for (size_t r = 0; r < m.num_rows() && fallback.empty(); ++r) {
        if (!pushdown->build_rows.try_emplace(key.GetString(r), r).second) {
          fallback = "duplicate join keys on the metadata side";
        }
      }
    }
  }
  const PartialAggPlan* wave_pushdown =
      pushdown.has_value() && fallback.empty() ? &*pushdown : nullptr;
  if (batched) {
    // Ingest the union's branches in batches, with a breakpoint after each.
    DEX_ASSIGN_OR_RETURN(TablePtr base, catalog->GetTable(kDataTableName));
    auto buffer = std::make_shared<Table>(kIngestedResultId, base->schema());
    const size_t batch = opts.mount_batch_size;
    const size_t num_batches =
        (union_node->children.size() + batch - 1) / batch;
    for (size_t b = 0; b < num_batches; ++b) {
      // Clean cancellation point between ingestion batches: nothing of the
      // aborted query survives except cache/quarantine entries already
      // committed, which are consistent on their own.
      DEX_RETURN_NOT_OK(qctx->CheckInterrupt());
      std::vector<PlanPtr> group(
          union_node->children.begin() + static_cast<long>(b * batch),
          union_node->children.begin() +
              static_cast<long>(std::min((b + 1) * batch,
                                         union_node->children.size())));
      PlanPtr sub = MakeUnion(std::move(group));
      DEX_RETURN_NOT_OK(AnalyzePlan(sub, *catalog));
      obs::TraceSpan batch_span("ingest_batch", "query");
      batch_span.AddArg("batch", static_cast<uint64_t>(b + 1));
      // One wave per ingestion batch: each batch's mounts overlap, the
      // breakpoint between batches stays a clean barrier.
      DEX_RETURN_NOT_OK(PremountUnion(sub, workers, priority, stats,
                                      &premounted, &admission, qctx,
                                      &opts.pruning, nullptr));
      DEX_ASSIGN_OR_RETURN(TablePtr part, ExecutePlan(sub, &ctx));
      if (profiler != nullptr) {
        profiler->AddRoot("stage 2 ingestion (batch " + std::to_string(b + 1) +
                              ")",
                          sub);
      }
      DEX_RETURN_NOT_OK(buffer->AppendTable(*part));
      if (callback != nullptr) {
        BreakpointInfo progress = stats->breakpoint;
        progress.batch_index = b + 1;
        progress.num_batches = num_batches;
        progress.rows_ingested_so_far = buffer->num_rows();
        if (callback(progress) == BreakpointDecision::kAbort) {
          return Status::Aborted("query aborted during multi-stage ingestion");
        }
      }
    }
    ctx.named_results[kIngestedResultId] = buffer;
    // Splice the buffer in place of the union and run the rest of the plan.
    std::function<PlanPtr(const PlanPtr&)> splice =
        [&](const PlanPtr& node) -> PlanPtr {
      if (node == union_node) {
        return MakeResultScan(kIngestedResultId, base->schema());
      }
      auto copy = std::make_shared<LogicalPlan>(*node);
      copy->children.clear();
      for (const PlanPtr& c : node->children) copy->children.push_back(splice(c));
      return copy;
    };
    stage2_plan = splice(stage2_plan);
    DEX_RETURN_NOT_OK(AnalyzePlan(stage2_plan, *catalog));
  } else {
    DEX_RETURN_NOT_OK(PremountUnion(union_node, workers, priority, stats,
                                    &premounted, &admission, qctx,
                                    &opts.pruning, wave_pushdown));
    if (wave_pushdown != nullptr) {
      TablePtr aggregated;
      fallback = MergePartials(*wave_pushdown, premounted, &ctx, profiler,
                               &aggregated);
      if (fallback.empty()) {
        ctx.precomputed[wave_pushdown->aggregate] = std::move(aggregated);
      }
    }
  }
  if (!fallback.empty()) {
    ctx.stats.partial_agg_fallbacks += 1;
    stats->partial_agg_fallback = fallback;
    if (profiler != nullptr) {
      profiler->ProfileFor(pushdown->aggregate)->note =
          "grouping pushdown fell back: " + fallback;
    }
  }
  DEX_ASSIGN_OR_RETURN(TablePtr result, ExecutePlan(stage2_plan, &ctx));
  if (profiler != nullptr) profiler->AddRoot("stage 2", stage2_plan);
  if (stage2_span.has_value()) {
    stage2_span->AddArg("rows", result->num_rows());
    stage2_span.reset();
  }
  stats->stage2_nanos = NowNanos() - t2;
  stats->exec = ctx.stats;
  return result;
}

}  // namespace dex

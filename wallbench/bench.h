// Shared declarations of the dex wall-clock benchmark (see README.md).
//
// The benchmark drives dex::Database through its public API only. It times
// every call with the steady clock, checks every answer against a reference
// configuration, and, in the traced run, folds the program's own spans plus
// the spans of a timing FormatAdapter decorator into per-layer numbers.
#ifndef DEX_WALLBENCH_BENCH_H_
#define DEX_WALLBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "core/database.h"
#include "obs/trace.h"

namespace dexbench {

/// Load shape shared by every workload: one closed-loop client, four lanes
/// everywhere (the benchmark host has four cores).
inline constexpr size_t kLanes = 4;

/// The repository every workload starts from: the default 144-file layout
/// (6 stations x 3 channels x 8 days at 1 Hz). Its seed is fixed; the
/// workload seed only picks the query sequence.
inline constexpr int kStations = 6;
inline constexpr int kChannels = 3;
inline constexpr int kDays = 8;
inline constexpr uint64_t kRepoSeed = 42;

/// Timed-phase answers folded into RunStats::prefix_digest: at least one
/// full scan round and several explore sessions and ingest days.
inline constexpr size_t kPrefixQueries = 50;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = ".bench_data";
  std::string commit = "unknown";
};

/// Size of the generated repository (stamped on every output row).
struct RepoInfo {
  std::string root;
  size_t files = 0;
  uint64_t samples = 0;
  uint64_t bytes = 0;
};

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// FNV-1a digest of a result table: schema types plus every cell.
uint64_t DigestTable(const dex::Table& table);

/// The reference configuration every answer is compared against: one lane,
/// every PruningOptions switch off, no cache.
dex::DatabaseOptions ReferenceOptions();

/// Opens `root` or exits the process with a message (benchmark set-up
/// failures are not workload failures).
std::unique_ptr<dex::Database> MustOpen(const std::string& root,
                                        const dex::DatabaseOptions& options);

/// Per-name totals of drained spans: count, summed duration and summed self
/// time (duration minus the union of the child spans' intervals).
struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_nanos = 0;
  uint64_t self_nanos = 0;
};

class SpanLedger {
 public:
  /// Folds `spans` (one drain of the global tracer) into the per-name totals
  /// and keeps up to a bounded number of them for the trace file.
  void Fold(std::vector<dex::obs::Span> spans);
  const SpanTotals& Get(const std::string& name) const;
  /// Writes the kept spans as a Chrome trace. Returns false on failure.
  bool Write(const std::string& path) const;

 private:
  std::map<std::string, SpanTotals> totals_;
  std::vector<dex::obs::Span> kept_;
};

/// Wraps the mSEED adapter so the program's extraction calls show up as
/// benchmark spans nested under the program's own `mount` / `scan_task`
/// spans. Passed in through DatabaseOptions::format.
std::shared_ptr<dex::FormatAdapter> MakeTimedMseedAdapter();

/// Self time in ms of the join and aggregate operators of one
/// `EXPLAIN ANALYZE` rendering.
struct OperatorTimes {
  double join_ms = 0;
  double aggregate_ms = 0;
};
OperatorTimes ParseExplainAnalyze(const std::string& text);

/// Everything one workload run measured. Latencies are wall clock.
struct RunStats {
  std::vector<double> query_ms;      // timed-phase queries
  std::map<std::string, std::vector<double>> shape_ms;  // the same, by shape
  double timed_wall_s = 0;           // wall time of the timed phase
  std::vector<double> setup_s;       // Open() through the warm-up pass
  std::vector<double> refresh_ms;    // ingest: Refresh() per landed day
  std::vector<double> first_answer_ms;  // ingest: landing to first answer
  std::vector<double> restart_s;     // ingest: re-open through first answer
  uint64_t attempted = 0;
  uint64_t failed = 0;               // query returned an error
  uint64_t partial = 0;              // is_partial answers
  uint64_t wrong = 0;                // digest differs from the reference
  uint64_t sim_io_nanos = 0;         // summed QueryStats::sim_io_nanos
  // The first kPrefixQueries answers of the timed phase: a run's length
  // varies with the host's speed, its first questions do not.
  uint64_t prefix_digest = dex::kFnv1aOffsetBasis;  // fold of their digests
  uint64_t prefix_sim_io_nanos = 0;
  uint64_t cache_capacity_bytes = 0;  // LRU bound; 0 = kNone or kAll
  uint64_t working_set_bytes = 0;    // explore: one session's files
  // Answers to check once the timed phase is over: sql -> digests seen.
  std::vector<std::pair<std::string, uint64_t>> answers;

  // Layer accounting over the timed-phase queries (QueryStats sums).
  uint64_t plan_nanos = 0, stage1_nanos = 0, rewrite_nanos = 0,
           stage2_nanos = 0, wall_nanos = 0;
  uint64_t files_of_interest = 0, files_cached = 0;
  uint64_t samples_decoded = 0, records_skipped_zonemap = 0,
           records_mounted = 0, zonemap_fallbacks = 0;
  uint64_t kernel_batches = 0, scalar_batches = 0;
  uint64_t stage2_nanos_with_tasks = 0;  // stage-2 wall of queries with a wave
  // Lifecycle counters (ingest).
  uint64_t refresh_files_scanned = 0, refresh_files_reused = 0;
  uint64_t cache_bytes_persisted = 0, cache_entries_recovered = 0;
  uint64_t restarts = 0;
  // Traced run only.
  SpanLedger query_spans;      // spans drained after timed-phase queries
  SpanLedger lifecycle_spans;  // open / warm-up / refresh spans
  std::map<std::string, std::string> shapes;  // shape -> one sql of it
  OperatorTimes explained;  // per query, weighted by shape counts
};

/// The closed-loop client: asks one question, waits for the answer, digests
/// it, and books latency and layer statistics into a RunStats.
class Client {
 public:
  Client(RunStats* stats, bool traced) : stats_(stats), traced_(traced) {}

  /// Sets the database subsequent questions go to (not owned).
  void Attach(dex::Database* db) { db_ = db; }

  /// Runs one timed-phase query. Returns its wall latency in ms.
  double Ask(const std::string& sql, const std::string& shape);

  /// Runs a query outside the timed phase (warm-up). Exits on failure:
  /// a warm-up that fails means the workload itself is broken.
  void Warm(const std::string& sql);

  /// Drains pending spans into the lifecycle ledger (traced run only).
  void DrainLifecycle();

  /// Traced run, after the timed phase: runs `EXPLAIN ANALYZE` once per
  /// query shape seen and books the join / aggregate operator self times,
  /// weighted by how often each shape ran.
  void ExplainShapes();

 private:
  RunStats* stats_;
  bool traced_;
  dex::Database* db_ = nullptr;
};

/// Workloads. Each fills `stats` for a run of about `args.seconds`.
void RunExplore(const Args& args, const RepoInfo& repo, RunStats* stats);
void RunScan(const Args& args, const RepoInfo& repo, RunStats* stats);
void RunIngest(const Args& args, const RepoInfo& repo, RunStats* stats);

/// Re-runs every distinct answered query on a reference-configuration
/// database over `reference_root` and counts mismatching digests.
void CheckAnswers(const std::string& reference_root, RunStats* stats);

}  // namespace dexbench

#endif  // DEX_WALLBENCH_BENCH_H_

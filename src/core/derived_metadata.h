#ifndef DEX_CORE_DERIVED_METADATA_H_
#define DEX_CORE_DERIVED_METADATA_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "core/stats_collector.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace dex {

/// \brief Derived metadata collected "as a side-effect of ALi" (paper §5) —
/// a StatsCollector fed by the mounter through the unified harvesting seam.
///
/// Every mounted record contributes per-record summary statistics
/// (min/max/mean/sum/count of sample values) to the DM metadata table —
/// without the explorer noticing and without a separate pass over the data.
/// Two uses are implemented:
///  - DM is a regular metadata table in the catalog, so later explorative
///    queries can SELECT from it (and it can even join into Q_f);
///  - value-range pruning (PruningOptions::file_level): when a query's
///    pushed-down selection bounds D.sample_value, files whose complete
///    per-record stats exclude the range are skipped before mounting.
///
/// The mounter computes each record's RecordValueStats once (from decoded
/// samples, or synthesized from the record's zone map when pruning skipped
/// the decode) and broadcasts them, so DM's *content* is invariant under
/// zone-map pruning.
///
/// DM is also a stage-1 collector: a file whose size/mtime identity changed
/// since its stats were harvested (rewritten in place, then Refresh) loses
/// them, so pruning never answers from bytes that no longer exist. (Its old
/// DM table rows stay.)
///
/// Thread-safe: concurrent mount tasks may RecordMounted simultaneously.
/// Under parallel mounting the *row order* of the DM table depends on task
/// interleaving; the per-file min/max aggregates (what pruning reads) and
/// the row *set* do not. Queries over DM never run concurrently with mount
/// tasks — the parallel premount completes before the plan executes.
class DerivedMetadata : public StatsCollector {
 public:
  /// Registers the DM table in `catalog` (kind kMetadata).
  static Result<std::unique_ptr<DerivedMetadata>> Create(Catalog* catalog);

  std::string name() const override { return "derived"; }

  /// Drops the stats of a file whose identity changed since they were
  /// harvested, and records the identity of every scanned file.
  void FileScanned(const mseed::FileMeta& file,
                   const std::vector<mseed::RecordMeta>& records) override;

  /// Records stats for one mounted record. Idempotent per (uri, record_id)
  /// until the file's identity changes.
  /// `expected_records` is the file's record count from the repository scan
  /// (pruning activates only once all records of a file have been seen).
  Status RecordMounted(const std::string& uri, int64_t record_id,
                       const mseed::RecordHeader& header,
                       const RecordValueStats& values,
                       const std::vector<mseed::Steim1::FrameStat>* frames,
                       uint32_t expected_records) override;

  /// True when summary stats cover every record of `uri`.
  bool HasCompleteFile(const std::string& uri) const;

  /// False only when it is *provable* from complete stats that no sample of
  /// `uri` lies in [lo, hi]. Unknown files return true (must mount).
  bool MayMatchValueRange(const std::string& uri, double lo, double hi) const;

  /// The queryable DM table.
  const TablePtr& table() const { return table_; }

  size_t num_records_covered() const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    for (const auto& [uri, fs] : file_stats_) n += fs.records.size();
    return n;
  }

 private:
  explicit DerivedMetadata(TablePtr table) : table_(std::move(table)) {}

  bool HasCompleteFileLocked(const std::string& uri) const;

  struct FileStats {
    uint64_t size_bytes = 0;  // identity at the last scan
    int64_t mtime_ms = 0;
    std::unordered_set<int64_t> records;  // record ids seen (idempotency)
    uint32_t expected_records = 0;
    double min_value = 0;
    double max_value = 0;
  };

  mutable std::mutex mu_;
  TablePtr table_;
  std::unordered_map<std::string, FileStats> file_stats_;
};

}  // namespace dex

#endif  // DEX_CORE_DERIVED_METADATA_H_

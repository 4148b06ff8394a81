#ifndef DEX_CORE_ZONE_MAP_H_
#define DEX_CORE_ZONE_MAP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/stats_collector.h"
#include "mseed/reader.h"
#include "mseed/steim.h"

namespace dex {

/// \brief Per-record and per-Steim-frame min/max zone maps, harvested for
/// free while mount decodes records anyway (StatsCollector::RecordMounted),
/// and consulted by later mounts to skip decode work the predicate has
/// already excluded.
///
/// Two pruning granularities:
///  - *record-level*: a record whose [min,max] value zone is disjoint from
///    the predicate's sample_value bounds is dropped before its payload is
///    touched (it keeps a positional placeholder slot so record ids stay
///    stable, and its DM row is synthesized from the zone so derived
///    metadata is invariant under pruning);
///  - *frame-level* (Steim1 only): per-64-byte-frame stats let the decoder
///    unpack only frames that may contain matching samples, resuming the
///    integration chain from each frame's recorded entry value.
///
/// ## Safety ladder
/// A zone map is a performance hint, never a correctness dependency:
///  1. FileScanned drops a file's zones when its size/mtime identity
///     changed (stale after rewrite).
///  2. Persisted zone maps are two checksummed columnar tables
///     (io/columnar_file.h) whose decoded rows are checked for plausibility;
///     any corruption, format violation or implausible row discards the
///     whole persisted set (counted, logged).
///  3. Even a wrong-but-plausible frame zone is caught at decode time: the
///     selective Steim1 decode verifies the entry/exit integration chain
///     and falls back to a full decode on mismatch (PruneStats::fallbacks).
/// The worst a bad zone map can cost is decode work, never wrong rows.
///
/// Thread-safe: stage-1 events arrive from the scan coordinator, record
/// zones from concurrent mount tasks, pruners from concurrent query
/// sessions. One mutex guards everything; MakePruner snapshots (copies) the
/// file's zones so a pruner never races later updates.
class ZoneMapStore : public StatsCollector {
 public:
  /// Value zone of one record, plus its per-frame stats when the record's
  /// payload was Steim1 and the decode harvested them.
  struct RecordZone {
    RecordValueStats values;
    std::vector<mseed::Steim1::FrameStat> frames;
  };

  struct Stats {
    uint64_t files = 0;             // files with at least one record zone
    uint64_t records = 0;           // record zones held
    uint64_t frames = 0;            // frame stats held
    uint64_t persisted_loads = 0;   // files restored from disk
    uint64_t stale_dropped = 0;     // files dropped on identity change
    uint64_t corrupt_discarded = 0; // persisted sets discarded on corruption
  };

  ZoneMapStore() = default;

  // StatsCollector ------------------------------------------------------
  std::string name() const override { return "zonemap"; }
  void FileScanned(const mseed::FileMeta& file,
                   const std::vector<mseed::RecordMeta>& records) override;
  Status RecordMounted(const std::string& uri, int64_t record_id,
                       const mseed::RecordHeader& header,
                       const RecordValueStats& values,
                       const std::vector<mseed::Steim1::FrameStat>* frames,
                       uint32_t expected_records) override;

  // Query side ----------------------------------------------------------

  /// A pruner restricting decode to samples that may lie in [lo, hi],
  /// backed by a snapshot of `uri`'s current zones. Unknown records are
  /// decoded fully with frame-stat harvest (so the next query can prune).
  /// Returns null when the store holds nothing for `uri` and `harvest` is
  /// also off — no pruner beats a no-op pruner.
  std::unique_ptr<mseed::RecordPruner> MakePruner(const std::string& uri,
                                                  double lo, double hi,
                                                  bool record_level,
                                                  bool frame_level,
                                                  bool harvest = true) const;

  /// Record-level zone lookup, used to synthesize the DM row of a record
  /// whose decode was skipped. False when no zone is held.
  bool GetRecordStats(const std::string& uri, int64_t record_id,
                      RecordValueStats* out) const;

  /// True when every record of `uri` has a zone (given stage 1 reported
  /// `expected_records` for it).
  bool HasCompleteFile(const std::string& uri) const;

  // Persistence ---------------------------------------------------------

  /// Writes all zones to `path` (atomic temp+rename) as two columnar
  /// tables: ZONEMAP_RECORDS, one row per record zone (uri, size_bytes,
  /// mtime_ms, expected_records, record_id, min, max, sum, count, n_frames;
  /// uris sorted, records by id), and ZONEMAP_FRAMES, one row per frame stat
  /// (first_sample, count, min, max, entry; in record order). No-op when
  /// nothing changed since the last save/load.
  Status SaveIfDirty(const std::string& path);

  /// Restores zones from `path`. Missing file is OK (cold start). Any
  /// corruption — a codec violation, n_frames not summing to the frame
  /// rows, a record id repeated within a uri, file identity varying within
  /// a uri, a 32-bit field out of range — discards the whole persisted set
  /// and returns OK: zone maps are hints, recovery must never block opening
  /// the database.
  Status Load(const std::string& path);

  Stats GetStats() const;

 private:
  struct FileZones {
    uint64_t size_bytes = 0;  // identity at harvest time
    int64_t mtime_ms = 0;
    uint32_t expected_records = 0;
    std::map<int64_t, RecordZone> records;  // ordered for determinism
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, FileZones> files_;
  bool dirty_ = false;
  uint64_t persisted_loads_ = 0;
  uint64_t stale_dropped_ = 0;
  uint64_t corrupt_discarded_ = 0;
};

}  // namespace dex

#endif  // DEX_CORE_ZONE_MAP_H_

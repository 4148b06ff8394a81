#ifndef DEX_CORE_METADATA_SNAPSHOT_H_
#define DEX_CORE_METADATA_SNAPSHOT_H_

#include <string>

#include "common/result.h"
#include "mseed/scanner.h"

namespace dex {

/// Persistent metadata catalog ("instant-on", after the author's companion
/// paper: Kargin et al., "Instant-On Scientific Data Warehouses — Lazy ETL
/// for Data-Intensive Research", BIRTE 2012).
///
/// ALi already avoids loading actual data; the remaining up-front cost is
/// scanning every file's headers at Open(). A snapshot amortizes that across
/// sessions: metadata is saved at Open() and on every Refresh(), and later
/// opens only stat() files, re-scanning just the ones whose (size, mtime)
/// changed.

/// \brief Writes `scan` to `path` as a two-table columnar file
/// (io/columnar_file.h) holding the F and R tables, replaced atomically.
Status SaveSnapshot(const mseed::ScanResult& scan, const std::string& path);

/// \brief Reads a snapshot written by SaveSnapshot. Any file that is not
/// exactly an F table and an R table of the current schemas — corruption,
/// truncation, an older format — returns Status::Corruption.
Result<mseed::ScanResult> LoadSnapshot(const std::string& path);

}  // namespace dex

#endif  // DEX_CORE_METADATA_SNAPSHOT_H_

#ifndef DEX_MSEED_SCANNER_H_
#define DEX_MSEED_SCANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "mseed/record.h"

namespace dex::mseed {

/// \brief File-level metadata (one row of the paper's table F per file).
struct FileMeta {
  std::string uri;       // the file's path; primary key of F
  std::string network;
  std::string station;
  std::string channel;
  std::string location;
  uint64_t size_bytes = 0;
  int64_t mtime_ms = 0;
  uint32_t num_records = 0;
};

/// \brief Record-level metadata (one row of table R per record).
struct RecordMeta {
  std::string uri;
  int64_t record_id = 0;  // index of the record within its file
  int64_t start_time_ms = 0;
  int64_t end_time_ms = 0;
  double sample_rate_hz = 0.0;
  uint32_t num_samples = 0;
};

/// \brief The scanner's output: everything the metadata stage needs.
struct ScanResult {
  std::vector<FileMeta> files;
  std::vector<RecordMeta> records;
  uint64_t total_bytes = 0;
};

/// \brief Scans a single file — the "load only metadata up-front" step of
/// ALi, at the granularity the parallel stage-1 scanner dispatches.
///
/// Only headers are parsed; no waveform is decompressed. Files whose station
/// differs between records keep the first record's identification at file
/// level (matching how a file-per-channel repository behaves). Repository
/// walks live behind FormatAdapter::ScanRepository (core/format_adapter).
Result<ScanResult> ScanFile(const std::string& uri);

}  // namespace dex::mseed

#endif  // DEX_MSEED_SCANNER_H_

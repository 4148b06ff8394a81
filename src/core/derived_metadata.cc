#include "core/derived_metadata.h"

#include <algorithm>

#include "core/seismic_schema.h"

namespace dex {

Result<std::unique_ptr<DerivedMetadata>> DerivedMetadata::Create(Catalog* catalog) {
  auto table = std::make_shared<Table>(kDerivedTableName, MakeDerivedSchema());
  std::unique_ptr<DerivedMetadata> dm(new DerivedMetadata(table));
  DEX_RETURN_NOT_OK(catalog->AddTable(std::move(table), TableKind::kMetadata));
  return dm;
}

Status DerivedMetadata::RecordMounted(
    const std::string& uri, int64_t record_id,
    const mseed::RecordHeader& header, const RecordValueStats& values,
    const std::vector<mseed::Steim1::FrameStat>* frames,
    uint32_t expected_records) {
  (void)header;
  (void)frames;
  std::lock_guard<std::mutex> lock(mu_);
  FileStats& fs = file_stats_[uri];
  if (!fs.records.insert(record_id).second) return Status::OK();

  const double n = static_cast<double>(values.count);
  DEX_RETURN_NOT_OK(table_->AppendRow(
      {Value::String(uri), Value::Int64(record_id), Value::Double(values.min),
       Value::Double(values.max), Value::Double(n > 0 ? values.sum / n : 0.0),
       Value::Double(values.sum), Value::Int64(static_cast<int64_t>(n))}));

  if (fs.records.size() == 1) {
    fs.min_value = values.min;
    fs.max_value = values.max;
  } else {
    fs.min_value = std::min(fs.min_value, values.min);
    fs.max_value = std::max(fs.max_value, values.max);
  }
  fs.expected_records = expected_records;
  return Status::OK();
}

void DerivedMetadata::FileScanned(const mseed::FileMeta& file,
                                  const std::vector<mseed::RecordMeta>& records) {
  (void)records;
  std::lock_guard<std::mutex> lock(mu_);
  FileStats& fs = file_stats_[file.uri];
  if (fs.size_bytes != file.size_bytes || fs.mtime_ms != file.mtime_ms) {
    // Rewritten since its stats were harvested (or first seen): the stats
    // describe bytes that no longer exist.
    fs = FileStats{};
    fs.size_bytes = file.size_bytes;
    fs.mtime_ms = file.mtime_ms;
  }
  fs.expected_records = file.num_records;
}

bool DerivedMetadata::HasCompleteFile(const std::string& uri) const {
  std::lock_guard<std::mutex> lock(mu_);
  return HasCompleteFileLocked(uri);
}

bool DerivedMetadata::HasCompleteFileLocked(const std::string& uri) const {
  auto it = file_stats_.find(uri);
  return it != file_stats_.end() && it->second.expected_records > 0 &&
         it->second.records.size() >= it->second.expected_records;
}

bool DerivedMetadata::MayMatchValueRange(const std::string& uri, double lo,
                                         double hi) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!HasCompleteFileLocked(uri)) return true;
  const FileStats& fs = file_stats_.at(uri);
  return fs.max_value >= lo && fs.min_value <= hi;
}

}  // namespace dex

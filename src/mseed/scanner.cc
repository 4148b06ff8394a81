#include "mseed/scanner.h"

#include "io/file_io.h"
#include "mseed/reader.h"

namespace dex::mseed {

Result<ScanResult> ScanFile(const std::string& uri) {
  ScanResult out;
  DEX_ASSIGN_OR_RETURN(uint64_t size, FileSize(uri));
  DEX_ASSIGN_OR_RETURN(int64_t mtime, FileMtimeMillis(uri));
  DEX_ASSIGN_OR_RETURN(std::vector<RecordInfo> infos, Reader::ScanHeaders(uri));

  FileMeta fm;
  fm.uri = uri;
  fm.size_bytes = size;
  fm.mtime_ms = mtime;
  fm.num_records = static_cast<uint32_t>(infos.size());
  if (!infos.empty()) {
    fm.network = infos[0].header.network;
    fm.station = infos[0].header.station;
    fm.channel = infos[0].header.channel;
    fm.location = infos[0].header.location;
  }
  out.files.push_back(fm);
  out.total_bytes = size;

  for (size_t i = 0; i < infos.size(); ++i) {
    const RecordInfo& info = infos[i];
    RecordMeta rm;
    rm.uri = uri;
    rm.record_id = static_cast<int64_t>(i);
    rm.start_time_ms = info.header.start_time_ms;
    rm.end_time_ms = info.header.EndTimeMs();
    rm.sample_rate_hz = info.header.sample_rate_hz;
    rm.num_samples = info.header.num_samples;
    out.records.push_back(std::move(rm));
  }
  return out;
}

}  // namespace dex::mseed

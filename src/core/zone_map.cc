#include "core/zone_map.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "io/columnar_file.h"
#include "io/file_io.h"
#include "obs/flight_recorder.h"
#include "storage/table.h"

namespace dex {

namespace {

// The persisted set is two columnar tables (io/columnar_file.h): one row
// per record zone, and one row per frame stat, in record order.
constexpr char kRecordZoneTable[] = "ZONEMAP_RECORDS";
constexpr char kFrameZoneTable[] = "ZONEMAP_FRAMES";

SchemaPtr MakeRecordZoneSchema() {
  auto s = std::make_shared<Schema>();
  const std::string q = kRecordZoneTable;
  s->AddField({"uri", DataType::kString, q});
  s->AddField({"size_bytes", DataType::kInt64, q});
  s->AddField({"mtime_ms", DataType::kInt64, q});
  s->AddField({"expected_records", DataType::kInt64, q});
  s->AddField({"record_id", DataType::kInt64, q});
  s->AddField({"min", DataType::kDouble, q});
  s->AddField({"max", DataType::kDouble, q});
  s->AddField({"sum", DataType::kDouble, q});
  s->AddField({"count", DataType::kInt64, q});
  s->AddField({"n_frames", DataType::kInt64, q});
  return s;
}

SchemaPtr MakeFrameZoneSchema() {
  auto s = std::make_shared<Schema>();
  const std::string q = kFrameZoneTable;
  for (const char* name : {"first_sample", "count", "min", "max", "entry"}) {
    s->AddField({name, DataType::kInt64, q});
  }
  return s;
}

bool InU32(int64_t v) {
  return v >= 0 && v <= std::numeric_limits<uint32_t>::max();
}

bool InI32(int64_t v) {
  return v >= std::numeric_limits<int32_t>::min() &&
         v <= std::numeric_limits<int32_t>::max();
}

/// The pruner handed to the reader: a snapshot of one file's zones taken
/// under the store mutex, so concurrent zone updates (other sessions
/// mounting the same uri) never race the decode loop.
class SnapshotPruner : public mseed::RecordPruner {
 public:
  SnapshotPruner(std::map<int64_t, ZoneMapStore::RecordZone> zones, double lo,
                 double hi, bool record_level, bool frame_level, bool harvest)
      : zones_(std::move(zones)),
        lo_(lo),
        hi_(hi),
        record_level_(record_level),
        frame_level_(frame_level),
        harvest_(harvest) {}

  mseed::RecordDecodePlan Plan(size_t index,
                               const mseed::RecordHeader& header) override {
    mseed::RecordDecodePlan plan;
    auto it = zones_.find(static_cast<int64_t>(index));
    if (it == zones_.end()) {
      // Unknown record: decode fully, harvesting frame stats so the next
      // query over this file can prune.
      plan.harvest = harvest_;
      return plan;
    }
    const ZoneMapStore::RecordZone& zone = it->second;
    if (record_level_ && zone.values.count > 0 &&
        (zone.values.max < lo_ || zone.values.min > hi_)) {
      plan.skip_record = true;
      return plan;
    }
    if (frame_level_ && !zone.frames.empty() && header.encoding == 1) {
      plan.frames = &zone.frames;  // outlives the read: we own the snapshot
      plan.keep.resize(zone.frames.size());
      bool all = true;
      for (size_t f = 0; f < zone.frames.size(); ++f) {
        const mseed::Steim1::FrameStat& fs = zone.frames[f];
        const bool keep = fs.count > 0 && static_cast<double>(fs.max) >= lo_ &&
                          static_cast<double>(fs.min) <= hi_;
        plan.keep[f] = keep;
        all = all && keep;
      }
      if (all) {
        // Every frame may match: a plain full decode is cheaper than the
        // selective path (no chain verification bookkeeping).
        plan.frames = nullptr;
        plan.keep.clear();
      }
    }
    return plan;
  }

 private:
  const std::map<int64_t, ZoneMapStore::RecordZone> zones_;
  const double lo_, hi_;
  const bool record_level_, frame_level_, harvest_;
};

}  // namespace

void ZoneMapStore::FileScanned(const mseed::FileMeta& file,
                               const std::vector<mseed::RecordMeta>& records) {
  (void)records;
  size_t dropped_records = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(file.uri);
    if (it == files_.end()) {
      FileZones& fz = files_[file.uri];
      fz.size_bytes = file.size_bytes;
      fz.mtime_ms = file.mtime_ms;
      fz.expected_records = file.num_records;
      return;
    }
    FileZones& fz = it->second;
    if (fz.size_bytes != file.size_bytes || fz.mtime_ms != file.mtime_ms) {
      // The file was rewritten since the zones were harvested: they describe
      // bytes that no longer exist. Drop them (safety ladder step 1).
      if (!fz.records.empty()) {
        dropped_records = fz.records.size();
        ++stale_dropped_;
        dirty_ = true;
      }
      fz.records.clear();
      fz.size_bytes = file.size_bytes;
      fz.mtime_ms = file.mtime_ms;
    }
    fz.expected_records = file.num_records;
  }
  if (dropped_records > 0) {
    // Flight-record the drop outside mu_: scan delivery is single-threaded
    // and in enumeration order, so the event stream stays deterministic.
    obs::FlightEvent e;
    e.kind = "zonemap_stale";
    e.detail = "'" + file.uri + "' rewritten; dropped " +
               std::to_string(dropped_records) + " record zones";
    obs::FlightRecorder::Global().Record(std::move(e));
  }
}

Status ZoneMapStore::RecordMounted(
    const std::string& uri, int64_t record_id,
    const mseed::RecordHeader& header, const RecordValueStats& values,
    const std::vector<mseed::Steim1::FrameStat>* frames,
    uint32_t expected_records) {
  (void)header;
  std::lock_guard<std::mutex> lock(mu_);
  FileZones& fz = files_[uri];
  if (fz.expected_records == 0) fz.expected_records = expected_records;
  auto it = fz.records.find(record_id);
  if (it != fz.records.end()) {
    // Re-mount of a known record: only upgrade (add frames a previous
    // harvest-free mount did not collect). Values are re-derived from the
    // same bytes, so first write wins.
    if (it->second.frames.empty() && frames != nullptr && !frames->empty()) {
      it->second.frames = *frames;
      dirty_ = true;
    }
    return Status::OK();
  }
  RecordZone zone;
  zone.values = values;
  if (frames != nullptr) zone.frames = *frames;
  fz.records.emplace(record_id, std::move(zone));
  dirty_ = true;
  return Status::OK();
}

std::unique_ptr<mseed::RecordPruner> ZoneMapStore::MakePruner(
    const std::string& uri, double lo, double hi, bool record_level,
    bool frame_level, bool harvest) const {
  std::map<int64_t, RecordZone> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(uri);
    if (it != files_.end()) snapshot = it->second.records;
  }
  if (snapshot.empty() && !harvest) return nullptr;
  return std::make_unique<SnapshotPruner>(std::move(snapshot), lo, hi,
                                          record_level, frame_level, harvest);
}

bool ZoneMapStore::GetRecordStats(const std::string& uri, int64_t record_id,
                                  RecordValueStats* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(uri);
  if (it == files_.end()) return false;
  auto rit = it->second.records.find(record_id);
  if (rit == it->second.records.end()) return false;
  *out = rit->second.values;
  return true;
}

bool ZoneMapStore::HasCompleteFile(const std::string& uri) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(uri);
  if (it == files_.end()) return false;
  const FileZones& fz = it->second;
  return fz.expected_records > 0 && fz.records.size() == fz.expected_records;
}

Status ZoneMapStore::SaveIfDirty(const std::string& path) {
  std::string out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!dirty_) return Status::OK();
    Table records(kRecordZoneTable, MakeRecordZoneSchema());
    Table frames(kFrameZoneTable, MakeFrameZoneSchema());
    // Deterministic bytes: uris sorted, records already ordered by id.
    std::vector<const std::pair<const std::string, FileZones>*> entries;
    entries.reserve(files_.size());
    for (const auto& kv : files_) {
      if (!kv.second.records.empty()) entries.push_back(&kv);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    const auto rcol = [&](size_t c) { return records.mutable_column(c); };
    const auto fcol = [&](size_t c) { return frames.mutable_column(c); };
    size_t num_frames = 0;
    for (const auto* kv : entries) {
      const FileZones& fz = kv->second;
      for (const auto& [record_id, zone] : fz.records) {
        rcol(0)->AppendString(kv->first);
        rcol(1)->AppendInt64(static_cast<int64_t>(fz.size_bytes));
        rcol(2)->AppendInt64(fz.mtime_ms);
        rcol(3)->AppendInt64(fz.expected_records);
        rcol(4)->AppendInt64(record_id);
        rcol(5)->AppendDouble(zone.values.min);
        rcol(6)->AppendDouble(zone.values.max);
        rcol(7)->AppendDouble(zone.values.sum);
        rcol(8)->AppendInt64(static_cast<int64_t>(zone.values.count));
        rcol(9)->AppendInt64(static_cast<int64_t>(zone.frames.size()));
        for (const mseed::Steim1::FrameStat& fs : zone.frames) {
          fcol(0)->AppendInt64(fs.first_sample);
          fcol(1)->AppendInt64(fs.count);
          fcol(2)->AppendInt64(fs.min);
          fcol(3)->AppendInt64(fs.max);
          fcol(4)->AppendInt64(fs.entry);
        }
        num_frames += zone.frames.size();
      }
    }
    DEX_RETURN_NOT_OK(records.CommitAppendedRows(records.column(0)->size()));
    DEX_RETURN_NOT_OK(frames.CommitAppendedRows(num_frames));
    out = EncodeColumnarTables({&records, &frames});
    dirty_ = false;
  }
  Status s = WriteFileAtomic(path, out);
  if (!s.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    dirty_ = true;  // retry on the next save
  }
  return s;
}

Status ZoneMapStore::Load(const std::string& path) {
  std::string bytes;
  Status read = ReadFileToString(path, &bytes);
  if (!read.ok()) return Status::OK();  // cold start: nothing persisted yet

  // Decode and check into a staging map first; only commit when the whole
  // file validated. Any violation discards everything (safety ladder step
  // 2): zones are hints, a partial restore is not worth reasoning about.
  std::unordered_map<std::string, FileZones> staged;
  Status s = [&]() -> Status {
    DEX_ASSIGN_OR_RETURN(
        std::vector<TablePtr> tables,
        DecodeColumnarTables(bytes,
                             {{kRecordZoneTable, MakeRecordZoneSchema()},
                              {kFrameZoneTable, MakeFrameZoneSchema()}}));
    const Table& records = *tables[0];
    const Table& frames = *tables[1];
    const auto rec = [&](size_t c) -> const Column& {
      return *records.column(c);
    };
    const auto frame = [&](size_t c, size_t row) {
      return frames.column(c)->GetInt64(row);
    };
    size_t next_frame = 0;
    for (size_t row = 0; row < records.num_rows(); ++row) {
      const int64_t expected = rec(3).GetInt64(row);
      const int64_t n_frames = rec(9).GetInt64(row);
      if (!InU32(expected) || n_frames < 0 ||
          static_cast<uint64_t>(n_frames) > frames.num_rows() - next_frame) {
        return Status::Corruption("zone map record row " +
                                  std::to_string(row) + " out of range");
      }
      FileZones probe;
      probe.size_bytes = static_cast<uint64_t>(rec(1).GetInt64(row));
      probe.mtime_ms = rec(2).GetInt64(row);
      probe.expected_records = static_cast<uint32_t>(expected);
      auto [it, fresh] = staged.emplace(rec(0).GetString(row), probe);
      FileZones& fz = it->second;
      if (!fresh && (fz.size_bytes != probe.size_bytes ||
                     fz.mtime_ms != probe.mtime_ms ||
                     fz.expected_records != probe.expected_records)) {
        return Status::Corruption("zone map file identity varies within '" +
                                  it->first + "'");
      }
      RecordZone zone;
      zone.values.min = rec(5).GetDouble(row);
      zone.values.max = rec(6).GetDouble(row);
      zone.values.sum = rec(7).GetDouble(row);
      zone.values.count = static_cast<uint64_t>(rec(8).GetInt64(row));
      zone.frames.resize(static_cast<size_t>(n_frames));
      for (mseed::Steim1::FrameStat& fs : zone.frames) {
        const size_t f = next_frame++;
        if (!InU32(frame(0, f)) || !InU32(frame(1, f)) ||
            !InI32(frame(2, f)) || !InI32(frame(3, f)) ||
            !InI32(frame(4, f))) {
          return Status::Corruption("zone map frame row " +
                                    std::to_string(f) + " out of range");
        }
        fs.first_sample = static_cast<uint32_t>(frame(0, f));
        fs.count = static_cast<uint32_t>(frame(1, f));
        fs.min = static_cast<int32_t>(frame(2, f));
        fs.max = static_cast<int32_t>(frame(3, f));
        fs.entry = static_cast<int32_t>(frame(4, f));
      }
      if (!fz.records.emplace(rec(4).GetInt64(row), std::move(zone)).second) {
        return Status::Corruption("duplicate zone map record id in '" +
                                  it->first + "'");
      }
    }
    if (next_frame != frames.num_rows()) {
      return Status::Corruption("zone map frame rows not owned by a record");
    }
    return Status::OK();
  }();

  if (!s.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++corrupt_discarded_;
    }
    DEX_LOG(Warning) << "discarding persisted zone maps (" << path
                     << "): " << s.ToString();
    // A corrupt persisted set is a control-plane decision worth replaying:
    // the next queries silently run unpruned, and "why was this cold run
    // slow?" should be answerable from the flight ring.
    obs::FlightEvent e;
    e.kind = "zonemap_discard";
    e.detail = "'" + path + "' discarded: " + s.ToString();
    obs::FlightRecorder::Global().Record(std::move(e));
    return Status::OK();
  }
  std::lock_guard<std::mutex> lock(mu_);
  files_ = std::move(staged);
  persisted_loads_ = files_.size();
  dirty_ = false;
  return Status::OK();
}

ZoneMapStore::Stats ZoneMapStore::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats st;
  for (const auto& kv : files_) {
    if (kv.second.records.empty()) continue;
    ++st.files;
    st.records += kv.second.records.size();
    for (const auto& rz : kv.second.records) {
      st.frames += rz.second.frames.size();
    }
  }
  st.persisted_loads = persisted_loads_;
  st.stale_dropped = stale_dropped_;
  st.corrupt_discarded = corrupt_discarded_;
  return st;
}

}  // namespace dex

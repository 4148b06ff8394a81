// Answer digests, the reference check, the timing adapter decorator and the
// span ledger of the dex wall-clock benchmark.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/fnv.h"
#include "obs/chrome_trace.h"

namespace dexbench {

using dex::obs::Span;
using dex::obs::TraceSpan;
using dex::obs::Tracer;

uint64_t DigestTable(const dex::Table& table) {
  uint64_t h = dex::kFnv1aOffsetBasis;
  const uint64_t rows = table.num_rows();
  h = dex::Fnv1a(&rows, sizeof(rows), h);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const dex::Column& col = *table.column(c);
    const auto type = static_cast<uint8_t>(col.type());
    h = dex::Fnv1a(&type, 1, h);
    if (col.type() == dex::DataType::kString) {
      for (size_t r = 0; r < col.size(); ++r) {
        h = dex::Fnv1aString(col.GetString(r), h);
      }
    } else if (col.type() == dex::DataType::kDouble) {
      h = dex::Fnv1a(col.data_f64(), col.size() * sizeof(double), h);
    } else {
      h = dex::Fnv1a(col.data_i64(), col.size() * sizeof(int64_t), h);
    }
  }
  return h;
}

dex::DatabaseOptions ReferenceOptions() {
  dex::DatabaseOptions o;
  o.stage1_threads = 1;
  o.pool_threads = 1;
  o.two_stage.num_threads = 1;
  o.two_stage.pruning.file_level = false;
  o.two_stage.pruning.record_level = false;
  o.two_stage.pruning.frame_level = false;
  o.two_stage.pruning.use_simd_kernels = false;
  o.collect_zone_maps = false;
  o.cache.policy = dex::CachePolicy::kNone;
  return o;
}

std::unique_ptr<dex::Database> MustOpen(const std::string& root,
                                        const dex::DatabaseOptions& options) {
  auto db = dex::Database::Open(root, options);
  if (!db.ok()) {
    std::fprintf(stderr, "open %s failed: %s\n", root.c_str(),
                 db.status().ToString().c_str());
    std::exit(3);
  }
  return std::move(*db);
}

// ---------------------------------------------------------------------------
// Span ledger

namespace {

/// Spans kept for the trace file: enough for a few hundred queries.
constexpr size_t kKeptSpans = 20000;

}  // namespace

void SpanLedger::Fold(std::vector<Span> spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = index.find(spans[i].parent_id);
    if (it != index.end()) children[it->second].push_back(i);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.instant) continue;
    const uint64_t lo = s.wall_start_nanos;
    const uint64_t hi = lo + s.wall_dur_nanos;
    // Union of the children's intervals, clipped to the parent: children on
    // worker lanes overlap each other, children on this thread do not.
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (size_t c : children[i]) {
      const Span& k = spans[c];
      const uint64_t a = std::max(lo, k.wall_start_nanos);
      const uint64_t b = std::min(hi, k.wall_start_nanos + k.wall_dur_nanos);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, end = 0;
    for (const auto& [a, b] : iv) {
      const uint64_t from = std::max(a, end);
      if (b > from) covered += b - from;
      end = std::max(end, b);
    }
    SpanTotals& t = totals_[s.name];
    ++t.count;
    t.total_nanos += s.wall_dur_nanos;
    t.self_nanos += s.wall_dur_nanos - std::min(covered, s.wall_dur_nanos);
  }
  for (Span& s : spans) {
    if (kept_.size() >= kKeptSpans) break;
    kept_.push_back(std::move(s));
  }
}

const SpanTotals& SpanLedger::Get(const std::string& name) const {
  static const SpanTotals kEmpty;
  auto it = totals_.find(name);
  return it == totals_.end() ? kEmpty : it->second;
}

bool SpanLedger::Write(const std::string& path) const {
  return dex::obs::WriteChromeTrace(path, kept_).ok();
}

// ---------------------------------------------------------------------------
// Timing adapter decorator

namespace {

/// Forwards every FormatAdapter call to the mSEED adapter, opening a
/// benchmark span around header scans (`mseed.scan_file`) and record
/// extraction (`mseed.extract`: read + Steim decode). The spans parent under
/// whatever program span is open on the calling thread.
class TimedAdapter final : public dex::FormatAdapter {
 public:
  explicit TimedAdapter(std::shared_ptr<dex::FormatAdapter> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::string file_extension() const override {
    return inner_->file_extension();
  }
  dex::Result<std::vector<std::string>> EnumerateFiles(
      const std::string& root) override {
    return inner_->EnumerateFiles(root);
  }
  dex::Result<dex::mseed::ScanResult> ScanFile(const std::string& uri) override {
    TraceSpan span("mseed.scan_file", "mseed");
    return inner_->ScanFile(uri);
  }
  dex::Result<std::vector<dex::mseed::DecodedRecord>> ReadAllRecords(
      const std::string& uri) override {
    TraceSpan span("mseed.extract", "mseed");
    return inner_->ReadAllRecords(uri);
  }
  dex::Result<std::vector<dex::mseed::DecodedRecord>> ReadAllRecordsSalvage(
      const std::string& uri, dex::mseed::SalvageReport* report) override {
    TraceSpan span("mseed.extract", "mseed");
    return inner_->ReadAllRecordsSalvage(uri, report);
  }
  dex::Result<std::vector<dex::mseed::DecodedRecord>> ReadAllRecordsPruned(
      const std::string& uri, dex::mseed::SalvageReport* report,
      dex::mseed::RecordPruner* pruner,
      dex::mseed::PruneStats* prune_stats) override {
    TraceSpan span("mseed.extract", "mseed");
    return inner_->ReadAllRecordsPruned(uri, report, pruner, prune_stats);
  }

 private:
  std::shared_ptr<dex::FormatAdapter> inner_;
};

}  // namespace

std::shared_ptr<dex::FormatAdapter> MakeTimedMseedAdapter() {
  return std::make_shared<TimedAdapter>(std::make_shared<dex::MseedAdapter>());
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE

OperatorTimes ParseExplainAnalyze(const std::string& text) {
  // Lines look like "<indent>Label  (rows=.. batches=.. open=Xms next=Yms)";
  // two spaces of indent per plan level. An operator's open+next is
  // inclusive of its children, so self time subtracts the direct children.
  struct Node {
    int depth;
    std::string label;
    double inclusive_ms;
    double children_ms = 0;
  };
  std::vector<Node> nodes;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("--", 0) == 0) break;  // "-- execution --" footer
    const size_t open_at = line.find(" open=");
    const size_t next_at = line.find(" next=");
    if (open_at == std::string::npos || next_at == std::string::npos) continue;
    const size_t first = line.find_first_not_of(' ');
    Node n;
    n.depth = static_cast<int>(first / 2);
    n.label = line.substr(first);
    n.inclusive_ms = std::atof(line.c_str() + open_at + 6) +
                     std::atof(line.c_str() + next_at + 6);
    nodes.push_back(n);
  }
  // Each node's parent is the nearest preceding node one level up.
  std::vector<size_t> stack;
  for (size_t i = 0; i < nodes.size(); ++i) {
    while (!stack.empty() && nodes[stack.back()].depth >= nodes[i].depth) {
      stack.pop_back();
    }
    if (!stack.empty()) nodes[stack.back()].children_ms += nodes[i].inclusive_ms;
    stack.push_back(i);
  }
  OperatorTimes out;
  for (const Node& n : nodes) {
    const double self = std::max(0.0, n.inclusive_ms - n.children_ms);
    if (n.label.rfind("Join[", 0) == 0) out.join_ms += self;
    if (n.label.rfind("Aggregate[", 0) == 0) out.aggregate_ms += self;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Client

double Client::Ask(const std::string& sql, const std::string& shape) {
  const double t0 = NowSeconds();
  auto result = db_->Query(sql);
  const double ms = (NowSeconds() - t0) * 1e3;
  RunStats& s = *stats_;
  ++s.attempted;
  s.query_ms.push_back(ms);
  s.shape_ms[shape].push_back(ms);
  if (!result.ok()) {
    ++s.failed;
    std::fprintf(stderr, "query failed: %s\n  %s\n",
                 result.status().ToString().c_str(), sql.c_str());
  } else {
    const dex::QueryStats& q = result->stats;
    const dex::TwoStageStats& ts = q.two_stage;
    if (ts.is_partial) ++s.partial;
    const uint64_t digest = DigestTable(*result->table);
    s.answers.emplace_back(sql, digest);
    if (s.answers.size() <= kPrefixQueries) {
      s.prefix_digest = dex::Fnv1a(&digest, sizeof(digest), s.prefix_digest);
      s.prefix_sim_io_nanos += q.sim_io_nanos;
    }
    s.sim_io_nanos += q.sim_io_nanos;
    s.wall_nanos += static_cast<uint64_t>(ms * 1e6);
    s.plan_nanos += q.plan_nanos;
    s.stage1_nanos += ts.stage1_nanos;
    s.rewrite_nanos += ts.rewrite_nanos;
    s.stage2_nanos += ts.stage2_nanos;
    s.files_of_interest += ts.files_of_interest;
    s.files_cached += ts.files_planned_cache;
    if (ts.mount_tasks > 0) s.stage2_nanos_with_tasks += ts.stage2_nanos;
    s.samples_decoded += q.mount.samples_decoded;
    s.records_skipped_zonemap += q.mount.records_skipped_zonemap;
    s.records_mounted += q.mount.records_decoded +
                         q.mount.records_skipped_zonemap +
                         q.mount.records_skipped;
    s.zonemap_fallbacks += q.mount.zonemap_fallbacks;
    s.kernel_batches += ts.exec.kernel_filter_batches + ts.exec.kernel_agg_batches;
    s.scalar_batches += ts.exec.scalar_filter_batches + ts.exec.scalar_agg_batches;
  }
  if (traced_) {
    s.query_spans.Fold(Tracer::Global().Drain());
    s.shapes.emplace(shape, sql);
  }
  return ms;
}

void Client::Warm(const std::string& sql) {
  auto result = db_->Query(sql);
  if (!result.ok()) {
    std::fprintf(stderr, "warm-up query failed: %s\n  %s\n",
                 result.status().ToString().c_str(), sql.c_str());
    std::exit(3);
  }
  DrainLifecycle();
}

void Client::DrainLifecycle() {
  if (traced_) stats_->lifecycle_spans.Fold(Tracer::Global().Drain());
}

void Client::ExplainShapes() {
  if (!traced_) return;
  RunStats& s = *stats_;
  uint64_t weight = 0;
  for (const auto& [shape, sql] : s.shapes) {
    auto result = db_->Query("EXPLAIN ANALYZE " + sql);
    if (!result.ok()) continue;
    std::string text;
    const dex::Table& t = *result->table;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      text += t.column(0)->GetString(r);
      text += '\n';
    }
    const OperatorTimes op = ParseExplainAnalyze(text);
    const uint64_t n = s.shape_ms[shape].size();
    s.explained.join_ms += op.join_ms * static_cast<double>(n);
    s.explained.aggregate_ms += op.aggregate_ms * static_cast<double>(n);
    weight += n;
  }
  if (weight > 0) {
    s.explained.join_ms /= static_cast<double>(weight);
    s.explained.aggregate_ms /= static_cast<double>(weight);
  }
  Tracer::Global().Clear();
}

// ---------------------------------------------------------------------------
// Reference check

void CheckAnswers(const std::string& reference_root, RunStats* stats) {
  if (stats->answers.empty()) return;
  const bool tracing = Tracer::Global().enabled();
  Tracer::Global().set_enabled(false);
  auto db = MustOpen(reference_root, ReferenceOptions());
  // Distinct questions, answered by kLanes reference clients at once (each
  // reference query itself runs on one lane).
  std::unordered_map<std::string, uint64_t> reference;
  std::vector<const std::string*> distinct;
  for (const auto& answer : stats->answers) {
    if (reference.emplace(answer.first, 0).second) {
      distinct.push_back(&answer.first);
    }
  }
  std::vector<uint64_t> digests(distinct.size());
  std::vector<std::string> errors(distinct.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kLanes; ++t) {
    clients.emplace_back([&] {
      for (size_t i = next++; i < distinct.size(); i = next++) {
        auto result = db->Query(*distinct[i]);
        if (result.ok()) {
          digests[i] = DigestTable(*result->table);
        } else {
          errors[i] = result.status().ToString();
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t i = 0; i < distinct.size(); ++i) {
    if (!errors[i].empty()) {
      std::fprintf(stderr, "reference query failed: %s\n  %s\n",
                   errors[i].c_str(), distinct[i]->c_str());
      std::exit(3);
    }
  }
  for (size_t i = 0; i < distinct.size(); ++i) {
    reference[*distinct[i]] = digests[i];
  }
  for (const auto& [sql, digest] : stats->answers) {
    const uint64_t expected = reference[sql];
    if (expected != digest) {
      ++stats->wrong;
      std::fprintf(stderr, "wrong answer (digest %016llx, reference %016llx)\n"
                   "  %s\n",
                   static_cast<unsigned long long>(digest),
                   static_cast<unsigned long long>(expected), sql.c_str());
    }
  }
  Tracer::Global().Clear();
  Tracer::Global().set_enabled(tracing);
}

}  // namespace dexbench

// dexbench: the dex wall-clock benchmark (see README.md).
//
//   dexbench --workload explore|scan|ingest --seed N --seconds S --trace 0|1
//            [--data-dir DIR] [--commit ID]
//
// Prints one `row` line per metric, each stamped with the machine, build and
// repository it was measured on, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones (tracing off); with --trace 1 the run is split into
// an untraced and a traced half and the metrics are the per-layer ones.
// Exits 1 when any answer is wrong, partial or failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "io/file_io.h"
#include "mseed/generator.h"
#include "obs/trace.h"

namespace dexbench {
namespace {

namespace fs = std::filesystem;

/// Bump when the generated repository's layout or options change.
constexpr const char* kRepoVersion = "repo-v1";

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: dexbench --workload explore|scan|ingest --seed N "
               "--seconds S --trace 0|1 [--data-dir DIR] [--commit ID]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (flag == "--data-dir") {
      a.data_dir = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload != "explore" && a.workload != "scan" &&
      a.workload != "ingest") {
    Usage("unknown workload");
  }
  if (a.seconds <= 0) Usage("--seconds must be positive");
  return a;
}

/// Generates the 144-file repository once per data directory (untimed) and
/// returns its size. A stamp file written last marks it complete.
RepoInfo EnsureRepo(const std::string& data_dir) {
  RepoInfo info;
  info.root = (fs::path(data_dir) / kRepoVersion).string();
  const std::string stamp = info.root + "/.complete";
  std::string content;
  if (!dex::FileExists(stamp) || !dex::ReadFileToString(stamp, &content).ok()) {
    dex::mseed::GeneratorOptions gen;
    gen.seed = kRepoSeed;
    gen.num_stations = kStations;
    gen.channels_per_station = kChannels;
    gen.num_days = kDays;
    gen.sample_rate_hz = 1.0;
    gen.records_per_file = 4;
    gen.gap_probability = 0.01;
    gen.start_day = "2010-01-01";
    const std::string tmp = info.root + ".tmp-" + std::to_string(::getpid());
    std::error_code ec;
    fs::remove_all(tmp, ec);
    auto repo = dex::mseed::GenerateRepository(tmp, gen);
    if (!repo.ok()) {
      std::fprintf(stderr, "repository generation failed: %s\n",
                   repo.status().ToString().c_str());
      std::exit(3);
    }
    content = std::to_string(repo->files.size()) + " " +
              std::to_string(repo->total_samples) + " " +
              std::to_string(repo->total_bytes);
    if (!dex::WriteStringToFile(tmp + "/.complete", content).ok()) {
      std::fprintf(stderr, "cannot write %s/.complete\n", tmp.c_str());
      std::exit(3);
    }
    fs::remove_all(info.root, ec);
    fs::rename(tmp, info.root, ec);
    if (ec) {
      std::fprintf(stderr, "cannot publish %s: %s\n", info.root.c_str(),
                   ec.message().c_str());
      std::exit(3);
    }
  }
  unsigned long long files = 0, samples = 0, bytes = 0;
  if (std::sscanf(content.c_str(), "%llu %llu %llu", &files, &samples,
                  &bytes) != 3) {
    std::fprintf(stderr, "corrupt stamp %s; delete %s\n", stamp.c_str(),
                 info.root.c_str());
    std::exit(3);
  }
  info.files = files;
  info.samples = samples;
  info.bytes = bytes;
  return info;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the sample
/// with exactly ten larger ones. Returns {value, percentile}.
std::pair<double, double> Tail(std::vector<double> v) {
  if (v.empty()) return {0, 0};
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n <= 10) return {v.back(), 100.0};
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

double PeakRssMb() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  Report(const Args& args, const RepoInfo& repo, uint64_t cache_bytes) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "workload=%s seed=%llu trace=%d nproc=%ld build=%s "
                  "compiler=%s commit=%s repo_files=%zu repo_samples=%llu "
                  "repo_bytes=%llu cache_capacity_bytes=%llu",
                  args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
                  ::sysconf(_SC_NPROCESSORS_ONLN), DEXBENCH_BUILD_TYPE,
                  DEXBENCH_COMPILER, args.commit.c_str(), repo.files,
                  static_cast<unsigned long long>(repo.samples),
                  static_cast<unsigned long long>(repo.bytes),
                  static_cast<unsigned long long>(cache_bytes));
    stamp_ = buf;
  }

  /// A printed row that is also part of the final JSON object.
  void Key(const std::string& name, double value, const std::string& unit) {
    Info(name, value, unit);
    keys_.push_back({name, value, unit});
  }

  /// A printed row only.
  void Info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "") {
    std::printf("row metric=%s value=%.6f unit=%s %s%s%s\n", name.c_str(),
                value, unit.c_str(), stamp_.c_str(), note.empty() ? "" : " ",
                note.c_str());
  }

  void Json(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < keys_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", keys_[i].name.c_str(), keys_[i].value,
                  keys_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::string stamp_;
  std::vector<Metric> keys_;
};

void RunWorkload(const Args& args, const RepoInfo& repo, RunStats* stats) {
  if (args.workload == "explore") {
    RunExplore(args, repo, stats);
  } else if (args.workload == "scan") {
    RunScan(args, repo, stats);
  } else {
    RunIngest(args, repo, stats);
  }
}

/// End-to-end metrics of one untraced run.
void ReportEndToEnd(const Args& args, const RunStats& s, double peak_rss_mb,
                    Report* r) {
  const double queries = static_cast<double>(s.query_ms.size());
  const auto [tail, pct] = Tail(s.query_ms);
  r->Key("setup_s", Median(s.setup_s), "s");
  r->Key("query_p50_ms", Median(s.query_ms), "ms");
  r->Info("query_tail_ms", tail, "ms");
  r->Info("query_tail_percentile", pct, "%",
          "samples=" + std::to_string(s.query_ms.size()) + " beyond=10");
  r->Key("queries_per_s", Ratio(queries, s.timed_wall_s), "1/s");
  r->Key("peak_rss_mb", peak_rss_mb, "MB");
  r->Info("sim_io_ms_per_query",
          Ratio(static_cast<double>(s.sim_io_nanos) / 1e6, queries), "ms");
  r->Info("error_rate",
          Ratio(static_cast<double>(s.failed + s.wrong + s.partial),
                static_cast<double>(s.attempted)),
          "ratio");
  if (args.workload == "ingest") {
    r->Info("refresh_p50_ms", Median(s.refresh_ms), "ms");
    r->Info("first_answer_p50_ms", Median(s.first_answer_ms), "ms");
    r->Info("restart_s", Median(s.restart_s), "s");
  }
  if (args.workload == "explore") {
    r->Info("session_working_set_bytes",
            static_cast<double>(s.working_set_bytes), "bytes");
  }
}

/// Per-layer metrics of a traced run (per timed-phase query unless noted).
void ReportLayers(const RunStats& untraced, const RunStats& s, Report* r) {
  const double q = static_cast<double>(s.query_ms.size());
  auto per_query_ms = [&](uint64_t nanos) {
    return Ratio(static_cast<double>(nanos) / 1e6, q);
  };
  const SpanTotals& mount_task = s.query_spans.Get("mount_task");
  const SpanTotals& extract = s.query_spans.Get("mseed.extract");
  const SpanTotals& mount = s.query_spans.Get("mount");
  SpanTotals scan_file = s.lifecycle_spans.Get("mseed.scan_file");
  scan_file.count += s.query_spans.Get("mseed.scan_file").count;
  scan_file.total_nanos += s.query_spans.Get("mseed.scan_file").total_nanos;
  const double days = static_cast<double>(s.refresh_ms.size());

  r->Key("sql.plan_ms", per_query_ms(s.plan_nanos), "ms");
  r->Key("core.stage1_ms", per_query_ms(s.stage1_nanos), "ms");
  r->Key("core.rewrite_ms", per_query_ms(s.rewrite_nanos), "ms");
  r->Key("core.cache_hit_ratio",
         Ratio(static_cast<double>(s.files_cached),
               static_cast<double>(s.files_of_interest)),
         "ratio");
  r->Key("core.files_of_interest",
         Ratio(static_cast<double>(s.files_of_interest), q), "count");
  r->Key("core.stage2_ms", per_query_ms(s.stage2_nanos), "ms");
  r->Key("core.mount_task_ms", per_query_ms(mount_task.total_nanos), "ms");
  r->Key("mseed.extract_ms", per_query_ms(extract.total_nanos), "ms");
  r->Key("core.mount_transform_ms", per_query_ms(mount.self_nanos), "ms");
  r->Key("mseed.samples_decoded",
         Ratio(static_cast<double>(s.samples_decoded), q), "count");
  r->Key("exec.wave_efficiency",
         Ratio(static_cast<double>(mount_task.total_nanos),
               static_cast<double>(kLanes * s.stage2_nanos_with_tasks)),
         "ratio");
  r->Key("core.zonemap_skip_ratio",
         Ratio(static_cast<double>(s.records_skipped_zonemap),
               static_cast<double>(s.records_mounted)),
         "ratio");
  r->Key("core.zonemap_fallbacks", static_cast<double>(s.zonemap_fallbacks),
         "count");
  r->Key("engine.kernel_batch_ratio",
         Ratio(static_cast<double>(s.kernel_batches),
               static_cast<double>(s.kernel_batches + s.scalar_batches)),
         "ratio");
  r->Key("engine.join_ms", s.explained.join_ms, "ms");
  r->Key("engine.aggregate_ms", s.explained.aggregate_ms, "ms");
  r->Key("mseed.scan_file_us",
         Ratio(static_cast<double>(scan_file.total_nanos) / 1e3,
               static_cast<double>(scan_file.count)),
         "us");
  r->Key("core.refresh_files_scanned",
         Ratio(static_cast<double>(s.refresh_files_scanned), days), "count");
  r->Key("core.refresh_files_reused",
         Ratio(static_cast<double>(s.refresh_files_reused), days), "count");
  r->Key("io.cache_bytes_persisted",
         Ratio(static_cast<double>(s.cache_bytes_persisted), days), "bytes");
  r->Key("core.cache_entries_recovered",
         Ratio(static_cast<double>(s.cache_entries_recovered),
               static_cast<double>(s.restarts)),
         "count");
  r->Key("unattributed_ms",
         per_query_ms(s.wall_nanos - std::min(s.wall_nanos,
                                              s.plan_nanos + s.stage1_nanos +
                                                  s.rewrite_nanos +
                                                  s.stage2_nanos)),
         "ms");
  const double p50 = Median(untraced.query_ms);
  r->Key("trace_overhead_pct",
         p50 > 0 ? 100.0 * (Median(s.query_ms) / p50 - 1.0) : 0, "%");
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::error_code ec;
  fs::create_directories(args.data_dir, ec);
  const RepoInfo repo = EnsureRepo(args.data_dir);

  RunStats untraced;
  RunStats traced;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  double peak_rss_mb = 0;
  auto run_checked = [&](const Args& a, RunStats* s) {
    RunWorkload(a, repo, s);
    peak_rss_mb = std::max(peak_rss_mb, PeakRssMb());
    CheckAnswers(repo.root, s);
    attempted += s->attempted;
    failed += s->failed + s->wrong + s->partial;
    correct = correct && s->failed == 0 && s->wrong == 0 && s->partial == 0;
  };

  if (!args.trace) {
    run_checked(args, &untraced);
  } else {
    // Half the time untraced, half traced, same seed and query sequence:
    // the two medians give the tracing overhead.
    Args half = args;
    half.seconds = args.seconds / 2;
    half.trace = false;
    run_checked(half, &untraced);
    half.trace = true;
    dex::obs::Tracer::Global().Clear();
    dex::obs::Tracer::Global().set_enabled(true);
    run_checked(half, &traced);
    dex::obs::Tracer::Global().set_enabled(false);
  }

  const RunStats& main_run = args.trace ? traced : untraced;
  Report report(args, repo, main_run.cache_capacity_bytes);
  std::printf("info prefix_digest=%016llx prefix_sim_io_ms=%.6f "
              "prefix_queries=%zu queries=%zu wrong=%llu partial=%llu\n",
              static_cast<unsigned long long>(untraced.prefix_digest),
              static_cast<double>(untraced.prefix_sim_io_nanos) / 1e6,
              kPrefixQueries, untraced.query_ms.size(),
              static_cast<unsigned long long>(untraced.wrong),
              static_cast<unsigned long long>(untraced.partial));
  for (const auto& [shape, ms] : untraced.shape_ms) {
    std::printf("info shape=%s queries=%zu p50_ms=%.3f\n", shape.c_str(),
                ms.size(), Median(ms));
  }
  if (!args.trace) {
    ReportEndToEnd(args, untraced, peak_rss_mb, &report);
  } else {
    ReportLayers(untraced, traced, &report);
    const std::string path = (fs::path(args.data_dir) / "traces" /
                              (args.workload + "-seed" +
                               std::to_string(args.seed) + ".json"))
                                 .string();
    fs::create_directories(fs::path(path).parent_path(), ec);
    std::printf("info trace=%s written=%d\n", path.c_str(),
                traced.query_spans.Write(path) ? 1 : 0);
  }
  std::fflush(stdout);
  report.Json(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dexbench

int main(int argc, char** argv) { return dexbench::Main(argc, argv); }

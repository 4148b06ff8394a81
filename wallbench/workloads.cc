// The three workloads of the dex wall-clock benchmark: explore, scan and
// ingest. Each runs one closed-loop client against dex::Database for about
// --seconds of timed phase, after an untimed repository generation and a
// timed set-up (Open() through the warm-up pass).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "bench.h"
#include "common/random.h"
#include "mseed/generator.h"
#include "obs/metrics.h"

namespace dexbench {

namespace fs = std::filesystem;

namespace {

/// Set-ups per run (ingest: at least, one per cycle); setup_s is their
/// median. Explore's set-up is short, so it repeats more often.
constexpr int kSetups = 3;
constexpr int kExploreSetups = 9;

const std::vector<std::string>& Stations() {
  static const std::vector<std::string> codes =
      dex::mseed::GeneratorStationCodes(kStations);
  return codes;
}

const std::vector<std::string>& Channels() {
  static const std::vector<std::string> codes =
      dex::mseed::GeneratorChannelCodes(kChannels);
  return codes;
}

dex::DatabaseOptions MeasuredOptions(bool traced) {
  dex::DatabaseOptions o;
  o.stage1_threads = kLanes;
  o.pool_threads = kLanes;
  o.two_stage.num_threads = kLanes;
  if (traced) o.format = MakeTimedMseedAdapter();
  return o;
}

// -- SQL --------------------------------------------------------------------

/// "2010-01-0N" for day index `d` (the generator starts at 2010-01-01).
std::string DayDate(int d) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "2010-01-%02d", d + 1);
  return buf;
}

/// ISO timestamp `secs` seconds into day `d`.
std::string At(int d, int secs) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "'%sT%02d:%02d:%02d.000'", DayDate(d).c_str(),
                secs / 3600, (secs / 60) % 60, secs % 60);
  return buf;
}

std::string RecordsOfDay(int d) {
  return "R.start_time >= " + At(d, 0) + " AND R.start_time < '" + DayDate(d) +
         "T23:59:59.999'";
}

const char* kFRD =
    "FROM F JOIN R ON F.uri = R.uri "
    "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id ";

/// Figure 3 Q1 shape: one station/channel/day, a two-second window.
std::string PointQuery(const std::string& sta, const std::string& cha, int d,
                       int secs) {
  return "SELECT AVG(D.sample_value) " + std::string(kFRD) +
         "WHERE F.station = '" + sta + "' AND F.channel = '" + cha + "' AND " +
         RecordsOfDay(d) + " AND D.sample_time > " + At(d, secs) +
         " AND D.sample_time < " + At(d, secs + 2);
}

/// Figure 3 Q2 shape: a waveform window over all channels of a station.
std::string WaveQuery(const std::string& sta, int d, int lo, int hi) {
  return "SELECT D.sample_time, D.sample_value " + std::string(kFRD) +
         "WHERE F.station = '" + sta + "' AND " + RecordsOfDay(d) +
         " AND D.sample_time > " + At(d, lo) + " AND D.sample_time < " +
         At(d, hi);
}

/// Metadata only: stage 1 answers it without mounting anything.
std::string ChannelCoverage(const std::string& sta, int d) {
  return "SELECT F.channel, COUNT(*) AS records, SUM(R.n_samples) AS samples "
         "FROM F JOIN R ON F.uri = R.uri WHERE F.station = '" + sta +
         "' AND " + RecordsOfDay(d) + " GROUP BY F.channel ORDER BY F.channel";
}

const char* kAggregates =
    "COUNT(*) AS n, AVG(D.sample_value) AS mean, MIN(D.sample_value) AS lo, "
    "MAX(D.sample_value) AS hi ";

/// Per-channel aggregate over every day of the given stations.
std::string StationAggregate(const std::vector<std::string>& stations) {
  std::string in;
  for (const std::string& s : stations) {
    in += (in.empty() ? "'" : ", '") + s + "'";
  }
  return "SELECT F.channel, " + std::string(kAggregates) +
         "FROM F JOIN D ON F.uri = D.uri WHERE F.station IN (" + in +
         ") GROUP BY F.channel ORDER BY F.channel";
}

/// Per-channel aggregate over one station-day.
std::string DayAggregate(const std::string& sta, int d) {
  return "SELECT F.channel, " + std::string(kAggregates) + kFRD +
         "WHERE F.station = '" + sta + "' AND " + RecordsOfDay(d) +
         " GROUP BY F.channel ORDER BY F.channel";
}

/// Amplitude hunt over the whole repository.
std::string AmplitudeHunt(int threshold) {
  return "SELECT F.station, " + std::string(kAggregates) +
         "FROM F JOIN D ON F.uri = D.uri WHERE D.sample_value > " +
         std::to_string(threshold) +
         " GROUP BY F.station ORDER BY F.station";
}

const char* kFullScan = "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri";

template <typename Fn>
double TimeIt(Fn&& fn) {
  const double t0 = NowSeconds();
  fn();
  return NowSeconds() - t0;
}

// -- explore ----------------------------------------------------------------

/// Days a session visits ("move on" twice).
constexpr int kSessionDays = 3;
/// The LRU cache holds this many files' data; a session touches
/// kSessionDays x kChannels files, so hits and evictions both happen.
constexpr double kExploreCacheFiles = 6.5;

struct Step {
  std::string sql;
  const char* shape;
};

/// One interactive session: a metadata-only question first, then for each
/// of three consecutive days a point query, a waveform window, a zoom-in
/// and a zoom-out over the same files, and a point query on a sibling
/// channel. Sixteen questions, so the median of a session's latencies falls
/// inside one shape's latencies (the zoom-outs) rather than between two.
/// The seed picks each session's station and first day; the rest follows
/// from (seed, station, day), so a scientist who comes back to a
/// station-day asks the same questions again. That bounds the distinct
/// questions of a run, and with them the cost of the reference check.
std::vector<Step> Session(uint64_t seed, uint64_t index) {
  dex::Random pick(seed * 0x9E3779B97F4A7C15ULL + index + 1);
  const uint64_t sta_index = pick.Uniform(kStations);
  const std::string& sta = Stations()[sta_index];
  const int day0 = static_cast<int>(pick.Uniform(kDays - kSessionDays + 1));
  dex::Random rng(seed * 0x9E3779B97F4A7C15ULL ^ (sta_index * kDays + day0));
  std::vector<Step> steps;
  steps.push_back({ChannelCoverage(sta, day0), "meta_channels"});
  for (int k = 0; k < kSessionDays; ++k) {
    const int d = day0 + k;
    const size_t ch = rng.Uniform(kChannels);
    const int hour = 1 + static_cast<int>(rng.Uniform(21));
    steps.push_back({PointQuery(sta, Channels()[ch], d,
                                600 + static_cast<int>(rng.Uniform(85000))),
                     "q1"});
    steps.push_back({WaveQuery(sta, d, hour * 3600, (hour + 1) * 3600),
                     k == 0 ? "q2" : "q2_move_on"});
    steps.push_back(
        {WaveQuery(sta, d, hour * 3600 + 1200, hour * 3600 + 1800), "zoom_in"});
    steps.push_back(
        {WaveQuery(sta, d, (hour - 1) * 3600, (hour + 2) * 3600), "zoom_out"});
    const size_t sibling = (ch + 1 + rng.Uniform(kChannels - 1)) % kChannels;
    steps.push_back({PointQuery(sta, Channels()[sibling], d,
                                600 + static_cast<int>(rng.Uniform(85000))),
                     "q1_sibling"});
  }
  return steps;
}

/// Bytes one mounted file occupies in the cache (probe outside set-up).
uint64_t CachedFileBytes(const RepoInfo& repo) {
  dex::DatabaseOptions o = MeasuredOptions(false);
  o.cache.policy = dex::CachePolicy::kAll;
  auto db = MustOpen(repo.root, o);
  RunStats scratch;
  Client probe(&scratch, false);
  probe.Attach(db.get());
  probe.Warm(PointQuery(Stations()[0], Channels()[0], 0, 3600));
  return db->cache()->bytes_used();
}

}  // namespace

void RunExplore(const Args& args, const RepoInfo& repo, RunStats* stats) {
  const uint64_t file_bytes = CachedFileBytes(repo);
  dex::DatabaseOptions options = MeasuredOptions(args.trace);
  options.cache.policy = dex::CachePolicy::kLru;
  options.cache.capacity_bytes =
      static_cast<uint64_t>(kExploreCacheFiles * static_cast<double>(file_bytes));
  stats->cache_capacity_bytes = options.cache.capacity_bytes;
  stats->working_set_bytes = file_bytes * kSessionDays * kChannels;

  Client client(stats, args.trace);
  std::unique_ptr<dex::Database> db;
  for (int i = 0; i < kExploreSetups; ++i) {
    db.reset();
    stats->setup_s.push_back(TimeIt([&] {
      db = MustOpen(repo.root, options);
      client.Attach(db.get());
      for (const Step& s : Session(args.seed, ~0ULL)) client.Warm(s.sql);
    }));
  }

  const double t0 = NowSeconds();
  for (uint64_t i = 0; NowSeconds() - t0 < args.seconds; ++i) {
    for (const Step& s : Session(args.seed, i)) client.Ask(s.sql, s.shape);
  }
  stats->timed_wall_s = NowSeconds() - t0;
  client.ExplainShapes();
  const dex::CacheStats cs = db->cache()->stats();
  std::printf("info workload=explore cache_hits=%llu cache_misses=%llu "
              "cache_evictions=%llu\n",
              static_cast<unsigned long long>(cs.hits),
              static_cast<unsigned long long>(cs.misses),
              static_cast<unsigned long long>(cs.evictions));
}

// -- scan -------------------------------------------------------------------

void RunScan(const Args& args, const RepoInfo& repo, RunStats* stats) {
  dex::DatabaseOptions options = MeasuredOptions(args.trace);
  options.cache.policy = dex::CachePolicy::kNone;

  // The seed picks which stations go into the 1-, 2- and 3-station
  // aggregates and the two hunt thresholds: one near the top of the
  // background noise (zone maps skip some records and frames, the rest
  // decode) and one that keeps only the seismic events (most records
  // skipped). Every round runs each of the five once, in a seeded order.
  dex::Random rng(args.seed * 0x9E3779B97F4A7C15ULL + 7);
  std::vector<std::string> sta = Stations();
  for (size_t i = sta.size(); i > 1; --i) std::swap(sta[i - 1], sta[rng.Uniform(i)]);
  std::vector<Step> menu = {
      {StationAggregate({sta[0]}), "agg_1_station"},
      {StationAggregate({sta[1], sta[2]}), "agg_2_stations"},
      {StationAggregate({sta[3], sta[4], sta[5]}), "agg_3_stations"},
      {AmplitudeHunt(50 + static_cast<int>(rng.Uniform(10))), "hunt_background"},
      {AmplitudeHunt(1500 + static_cast<int>(rng.Uniform(1000))), "hunt_events"},
  };

  Client client(stats, args.trace);
  std::unique_ptr<dex::Database> db;
  for (int i = 0; i < kSetups; ++i) {
    db.reset();
    stats->setup_s.push_back(TimeIt([&] {
      db = MustOpen(repo.root, options);
      client.Attach(db.get());
      client.Warm(kFullScan);  // harvests every file's zone maps
    }));
  }

  const double t0 = NowSeconds();
  while (NowSeconds() - t0 < args.seconds) {
    for (size_t i = menu.size(); i > 1; --i) {
      std::swap(menu[i - 1], menu[rng.Uniform(i)]);
    }
    for (const Step& s : menu) client.Ask(s.sql, s.shape);
  }
  stats->timed_wall_s = NowSeconds() - t0;
  client.ExplainShapes();
}

// -- ingest -----------------------------------------------------------------

namespace {

/// Days present when the ingest repository opens; the rest land one by one.
constexpr int kBaseDays = 4;

/// Day index encoded in a generated file name ("....<ddd>.mseed").
int FileDay(const fs::path& p) {
  const std::string stem = p.stem().string();
  return std::atoi(stem.c_str() + stem.rfind('.') + 1);
}

void MustLink(const fs::path& from, const fs::path& to) {
  std::error_code ec;
  fs::create_directories(to.parent_path(), ec);
  fs::create_hard_link(from, to, ec);
  if (ec) fs::copy_file(from, to, ec);
  if (ec) {
    std::fprintf(stderr, "cannot stage %s: %s\n", to.c_str(),
                 ec.message().c_str());
    std::exit(3);
  }
}

struct IngestDay {
  std::vector<std::pair<fs::path, fs::path>> renames;  // staging -> repo
  std::vector<Step> queries;
};

}  // namespace

void RunIngest(const Args& args, const RepoInfo& repo, RunStats* stats) {
  const fs::path run_dir =
      fs::path(args.data_dir) / ("ingest-" + std::to_string(::getpid()));
  dex::Random rng(args.seed * 0x9E3779B97F4A7C15ULL + 11);
  Client client(stats, args.trace);
  double timed = 0;

  for (uint64_t cycle = 0; timed < args.seconds || cycle < kSetups; ++cycle) {
    // Fresh base repository (hard links of the generated files) plus the
    // pre-generated days in a staging area, and empty durable directories.
    std::error_code ec;
    fs::remove_all(run_dir, ec);
    const fs::path root = run_dir / "repo";
    const fs::path staging = run_dir / "staging";
    const fs::path durable = run_dir / "durable";
    fs::create_directories(durable / "cache", ec);
    std::vector<IngestDay> days(kDays - kBaseDays);
    for (const auto& e : fs::recursive_directory_iterator(repo.root)) {
      if (e.path().extension() != ".mseed") continue;
      const fs::path rel = fs::relative(e.path(), repo.root);
      const int day = FileDay(e.path());
      if (day < kBaseDays) {
        MustLink(e.path(), root / rel);
      } else {
        MustLink(e.path(), staging / rel);
        days[day - kBaseDays].renames.emplace_back(staging / rel, root / rel);
      }
    }
    auto day_queries = [&](int d) {
      const std::string& sta = Stations()[rng.Uniform(kStations)];
      const int hour = 1 + static_cast<int>(rng.Uniform(21));
      return std::vector<Step>{
          {PointQuery(sta, Channels()[rng.Uniform(kChannels)], d,
                      600 + static_cast<int>(rng.Uniform(85000))),
           "q1"},
          {WaveQuery(sta, d, hour * 3600, (hour + 1) * 3600), "q2"},
          {DayAggregate(sta, d), "day_aggregate"},
      };
    };
    for (int i = 0; i < kDays - kBaseDays; ++i) {
      days[i].queries = day_queries(kBaseDays + i);
    }

    dex::DatabaseOptions options = MeasuredOptions(args.trace);
    options.cache.policy = dex::CachePolicy::kAll;
    options.cache_dir = (durable / "cache").string();
    options.zone_map_path = (durable / "zonemaps.dxzm").string();
    options.metadata_snapshot_path = (durable / "metadata.dxsnap").string();

    std::unique_ptr<dex::Database> db;
    stats->setup_s.push_back(TimeIt([&] {
      db = MustOpen(root.string(), options);
      client.Attach(db.get());
      for (const Step& s : day_queries(kBaseDays - 1)) client.Warm(s.sql);
    }));
    auto& metrics = dex::obs::MetricsRegistry::Global();
    const double persisted_at_setup = metrics.gauge("cache.disk.persisted_bytes");

    const double t0 = NowSeconds();
    for (const IngestDay& day : days) {
      const double landed = NowSeconds();
      for (const auto& [from, to] : day.renames) {
        fs::create_directories(to.parent_path(), ec);
        fs::rename(from, to, ec);
        if (ec) {
          std::fprintf(stderr, "landing %s failed: %s\n", to.c_str(),
                       ec.message().c_str());
          std::exit(3);
        }
      }
      const double r0 = NowSeconds();
      auto refresh = db->Refresh();
      stats->refresh_ms.push_back((NowSeconds() - r0) * 1e3);
      ++stats->attempted;
      if (!refresh.ok() || refresh->is_partial) {
        ++stats->failed;
        std::fprintf(stderr, "refresh failed: %s\n",
                     refresh.ok() ? "partial" : refresh.status().ToString().c_str());
      } else {
        stats->refresh_files_scanned += refresh->files_scanned;
        stats->refresh_files_reused += refresh->files_reused;
      }
      client.DrainLifecycle();
      for (int pass = 0; pass < 2; ++pass) {
        for (const Step& s : day.queries) {
          client.Ask(s.sql, s.shape);
          if (pass == 0 && &s == &day.queries.front()) {
            stats->first_answer_ms.push_back((NowSeconds() - landed) * 1e3);
          }
        }
      }
    }
    stats->cache_bytes_persisted += static_cast<uint64_t>(
        metrics.gauge("cache.disk.persisted_bytes") - persisted_at_setup);

    // Restart: snapshot, zone-map and cache recovery, then the last day's
    // questions again.
    db.reset();
    const double s0 = NowSeconds();
    db = MustOpen(root.string(), options);
    client.Attach(db.get());
    client.DrainLifecycle();
    const std::vector<Step>& last = days.back().queries;
    client.Ask(last[0].sql, "restart_q1");
    stats->restart_s.push_back(NowSeconds() - s0);
    for (size_t i = 1; i < last.size(); ++i) {
      client.Ask(last[i].sql, std::string("restart_") + last[i].shape);
    }
    stats->cache_entries_recovered += db->open_stats().cache_entries_recovered;
    ++stats->restarts;
    timed += NowSeconds() - t0;
    if (timed >= args.seconds && cycle + 1 >= kSetups) client.ExplainShapes();
    db.reset();
  }
  stats->timed_wall_s = timed;
  std::error_code ec;
  fs::remove_all(run_dir, ec);
}

}  // namespace dexbench

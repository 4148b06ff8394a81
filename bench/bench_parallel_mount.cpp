// A9 — parallel stage-2 ingestion: what worker lanes buy a cold query.
//
// The files of interest of a cold scan mount as parallel tasks; the
// simulated stall time is the critical path over the worker lanes, not the
// serial sum. We sweep 1/2/4/8 workers over the same repository and report
// both the human-readable table and one machine-readable JSON row per
// configuration.

#include "bench/bench_common.h"

using namespace dex;
using namespace dex::bench;

int main() {
  ObservabilityScope obs_scope;  // DEX_TRACE_OUT / DEX_METRICS_OUT
  BenchConfig config = BenchConfig::FromEnv();
  // Default to the 64-file workload (4 x 4 x 4) unless the environment
  // asked for a specific scale.
  if (std::getenv("DEX_BENCH_STATIONS") == nullptr &&
      std::getenv("DEX_BENCH_CHANNELS") == nullptr &&
      std::getenv("DEX_BENCH_DAYS") == nullptr) {
    config.stations = 4;
    config.channels = 4;
    config.days = 4;
  }
  const std::string dir = EnsureRepo(config);
  const size_t num_files =
      static_cast<size_t>(config.stations) * config.channels * config.days;

  PrintHeader("A9 — Parallel stage-2 ingestion");
  std::printf("workload: %d stations x %d channels x %d days = %zu files\n\n",
              config.stations, config.channels, config.days, num_files);

  const std::string scan_all = "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri";

  std::printf("%-8s %10s %10s %12s %12s %9s\n", "workers", "cold query",
              "sim I/O", "serial sim", "critical path", "speedup");
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    DatabaseOptions opts;
    opts.two_stage.num_threads = workers;
    auto db = MustOpen(dir, opts);
    db->FlushBuffers();  // Open()'s metadata scan left the files resident
    const Timing t = TimeQuery(db.get(), scan_all);

    const TwoStageStats& ts = t.stats.two_stage;
    const double serial_s = static_cast<double>(ts.serial_sim_nanos) / 1e9;
    const double parallel_s = static_cast<double>(ts.parallel_sim_nanos) / 1e9;
    const double speedup = parallel_s > 0 ? serial_s / parallel_s : 1.0;

    std::printf("%-8zu %9.4fs %9.4fs %11.4fs %12.4fs %8.2fx\n", workers,
                t.total(), t.sim_io_seconds, serial_s, parallel_s, speedup);
    std::printf(
        "{\"bench\":\"parallel_mount\",\"workers\":%zu,\"files\":%zu,"
        "\"mount_tasks\":%zu,\"query_s\":%.6f,\"sim_io_s\":%.6f,"
        "\"serial_sim_s\":%.6f,\"parallel_sim_s\":%.6f,\"speedup\":%.3f}\n",
        workers, num_files, ts.mount_tasks, t.total(), t.sim_io_seconds,
        serial_s, parallel_s, speedup);
  }

  std::printf(
      "\nreading the table: the critical path is the longest worker lane\n"
      "under deterministic list scheduling, so the speedup is a property of\n"
      "the simulated medium, not of how many real cores this machine has.\n"
      "Mount tasks are near-uniform here, so k workers approach a k-fold\n"
      "reduction until per-file overheads dominate.\n");
  return 0;
}

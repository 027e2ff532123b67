// The two perfbench workloads. Each runs closed-loop clients (a client
// issues its next metadata call only after the previous one returned) for
// a fixed wall-clock window, checks every answer against an oracle, and
// prints its metrics by name and unit followed by one JSON result line.
//
//   embed-query  db::Store in memory, called directly (core routing)
//   svc-scan     4 in-memory shards behind MetaService and Routers
//                (scatter reads); its traced run replays shard 0's ops
//                into a durable db::Store (WAL, checkpoints, crash +
//                recovery)
//
// A client's op sequence is a pure function of (seed, client id); how far
// into it a client gets depends on the system's speed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: spans around every call into a layer, per-layer metrics
  /// instead of end-to-end ones.
  bool trace = false;
  /// Small populations and short windows, for the harness self-tests.
  bool smoke = false;
  /// The direct leg's data directory and the span file live under here.
  std::string data_dir = "perfbench-data";
};

const std::vector<std::string>& workload_names();

/// Runs one workload and prints its report. Returns the process exit code:
/// 0 when every oracle passed, 1 when any answer was wrong, 2 when the
/// workload could not run at all.
int run_workload(const RunConfig& config);

}  // namespace perfbench

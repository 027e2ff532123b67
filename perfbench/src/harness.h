// Measurement plumbing shared by the perfbench workloads: percentile
// summaries, the recall rules, process counters read from outside the
// program, an in-memory span log, and the result report.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "metadata/file_metadata.h"

namespace perfbench {

// ---- percentiles -------------------------------------------------------------

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least q% of the samples at or below it. 0 for an empty sample.
double percentile_sorted(const std::vector<double>& sorted, double q);

/// The highest percentile of the ladder {99.9, 99, 95, 90, 75, 50} that is
/// no higher than `wanted` and leaves at least `beyond` samples strictly
/// above its rank. 0 when even the median is unsupported.
double supported_percentile(std::size_t n, double wanted,
                            std::size_t beyond = 10);

/// A latency sample reduced to what the report prints: the median, the
/// tail at the highest supported percentile up to the wanted one, and
/// the sample count.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_q = 0;  ///< the percentile `tail` was taken at
};

Summary summarize(std::vector<double> samples, double wanted_tail = 99.0);

// ---- recall rules ------------------------------------------------------------

/// Share of `expected` ids present in `returned` (1 when nothing is
/// expected). Extra ids in `returned` do not count against it.
double set_recall(const std::vector<smartstore::metadata::FileId>& expected,
                  const std::vector<smartstore::metadata::FileId>& returned);

/// Top-k rank rule: rank i counts when the i-th returned distance is no
/// worse than the oracle's distance at rank i. `returned` and `oracle` are
/// ascending (distance, id) lists; the result is counted ranks over the
/// oracle's length (1 when the oracle is empty).
double topk_rank_recall(
    const std::vector<std::pair<double, smartstore::metadata::FileId>>& oracle,
    const std::vector<std::pair<double, smartstore::metadata::FileId>>& returned);

// ---- process counters -------------------------------------------------------

/// Cumulative process-wide counters: getrusage(RUSAGE_SELF) and
/// /proc/self/io. Subtract two readings to attribute a window.
struct ProcCounters {
  double wall_s = 0;
  double cpu_s = 0;  ///< user + system
  double vcsw = 0;   ///< voluntary context switches
  double ivcsw = 0;  ///< involuntary context switches
  double wchar = 0;  ///< bytes passed to write-like syscalls
  double syscw = 0;  ///< write-like syscalls
};

ProcCounters read_proc();
ProcCounters operator-(const ProcCounters& a, const ProcCounters& b);

/// Peak resident set size of the process so far, MiB.
double peak_rss_mb();

/// Total size of the regular files under `dir` (0 when absent).
std::uint64_t dir_bytes(const std::string& dir);

// ---- tracing -----------------------------------------------------------------

/// One span: a timed call across a layer boundary, tied to its parent
/// span and to the request it serves, identified by (client, op).
struct Span {
  std::uint32_t name = 0;    ///< index into SpanLog::names()
  std::int32_t parent = -1;  ///< index in the same client's log, -1 = root
  std::uint32_t client = 0;
  std::uint64_t op = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Monotonic nanoseconds (steady clock).
std::uint64_t now_ns();

/// One client's spans, appended by that client's thread only; written out
/// once the run has ended.
class SpanLog {
 public:
  static const std::vector<std::string>& names();
  static std::uint32_t name_id(const std::string& name);

  std::int32_t open(std::uint32_t name, std::int32_t parent,
                    std::uint32_t client, std::uint64_t op);
  void close(std::int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Writes every span as one CSV row: name,start_ns,end_ns,parent,client,op.
bool write_spans(const std::string& path, const std::vector<SpanLog>& logs);

// ---- report ------------------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Adds the p50 and p90 of `gated` as `<prefix>_p50_us` /
  /// `<prefix>_p90_us`, and notes the tail of `far` (p99 where supported)
  /// with its sample count.
  void add_latency(const std::string& prefix, const Summary& gated,
                   const Summary& far);
  /// A human-readable line that is not a metric.
  void note(const std::string& line);

  /// Prints every metric by name and unit, then the notes.
  void print_human() const;
  /// The final result line: correct, attempted, failed and metrics.
  std::string json_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench

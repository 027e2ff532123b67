#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile q among n samples. The small
/// epsilon keeps q * n / 100 from rounding up past an exact integer.
std::size_t nearest_rank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, std::max<std::size_t>(n, 1));
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

double supported_percentile(std::size_t n, double wanted, std::size_t beyond) {
  for (const double q : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (q > wanted || n == 0) continue;
    if (n - nearest_rank(n, q) >= beyond) return q;
  }
  return 0;
}

Summary summarize(std::vector<double> samples, double wanted_tail) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 50);
  s.tail_q = supported_percentile(samples.size(), wanted_tail);
  s.tail = s.tail_q > 0 ? percentile_sorted(samples, s.tail_q)
                        : samples.back();
  return s;
}

double set_recall(const std::vector<smartstore::metadata::FileId>& expected,
                  const std::vector<smartstore::metadata::FileId>& returned) {
  if (expected.empty()) return 1.0;
  const std::unordered_set<smartstore::metadata::FileId> got(returned.begin(),
                                                 returned.end());
  std::size_t hit = 0;
  for (const smartstore::metadata::FileId id : expected) hit += got.count(id);
  return static_cast<double>(hit) / static_cast<double>(expected.size());
}

double topk_rank_recall(
    const std::vector<std::pair<double, smartstore::metadata::FileId>>& oracle,
    const std::vector<std::pair<double, smartstore::metadata::FileId>>& returned) {
  if (oracle.empty()) return 1.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < oracle.size() && i < returned.size(); ++i) {
    // Relative slack for the last bits of a differently ordered sum.
    const double slack = 1e-9 * std::max(1.0, std::abs(oracle[i].first));
    if (returned[i].first <= oracle[i].first + slack) ++counted;
  }
  return static_cast<double>(counted) / static_cast<double>(oracle.size());
}

ProcCounters read_proc() {
  ProcCounters c;
  c.wall_s = static_cast<double>(now_ns()) * 1e-9;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  c.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  c.vcsw = static_cast<double>(ru.ru_nvcsw);
  c.ivcsw = static_cast<double>(ru.ru_nivcsw);
  std::ifstream io("/proc/self/io");
  std::string key;
  double value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") c.wchar = value;
    if (key == "syscw:") c.syscw = value;
  }
  return c;
}

ProcCounters operator-(const ProcCounters& a, const ProcCounters& b) {
  return {a.wall_s - b.wall_s, a.cpu_s - b.cpu_s, a.vcsw - b.vcsw,
          a.ivcsw - b.ivcsw,   a.wchar - b.wchar, a.syscw - b.syscw};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t dir_bytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  std::uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const std::vector<std::string>& SpanLog::names() {
  static const std::vector<std::string> kNames = {
      "op.put",          "op.delete",          "op.point",
      "op.range",        "op.topk",            "rpc.call.put",
      "rpc.call.delete", "rpc.call.point",     "rpc.call.range",
      "rpc.call.topk",   "rpc.call.snap_pin",  "rpc.call.snap_release",
      "rpc.call.other",  "rpc.codec",          "db.put",
      "db.delete",       "db.point",           "db.range",
      "db.topk"};
  return kNames;
}

std::uint32_t SpanLog::name_id(const std::string& name) {
  const auto& n = names();
  const auto it = std::find(n.begin(), n.end(), name);
  if (it == n.end()) {
    std::fprintf(stderr, "perfbench: unknown span name %s\n", name.c_str());
    std::abort();
  }
  return static_cast<std::uint32_t>(it - n.begin());
}

std::int32_t SpanLog::open(std::uint32_t name, std::int32_t parent,
                           std::uint32_t client, std::uint64_t op) {
  spans_.push_back(Span{name, parent, client, op, now_ns(), 0});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

bool write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "name,start_ns,end_ns,parent,client,op\n");
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      std::fprintf(f, "%s,%llu,%llu,%d,%u,%llu\n",
                   SpanLog::names()[s.name].c_str(),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.parent,
                   s.client, static_cast<unsigned long long>(s.op));
    }
  }
  return std::fclose(f) == 0;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::add_latency(const std::string& prefix, const Summary& gated,
                         const Summary& far) {
  add(prefix + "_p50_us", gated.p50, "us");
  add(prefix + "_p90_us", gated.tail, "us");
  std::ostringstream line;
  line << prefix << ": n=" << gated.n << ", p" << gated.tail_q << " "
       << gated.tail << " us, p" << far.tail_q << " " << far.tail << " us";
  note(line.str());
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print_human() const {
  for (const Entry& e : metrics_) {
    std::printf("  %-36s %16.6g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
  for (const std::string& n : notes_) std::printf("  # %s\n", n.c_str());
}

std::string Report::json_line(bool correct, std::uint64_t attempted,
                              std::uint64_t failed) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    out << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": " << v
        << ", \"unit\": \"" << e.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench

#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/ground_truth.h"
#include "harness.h"
#include "rpc/inproc.h"
#include "rpc/transport.h"
#include "rpc/wire.h"
#include "smartstore/store.h"
#include "svc/meta_service.h"
#include "svc/partition.h"
#include "svc/router.h"
#include "trace/profiles.h"
#include "trace/query_gen.h"
#include "trace/synth.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace smartstore;
using metadata::FileId;
using metadata::FileMetadata;
using Hits = std::vector<std::pair<double, FileId>>;

constexpr std::uint32_t kClients = 4;
constexpr std::uint32_t kShards = 4;
/// Span slices of a traced run alternate traced / untraced.
constexpr std::uint64_t kSliceNs = 200'000'000;
/// Put-stream ids: client c's i-th put is put_base + c * kIdStride + i.
constexpr FileId kIdStride = 1ull << 32;
constexpr std::size_t kPutChunk = 2048;
/// The base population is one fixed MSN stand-in, as the paper replays
/// fixed traces, and the stores' placement seed is fixed with it: the
/// grouping structure sets query cost and recall, and varying it with the
/// seed would swamp every other effect. The seed picks the clients' op
/// sequences, query points and new files.
constexpr std::uint64_t kTraceSeed = 2009;

enum Cls { kPut, kDelete, kPoint, kRange, kTopK, kNumCls };
const char* const kClsName[kNumCls] = {"put", "delete", "point", "range",
                                       "topk"};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The paper's complex-query dimensions (Section 5.1): last revision time,
/// read volume, write volume.
metadata::AttrSubset query_dims() {
  return metadata::AttrSubset({metadata::Attr::kModificationTime,
                               metadata::Attr::kReadBytes,
                               metadata::Attr::kWriteBytes});
}

double std_dist2(const la::RowStandardizer& s, const FileMetadata& f,
                 const metadata::TopKQuery& q) {
  double d = 0;
  for (std::size_t i = 0; i < q.dims.size(); ++i) {
    const auto a = static_cast<std::size_t>(q.dims[i]);
    const double v = (f.attrs[a] - s.means[a]) * s.inv_stdevs[a];
    const double p = (q.point[i] - s.means[a]) * s.inv_stdevs[a];
    d += (v - p) * (v - p);
  }
  return d;
}

bool close_enough(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

// ---- inputs --------------------------------------------------------------------

/// A client's new files: drawn from the trace's cluster model in chunks,
/// renamed so every client's names and ids are disjoint. Given a partition
/// map, the i-th file of client c is placed on shard (c + i) mod shards by
/// its sub-trace id (the scale-up prefix of every trace name), so the
/// write load is spread evenly whatever the seed; the application
/// directory, and with it the file's semantic cluster, is kept.
///
/// One writer (the owning client) issues records with next(); any thread
/// may find() an issued record concurrently: chunks never move, and the
/// issued count is published with release/acquire ordering.
class PutStream {
 public:
  PutStream(const trace::SyntheticTrace* trace, std::uint64_t seed,
            std::uint32_t client, FileId id_base,
            std::optional<svc::PartitionMap> balance)
      : trace_(trace),
        seed_(seed),
        client_(client),
        id_base_(id_base),
        balance_(std::move(balance)),
        chunks_(new std::unique_ptr<const std::vector<FileMetadata>>[kMaxChunks]) {}

  /// Index of the next record, generating a chunk when needed.
  std::size_t next() {
    const std::size_t i = issued_.load(std::memory_order_relaxed);
    if (i % kPutChunk == 0) grow(i / kPutChunk);
    issued_.store(i + 1, std::memory_order_release);
    return i;
  }
  const FileMetadata& at(std::size_t i) const {
    return (*chunks_[i / kPutChunk])[i % kPutChunk];
  }
  /// The issued record with this id, or null.
  const FileMetadata* find(FileId id) const {
    if (id < id_base_) return nullptr;
    const FileId off = id - id_base_;
    if (off / kIdStride != client_) return nullptr;
    const std::size_t i = static_cast<std::size_t>(off % kIdStride);
    return i < issued_.load(std::memory_order_acquire) ? &at(i) : nullptr;
  }

 private:
  static constexpr std::size_t kMaxChunks = 1 << 12;

  void grow(std::size_t chunk) {
    if (chunk >= kMaxChunks) throw std::runtime_error("put stream exhausted");
    std::vector<FileMetadata> add =
        trace_->make_insert_stream(kPutChunk, mix(mix(seed_, client_), chunk));
    for (std::size_t k = 0; k < add.size(); ++k) {
      FileMetadata& f = add[k];
      const std::size_t i = chunk * kPutChunk + k;
      f.id = id_base_ + client_ * kIdStride + i;
      const std::string leaf =
          "c" + std::to_string(client_) + "-" + std::to_string(i) + ".dat";
      // "/sub<k>/u<owner>/app<cluster>/<leaf>": keep the owner/app part.
      const std::size_t app_begin = f.name.find('/', 1);
      const std::string app =
          f.name.substr(app_begin, f.name.rfind('/') + 1 - app_begin);
      f.name = f.name.substr(0, app_begin) + app + leaf;
      if (balance_) {
        const std::uint32_t want =
            static_cast<std::uint32_t>((client_ + i) % balance_->num_shards);
        for (unsigned sub = trace_->tif();
             balance_->shard_of(f.name) != want; ++sub) {
          f.name = "/sub" + std::to_string(sub) + app + leaf;
        }
      }
    }
    chunks_[chunk] =
        std::make_unique<const std::vector<FileMetadata>>(std::move(add));
  }

  const trace::SyntheticTrace* trace_;
  std::uint64_t seed_;
  std::uint32_t client_;
  FileId id_base_;
  std::optional<svc::PartitionMap> balance_;
  std::unique_ptr<std::unique_ptr<const std::vector<FileMetadata>>[]> chunks_;
  std::atomic<std::size_t> issued_{0};
};

/// The base population every workload loads at setup and never mutates,
/// plus the lookups its oracles need.
struct Population {
  trace::SyntheticTrace trace;
  std::unordered_map<std::string, FileId> id_of_name;
  std::unordered_map<FileId, std::size_t> index_of_id;
  FileId put_base = 0;
  la::RowStandardizer base_std;  ///< z-scores over the base population

  Population(unsigned tif, unsigned downscale, std::uint64_t seed)
      : trace(trace::SyntheticTrace::generate(trace::msn_profile(), tif,
                                              seed, downscale)) {
    const auto& files = trace.files();
    id_of_name.reserve(files.size());
    index_of_id.reserve(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
      id_of_name.emplace(files[i].name, files[i].id);
      index_of_id.emplace(files[i].id, i);
      put_base = std::max(put_base, files[i].id + 1);
    }
    put_base = (put_base / kIdStride + 1) * kIdStride;
    base_std = core::fit_standardizer(files);
  }
  const std::vector<FileMetadata>& base() const { return trace.files(); }
  bool in_base(FileId id) const { return index_of_id.count(id) != 0; }
};

// ---- per-client state ---------------------------------------------------------

struct Failures {
  std::uint64_t count = 0;
  std::vector<std::string> first;
  void add(const std::string& msg) {
    ++count;
    if (first.size() < 4) first.push_back(msg);
  }
  void merge(const Failures& o) {
    count += o.count;
    for (const auto& m : o.first)
      if (first.size() < 8) first.push_back(m);
  }
};

/// What the Channel decorator attributes to the op in flight on this
/// thread. Router scatters run on the caller's thread, so a thread-local
/// pointer reaches every call an op makes.
struct TraceCtx {
  SpanLog* log = nullptr;
  std::uint32_t client = 0;
  std::uint64_t op = 0;
  std::int32_t op_span = -1;
  bool on = false;
  std::uint64_t calls = 0;
  std::uint64_t req_bytes = 0;
  std::uint64_t resp_bytes = 0;
};
thread_local TraceCtx* t_ctx = nullptr;

/// A range answer reduced to what its oracle needs: an order-free digest
/// of the base part, what was wrong with the ids beyond the base (checked
/// when the answer arrived), and, for answers kept as recall samples,
/// every id.
struct RangeSample {
  metadata::RangeQuery q;
  std::size_t base_count = 0;
  std::uint64_t base_hash = 0;
  std::size_t puts = 0;          ///< ids beyond the base population
  std::size_t unknown = 0;       ///< ... that are no issued put
  std::size_t outside = 0;       ///< ... that are puts outside the box
  std::vector<FileId> ids;
};
struct TopKSample {
  metadata::TopKQuery q;
  Hits hits;
};
/// A routed op the svc-scan traced run replays into a direct Store.
struct DirectOp {
  Cls cls;
  std::size_t put_index = 0;  ///< kPut
  std::string name;           ///< kPoint
  FileId want = 0;            ///< kPoint: the name's id, 0 if never created
};

struct Client {
  Client(const Population& pop, std::uint64_t seed, std::uint32_t id,
         const std::optional<svc::PartitionMap>& balance)
      : id(id),
        rng(mix(seed, id)),
        qgen(pop.trace, trace::QueryDistribution::kZipf, mix(seed, 100 + id)),
        puts(&pop.trace, seed, id, pop.put_base, balance) {
    ctx.log = &spans;
    ctx.client = id;
  }

  std::uint32_t id;
  util::Rng rng;
  trace::QueryGenerator qgen;
  PutStream puts;
  std::vector<std::size_t> live;       ///< embed-query: acked, not deleted

  std::array<std::vector<double>, kNumCls> lat;  ///< us per op, by class
  std::uint64_t ops = 0;
  std::uint64_t traced_ops = 0;
  std::uint64_t end_ns = 0;
  Failures failures;

  // quality and core accounting
  std::uint64_t point_expected = 0, point_found = 0;
  std::uint64_t points_found = 0, points_first_try = 0;
  std::uint64_t queries = 0, groups_visited = 0;
  std::uint64_t scanned = 0, scan_results = 0;
  std::uint64_t mutation_bytes = 0;
  std::vector<RangeSample> ranges;
  std::size_t kept_ranges = 0;
  std::vector<TopKSample> topks;
  std::vector<DirectOp> shard0_ops;

  SpanLog spans;
  TraceCtx ctx;
  svc::RouterStats router;
};

/// Everything a workload hands to the shared reporting code.
struct Outcome {
  std::vector<std::unique_ptr<Client>> clients;
  double window_s = 0;
  double traced_s = 0;    ///< share of the window in traced slices
  std::uint64_t window_ops = 0;
  std::uint64_t traced_ops = 0;
  ProcCounters window_proc;
  std::vector<double> setup_s;
  std::uint64_t attempted = 0;
  Failures failures;
  /// Per-class recall (point, range, top-k) pooled over the checked ops.
  double recall_sum[3] = {0, 0, 0};
  std::uint64_t recall_n[3] = {0, 0, 0};
  std::map<std::string, double> layer;  ///< per-layer values by name
  std::vector<std::string> notes;
  std::string span_path;

  void add_recall(int cls, double r) {
    recall_sum[cls] += r;
    ++recall_n[cls];
  }
};

// ---- the timed window -----------------------------------------------------------

struct Window {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  bool sliced = false;
  bool traced_at(std::uint64_t t) const {
    return sliced && ((t - start_ns) / kSliceNs) % 2 == 1;
  }
};

/// One timed op: opens the op span on traced ops, points the thread's
/// trace context at it, and records the call's latency.
template <class F>
auto timed(Client& c, Cls cls, bool traced, F&& call) {
  static const std::uint32_t kOpSpan[kNumCls] = {
      SpanLog::name_id("op.put"), SpanLog::name_id("op.delete"),
      SpanLog::name_id("op.point"), SpanLog::name_id("op.range"),
      SpanLog::name_id("op.topk")};
  const std::uint64_t op = c.ops++;
  c.ctx.on = traced;
  c.ctx.op = op;
  if (traced) {
    c.ctx.op_span = c.spans.open(kOpSpan[cls], -1, c.id, op);
    ++c.traced_ops;
  }
  const std::uint64_t t0 = now_ns();
  auto result = call();
  const std::uint64_t t1 = now_ns();
  if (traced) c.spans.close(c.ctx.op_span);
  c.ctx.on = false;
  c.lat[cls].push_back(static_cast<double>(t1 - t0) * 1e-3);
  c.end_ns = t1;
  return result;
}

/// A Store call inside a traced op gets its own db.<op> span.
template <class F>
auto db_call(Client& c, Cls cls, F&& call) {
  static const std::uint32_t kDbSpan[kNumCls] = {
      SpanLog::name_id("db.put"), SpanLog::name_id("db.delete"),
      SpanLog::name_id("db.point"), SpanLog::name_id("db.range"),
      SpanLog::name_id("db.topk")};
  if (!c.ctx.on) return call();
  const std::int32_t s = c.spans.open(kDbSpan[cls], c.ctx.op_span, c.id,
                                      c.ctx.op);
  auto result = call();
  c.spans.close(s);
  return result;
}

/// Runs `step` on every client's thread until the window closes.
void drive(std::vector<std::unique_ptr<Client>>& clients, const Window& w,
           const std::function<void(Client&, bool)>& step) {
  std::vector<std::thread> threads;
  for (auto& cp : clients) {
    Client* c = cp.get();
    threads.emplace_back([c, &w, &step] {
      t_ctx = &c->ctx;
      for (std::uint64_t t = now_ns(); t < w.end_ns; t = now_ns()) {
        step(*c, w.traced_at(t));
      }
      t_ctx = nullptr;
    });
  }
  for (auto& t : threads) t.join();
}

/// Opens the window, drives the clients, fills the window accounting.
void run_window(Outcome& out, const RunConfig& cfg,
                const std::function<void(Client&, bool)>& step) {
  Window w;
  w.sliced = cfg.trace;
  const ProcCounters before = read_proc();
  w.start_ns = now_ns();
  w.end_ns = w.start_ns + static_cast<std::uint64_t>(cfg.seconds * 1e9);
  drive(out.clients, w, step);
  out.window_proc = read_proc() - before;
  std::uint64_t last = w.end_ns;
  for (const auto& c : out.clients) {
    last = std::max(last, c->end_ns);
    out.window_ops += c->ops;
    out.traced_ops += c->traced_ops;
  }
  out.window_s = static_cast<double>(last - w.start_ns) * 1e-9;
  std::uint64_t traced_ns = 0;
  for (std::uint64_t s = w.start_ns; s < last; s += kSliceNs) {
    if (w.traced_at(s)) traced_ns += std::min(kSliceNs, last - s);
  }
  out.traced_s = static_cast<double>(traced_ns) * 1e-9;
  out.attempted += out.window_ops;
}

std::vector<std::unique_ptr<Client>> make_clients(
    const Population& pop, std::uint64_t seed,
    const std::optional<svc::PartitionMap>& balance = std::nullopt) {
  std::vector<std::unique_ptr<Client>> clients;
  for (std::uint32_t c = 0; c < kClients; ++c)
    clients.push_back(std::make_unique<Client>(pop, seed, c, balance));
  return clients;
}

/// Looks a record up among the base population and every client's puts.
const FileMetadata* lookup(const Population& pop,
                           const std::vector<std::unique_ptr<Client>>& clients,
                           FileId id) {
  const auto it = pop.index_of_id.find(id);
  if (it != pop.index_of_id.end()) return &pop.base()[it->second];
  for (const auto& c : clients)
    if (const FileMetadata* f = c->puts.find(id)) return f;
  return nullptr;
}

/// Runs `fn(i)` for i in [0, n) on kClients threads (oracle work).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> threads;
  std::atomic<std::size_t> next{0};
  for (std::uint32_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& t : threads) t.join();
}

// ---- oracles ---------------------------------------------------------------------

std::uint64_t base_digest(const std::vector<FileId>& ids, std::size_t* n) {
  std::uint64_t h = 0;
  for (const FileId id : ids) h += mix(id, 0);
  *n = ids.size();
  return h;
}

RangeSample range_sample(const Population& pop,
                         const std::vector<std::unique_ptr<Client>>& clients,
                         metadata::RangeQuery q, std::vector<FileId> ids,
                         bool keep_ids) {
  RangeSample s;
  s.q = std::move(q);
  for (const FileId id : ids) {
    if (id < pop.put_base) {
      ++s.base_count;
      s.base_hash += mix(id, 0);
      continue;
    }
    ++s.puts;
    const FileMetadata* f = lookup(pop, clients, id);
    if (!f) ++s.unknown;
    else if (!s.q.matches(*f)) ++s.outside;
  }
  if (keep_ids) s.ids = std::move(ids);
  return s;
}

/// Checks a range answer given while the base was immutable and puts ran
/// concurrently: every id beyond the base is an issued put inside the box,
/// kept base ids are inside the box, and (when `exact`) the base part
/// equals the base oracle. Recall is scored on kept answers only.
void check_range_live(const Population& pop, const RangeSample& s,
                      bool exact, Failures* fail, double* recall) {
  const std::vector<FileId> expected =
      core::brute_force_range(pop.base(), s.q);
  // Only queries with a non-empty base answer say anything about recall.
  *recall = s.ids.empty() || expected.empty() ? -1.0
                                              : set_recall(expected, s.ids);
  std::size_t unknown = s.unknown, outside = s.outside;
  for (const FileId id : s.ids) {
    const auto it = pop.index_of_id.find(id);
    if (it != pop.index_of_id.end() && !s.q.matches(pop.base()[it->second]))
      ++outside;
  }
  // One failure per wrong answer, however many ids are wrong in it.
  if (unknown + outside > 0) {
    fail->add("range answer of " + std::to_string(s.base_count + s.puts) +
              " ids holds " +
              std::to_string(unknown) + " unknown ids and " +
              std::to_string(outside) + " outside the box");
    return;
  }
  std::size_t want_n = 0;
  if (exact && (base_digest(expected, &want_n) != s.base_hash ||
                want_n != s.base_count)) {
    fail->add("range base answer differs from oracle: got " +
              std::to_string(s.base_count) + " base ids, want " +
              std::to_string(want_n));
  }
}

/// Top-k answer checks. Every hit is a real record and the answer is
/// sorted by (distance, id). When the answering store's standardizer is
/// known from outside (`store_std`), the reported distances must be right
/// under it. Exact answers are checked against the semantic oracle, the
/// z-scores of the base population: the base hits are the base oracle's
/// prefix and no rank is worse than the base oracle's (concurrent puts can
/// only improve a rank). Recall uses the same semantic distance.
void check_topk_live(const Population& pop,
                     const std::vector<std::unique_ptr<Client>>& clients,
                     const la::RowStandardizer* store_std,
                     const TopKSample& s, bool exact, Failures* fail,
                     double* recall) {
  // One failure per wrong answer: the first problem found names it.
  std::string problem;
  auto flag = [&](const std::string& p) {
    if (problem.empty()) problem = p;
  };
  Hits semantic, base_hits;
  for (std::size_t i = 0; i < s.hits.size(); ++i) {
    const auto& [dist, id] = s.hits[i];
    const FileMetadata* f = lookup(pop, clients, id);
    if (!f) {
      flag("top-k returned unknown id " + std::to_string(id));
      continue;
    }
    if (store_std && !close_enough(dist, std_dist2(*store_std, *f, s.q)))
      flag("top-k reported a wrong distance for id " + std::to_string(id));
    if (i > 0 && s.hits[i] < s.hits[i - 1])
      flag("top-k answer not sorted by (distance, id)");
    semantic.emplace_back(std_dist2(pop.base_std, *f, s.q), id);
    if (pop.in_base(id)) base_hits.push_back(semantic.back());
  }
  std::sort(semantic.begin(), semantic.end());
  std::sort(base_hits.begin(), base_hits.end());
  const Hits oracle = core::brute_force_topk(pop.base(), pop.base_std, s.q);
  *recall = topk_rank_recall(oracle, semantic);
  if (exact) {
    if (s.hits.size() != oracle.size()) {
      flag("top-k returned " + std::to_string(s.hits.size()) +
           " hits, want " + std::to_string(oracle.size()));
    }
    for (std::size_t i = 0; i < base_hits.size(); ++i) {
      if (i >= oracle.size() ||
          !close_enough(base_hits[i].first, oracle[i].first)) {
        flag("top-k base hits are not the base oracle's prefix");
        break;
      }
    }
    for (std::size_t i = 0; i < semantic.size() && i < oracle.size(); ++i) {
      if (semantic[i].first > oracle[i].first &&
          !close_enough(semantic[i].first, oracle[i].first)) {
        flag("top-k rank " + std::to_string(i) +
             " worse than the base oracle's");
        break;
      }
    }
  }
  if (!problem.empty()) fail->add(problem);
}

/// Checks every kept range/top-k sample on kClients threads.
void check_samples(Outcome& out, const Population& pop,
                   const la::RowStandardizer* store_std, bool exact) {
  struct Item {
    const Client* c;
    const RangeSample* r;
    const TopKSample* t;
  };
  std::vector<Item> items;
  for (const auto& c : out.clients) {
    for (const auto& r : c->ranges) items.push_back({c.get(), &r, nullptr});
    for (const auto& t : c->topks) items.push_back({c.get(), nullptr, &t});
  }
  std::vector<Failures> fails(items.size());
  std::vector<double> rec(items.size(), 0);
  parallel_for(items.size(), [&](std::size_t i) {
    if (items[i].r) {
      check_range_live(pop, *items[i].r, exact, &fails[i], &rec[i]);
    } else {
      check_topk_live(pop, out.clients, store_std, *items[i].t, exact,
                      &fails[i], &rec[i]);
    }
  });
  for (std::size_t i = 0; i < items.size(); ++i) {
    out.failures.merge(fails[i]);
    if (items[i].r) {
      if (rec[i] >= 0) out.add_recall(1, rec[i]);
    } else {
      out.add_recall(2, rec[i]);
    }
  }
}

/// Records the result-independent core accounting of one query answer.
void note_query(Client& c, const db::QueryResult& r) {
  ++c.queries;
  c.groups_visited += r.stats.groups_visited;
  if (r.kind != db::QueryKind::kPoint) {
    c.scanned += r.stats.records_scanned;
    c.scan_results += r.count();
  }
}

/// A point answer for a name drawn from the base or a never-created name.
/// A found answer must carry the right id; a base name not found is a
/// recall miss, and a hard failure when `exact`.
void check_point(const Population& pop, Client& c, const std::string& name,
                 const db::QueryResult& r, bool exact) {
  const auto it = pop.id_of_name.find(name);
  if (r.found) {
    ++c.points_found;
    if (r.first_try) ++c.points_first_try;
    if (it == pop.id_of_name.end() || r.id != it->second) {
      c.failures.add("point answer for " + name + " has the wrong id");
    }
  }
  if (it != pop.id_of_name.end()) {
    ++c.point_expected;
    if (r.found) {
      ++c.point_found;
    } else if (exact) {
      c.failures.add("point lookup missed base name " + name);
    }
  }
}

// ---- Channel decorator ------------------------------------------------------------

std::uint32_t call_span(rpc::Method m) {
  static const std::uint32_t kPut = SpanLog::name_id("rpc.call.put"),
                             kDel = SpanLog::name_id("rpc.call.delete"),
                             kPoint = SpanLog::name_id("rpc.call.point"),
                             kRange = SpanLog::name_id("rpc.call.range"),
                             kTop = SpanLog::name_id("rpc.call.topk"),
                             kPin = SpanLog::name_id("rpc.call.snap_pin"),
                             kRel = SpanLog::name_id("rpc.call.snap_release"),
                             kOther = SpanLog::name_id("rpc.call.other");
  switch (m) {
    case rpc::Method::kPut: return kPut;
    case rpc::Method::kDelete: return kDel;
    case rpc::Method::kPointQuery: return kPoint;
    case rpc::Method::kRangeQuery: return kRange;
    case rpc::Method::kTopKQuery: return kTop;
    case rpc::Method::kSnapPin: return kPin;
    case rpc::Method::kSnapRelease: return kRel;
    default: return kOther;
  }
}

/// Wraps a client channel: on traced ops, records an rpc.call span per
/// call, then costs the wire codec by encoding and decoding the same
/// request and response frames again under an rpc.codec span.
class TracedChannel : public rpc::Channel {
 public:
  explicit TracedChannel(std::shared_ptr<rpc::Channel> inner)
      : inner_(std::move(inner)) {}

  db::Status Call(const rpc::Frame& req, rpc::Frame* resp) override {
    static const std::uint32_t kCodec = SpanLog::name_id("rpc.codec");
    TraceCtx* ctx = t_ctx;
    if (!ctx || !ctx->on) return inner_->Call(req, resp);
    const std::int32_t call = ctx->log->open(call_span(req.method),
                                             ctx->op_span, ctx->client,
                                             ctx->op);
    const db::Status s = inner_->Call(req, resp);
    ctx->log->close(call);
    const std::int32_t codec =
        ctx->log->open(kCodec, ctx->op_span, ctx->client, ctx->op);
    rpc::Frame scratch;
    std::vector<std::uint8_t> bytes = rpc::encode_frame(req);
    (void)rpc::decode_frame(bytes, &scratch);
    ctx->req_bytes += bytes.size();
    if (s.ok()) {
      bytes = rpc::encode_frame(*resp);
      (void)rpc::decode_frame(bytes, &scratch);
      ctx->resp_bytes += bytes.size();
    }
    ctx->log->close(codec);
    ++ctx->calls;
    return s;
  }

 private:
  std::shared_ptr<rpc::Channel> inner_;
};

// ---- per-layer accounting from the spans ----------------------------------------

double p50_of(std::vector<double> v) { return summarize(std::move(v)).p50; }

void layer_from_spans(Outcome& out) {
  const auto& names = SpanLog::names();
  std::map<std::string, std::vector<double>> by_name;
  std::vector<double> self_us;
  double codec_us = 0;
  std::uint64_t calls = 0, req_bytes = 0, resp_bytes = 0, traced_ops = 0;
  for (const auto& c : out.clients) {
    const auto& spans = c->spans.spans();
    std::vector<double> child_us(spans.size(), 0);
    for (const Span& s : spans) {
      const double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
      by_name[names[s.name]].push_back(us);
      if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += us;
      if (names[s.name] == "rpc.codec") codec_us += us;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0 || names[spans[i].name].rfind("op.", 0) != 0)
        continue;
      const double us =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-3;
      self_us.push_back(us - child_us[i]);
    }
    calls += c->ctx.calls;
    req_bytes += c->ctx.req_bytes;
    resp_bytes += c->ctx.resp_bytes;
    traced_ops += c->traced_ops;
  }
  if (calls > 0) {
    const double n = static_cast<double>(calls);
    out.layer["router.self_us_p50"] = p50_of(self_us);
    out.layer["router.calls_per_op"] = n / static_cast<double>(traced_ops);
    out.layer["rpc.req_bytes_per_call"] = static_cast<double>(req_bytes) / n;
    out.layer["rpc.resp_bytes_per_call"] = static_cast<double>(resp_bytes) / n;
    out.layer["rpc.codec_us_per_call"] = codec_us / n;
  }
  for (const char* m :
       {"put", "delete", "point", "range", "topk", "snap_pin", "snap_release"}) {
    const auto it = by_name.find(std::string("rpc.call.") + m);
    if (it == by_name.end()) continue;
    const Summary s = summarize(it->second);
    out.layer[std::string("rpc.call_us_p50.") + m] = s.p50;
    out.layer[std::string("rpc.call_us_p99.") + m] = s.tail;
  }
  for (int k = 0; k < kNumCls; ++k) {
    const auto it = by_name.find(std::string("db.") + kClsName[k]);
    if (it == by_name.end()) continue;
    const Summary s = summarize(it->second);
    out.layer[std::string("db.") + kClsName[k] + "_us_p50"] = s.p50;
    out.layer[std::string("db.") + kClsName[k] + "_us_p99"] = s.tail;
  }
}

void layer_from_clients(Outcome& out) {
  std::uint64_t queries = 0, groups = 0, scanned = 0, results = 0;
  std::uint64_t found = 0, first_try = 0, expected = 0, hit = 0, bytes = 0;
  std::uint64_t mutations = 0;
  svc::RouterStats rs;
  for (const auto& c : out.clients) {
    queries += c->queries;
    groups += c->groups_visited;
    scanned += c->scanned;
    results += c->scan_results;
    found += c->points_found;
    first_try += c->points_first_try;
    expected += c->point_expected;
    hit += c->point_found;
    bytes += c->mutation_bytes;
    mutations += c->lat[kPut].size() + c->lat[kDelete].size();
    rs.retries += c->router.retries;
    rs.redirects += c->router.redirects;
    rs.unpinned_scatters += c->router.unpinned_scatters;
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out.layer["core.records_scanned_per_result"] =
      ratio(static_cast<double>(scanned), static_cast<double>(results));
  out.layer["core.groups_visited_per_query"] =
      ratio(static_cast<double>(groups), static_cast<double>(queries));
  out.layer["core.point_first_try_ratio"] =
      ratio(static_cast<double>(first_try), static_cast<double>(found));
  out.layer["core.point_hit_ratio"] =
      ratio(static_cast<double>(hit), static_cast<double>(expected));
  out.layer["router.retries"] = static_cast<double>(rs.retries);
  out.layer["router.redirects"] = static_cast<double>(rs.redirects);
  out.layer["router.unpinned_scatters"] =
      static_cast<double>(rs.unpinned_scatters);
  const ProcCounters& p = out.window_proc;
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, out.window_ops));
  out.layer["proc.cpu_util"] = ratio(p.cpu_s, p.wall_s);
  out.layer["proc.vcsw_per_op"] = p.vcsw / ops;
  out.layer["proc.ivcsw_per_op"] = p.ivcsw / ops;
  // The window's own write traffic, unless the store-direct leg measured
  // its WAL's.
  out.layer.emplace("wal.wchar_per_user_byte",
                    ratio(p.wchar, static_cast<double>(bytes)));
  out.layer.emplace("wal.syscw_per_mutation",
                    ratio(p.syscw, static_cast<double>(mutations)));
  const double untraced_s = out.window_s - out.traced_s;
  const double traced_rate = ratio(static_cast<double>(out.traced_ops),
                                   out.traced_s);
  const double untraced_rate = ratio(
      static_cast<double>(out.window_ops - out.traced_ops), untraced_s);
  out.layer["trace.traced_ops_per_s"] = traced_rate;
  out.layer["trace.untraced_ops_per_s"] = untraced_rate;
  out.layer["trace.overhead"] =
      traced_rate > 0 ? untraced_rate / traced_rate - 1.0 : 0.0;
}

void layer_from_shards(Outcome& out, svc::Router& r) {
  double dup = 0, max_files = 0, sum_files = 0;
  for (std::uint32_t s = 0; s < r.num_shards(); ++s) {
    auto st = r.Stats(s);
    if (!st.ok()) {
      out.failures.add("shard stats: " + st.status().ToString());
      continue;
    }
    dup += static_cast<double>(st->dup_hits);
    max_files = std::max(max_files, static_cast<double>(st->total_files));
    sum_files += static_cast<double>(st->total_files);
  }
  out.layer["meta.dup_hits"] = dup;
  out.layer["meta.shard_files_max_over_mean"] =
      sum_files > 0 ? max_files / (sum_files / r.num_shards()) : 0;
}

double property(db::Store& store, const std::string& name) {
  std::string v;
  return store.GetProperty(name, &v) ? std::strtod(v.c_str(), nullptr) : 0.0;
}

std::size_t encoded_size(const FileMetadata& f) {
  std::vector<std::uint8_t> buf;
  rpc::encode_file(f, &buf);
  return buf.size();
}

// ---- sizes -----------------------------------------------------------------------

struct Shape {
  unsigned tif;
  unsigned downscale;
  std::size_t units;  ///< storage units per store
  int setups;         ///< set-up repetitions (median reported)
  std::size_t sample_cap;  ///< recall samples per client and class
};

Shape shape_for(const std::string& workload, bool smoke) {
  if (workload == "embed-query")
    return smoke ? Shape{1, 10, 8, 1, 20} : Shape{8, 1, 60, 11, 500};
  return smoke ? Shape{1, 10, 4, 1, 20} : Shape{2, 1, 15, 9, 100};
}

db::Options store_options(const Shape& sh, std::uint64_t seed,
                          db::Routing routing) {
  db::Options o;
  o.num_units = sh.units;
  o.fanout = 8;
  o.seed = seed;
  o.routing = routing;
  return o;
}

/// The direct leg's checkpoint cadence (acked mutations between checkpoint
/// triggers). Short enough that the cadence is never what limits
/// checkpointing: under this write load a cut runs for seconds, and
/// triggers that arrive while one is in flight are folded into it.
constexpr std::size_t kCheckpointEvery = 500;

// ---- embed-query -----------------------------------------------------------------

void embed_query(const RunConfig& cfg, Outcome& out) {
  const Shape sh = shape_for(cfg.workload, cfg.smoke);
  const Population pop(sh.tif, sh.downscale, kTraceSeed);
  out.notes.push_back("base files " + std::to_string(pop.base().size()) +
                      ", units " + std::to_string(sh.units) +
                      ", offline routing, 4 clients");
  std::unique_ptr<db::Store> store;
  for (int i = 0; i < sh.setups; ++i) {
    store.reset();
    const std::uint64_t t0 = now_ns();
    db::Options o = store_options(sh, kTraceSeed, db::Routing::kOffline);
    o.in_memory = true;
    auto opened = db::Store::Open(o, "");
    if (!opened.ok()) throw std::runtime_error(opened.status().ToString());
    store = std::move(opened).value();
    const db::Status s = store->Bulkload(pop.base());
    if (!s.ok()) throw std::runtime_error("bulkload: " + s.ToString());
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  out.clients = make_clients(pop, cfg.seed);
  const metadata::AttrSubset dims = query_dims();
  db::Store* st = store.get();
  run_window(out, cfg, [&](Client& c, bool traced) {
    const double u = c.rng.uniform();
    Cls cls = u < 0.40   ? kPoint
              : u < 0.55 ? kRange
              : u < 0.70 ? kTopK
              : u < 0.95 ? kPut
                         : kDelete;
    if (cls == kDelete && c.live.empty()) cls = kPut;
    switch (cls) {
      case kPut: {
        const std::size_t i = c.puts.next();
        const FileMetadata& f = c.puts.at(i);
        const db::Status s = timed(c, kPut, traced, [&] {
          return db_call(c, kPut, [&] { return st->Put(f); });
        });
        c.mutation_bytes += encoded_size(f);
        if (!s.ok()) c.failures.add("put: " + s.ToString());
        else c.live.push_back(i);
        break;
      }
      case kDelete: {
        const std::size_t pick =
            static_cast<std::size_t>(c.rng.uniform_u64(c.live.size()));
        const std::string& name = c.puts.at(c.live[pick]).name;
        const db::Status s = timed(c, kDelete, traced, [&] {
          return db_call(c, kDelete, [&] { return st->Delete(name); });
        });
        c.mutation_bytes += name.size();
        if (!s.ok()) {
          c.failures.add("delete: " + s.ToString());
        } else {
          c.live[pick] = c.live.back();
          c.live.pop_back();
        }
        break;
      }
      case kPoint: {
        const std::string name = c.qgen.gen_point(0.9).filename;
        auto r = timed(c, kPoint, traced, [&] {
          return db_call(c, kPoint,
                         [&] { return st->Query(db::QueryRequest::Point(name)); });
        });
        if (!r.ok()) {
          c.failures.add("point: " + r.status().ToString());
          break;
        }
        note_query(c, *r);
        check_point(pop, c, name, *r, /*exact=*/false);
        break;
      }
      case kRange: {
        metadata::RangeQuery q = c.qgen.gen_range(dims, 0.05);
        auto r = timed(c, kRange, traced, [&] {
          return db_call(c, kRange,
                         [&] { return st->Query(db::QueryRequest::Range(q)); });
        });
        if (!r.ok()) {
          c.failures.add("range: " + r.status().ToString());
          break;
        }
        note_query(c, *r);
        if (c.lat[kRange].size() % 16 == 1 && c.ranges.size() < sh.sample_cap)
          c.ranges.push_back(range_sample(pop, out.clients, std::move(q),
                                          std::move(r->ids), true));
        break;
      }
      case kTopK: {
        metadata::TopKQuery q = c.qgen.gen_topk(dims, 8);
        auto r = timed(c, kTopK, traced, [&] {
          return db_call(c, kTopK,
                         [&] { return st->Query(db::QueryRequest::TopK(q)); });
        });
        if (!r.ok()) {
          c.failures.add("top-k: " + r.status().ToString());
          break;
        }
        note_query(c, *r);
        if (c.lat[kTopK].size() % 16 == 1 && c.topks.size() < sh.sample_cap)
          c.topks.push_back({std::move(q), std::move(r->hits)});
        break;
      }
      default:
        break;
    }
  });

  // Offline routing is approximate: answers are checked for soundness
  // (real records, inside the box, right distances) and scored for recall.
  // The store was bulk-loaded with the base, so it ranks by the base's
  // z-scores.
  check_samples(out, pop, &pop.base_std, /*exact=*/false);
  for (const auto& c : out.clients) {
    if (c->point_expected > 0)
      out.add_recall(0, static_cast<double>(c->point_found) /
                            static_cast<double>(c->point_expected));
  }
  out.layer["core.mvcc_tombstones"] =
      property(*store, "smartstore.mvcc.tombstones");
  const db::Status s = store->Close();
  if (!s.ok()) out.failures.add("close: " + s.ToString());
}

// ---- store-direct leg: the persist layer ----------------------------------------

struct CkptEvent {
  std::uint64_t t_ns;
  double busy_s;  ///< freeze + write + truncate of the checkpoint
  double freeze_s;
  double write_s;
};

/// Replays shard 0's routed ops into a db::Store opened with the shards'
/// store Options: WAL bytes and syscalls from /proc/self/io, checkpoint
/// cuts/folds polled from GetCheckpointInfo, write latency inside and
/// outside checkpoints, then a crash and a timed recovery.
void direct_leg(const RunConfig& cfg, Outcome& out, const Population& pop,
                const svc::PartitionMap& map, const db::Options& options) {
  namespace fs = std::filesystem;
  const std::string dir = cfg.data_dir + "/direct";
  fs::remove_all(dir);
  auto opened = db::Store::Open(options, dir);
  if (!opened.ok())
    throw std::runtime_error("direct open: " + opened.status().ToString());
  std::unique_ptr<db::Store> store = std::move(opened).value();
  std::size_t live_expected = 0;
  {
    db::WriteBatch batch;
    for (const FileMetadata& f : pop.base())
      if (map.shard_of(f.name) == 0) batch.Put(f);
    live_expected = batch.size();
    const db::Status s = store->Write(std::move(batch));
    if (!s.ok()) throw std::runtime_error("direct load: " + s.ToString());
  }

  std::atomic<bool> stop{false};
  std::vector<CkptEvent> events;
  std::thread poller([&] {
    db::CheckpointInfo last = store->GetCheckpointInfo();
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      const db::CheckpointInfo now = store->GetCheckpointInfo();
      if (now.completed != last.completed ||
          now.delta_cuts != last.delta_cuts ||
          now.delta_folds != last.delta_folds) {
        events.push_back({now_ns(),
                          now.last_freeze_s + now.last_write_s +
                              now.last_truncate_s,
                          now.last_freeze_s, now.last_write_s});
      }
      last = now;
    }
  });

  static const std::uint32_t kDb[kNumCls] = {
      SpanLog::name_id("db.put"), SpanLog::name_id("db.delete"),
      SpanLog::name_id("db.point"), SpanLog::name_id("db.range"),
      SpanLog::name_id("db.topk")};
  struct Write {
    std::uint64_t start, end;
  };
  std::vector<std::vector<Write>> writes(kClients);
  std::vector<Failures> fails(kClients);
  std::uint64_t user_bytes = 0, mutations = 0;
  std::unordered_map<std::string, std::size_t> live_bytes;
  for (const FileMetadata& f : pop.base())
    if (map.shard_of(f.name) == 0) live_bytes[f.name] = encoded_size(f);
  for (const auto& c : out.clients) {
    for (const DirectOp& op : c->shard0_ops) {
      if (op.cls != kPut) continue;
      const FileMetadata& f = c->puts.at(op.put_index);
      user_bytes += encoded_size(f);
      live_bytes[f.name] = encoded_size(f);
      ++live_expected;
      ++mutations;
    }
  }
  double live_total = 0;
  for (const auto& [name, n] : live_bytes) live_total += static_cast<double>(n);
  const ProcCounters before = read_proc();
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client& c = *out.clients[t];
      std::uint64_t n = 0;
      for (const DirectOp& op : c.shard0_ops) {
        const std::int32_t span = c.spans.open(kDb[op.cls], -1, c.id, n++);
        const std::uint64_t t0 = now_ns();
        if (op.cls == kPut) {
          const db::Status s = store->Put(c.puts.at(op.put_index));
          const std::uint64_t t1 = now_ns();
          c.spans.close(span);
          writes[t].push_back({t0, t1});
          if (!s.ok()) fails[t].add("direct put: " + s.ToString());
          continue;
        }
        // A base name is found with its id; a never-created one is not.
        auto r = store->Query(db::QueryRequest::Point(op.name));
        c.spans.close(span);
        if (!r.ok()) fails[t].add("direct point: " + r.status().ToString());
        else if (r->found != (op.want != 0) || (r->found && r->id != op.want))
          fails[t].add("direct point lookup of " + op.name + " is wrong");
      }
    });
  }
  for (auto& t : threads) t.join();
  const ProcCounters io = read_proc() - before;
  // Let an in-flight checkpoint finish before sampling its accounting.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop = true;
  poller.join();
  for (const Failures& f : fails) out.failures.merge(f);
  out.attempted += [&] {
    std::uint64_t n = 0;
    for (const auto& c : out.clients) n += c->shard0_ops.size();
    return n;
  }();

  // Writes overlapping a checkpoint's busy interval vs the rest.
  std::vector<double> stall, quiet;
  for (const auto& per : writes) {
    for (const Write& w : per) {
      bool hit = false;
      for (const CkptEvent& e : events) {
        const auto busy_ns = static_cast<std::uint64_t>(
            std::max(e.busy_s * 1e9, 500'000.0));
        if (w.end + busy_ns >= e.t_ns && w.start <= e.t_ns) hit = true;
      }
      (hit ? stall : quiet).push_back(static_cast<double>(w.end - w.start) *
                                      1e-3);
    }
  }
  double freeze = 0, write = 0;
  for (const CkptEvent& e : events) {
    freeze += e.freeze_s;
    write += e.write_s;
  }
  const db::CheckpointInfo info = store->GetCheckpointInfo();
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out.layer["wal.wchar_per_user_byte"] =
      ratio(io.wchar, static_cast<double>(user_bytes));
  out.layer["wal.syscw_per_mutation"] =
      ratio(io.syscw, static_cast<double>(mutations));
  out.layer["wal.group_commit_effective"] =
      property(*store, "smartstore.wal.group-commit.effective");
  out.layer["core.mvcc_tombstones"] =
      property(*store, "smartstore.mvcc.tombstones");
  out.layer["ckpt.cuts"] = static_cast<double>(info.delta_cuts);
  out.layer["ckpt.folds"] = static_cast<double>(info.delta_folds);
  out.layer["ckpt.freeze_s"] = ratio(freeze, static_cast<double>(events.size()));
  out.layer["ckpt.cut_write_s"] = ratio(write, static_cast<double>(events.size()));
  out.layer["ckpt.stall_write_p99_us"] = summarize(stall).tail;
  out.layer["ckpt.quiet_write_p99_us"] = summarize(quiet).tail;
  out.layer["ckpt.chain_bytes"] = static_cast<double>(info.delta_chain_bytes);
  out.layer["ckpt.dir_bytes"] = static_cast<double>(dir_bytes(dir));
  out.layer["persist.space_amp"] = ratio(out.layer["ckpt.dir_bytes"], live_total);
  out.notes.push_back("direct leg: " + std::to_string(mutations) +
                      " mutations replayed into one shard's store, " +
                      std::to_string(events.size()) + " checkpoint events, " +
                      std::to_string(stall.size()) + " writes during them");

  store->Abandon();
  store.reset();
  const std::uint64_t t0 = now_ns();
  auto reopened = db::Store::Open(options, dir);
  if (!reopened.ok()) {
    out.failures.add("direct reopen: " + reopened.status().ToString());
    return;
  }
  const double recover_s = static_cast<double>(now_ns() - t0) * 1e-9;
  out.layer["recovery.recover_s"] = recover_s;
  const db::RecoveryInfo& ri = (*reopened)->recovery_info();
  out.layer["recovery.replayed_records"] =
      static_cast<double>(ri.wal_records + ri.delta_records);
  out.layer["recovery.delta_cuts_applied"] = static_cast<double>(ri.delta_cuts);
  out.notes.push_back("direct leg recovery " + std::to_string(recover_s) +
                      " s");
  const double files = property(**reopened, "smartstore.total-files");
  if (files != static_cast<double>(live_expected)) {
    out.failures.add("direct leg recovered " + std::to_string(files) +
                     " files, want " + std::to_string(live_expected));
  }
  ++out.attempted;
  (void)(*reopened)->Close();
}

// ---- svc-scan --------------------------------------------------------------------

/// The service deployment svc-scan drives: kShards in-memory shard stores,
/// each behind a MetaService bound on an in-process network (every call
/// round-trips through the wire codec), reached through svc::Router.
///
/// svc::Cluster wires the same pieces, but it opens its shard stores empty
/// and fills them by Put, and a store that was never bulk-loaded keeps the
/// standardizer of an empty population: all its z-scores are 0, so every
/// range answer is the whole shard and every top-k distance is 0. Shards
/// that standardize apart would also make the Router's top-k merge compare
/// unlike distances. So each shard here is bulk-loaded with the whole base,
/// which gives every shard the population's z-scores, as one SmartStore
/// over the population has, and then deletes the base records it does not
/// own under the partition map.
class Service {
 public:
  Service(const Population& pop, const db::Options& options)
      : map_(svc::PartitionMap::RoundRobin(kShards)) {
    for (std::uint32_t s = 0; s < kShards; ++s) {
      db::Options o = options;
      o.in_memory = true;
      o.seed = mix(options.seed, s);  // distinct placement per shard
      auto opened = db::Store::Open(o, "");
      if (!opened.ok())
        throw std::runtime_error("shard open: " + opened.status().ToString());
      std::unique_ptr<db::Store> store = std::move(opened).value();
      db::Status st = store->Bulkload(pop.base());
      if (!st.ok()) throw std::runtime_error("shard bulkload: " + st.ToString());
      db::WriteBatch trim;
      for (const FileMetadata& f : pop.base())
        if (map_.shard_of(f.name) != s) trim.Delete(f.name);
      st = store->Write(std::move(trim));
      if (!st.ok()) throw std::runtime_error("shard trim: " + st.ToString());
      svc::MetaServiceOptions so;
      so.shard_id = s;
      services_.push_back(
          std::make_unique<svc::MetaService>(store.get(), map_, so));
      stores_.push_back(std::move(store));
      net_.Bind(s, services_.back()->handler());
    }
  }
  const svc::PartitionMap& map() const { return map_; }

  std::unique_ptr<svc::Router> router(std::uint64_t client_id, bool traced) {
    std::vector<std::shared_ptr<rpc::Channel>> ch;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      ch.push_back(net_.Connect(s));
      if (traced) ch.back() = std::make_shared<TracedChannel>(ch.back());
    }
    svc::RouterOptions o;
    o.client_id = client_id;
    return std::make_unique<svc::Router>(std::move(ch), map_, o);
  }

  /// Unbinds every endpoint, then closes the stores.
  db::Status Stop() {
    for (std::uint32_t s = 0; s < kShards; ++s) net_.Unbind(s);
    db::Status first;
    for (auto& store : stores_) {
      const db::Status st = store->Close();
      if (first.ok() && !st.ok()) first = st;
    }
    return first;
  }

 private:
  svc::PartitionMap map_;
  // Members are destroyed in reverse order: the endpoints go before the
  // services they call, and the services before their stores.
  std::vector<std::unique_ptr<db::Store>> stores_;
  std::vector<std::unique_ptr<svc::MetaService>> services_;
  rpc::InprocNetwork net_;
};

void svc_scan(const RunConfig& cfg, Outcome& out) {
  const Shape sh = shape_for(cfg.workload, cfg.smoke);
  const Population pop(sh.tif, sh.downscale, kTraceSeed);
  out.notes.push_back("base files " + std::to_string(pop.base().size()) +
                      ", 4 shards x " + std::to_string(sh.units) +
                      " units, in memory, online routing, 4 clients");
  const db::Options options =
      store_options(sh, kTraceSeed, db::Routing::kOnline);
  std::unique_ptr<Service> service;
  for (int i = 0; i < sh.setups; ++i) {
    service.reset();
    const std::uint64_t t0 = now_ns();
    service = std::make_unique<Service>(pop, options);
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  const svc::PartitionMap map = service->map();
  out.clients = make_clients(pop, cfg.seed, map);
  std::vector<std::unique_ptr<svc::Router>> routers;
  for (std::uint32_t c = 0; c < kClients; ++c)
    routers.push_back(service->router(100 + c, cfg.trace));
  const metadata::AttrSubset dims = query_dims();
  run_window(out, cfg, [&](Client& c, bool traced) {
    svc::Router& router = *routers[c.id];
    const double u = c.rng.uniform();
    const Cls cls = u < 0.50 ? kPoint : u < 0.65 ? kRange : u < 0.80 ? kTopK
                                                                     : kPut;
    switch (cls) {
      case kPut: {
        const std::size_t i = c.puts.next();
        const FileMetadata& f = c.puts.at(i);
        const db::Status s =
            timed(c, kPut, traced, [&] { return router.Put(f); });
        c.mutation_bytes += encoded_size(f);
        if (!s.ok()) c.failures.add("put: " + s.ToString());
        if (cfg.trace && map.shard_of(f.name) == 0)
          c.shard0_ops.push_back({kPut, i, {}});
        break;
      }
      case kPoint: {
        const std::string name = c.qgen.gen_point(0.9).filename;
        auto r = timed(c, kPoint, traced, [&] { return router.Point(name); });
        if (!r.ok()) {
          c.failures.add("point: " + r.status().ToString());
          break;
        }
        note_query(c, *r);
        check_point(pop, c, name, *r, /*exact=*/true);
        if (cfg.trace && map.shard_of(name) == 0) {
          const auto it = pop.id_of_name.find(name);
          c.shard0_ops.push_back(
              {kPoint, 0, name, it == pop.id_of_name.end() ? 0 : it->second});
        }
        break;
      }
      case kRange: {
        metadata::RangeQuery q = c.qgen.gen_range(dims, 0.05);
        auto r = timed(c, kRange, traced, [&] { return router.Range(q); });
        if (!r.ok()) {
          c.failures.add("range: " + r.status().ToString());
          break;
        }
        note_query(c, *r);
        // Every answer is checked; every 4th (up to the cap) also keeps
        // its ids for recall.
        const bool keep =
            c.lat[kRange].size() % 4 == 1 && ++c.kept_ranges <= sh.sample_cap;
        c.ranges.push_back(range_sample(pop, out.clients, std::move(q),
                                        std::move(r->ids), keep));
        break;
      }
      case kTopK: {
        metadata::TopKQuery q = c.qgen.gen_topk(dims, 8);
        auto r = timed(c, kTopK, traced, [&] { return router.TopK(q); });
        if (!r.ok()) {
          c.failures.add("top-k: " + r.status().ToString());
          break;
        }
        note_query(c, *r);
        c.topks.push_back({std::move(q), std::move(r->hits)});
        break;
      }
      default:
        break;
    }
  });
  for (std::uint32_t c = 0; c < kClients; ++c)
    out.clients[c]->router = routers[c]->stats();

  // Pinned scatters are exact scans: every answer must equal the oracle on
  // the base part and hold only issued puts beyond it, and every shard
  // ranks by the base's z-scores.
  check_samples(out, pop, &pop.base_std, /*exact=*/true);
  for (const auto& c : out.clients) {
    if (c->point_expected > 0)
      out.add_recall(0, static_cast<double>(c->point_found) /
                            static_cast<double>(c->point_expected));
  }
  if (cfg.trace) layer_from_shards(out, *service->router(900, false));
  const db::Status s = service->Stop();
  if (!s.ok()) out.failures.add("stop: " + s.ToString());
  service.reset();
  // The persist layer, measured on this workload's own shard-0 traffic
  // replayed into a durable store (the service itself is in memory).
  if (cfg.trace) {
    db::Options durable = options;
    durable.checkpoint_every = cfg.smoke ? 200 : kCheckpointEvery;
    direct_leg(cfg, out, pop, map, durable);
  }
}

// ---- report ----------------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"router.self_us_p50", "us"},
        {"router.calls_per_op", "calls/op"},
        {"router.retries", "count"},
        {"router.redirects", "count"},
        {"router.unpinned_scatters", "count"},
        {"meta.dup_hits", "count"},
        {"meta.shard_files_max_over_mean", "ratio"}};
    for (const char* q : {"p50", "p99"})
      for (const char* m : {"put", "delete", "point", "range", "topk",
                            "snap_pin", "snap_release"})
        v.push_back({std::string("rpc.call_us_") + q + "." + m, "us"});
    v.insert(v.end(), {{"rpc.req_bytes_per_call", "B/call"},
                       {"rpc.resp_bytes_per_call", "B/call"},
                       {"rpc.codec_us_per_call", "us/call"}});
    for (int k = 0; k < kNumCls; ++k)
      for (const char* q : {"p50", "p99"})
        v.push_back({std::string("db.") + kClsName[k] + "_us_" + q, "us"});
    v.insert(v.end(),
             {{"core.records_scanned_per_result", "ratio"},
              {"core.groups_visited_per_query", "groups/op"},
              {"core.point_first_try_ratio", "ratio"},
              {"core.point_hit_ratio", "ratio"},
              {"core.mvcc_tombstones", "count"},
              {"proc.cpu_util", "cores"},
              {"proc.vcsw_per_op", "1/op"},
              {"proc.ivcsw_per_op", "1/op"},
              {"wal.wchar_per_user_byte", "ratio"},
              {"wal.syscw_per_mutation", "1/op"},
              {"wal.group_commit_effective", "records"},
              {"ckpt.cuts", "count"},
              {"ckpt.folds", "count"},
              {"ckpt.freeze_s", "s"},
              {"ckpt.cut_write_s", "s"},
              {"ckpt.stall_write_p99_us", "us"},
              {"ckpt.quiet_write_p99_us", "us"},
              {"ckpt.chain_bytes", "B"},
              {"ckpt.dir_bytes", "B"},
              {"recovery.replayed_records", "count"},
              {"recovery.delta_cuts_applied", "count"},
              {"recovery.recover_s", "s"},
              {"persist.space_amp", "ratio"},
              {"trace.traced_ops_per_s", "1/s"},
              {"trace.untraced_ops_per_s", "1/s"},
              {"trace.overhead", "ratio"},
              {"harness.fail_ratio", "ratio"}});
    return v;
  }();
  return kList;
}

int report(const RunConfig& cfg, Outcome& out) {
  for (const auto& c : out.clients) out.failures.merge(c->failures);
  Report rep;
  rep.note("workload " + cfg.workload + ", seed " + std::to_string(cfg.seed) +
           ", window " + std::to_string(out.window_s) + " s, " +
           std::to_string(out.window_ops) + " ops by 4 closed-loop clients");
  for (const std::string& n : out.notes) rep.note(n);
  const double fail_ratio =
      static_cast<double>(out.failures.count) /
      static_cast<double>(std::max<std::uint64_t>(1, out.attempted));
  rep.note("fail_ratio " + std::to_string(fail_ratio) + " (" +
           std::to_string(out.failures.count) + " of " +
           std::to_string(out.attempted) + ")");
  for (const std::string& m : out.failures.first) rep.note("FAILED: " + m);
  const char* cls_names[3] = {"point", "range", "top-k"};
  double recall = 0;
  int classes = 0;
  for (int k = 0; k < 3; ++k) {
    if (out.recall_n[k] == 0) continue;
    const double r = out.recall_sum[k] / static_cast<double>(out.recall_n[k]);
    rep.note(std::string(cls_names[k]) + " recall " + std::to_string(r) +
             " over " + std::to_string(out.recall_n[k]) + " checked answers");
    recall += r;
    ++classes;
  }
  recall = classes > 0 ? recall / classes : 0;

  if (!cfg.trace) {
    // Rates and latencies are pooled over the whole window: embed-query's
    // store grows through the run and its op rate falls several-fold, so
    // any one stretch of the window (or a median over stretches, which
    // picks the middle one) carries the run's noise undamped.
    rep.add("ops_per_s", static_cast<double>(out.window_ops) / out.window_s,
            "1/s");
    // The gated tail is p90: on a shared 4-vCPU machine a run's p99 moved
    // with its neighbours' load far beyond any usable bound. p99 is noted.
    auto latency = [&](const char* name, std::initializer_list<Cls> classes_in) {
      std::vector<double> all;
      for (const Cls k : classes_in)
        for (const auto& c : out.clients)
          all.insert(all.end(), c->lat[k].begin(), c->lat[k].end());
      const Summary gated = summarize(all, 90);
      rep.add_latency(name, gated, summarize(std::move(all), 99));
    };
    latency("write", {kPut, kDelete});
    latency("point", {kPoint});
    latency("range", {kRange});
    latency("topk", {kTopK});
    rep.add("recall", recall, "ratio");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::ostringstream setups;
    for (const double s : out.setup_s) setups << " " << s;
    rep.note("setup runs (s):" + setups.str());
    rep.add("setup_s", summarize(out.setup_s).p50, "s");
  } else {
    layer_from_spans(out);
    layer_from_clients(out);
    out.layer["harness.fail_ratio"] = fail_ratio;
    for (const auto& [name, unit] : layer_metrics()) {
      const auto it = out.layer.find(name);
      rep.add(name, it == out.layer.end() ? 0.0 : it->second, unit);
    }
    std::vector<SpanLog> logs;
    for (auto& c : out.clients) logs.push_back(c->spans);
    const std::string path =
        cfg.data_dir + "/spans-" + cfg.workload + "-" +
        std::to_string(cfg.seed) + ".csv";
    std::size_t n = 0;
    for (const auto& l : logs) n += l.spans().size();
    rep.note(write_spans(path, logs)
                 ? "spans: " + std::to_string(n) + " written to " + path
                 : "spans: could not write " + path);
  }
  std::printf("perfbench %s (%s run)\n", cfg.workload.c_str(),
              cfg.trace ? "traced" : "untraced");
  rep.print_human();
  const bool correct = out.failures.count == 0;
  std::printf("%s\n",
              rep.json_line(correct, out.attempted, out.failures.count).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"embed-query", "svc-scan"};
  return kNames;
}

int run_workload(const RunConfig& cfg) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(cfg.data_dir, ec);
  Outcome out;
  try {
    if (cfg.workload == "embed-query") embed_query(cfg, out);
    else if (cfg.workload == "svc-scan") svc_scan(cfg, out);
    else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   cfg.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s could not run: %s\n",
                 cfg.workload.c_str(), e.what());
    return 2;
  }
  const int rc = report(cfg, out);
  // Durable state is scratch: the next run starts from nothing.
  for (const auto& entry : fs::directory_iterator(cfg.data_dir, ec)) {
    if (entry.is_directory()) fs::remove_all(entry.path(), ec);
  }
  return rc;
}

}  // namespace perfbench

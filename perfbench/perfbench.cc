// perfbench: the end-to-end benchmark of the Staccato engine.
//
// One binary, three workloads, every input generated from --seed by the
// engine's own OCR generator (src/ocr). The engine is driven only through
// its public API; per-layer numbers come from the stats structs those
// calls return, from timing calls into single modules, and (with
// --trace 1) from spans the benchmark records around every call.
//
//   scan-warm     512 CA lines in one StaccatoDb whose 64 MiB cache holds
//                 every blob. One client reuses prepared full-scan queries
//                 (50% Staccato, 25% FullSFA, 25% k-MAP, 2 eval threads):
//                 eval kernels, top-k pruning and the thread pool do the
//                 work; planning, cache misses and I/O do almost none.
//   probe-cold    1024 lines in a 4-shard ShardedDb with the inverted index
//                 and a 4 MiB cache, about a quarter of the blob bytes. One
//                 client sends ad-hoc SQL (Year = y AND a corpus term,
//                 terms Zipf-skewed) through a QueryService: SQL prepare,
//                 the scan-vs-probe plan choice, CandidateGen, cache misses,
//                 blob reads, shard gather and admission dominate. The
//                 engine's pool has one thread, so shards run inline.
//   ingest-mixed  256 lines bulk-loaded, then one client alternates Append
//                 of a held-back line (WAL sync on every commit) with a
//                 Staccato query, checkpointing every 64 appends, and the
//                 database is reopened over an un-checkpointed WAL tail:
//                 construction, WAL commit, delta merge, checkpoint, replay.
//                 It appends 48 lines per --seconds, a fixed count rather
//                 than a deadline, so every run of a seed passes through
//                 the same database states.
//
// Every query goes through a QueryService (default config), as a serving
// client's would. Answers are checked against a serial, early-stop-off
// reference execution made after the timed phase and after peak memory is
// read, so the checker's own work shows in neither.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale full|tiny] [--work DIR] [--source-id ID]
//             [--dump-workload FILE] [--perturb-reference 1]
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// under --trace 1. Earlier lines carry the machine fingerprint, the sample
// counts and (with --trace 1) each layer's self time. The exit code is 0
// only when every answer passed the check.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "automata/dfa.h"
#include "automata/trie.h"
#include "inference/query_eval.h"
#include "metrics/metrics.h"
#include "ocr/corpus.h"
#include "rdbms/service.h"
#include "rdbms/session.h"
#include "rdbms/shard.h"
#include "rdbms/staccato_db.h"
#include "rdbms/wal.h"
#include "staccato/chunking.h"
#include "telemetry/clock.h"
#include "telemetry/trace.h"
#include "util/parallel.h"
#include "util/strings.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace staccato;         // NOLINT(build/namespaces)
using namespace staccato::rdbms;  // NOLINT(build/namespaces)

namespace {

// ---------------------------------------------------------------------------
// Small helpers

uint64_t NowNs() { return telemetry::MonotonicNanos(); }
double MsBetween(uint64_t a, uint64_t b) { return (b - a) / 1e6; }

[[noreturn]] void Die(const std::string& what, const Status& s) {
  fprintf(stderr, "perfbench: %s: %s\n", what.c_str(), s.ToString().c_str());
  exit(1);
}
void Must(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what, s);
}
template <class T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what, r.status());
  return std::move(r).ValueUnsafe();
}

/// Linear-interpolation quantile (numpy's default); 0 for no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t n = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file(ec)) n += it->file_size(ec);
  }
  return n;
}

/// splitmix64: the benchmark's own generator for request streams, so the
/// query sequence for a seed does not depend on the engine's Rng.
struct Stream {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
};
uint64_t Mix(uint64_t seed, uint64_t salt) {
  Stream s{seed ^ (salt * 0xd1b54a32d192ed03ULL)};
  return s.Next();
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kScanWarm, kProbeCold, kIngestMixed };

struct Shape {
  size_t pages = 0;
  size_t lines_per_page = 0;
  size_t loaded = 0;  ///< lines bulk-loaded at set-up; the rest is held back
  size_t shards = 1;
  size_t cache_bytes = cache::CacheConfig::kDefaultBudgetBytes;
  size_t setup_reps = 5;   ///< set-ups per run; setup_s is their median
  size_t term_pool = 0;    ///< probe-cold: Zipf-ranked dictionary terms
  size_t checkpoint_every = 0;  ///< ingest-mixed: appends per Checkpoint
  /// NumAns of every timed query. Scan-warm asks for the top 10: its
  /// patterns have fewer than 100 positive answers in 512 lines, so only a
  /// smaller k lets the running k-th best answer rise above zero and give
  /// top-k pruning work to do.
  size_t num_ans = 100;
};

/// Scan-warm's eval threads: half the cores of the 4-vCPU machine the
/// baseline was taken on. With two spinning processes beside the
/// benchmark, its p50 rose 57% at 4 eval threads (every core busy, so
/// each query waits for its slowest chunk), 9% at 2 and 2% at 1; 2 keeps
/// the pool's parallel eval in the measured path.
constexpr size_t kEvalThreads = 2;
constexpr double kZipfS = 1.1;
/// Ingest-mixed appends this many documents per --seconds: a fixed count,
/// not a deadline, so every run of a seed passes through the same states.
constexpr double kAppendsPerSecond = 48.0;
/// Probe-cold recall is taken over this many requests.
constexpr size_t kRecallRequests = 256;
/// Recall is taken at NumAns = 100 on every workload (on scan-warm from
/// the reference executions): at 10 it would mostly measure how many true
/// answers a seed's corpus has, not what the representation finds.
constexpr size_t kRecallNumAns = 100;

Shape ShapeFor(Kind kind, bool tiny) {
  Shape s;
  switch (kind) {
    case Kind::kScanWarm:
      s.pages = tiny ? 2 : 16;
      s.lines_per_page = tiny ? 16 : 32;
      s.loaded = tiny ? 32 : 512;
      s.num_ans = 10;
      break;
    case Kind::kProbeCold:
      s.pages = tiny ? 4 : 32;
      s.lines_per_page = tiny ? 16 : 32;
      s.loaded = tiny ? 64 : 1024;
      s.shards = 4;
      s.cache_bytes = tiny ? (256u << 10) : (4u << 20);
      s.term_pool = tiny ? 8 : 32;
      s.setup_reps = 3;  // its set-up is the slowest: keep the run short
      break;
    case Kind::kIngestMixed:
      // 256 loaded + 1024 held back for Append (960 at --seconds 20).
      s.pages = tiny ? 3 : 40;
      s.lines_per_page = tiny ? 16 : 32;
      s.loaded = tiny ? 16 : 256;
      s.checkpoint_every = tiny ? 5 : 64;
      break;
  }
  if (tiny) s.setup_reps = 1;
  return s;
}

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kScanWarm: return "scan-warm";
    case Kind::kProbeCold: return "probe-cold";
    case Kind::kIngestMixed: return "ingest-mixed";
  }
  return "?";
}

/// One client request. `query` indexes Workload::queries (scan-warm,
/// ingest-mixed); a probe-cold request is a term and a Year.
struct Request {
  size_t query = 0;
  size_t term = 0;  ///< probe-cold: index into Workload::terms
  int64_t year = 0;
};

struct QuerySpec {
  Approach approach = Approach::kStaccato;
  std::string pattern;
};

struct Workload {
  Kind kind = Kind::kScanWarm;
  uint64_t seed = 0;
  Shape shape;
  OcrDataset data;  ///< every line; ingest-mixed holds back all but a prefix
  std::vector<std::string> dictionary;  ///< BuildInvertedIndex terms
  std::vector<QuerySpec> queries;       ///< scan-warm / ingest-mixed
  std::vector<std::string> terms;       ///< probe-cold, Zipf rank order
  std::vector<double> zipf_cdf;
  LoadOptions load;

  /// One round of scan-warm / ingest-mixed requests, in a seeded order.
  /// Scan-warm rounds hold every pattern twice under Staccato and once
  /// under FullSFA and k-MAP (the 50/25/25 mix, exactly, in every round);
  /// ingest-mixed rounds hold every pattern once.
  std::vector<Request> Round(Stream* s) const {
    std::vector<Request> round;
    const size_t patterns = kind == Kind::kScanWarm ? queries.size() / 3
                                                    : queries.size();
    for (size_t p = 0; p < patterns; ++p) {
      if (kind == Kind::kScanWarm) {
        for (size_t a : {0, 0, 1, 2}) round.push_back({a * patterns + p, 0, 0});
      } else {
        round.push_back({p, 0, 0});
      }
    }
    for (size_t i = round.size(); i > 1; --i) {
      std::swap(round[i - 1], round[s->Below(i)]);
    }
    return round;
  }
  /// Probe-cold: a Zipf-ranked term and a uniform Year.
  Request Probe(Stream* s) const {
    Request r;
    const double u = s->Uniform();
    r.term = static_cast<size_t>(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
        zipf_cdf.begin());
    r.term = std::min(r.term, terms.size() - 1);
    r.year = 2010 + static_cast<int64_t>(
                          s->Below(shape.loaded / shape.lines_per_page));
    return r;
  }
  std::string Sql(const Request& r) const {
    return StringPrintf(
        "SELECT DocID FROM Claims WHERE Year = %lld AND DocData LIKE "
        "'%%%s%%';",
        static_cast<long long>(r.year), terms[r.term].c_str());
  }
};

/// The request sequence: a pure function of the seed.
class RequestStream {
 public:
  explicit RequestStream(const Workload& w) : w_(w), s_{Mix(w.seed, 0x100)} {}
  Request Next() {
    if (w_.kind == Kind::kProbeCold) return w_.Probe(&s_);
    if (pos_ == round_.size()) {
      round_ = w_.Round(&s_);
      pos_ = 0;
    }
    return round_[pos_++];
  }

 private:
  const Workload& w_;
  Stream s_;
  std::vector<Request> round_;
  size_t pos_ = 0;
};

OcrDataset Prefix(const OcrDataset& d, size_t n) {
  OcrDataset p;
  p.corpus.name = d.corpus.name;
  p.corpus.num_pages = d.corpus.num_pages;
  p.corpus.lines.assign(d.corpus.lines.begin(), d.corpus.lines.begin() + n);
  p.corpus.page_of_line.assign(d.corpus.page_of_line.begin(),
                               d.corpus.page_of_line.begin() + n);
  p.sfas.assign(d.sfas.begin(), d.sfas.begin() + n);
  return p;
}

/// Distinct words of the corpus (letters only, as the dictionary splits
/// them, original case), sorted.
std::vector<std::string> CorpusWords(const std::vector<std::string>& lines) {
  std::set<std::string> words;
  for (const std::string& line : lines) {
    std::string w;
    for (size_t i = 0; i <= line.size(); ++i) {
      const char c = i < line.size() ? line[i] : ' ';
      if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) {
        w.push_back(c);
      } else {
        if (w.size() >= 4) words.insert(w);
        w.clear();
      }
    }
  }
  return {words.begin(), words.end()};
}

Workload MakeWorkload(Kind kind, uint64_t seed, bool tiny) {
  Workload w;
  w.kind = kind;
  w.seed = seed;
  w.shape = ShapeFor(kind, tiny);
  CorpusSpec spec;
  spec.kind = DatasetKind::kCongressActs;
  spec.num_pages = w.shape.pages;
  spec.lines_per_page = w.shape.lines_per_page;
  spec.seed = Mix(seed, static_cast<uint64_t>(kind) + 1);
  OcrNoiseModel noise;
  noise.alternatives = 12;
  w.data = Must(GenerateOcrDataset(spec, noise), "generate corpus");
  w.dictionary = BuildDictionaryFromCorpus(w.data.corpus.lines);
  const std::vector<std::string> patterns =
      DatasetQueries(DatasetKind::kCongressActs);
  if (kind == Kind::kScanWarm) {
    for (Approach a : {Approach::kStaccato, Approach::kFullSfa,
                       Approach::kKMap}) {
      for (const std::string& p : patterns) w.queries.push_back({a, p});
    }
  } else if (kind == Kind::kIngestMixed) {
    for (const std::string& p : patterns) {
      w.queries.push_back({Approach::kStaccato, p});
    }
  } else {
    // The corpus words, ordered by length and cut into term_pool strata of
    // neighbouring lengths; the seed picks one word in each stratum.
    // Prepare time grows with the term's length (DFA compile), and the
    // hottest Zipf ranks carry most requests, so ranks go to the strata
    // from the median length outward: every seed's requests then have the
    // same length profile, and its p50 does not hinge on how long its
    // hottest word happens to be.
    std::vector<std::string> words =
        CorpusWords(Prefix(w.data, w.shape.loaded).corpus.lines);
    std::stable_sort(words.begin(), words.end(),
                     [](const std::string& a, const std::string& b) {
                       return a.size() < b.size();
                     });
    const size_t n = std::min(words.size(), w.shape.term_pool);
    Stream s{Mix(seed, 0x51)};
    std::vector<std::string> stratum_word;
    for (size_t k = 0; k < n; ++k) {
      const size_t lo = k * words.size() / n, hi = (k + 1) * words.size() / n;
      stratum_word.push_back(words[lo + s.Below(hi - lo)]);
    }
    for (size_t r = 0; r < n; ++r) {  // strata n/2, n/2-1, n/2+1, ...
      const size_t step = (r + 1) / 2;
      w.terms.push_back(stratum_word[r % 2 == 1 ? n / 2 - step
                                                : n / 2 + step]);
    }
    double total = 0.0;
    for (size_t r = 1; r <= w.terms.size(); ++r) total += std::pow(r, -kZipfS);
    double acc = 0.0;
    for (size_t r = 1; r <= w.terms.size(); ++r) {
      acc += std::pow(r, -kZipfS) / total;
      w.zipf_cdf.push_back(acc);
    }
  }
  return w;
}

/// Line `i` as an appended document, named and dated exactly as Load
/// names and dates it, so appending it equals bulk-loading it.
DocumentInput InputFor(const OcrDataset& d, size_t i) {
  DocumentInput in;
  const uint32_t page = d.corpus.page_of_line[i];
  in.doc_name = StringPrintf("%s-page-%u", d.corpus.name.c_str(), page);
  in.year = 2010 + page;
  in.truth = d.corpus.lines[i];
  in.sfa = d.sfas[i];
  return in;
}

/// The workload's inputs as bytes: corpus, SFAs, dictionary, the first
/// requests and the append order.
void DumpWorkload(const Workload& w, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  out << KindName(w.kind) << '\n' << w.seed << '\n';
  for (size_t i = 0; i < w.data.sfas.size(); ++i) {
    out << w.data.corpus.page_of_line[i] << '\t' << w.data.corpus.lines[i]
        << '\n';
    const std::string blob = w.data.sfas[i].Serialize();
    out << blob.size() << '\n';
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  for (const std::string& t : w.dictionary) out << t << '\n';
  RequestStream s(w);
  for (int i = 0; i < 512; ++i) {
    const Request r = s.Next();
    if (w.kind == Kind::kProbeCold) {
      out << w.Sql(r) << '\n';
    } else {
      out << ApproachName(w.queries[r.query].approach) << ' '
          << w.queries[r.query].pattern << '\n';
    }
  }
  for (size_t i = w.shape.loaded; i < w.data.sfas.size(); ++i) {
    out << "append " << i << '\n';
  }
}

// ---------------------------------------------------------------------------
// Benchmark-side tracing: spans around every public call, kept in memory
// and written out at the end. Engine spans (Session::set_tracing) are
// imported under the call that produced them.

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t id = 0;      ///< 1-based within its log
  uint32_t parent = 0;  ///< 0 = root
  uint64_t request = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  uint32_t Add(std::string name, uint64_t start, uint64_t end,
               uint32_t parent, uint64_t request) {
    if (!on_) return 0;
    spans_.push_back({std::move(name), start, end,
                      static_cast<uint32_t>(spans_.size() + 1), parent,
                      request});
    return spans_.back().id;
  }
  uint32_t Open(std::string name, uint32_t parent, uint64_t request) {
    return Add(std::move(name), NowNs(), 0, parent, request);
  }
  void Close(uint32_t id) {
    if (on_ && id != 0) spans_[id - 1].end_ns = NowNs();
  }
  void ImportEngine(const telemetry::QueryTrace& trace, uint32_t parent,
                    uint64_t request) {
    if (!on_) return;
    std::map<uint64_t, uint32_t> ids;
    for (const telemetry::TraceSpan& s : trace.spans()) {
      const uint32_t p = s.parent == 0 ? parent : ids[s.parent];
      ids[s.id] = Add("engine." + s.name, s.start_ns, s.end_ns, p, request);
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// RAII span in a SpanLog.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, uint32_t parent, uint64_t request)
      : log_(log), id_(log->Open(name, parent, request)) {}
  ~Scoped() { log_->Close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint32_t id_;
};

struct SelfTime {
  double self_ms = 0.0;
  double total_ms = 0.0;
  size_t count = 0;
};

/// The spans of the traced requests: each "request" root and everything
/// under it. A parent always precedes its children in a log.
std::vector<Span> RequestSpans(const std::vector<Span>& spans) {
  std::vector<bool> in(spans.size() + 1, false);
  std::vector<Span> out;
  for (const Span& s : spans) {
    in[s.id] = s.parent == 0 ? s.name == "request" : in[s.parent];
    if (in[s.id]) out.push_back(s);
  }
  return out;
}

/// Self time per span name: a span's duration minus the union of its
/// children's intervals (children may overlap when shards run in
/// parallel).
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(
      spans.empty() ? 1 : spans.back().id + 1);
  for (const Span& s : spans) kids[s.parent].push_back({s.start_ns, s.end_ns});
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    auto iv = kids[s.id];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
      } else {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      }
    }
    if (open) covered += cur_b - cur_a;
    const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    SelfTime& t = out[s.name];
    t.self_ms += (dur - std::min(dur, covered)) / 1e6;
    t.total_ms += dur / 1e6;
    t.count += 1;
  }
  return out;
}

// ---------------------------------------------------------------------------
// The database under test: one StaccatoDb, or a ShardedDb.

struct Database {
  std::unique_ptr<StaccatoDb> single;
  std::unique_ptr<ShardedDb> sharded;
  std::string dir;

  Session MakeSession(size_t eval_threads = kEvalThreads) const {
    SessionOptions o;
    o.eval_threads = eval_threads;
    return sharded ? Session(sharded.get(), o) : Session(single.get(), o);
  }
  size_t NumSfas() const {
    return sharded ? sharded->NumSfas() : single->NumSfas();
  }
  std::vector<StaccatoDb*> Parts() const {
    std::vector<StaccatoDb*> p;
    if (sharded) {
      for (size_t i = 0; i < sharded->num_shards(); ++i) {
        p.push_back(sharded->shard(i));
      }
    } else {
      p.push_back(single.get());
    }
    return p;
  }
  Result<std::set<DocId>> GroundTruthFor(const std::string& pattern) {
    return sharded ? sharded->GroundTruthFor(pattern)
                   : single->GroundTruthFor(pattern);
  }
  Status Append(const DocumentInput& doc) {
    return sharded ? sharded->Append(doc) : single->Append(doc);
  }
  Status Checkpoint() {
    return sharded ? sharded->Checkpoint() : single->Checkpoint();
  }
  Status DropCaches() {
    return sharded ? sharded->DropCaches() : single->DropCaches();
  }
  cache::CacheStats CacheTotals() const {
    cache::CacheStats t;
    for (StaccatoDb* p : Parts()) {
      if (p->buffer_cache() == nullptr) continue;
      const cache::CacheStats s = p->buffer_cache()->stats();
      t.hits += s.hits;
      t.misses += s.misses;
      t.evictions += s.evictions;
    }
    return t;
  }
};

cache::CacheConfig CacheFor(const Shape& s) {
  cache::CacheConfig c;
  c.budget_bytes = s.cache_bytes;
  return c;
}

Database OpenDb(const Shape& shape, const std::string& dir, bool existing) {
  Database db;
  db.dir = dir;
  if (shape.shards > 1) {
    ShardConfig cfg;
    cfg.shards = shape.shards;
    cfg.cache = CacheFor(shape);
    db.sharded = Must(existing ? ShardedDb::OpenExisting(dir, cfg)
                               : ShardedDb::Open(dir, cfg),
                      "open sharded db");
  } else {
    db.single = Must(existing ? StaccatoDb::OpenExisting(dir, CacheFor(shape))
                              : StaccatoDb::Open(dir, CacheFor(shape)),
                     "open db");
  }
  return db;
}

struct SetupTimes {
  double setup_s = 0.0;
  double index_s = 0.0;
};

/// Open + Load + BuildInvertedIndex of the first `n` lines: one set-up.
Database SetUp(const Workload& w, const Shape& shape, size_t n,
               const std::string& dir, SetupTimes* times, SpanLog* log) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  const OcrDataset prefix = Prefix(w.data, n);  // input copy: not timed
  const uint64_t t0 = NowNs();
  Scoped root(log, "setup", 0, 0);
  Database db;
  {
    Scoped s(log, "staccato_db.open", root.id(), 0);
    db = OpenDb(shape, dir, /*existing=*/false);
  }
  {
    Scoped s(log, "staccato_db.load", root.id(), 0);
    Must(db.sharded ? db.sharded->Load(prefix, w.load)
                    : db.single->Load(prefix, w.load),
         "load");
  }
  const uint64_t t1 = NowNs();
  {
    Scoped s(log, "indexing.build", root.id(), 0);
    Must(db.sharded ? db.sharded->BuildInvertedIndex(w.dictionary)
                    : db.single->BuildInvertedIndex(w.dictionary),
         "build index");
  }
  const uint64_t t2 = NowNs();
  if (times != nullptr) {
    times->setup_s = (t2 - t0) / 1e9;
    times->index_s = (t2 - t1) / 1e9;
  }
  return db;
}

/// Runs `shape.setup_reps` set-ups into fresh directories and keeps the
/// last database; setup_s and indexing.build_s are the medians.
Database RepeatedSetUp(const Workload& w, const std::string& work,
                       SetupTimes* med, SpanLog* log) {
  std::vector<double> setup, index;
  Database db;
  for (size_t r = 0; r < w.shape.setup_reps; ++r) {
    db = Database();  // close the previous copy before the next set-up
    const std::string dir = work + StringPrintf("/db%zu", r);
    SetupTimes t;
    db = SetUp(w, w.shape, w.shape.loaded, dir, &t, log);
    setup.push_back(t.setup_s);
    index.push_back(t.index_s);
    if (r + 1 < w.shape.setup_reps) {
      db = Database();
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  }
  med->setup_s = Median(setup);
  med->index_s = Median(index);
  return db;
}

// ---------------------------------------------------------------------------
// Reference answers: each query executed serially with early stop off and
// no answer budget, so the expected answers of any execution are the
// first NumAns entries of the reference (restricted to the documents that
// execution could see).

/// Set by --perturb-reference 1: each expected ranking's first probability
/// moves by one ulp, so every check must fail. It tests the check itself.
bool g_perturb_reference = false;

std::vector<Answer> FullRanking(PreparedQuery pq, size_t num_docs) {
  pq.set_eval_threads(1);
  pq.set_early_stop(false);
  pq.set_num_ans(num_docs + 1);
  return Must(pq.Execute(), "reference execute");
}

template <class Keep>
std::vector<Answer> Expected(const std::vector<Answer>& full, size_t num_ans,
                             Keep keep) {
  std::vector<Answer> out;
  for (const Answer& a : full) {
    if (out.size() == num_ans) break;
    if (keep(a.doc)) out.push_back(a);
  }
  if (g_perturb_reference && !out.empty()) {
    out[0].prob = std::nextafter(out[0].prob, 2.0);
  }
  return out;
}

bool SameAnswers(const std::vector<Answer>& a, const std::vector<Answer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc) return false;
    if (std::memcmp(&a[i].prob, &b[i].prob, sizeof(double)) != 0) return false;
  }
  return true;
}

/// Runs `fn(i)` for i in [0, n) on up to four threads (reference work only).
template <class Fn>
void ParallelFor(size_t n, Fn fn) {
  const size_t threads = std::min<size_t>(4, std::max<size_t>(1, n));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < n; i += threads) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

// ---------------------------------------------------------------------------
// Measurements

/// One query as the client saw it, with what its stats say about layers.
struct QueryRecord {
  /// QueryService::Execute, plus Prepare when the workload prepares per
  /// request.
  double call_ms = 0.0;
  double prepare_us = -1.0; ///< Session::Prepare/PrepareSql, when per request
  double admission_ms = 0.0;
  double gather_ms = 0.0;
  double cand_ms = 0.0, filter_ms = 0.0, fetch_eval_ms = 0.0, topk_ms = 0.0;
  double plan_rest_ms = 0.0;
  double skew = 1.0;
  size_t candidates = 0, answers = 0, threads = 1, pruned = 0;
  uint64_t steps_saved = 0, cache_hits = 0, cache_misses = 0;
  uint64_t blob_bytes = 0, heap_pages = 0;
  bool used_index = false;
  bool traced = false;
  size_t delta_docs = 0;
};

/// Fills the layer fields of `r` from the stats of one execution whose
/// QueryService::Execute call took `service_ms`. On a sharded query the
/// stage breakdown is the one the client waited for: the slowest shard's
/// when the shards run in parallel, their sum when a one-thread pool runs
/// them one after the other.
void FromStats(const QueryStats& st, double service_ms, QueryRecord* r) {
  StageTimings crit = st.stage;
  double sum_fe = 0.0, max_fe = 0.0;
  if (!st.shards.empty() && ThreadPool::Shared().capacity() > 1) {
    crit = std::max_element(st.shards.begin(), st.shards.end(),
                            [](const ShardStats& a, const ShardStats& b) {
                              return a.stage.total_s < b.stage.total_s;
                            })
               ->stage;
  } else if (!st.shards.empty()) {  // inline: the shards ran one by one
    crit = StageTimings{};
    for (const ShardStats& sh : st.shards) {
      crit.candidate_gen_s += sh.stage.candidate_gen_s;
      crit.filter_s += sh.stage.filter_s;
      crit.fetch_eval_s += sh.stage.fetch_eval_s;
      crit.topk_s += sh.stage.topk_s;
      crit.total_s += sh.stage.total_s;
    }
  }
  for (const ShardStats& sh : st.shards) {
    sum_fe += sh.stage.fetch_eval_s;
    max_fe = std::max(max_fe, sh.stage.fetch_eval_s);
  }
  if (sum_fe > 0.0) {
    r->skew = max_fe / (sum_fe / static_cast<double>(st.shards.size()));
  }
  r->call_ms += service_ms;
  r->admission_ms = std::max(0.0, service_ms - st.seconds * 1e3);
  r->gather_ms = std::max(0.0, (st.seconds - crit.total_s) * 1e3);
  r->cand_ms = crit.candidate_gen_s * 1e3;
  r->filter_ms = crit.filter_s * 1e3;
  r->fetch_eval_ms = crit.fetch_eval_s * 1e3;
  r->topk_ms = crit.topk_s * 1e3;
  r->plan_rest_ms = std::max(
      0.0, (crit.total_s - crit.candidate_gen_s - crit.filter_s -
            crit.fetch_eval_s - crit.topk_s) * 1e3);
  r->candidates = st.candidates;
  r->threads = st.threads_used;
  r->pruned = st.eval_pruned;
  r->steps_saved = st.eval_steps_saved;
  r->cache_hits = st.cache_hits;
  r->cache_misses = st.cache_misses;
  r->blob_bytes = st.blob_bytes_read;
  r->heap_pages = st.heap_pages_read;
  r->used_index = st.used_index;
}

/// Everything a run reports; printed as the last stdout line.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> e2e;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> layer;
  void E2e(const std::string& n, double v, const char* unit) {
    e2e.push_back({n, {v, unit}});
  }
  void Layer(const std::string& n, double v, const char* unit) {
    layer.push_back({n, {v, unit}});
  }
  /// Counts `n` failed operations for one reason.
  void Fail(const std::string& why, uint64_t n = 1) {
    if (failed < 20) fprintf(stderr, "perfbench: check failed: %s\n",
                             why.c_str());
    failed += n;
    correct = false;
  }
};

/// Query-side metrics shared by all workloads.
struct QueryPhase {
  std::vector<QueryRecord> records;
  double wall_s = 0.0;
  cache::CacheStats cache_before, cache_after;
  uint64_t rejected = 0;  ///< ServiceStats shed + timed out
  std::vector<double> prepare_us;  ///< prepares not tied to one request
  /// Mean recall over a fixed set of the workload's requests, so it
  /// repeats exactly for a seed.
  double recall = 0.0;
};

/// The distinct answer lists one request returned during the timed phase,
/// each with how many runs returned it. After the timed phase each list is
/// checked against the reference, and a wrong one fails all of its runs.
class Seen {
 public:
  void Add(const std::vector<Answer>& answers) {
    for (auto& [a, runs] : variants_) {
      if (SameAnswers(a, answers)) {
        ++runs;
        return;
      }
    }
    variants_.push_back({answers, 1});
  }
  void Check(const std::vector<Answer>& expected, const std::string& what,
             Report* rep) const {
    for (const auto& [a, runs] : variants_) {
      if (!SameAnswers(a, expected)) {
        rep->Fail("answers differ from reference: " + what, runs);
      }
    }
  }

 private:
  std::vector<std::pair<std::vector<Answer>, uint64_t>> variants_;
};

void ReportQueries(const QueryPhase& q, Report* rep) {
  std::vector<double> prep = q.prepare_us;
  std::vector<double> lat, cand, filt, fe, topk, rest, gather, adm,
      skew, threads, traced, untraced;
  double cands = 0, answers = 0, probes = 0, pruned = 0, saved = 0, hits = 0,
         misses = 0, bytes = 0, pages = 0;
  for (const QueryRecord& r : q.records) {
    lat.push_back(r.call_ms);
    (r.traced ? traced : untraced).push_back(r.call_ms);
    if (r.prepare_us >= 0) prep.push_back(r.prepare_us);
    cand.push_back(r.cand_ms);
    filt.push_back(r.filter_ms);
    fe.push_back(r.fetch_eval_ms);
    topk.push_back(r.topk_ms);
    rest.push_back(r.plan_rest_ms);
    gather.push_back(r.gather_ms);
    adm.push_back(r.admission_ms);
    skew.push_back(r.skew);
    threads.push_back(static_cast<double>(r.threads));
    cands += r.candidates;
    answers += r.answers;
    probes += r.used_index ? 1 : 0;
    pruned += r.pruned;
    saved += static_cast<double>(r.steps_saved);
    hits += r.cache_hits;
    misses += r.cache_misses;
    bytes += r.blob_bytes;
    pages += r.heap_pages;
  }
  const double n = std::max<double>(1.0, q.records.size());
  // As the client sees it. The trace run traces every second request, so
  // its untraced half stays comparable.
  rep->E2e("query_p50_ms", Median(lat), "ms");
  rep->E2e("recall", q.recall, "ratio");
  // Per layer. The tail and the throughput of sub-millisecond queries
  // follow the host's scheduling noise more than the engine, so they are
  // reported here, without a bound.
  rep->Layer("query_p95_ms", Quantile(lat, 0.95), "ms");
  rep->Layer("query_qps", q.records.size() / std::max(1e-9, q.wall_s), "1/s");
  rep->Layer("automata.prepare_us", Median(prep), "us");
  rep->Layer("plan.candidate_gen_ms", Median(cand), "ms");
  rep->Layer("plan.filter_ms", Median(filt), "ms");
  rep->Layer("plan.fetch_eval_ms", Median(fe), "ms");
  rep->Layer("plan.topk_ms", Median(topk), "ms");
  rep->Layer("plan.unattributed_ms", Median(rest), "ms");
  rep->Layer("plan.candidates_per_answer", cands / std::max(1.0, answers),
             "ratio");
  rep->Layer("plan.index_probe_share", probes / n, "ratio");
  rep->Layer("inference.pruned_ratio", pruned / std::max(1.0, cands), "ratio");
  rep->Layer("inference.steps_saved_per_query", saved / n, "count");
  rep->Layer("cache.hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  rep->Layer("cache.evictions_per_query",
             (q.cache_after.evictions - q.cache_before.evictions) / n, "count");
  rep->Layer("blob_store.bytes_read_per_query", bytes / n, "B");
  rep->Layer("heap_table.pages_read_per_query", pages / n, "count");
  rep->Layer("shard.gather_ms", Median(gather), "ms");
  rep->Layer("shard.skew", Median(skew), "ratio");
  rep->Layer("service.admission_wait_ms", Median(adm), "ms");
  rep->Layer("service.rejected", static_cast<double>(q.rejected), "count");
  rep->Layer("parallel.threads_used", Median(threads), "count");
  rep->Layer("telemetry.trace_overhead_ratio",
             traced.empty() || untraced.empty()
                 ? 1.0
                 : Median(traced) / std::max(1e-9, Median(untraced)),
             "ratio");
  fprintf(stdout,
          "queries: %zu samples in %.3f s (%zu traced): p50 %.4f ms, "
          "p95 %.4f ms, %.1f/s\n",
          q.records.size(), q.wall_s, traced.size(), Median(lat),
          Quantile(lat, 0.95), q.records.size() / std::max(1e-9, q.wall_s));
}

/// Executes one prepared query through the service and records it.
/// Returns false if the service failed it.
bool RunQuery(QueryService* service, Session* session, PreparedQuery* pq,
              bool traced, SpanLog* log, uint32_t parent, uint64_t request,
              QueryRecord* rec, std::vector<Answer>* answers) {
  QueryStats st;
  if (traced) session->set_tracing(true);
  Scoped span(log, "service.execute", parent, request);
  const uint64_t t0 = NowNs();
  Result<std::vector<Answer>> r = service->Execute(pq, &st);
  const uint64_t t1 = NowNs();
  if (traced) {
    session->set_tracing(false);
    if (st.trace) log->ImportEngine(*st.trace, span.id(), request);
  }
  rec->traced = traced;
  if (!r.ok()) {
    fprintf(stderr, "perfbench: query failed: %s\n",
            r.status().ToString().c_str());
    return false;
  }
  FromStats(st, MsBetween(t0, t1), rec);
  rec->answers = r->size();
  *answers = std::move(*r);
  return true;
}

// ---------------------------------------------------------------------------
// Standalone layer timings on the workload's own inputs.

/// The standalone figures that append.unattributed_ms subtracts.
struct Standalone {
  double construct_ms = 0.0;
  double wal_commit_us = 0.0;
};

Standalone StandaloneLayers(const Workload& w, const Database& db,
                            const std::string& work, SpanLog* log,
                            Report* rep) {
  Standalone out;
  const size_t n = w.data.sfas.size();
  // Staccato construction at the load's (m, k).
  {
    Scoped root(log, "staccato.construct", 0, 0);
    const size_t sample = std::min<size_t>(24, n);
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < sample; ++i) {
      Must(ApproximateSfa(w.data.sfas[i * n / sample], w.load.staccato),
           "ApproximateSfa");
    }
    out.construct_ms = MsBetween(t0, NowNs()) / static_cast<double>(sample);
    rep->Layer("staccato.construct_ms_per_sfa", out.construct_ms, "ms");
  }
  // The bounded eval kernel on stored blobs and the workload's patterns.
  {
    Scoped root(log, "inference.eval", 0, 0);
    std::vector<std::string> blobs;
    StaccatoDb* part = db.Parts().front();
    const size_t docs = std::min<size_t>(64, part->NumSfas());
    for (size_t d = 0; d < docs; ++d) {
      blobs.push_back(Must(part->ReadStaccatoBlob(d), "read blob"));
    }
    std::vector<Dfa> dfas;
    for (const std::string& p : DatasetQueries(DatasetKind::kCongressActs)) {
      dfas.push_back(Must(Dfa::Compile(p, MatchMode::kContains), "dfa"));
    }
    EvalScratch scratch;
    double ns = 0.0, bytes = 0.0;
    for (int pass = 0; pass < 3; ++pass) {
      const uint64_t t0 = NowNs();
      for (const Dfa& dfa : dfas) {
        for (const std::string& b : blobs) {
          Must(EvalSerializedSfaBounded(b, dfa, 0.0, &scratch), "eval");
          if (pass > 0) bytes += static_cast<double>(b.size());
        }
      }
      if (pass > 0) ns += static_cast<double>(NowNs() - t0);  // pass 0 warms
    }
    rep->Layer("inference.eval_ns_per_blob_byte", ns / std::max(1.0, bytes),
               "ns/B");
  }
  // WAL record + commit of append-sized payloads, fsync per commit.
  {
    Scoped root(log, "wal.commit", 0, 0);
    const std::string path = work + "/wal-standalone.log";
    std::unique_ptr<WalWriter> wal = Must(
        WalWriter::Open(path, 0, WalSyncPolicy::kCommit), "open wal");
    std::vector<double> us;
    const size_t sample = std::min<size_t>(32, n);
    for (size_t i = 0; i < sample; ++i) {
      const DocumentInput in = InputFor(w.data, i);
      WalDocRecord rec;
      rec.seq = i;
      rec.doc_name = in.doc_name;
      rec.year = in.year;
      rec.truth = in.truth;
      rec.kmap_k = w.load.kmap_k;
      rec.staccato_m = w.load.staccato.m;
      rec.staccato_k = w.load.staccato.k;
      rec.full_sfa = in.sfa.Serialize();
      const std::string doc = EncodeWalDoc(rec);
      const std::string commit = EncodeWalCommit({i, 0});
      const uint64_t t0 = NowNs();
      Must(wal->AddRecord(doc), "wal add");
      Must(wal->AddRecord(commit), "wal add");
      Must(wal->Commit(), "wal commit");
      us.push_back(MsBetween(t0, NowNs()) * 1e3);
    }
    wal.reset();
    std::error_code ec;
    fs::remove(path, ec);
    out.wal_commit_us = Median(us);
    rep->Layer("wal.commit_us", out.wal_commit_us, "us");
  }
  return out;
}

/// Append and Checkpoint timings of a run.
struct WriteStats {
  std::vector<double> append_ms, checkpoint_ms, checkpoint_bytes;
};

bool TimedAppend(Database* db, const DocumentInput& doc, SpanLog* log,
                 uint32_t parent, uint64_t request, WriteStats* ws,
                 Report* rep) {
  Scoped s(log, "staccato_db.append", parent, request);
  const uint64_t t0 = NowNs();
  const Status st = db->Append(doc);
  ws->append_ms.push_back(MsBetween(t0, NowNs()));
  ++rep->attempted;
  if (!st.ok()) rep->Fail("append: " + st.ToString());
  return st.ok();
}

void TimedCheckpoint(Database* db, SpanLog* log, uint32_t parent,
                     uint64_t request, WriteStats* ws, Report* rep) {
  const uint64_t before = DirBytes(db->dir);
  {
    Scoped s(log, "staccato_db.checkpoint", parent, request);
    const uint64_t t0 = NowNs();
    const Status st = db->Checkpoint();
    ws->checkpoint_ms.push_back(MsBetween(t0, NowNs()));
    ++rep->attempted;
    if (!st.ok()) rep->Fail("checkpoint: " + st.ToString());
  }
  ws->checkpoint_bytes.push_back(static_cast<double>(DirBytes(db->dir)) -
                                 static_cast<double>(before));
}

void ReportWrites(const WriteStats& ws, const Standalone& alone,
                  Report* rep) {
  const double p50 = Median(ws.append_ms);
  const double p95 = Quantile(ws.append_ms, 0.95);
  rep->Layer("append_p50_ms", p50, "ms");
  rep->Layer("append_p95_ms", p95, "ms");
  rep->Layer("checkpoint_ms", Median(ws.checkpoint_ms), "ms");
  rep->Layer("checkpoint.bytes_written", Median(ws.checkpoint_bytes), "B");
  // Append minus its two standalone parts: construction and WAL commit.
  rep->Layer("append.unattributed_ms",
             ws.append_ms.empty()
                 ? 0.0
                 : p50 - alone.construct_ms - alone.wal_commit_us / 1e3,
             "ms");
  if (ws.append_ms.empty()) return;
  fprintf(stdout,
          "appends: %zu samples: p50 %.4f ms, p95 %.4f ms; %zu checkpoints\n",
          ws.append_ms.size(), p50, p95, ws.checkpoint_ms.size());
}

/// The write-path rows of a workload that only reads: they read 0.
void ReportNoWrites(const Standalone& alone, Report* rep) {
  ReportWrites(WriteStats(), alone, rep);
  rep->Layer("wal.replay_ms", 0.0, "ms");
  rep->Layer("delta.docs_at_query", 0.0, "count");
  rep->Layer("delta.query_overhead_ratio", 1.0, "ratio");
}

// ---------------------------------------------------------------------------
// The workloads

struct RunContext {
  const Workload* w;
  std::string work;
  double seconds;
  bool trace;
  SpanLog log;  ///< set-up, standalone and traced-request spans
};

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // KiB on Linux
}

/// Reopen cost (OpenExisting replays whatever the WAL holds) and a check
/// that the reopened database holds `expect_docs` documents.
Database Reopen(RunContext* ctx, Database db, size_t expect_docs,
                Report* rep) {
  const std::string dir = db.dir;
  db = Database();
  const uint64_t t0 = NowNs();
  Database re;
  {
    Scoped s(&ctx->log, "staccato_db.reopen", 0, 0);
    re = OpenDb(ctx->w->shape, dir, /*existing=*/true);
  }
  rep->Layer("wal.replay_ms", MsBetween(t0, NowNs()), "ms");
  ++rep->attempted;
  if (re.NumSfas() != expect_docs) {
    rep->Fail(StringPrintf("reopen holds %zu docs, expected %zu",
                           re.NumSfas(), expect_docs));
  }
  return re;
}

/// Runs `one(i, record)` unrecorded for a warm-up of min(1 s, seconds / 5),
/// then recorded for `seconds`, and keeps the timed part's wall time and
/// cache counters in `phase`.
template <class One>
void ClosedLoop(const RunContext& ctx, const Database& db, One one,
                QueryPhase* phase) {
  uint64_t i = 0;
  const uint64_t warm_end =
      NowNs() + static_cast<uint64_t>(std::min(1.0, ctx.seconds / 5) * 1e9);
  while (NowNs() < warm_end) one(i++, false);
  phase->cache_before = db.CacheTotals();
  const uint64_t t0 = NowNs();
  const uint64_t end = t0 + static_cast<uint64_t>(ctx.seconds * 1e9);
  while (NowNs() < end) one(i++, true);
  phase->wall_s = (NowNs() - t0) / 1e9;
  phase->cache_after = db.CacheTotals();
}

void ScanWarm(RunContext* ctx, Report* rep) {
  const Workload& w = *ctx->w;
  SetupTimes setup;
  Database db = RepeatedSetUp(w, ctx->work, &setup, &ctx->log);
  rep->E2e("setup_s", setup.setup_s, "s");
  rep->Layer("indexing.build_s", setup.index_s, "s");
  const size_t docs = db.NumSfas();
  const double storage =
      static_cast<double>(DirBytes(db.dir)) /
      static_cast<double>(Prefix(w.data, docs).TotalTextBytes());

  // Prepared once, reused by every request.
  Session session = db.MakeSession();
  std::vector<PreparedQuery> prepared;
  std::vector<double> prepare_us;
  for (const QuerySpec& q : w.queries) {
    QueryOptions o;
    o.pattern = q.pattern;
    o.num_ans = w.shape.num_ans;
    o.index_mode = IndexMode::kNever;
    o.eval_threads = kEvalThreads;
    const uint64_t t0 = NowNs();
    prepared.push_back(Must(session.Prepare(q.approach, o), "prepare"));
    prepare_us.push_back(MsBetween(t0, NowNs()) * 1e3);
  }

  QueryService service(&session);
  QueryPhase phase;
  phase.prepare_us = prepare_us;
  std::vector<Seen> seen(w.queries.size());
  RequestStream stream(w);
  auto one = [&](uint64_t i, bool record) {
    const Request req = stream.Next();
    const bool traced = ctx->trace && record && (i % 2 == 1);
    SpanLog quiet(false);
    SpanLog* l = traced ? &ctx->log : &quiet;
    Scoped root(l, "request", 0, i);
    QueryRecord rec;
    std::vector<Answer> answers;
    ++rep->attempted;
    if (!RunQuery(&service, &session, &prepared[req.query], traced, l,
                  root.id(), i, &rec, &answers)) {
      rep->Fail("query error: " + w.queries[req.query].pattern);
      return;
    }
    {
      Scoped check(l, "bench.check", root.id(), i);
      seen[req.query].Add(answers);
    }
    if (record) phase.records.push_back(rec);
  };
  ClosedLoop(*ctx, db, one, &phase);
  phase.rejected =
      service.stats().shed.load() + service.stats().timed_out.load();
  rep->E2e("peak_rss_mb", PeakRssMb(), "MiB");

  // Reference answers and ground truth (after the timed phase, not timed).
  std::vector<std::vector<Answer>> ref(w.queries.size());
  std::vector<std::set<DocId>> truth(w.queries.size());
  ParallelFor(w.queries.size(), [&](size_t i) {
    ref[i] = FullRanking(prepared[i], docs);
  });
  auto all = [](DocId) { return true; };
  for (size_t q = 0; q < w.queries.size(); ++q) {
    seen[q].Check(Expected(ref[q], w.shape.num_ans, all),
                  w.queries[q].pattern, rep);
    truth[q] = Must(db.GroundTruthFor(w.queries[q].pattern), "truth");
  }
  {
    RequestStream one_round(w);
    std::vector<double> r;
    for (size_t k = 0; k < w.queries.size() / 3 * 4; ++k) {
      const size_t q = one_round.Next().query;
      r.push_back(
          ScoreAnswers(Expected(ref[q], kRecallNumAns, all), truth[q]).recall);
    }
    phase.recall = Mean(r);
  }
  ReportQueries(phase, rep);
  rep->E2e("storage_amplification", storage, "ratio");
  ReportNoWrites(StandaloneLayers(w, db, ctx->work, &ctx->log, rep), rep);
}

void ProbeCold(RunContext* ctx, Report* rep) {
  const Workload& w = *ctx->w;
  SetupTimes setup;
  Database db = RepeatedSetUp(w, ctx->work, &setup, &ctx->log);
  rep->E2e("setup_s", setup.setup_s, "s");
  rep->Layer("indexing.build_s", setup.index_s, "s");
  const size_t docs = db.NumSfas();
  std::vector<int64_t> year_of(docs);
  for (size_t d = 0; d < docs; ++d) {
    year_of[d] = 2010 + w.data.corpus.page_of_line[d];
  }
  const double storage =
      static_cast<double>(DirBytes(db.dir)) /
      static_cast<double>(Prefix(w.data, docs).TotalTextBytes());
  Must(db.DropCaches(), "drop caches");  // the timed phase starts cold

  Session session = db.MakeSession(1);  // one-thread pool: run inline
  QueryService service(&session);
  QueryPhase phase;
  std::map<std::pair<size_t, int64_t>, Seen> seen;  // by (term, Year)
  RequestStream stream(w);
  auto one = [&](uint64_t i, bool record) {
    const Request req = stream.Next();
    const bool traced = ctx->trace && record && (i % 2 == 1);
    SpanLog quiet(false);
    SpanLog* l = traced ? &ctx->log : &quiet;
    Scoped root(l, "request", 0, i);
    QueryRecord rec;
    ++rep->attempted;
    const std::string sql = w.Sql(req);
    const uint64_t p0 = NowNs();
    Result<PreparedQuery> pq = [&] {
      Scoped s(l, "automata.prepare", root.id(), i);
      return session.PrepareSql(Approach::kStaccato, sql);
    }();
    const uint64_t p1 = NowNs();
    if (!pq.ok()) {
      rep->Fail("prepare: " + pq.status().ToString());
      return;
    }
    rec.prepare_us = MsBetween(p0, p1) * 1e3;
    rec.call_ms = MsBetween(p0, p1);  // prepare per request: user-visible
    std::vector<Answer> answers;
    if (!RunQuery(&service, &session, &*pq, traced, l, root.id(), i, &rec,
                  &answers)) {
      rep->Fail("query error: " + sql);
      return;
    }
    {
      Scoped check(l, "bench.check", root.id(), i);
      seen[{req.term, req.year}].Add(answers);
    }
    if (record) phase.records.push_back(rec);
  };
  ClosedLoop(*ctx, db, one, &phase);
  phase.rejected =
      service.stats().shed.load() + service.stats().timed_out.load();
  rep->E2e("peak_rss_mb", PeakRssMb(), "MiB");

  // Reference (after the timed phase, not timed): per term, a serial
  // full-scan ranking over every document; a request's expected answers
  // are its Year's documents from it.
  std::vector<std::vector<Answer>> ref(w.terms.size());
  std::vector<std::set<DocId>> truth(w.terms.size());
  {
    Session ref_session = db.MakeSession();
    std::vector<PreparedQuery> pqs;
    for (const std::string& t : w.terms) {
      QueryOptions o;
      o.pattern = t;
      o.index_mode = IndexMode::kNever;
      pqs.push_back(Must(ref_session.Prepare(Approach::kStaccato, o), "prep"));
    }
    ParallelFor(w.terms.size(), [&](size_t i) {
      ref[i] = FullRanking(pqs[i], docs);
    });
    for (size_t i = 0; i < w.terms.size(); ++i) {
      truth[i] = Must(db.GroundTruthFor(w.terms[i]), "truth");
    }
  }
  auto expected = [&](const Request& req, size_t num_ans) {
    return Expected(ref[req.term], num_ans,
                    [&](DocId d) { return year_of[d] == req.year; });
  };
  for (const auto& [key, s] : seen) {
    const Request req{0, key.first, key.second};
    s.Check(expected(req, w.shape.num_ans), w.Sql(req), rep);
  }
  {
    RequestStream replay(w);
    std::vector<double> r;
    for (size_t k = 0; k < kRecallRequests; ++k) {
      const Request req = replay.Next();
      std::set<DocId> t;
      for (DocId d : truth[req.term]) {
        if (year_of[d] == req.year) t.insert(d);
      }
      r.push_back(ScoreAnswers(expected(req, w.shape.num_ans), t).recall);
    }
    phase.recall = Mean(r);
  }
  ReportQueries(phase, rep);
  rep->E2e("storage_amplification", storage, "ratio");
  ReportNoWrites(StandaloneLayers(w, db, ctx->work, &ctx->log, rep), rep);
}

void IngestMixed(RunContext* ctx, Report* rep) {
  const Workload& w = *ctx->w;
  SetupTimes setup;
  Database db = RepeatedSetUp(w, ctx->work, &setup, &ctx->log);
  rep->E2e("setup_s", setup.setup_s, "s");
  rep->Layer("indexing.build_s", setup.index_s, "s");
  const size_t total = w.data.sfas.size();

  Session session = db.MakeSession();
  QueryService service(&session);
  struct Observed {
    size_t query = 0;
    size_t visible = 0;  ///< documents the query could see
    int64_t year = 0;
    std::vector<Answer> answers;
  };
  std::vector<int64_t> year_of(total);
  for (size_t d = 0; d < total; ++d) {
    year_of[d] = 2010 + w.data.corpus.page_of_line[d];
  }
  std::vector<Observed> observed;
  QueryPhase phase;
  WriteStats writes;
  std::vector<double> before_ckpt, after_ckpt;
  std::vector<size_t> delta_docs;
  SpanLog& log = ctx->log;
  RequestStream stream(w);
  size_t next = w.shape.loaded;
  bool just_checkpointed = false;
  phase.cache_before = db.CacheTotals();
  // Keep one held-back document for the un-checkpointed tail below.
  const size_t appends = std::min<size_t>(
      total - w.shape.loaded - 1,
      static_cast<size_t>(std::lround(kAppendsPerSecond * ctx->seconds)));
  const uint64_t t0 = NowNs();
  for (uint64_t i = 0; next < w.shape.loaded + appends; ++i) {
    const bool traced = ctx->trace && (i % 2 == 1);
    SpanLog quiet(false);
    SpanLog* l = traced ? &log : &quiet;
    Scoped root(l, "request", 0, i);
    if (!TimedAppend(&db, InputFor(w.data, next), l, root.id(), i, &writes,
                     rep)) {
      break;
    }
    ++next;
    if ((next - w.shape.loaded) % w.shape.checkpoint_every == 0) {
      TimedCheckpoint(&db, l, root.id(), i, &writes, rep);
      if (!phase.records.empty()) {
        before_ckpt.push_back(phase.records.back().call_ms);
      }
      just_checkpointed = true;
    }
    // One Staccato query over the Year of the page being ingested: a
    // fixed-size slice of the data, much of it still in the delta.
    const Request req = stream.Next();
    const int64_t year = year_of[next - 1];
    QueryRecord rec;
    rec.delta_docs = db.single->DeltaDocs();
    QueryOptions o;
    o.pattern = w.queries[req.query].pattern;
    o.equalities.push_back({"Year", std::to_string(year), false});
    o.num_ans = w.shape.num_ans;
    o.eval_threads = 1;  // the whole workload runs on one thread
    const uint64_t p0 = NowNs();
    Result<PreparedQuery> pq = [&] {
      Scoped s(l, "automata.prepare", root.id(), i);
      return session.Prepare(Approach::kStaccato, o);
    }();
    rec.prepare_us = MsBetween(p0, NowNs()) * 1e3;
    rec.call_ms = rec.prepare_us / 1e3;  // prepare per request: user-visible
    ++rep->attempted;
    if (!pq.ok()) {
      rep->Fail("prepare: " + pq.status().ToString());
      continue;
    }
    Observed obs;
    obs.query = req.query;
    obs.visible = next;
    obs.year = year;
    if (!RunQuery(&service, &session, &*pq, traced, l, root.id(), i, &rec,
                  &obs.answers)) {
      rep->Fail("query error");
      continue;
    }
    if (just_checkpointed) after_ckpt.push_back(rec.call_ms);
    just_checkpointed = false;
    delta_docs.push_back(rec.delta_docs);
    phase.records.push_back(rec);
    observed.push_back(std::move(obs));
  }
  phase.wall_s = (NowNs() - t0) / 1e9;
  phase.cache_after = db.CacheTotals();
  phase.rejected =
      service.stats().shed.load() + service.stats().timed_out.load();
  // OpenExisting must replay an un-checkpointed tail (untimed append).
  if (db.single->DeltaDocs() == 0 && next < total) {
    ++rep->attempted;
    const Status st = db.Append(InputFor(w.data, next));
    if (st.ok()) {
      ++next;
    } else {
      rep->Fail("append: " + st.ToString());
    }
  }
  const double storage =
      static_cast<double>(DirBytes(db.dir)) /
      static_cast<double>(Prefix(w.data, next).TotalTextBytes());

  db = Reopen(ctx, std::move(db), next, rep);
  // Peak memory of the workload, before the checker's own work below.
  rep->E2e("peak_rss_mb", PeakRssMb(), "MiB");
  const Standalone alone = StandaloneLayers(w, db, ctx->work, &ctx->log, rep);

  // Reference (not timed): the reopened database's full ranking of every
  // pattern, then, with it closed, the same documents bulk-loaded into a
  // fresh database. The reopened database must rank every pattern exactly
  // as the bulk-loaded one does, and every observed query must equal the
  // reference ranking restricted to the documents it could see.
  std::vector<QueryOptions> full(w.queries.size());
  std::vector<std::vector<Answer>> reopened(w.queries.size());
  {
    Session re_session = db.MakeSession();
    for (size_t q = 0; q < w.queries.size(); ++q) {
      full[q].pattern = w.queries[q].pattern;
      full[q].index_mode = IndexMode::kNever;
      reopened[q] = FullRanking(
          Must(re_session.Prepare(Approach::kStaccato, full[q]), "prepare"),
          next);
    }
  }
  db = Database();
  Database ref_db =
      SetUp(w, w.shape, next, ctx->work + "/reference", nullptr, &ctx->log);
  std::vector<std::vector<Answer>> ref(w.queries.size());
  std::vector<std::set<DocId>> truth(w.queries.size());
  {
    Session ref_session = ref_db.MakeSession();
    for (size_t q = 0; q < w.queries.size(); ++q) {
      ref[q] = FullRanking(
          Must(ref_session.Prepare(Approach::kStaccato, full[q]), "prepare"),
          next);
      truth[q] = Must(ref_db.GroundTruthFor(full[q].pattern), "truth");
      ++rep->attempted;
      if (!SameAnswers(reopened[q], ref[q])) {
        rep->Fail("reopened database differs from bulk load: " +
                  full[q].pattern);
      }
    }
  }
  ref_db = Database();
  std::vector<double> recall;
  for (size_t k = 0; k < observed.size(); ++k) {
    const Observed& obs = observed[k];
    auto seen = [&](DocId d) {
      return d < obs.visible && year_of[d] == obs.year;
    };
    if (!SameAnswers(obs.answers,
                     Expected(ref[obs.query], w.shape.num_ans, seen))) {
      rep->Fail("answers differ from reference: " +
                w.queries[obs.query].pattern);
    }
    std::set<DocId> t;
    for (DocId d : truth[obs.query]) {
      if (seen(d)) t.insert(d);
    }
    recall.push_back(ScoreAnswers(obs.answers, t).recall);
  }
  phase.recall = Mean(recall);
  ReportQueries(phase, rep);
  rep->E2e("storage_amplification", storage, "ratio");
  std::vector<double> dd(delta_docs.begin(), delta_docs.end());
  rep->Layer("delta.docs_at_query", Median(dd), "count");
  rep->Layer("delta.query_overhead_ratio",
             before_ckpt.empty() || after_ckpt.empty()
                 ? 1.0
                 : Median(before_ckpt) / std::max(1e-9, Median(after_ckpt)),
             "ratio");
  ReportWrites(writes, alone, rep);
}

// ---------------------------------------------------------------------------
// Output

std::string JsonString(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      o += StringPrintf("\\u%04x", c);
      continue;
    }
    o.push_back(c);
  }
  return o + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  return StringPrintf("%.17g", v);
}

void WriteTrace(const RunContext& ctx, const std::string& path,
                const SpanLog& log) {
  std::ofstream out(path);
  out << "{\"workload\": " << JsonString(KindName(ctx.w->kind))
      << ", \"seed\": " << ctx.w->seed << ", \"spans\": [";
  const uint64_t origin = log.spans().empty() ? 0 : log.spans()[0].start_ns;
  bool first = true;
  for (const Span& s : log.spans()) {
    out << (first ? "\n" : ",\n") << "  {\"name\": " << JsonString(s.name)
        << ", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request
        << ", \"start_ns\": " << (s.start_ns - std::min(s.start_ns, origin))
        << ", \"end_ns\": " << (s.end_ns - std::min(s.end_ns, origin)) << "}";
    first = false;
  }
  out << "\n]}\n";
}

/// Prints each layer's self time over the traced requests, and the part of
/// their wall time no layer span covers.
double PrintSelfTimes(const SpanLog& log) {
  const std::map<std::string, SelfTime> self =
      SelfTimes(RequestSpans(log.spans()));
  double wall = 0.0;
  auto it = self.find("request");
  if (it != self.end()) wall = it->second.total_ms;
  fprintf(stdout, "trace: self time per layer over traced requests "
                  "(wall %.3f ms)\n", wall);
  fprintf(stdout, "  %-34s %12s %8s %8s\n", "span", "self_ms", "share",
          "count");
  for (const auto& [name, t] : self) {
    if (name == "request") continue;
    fprintf(stdout, "  %-34s %12.3f %7.2f%% %8zu\n", name.c_str(), t.self_ms,
            wall > 0 ? 100.0 * t.self_ms / wall : 0.0, t.count);
  }
  const double unattributed = it == self.end() ? 0.0 : it->second.self_ms;
  fprintf(stdout, "  %-34s %12.3f %7.2f%%\n", "unattributed", unattributed,
          wall > 0 ? 100.0 * unattributed / wall : 0.0);
  return wall > 0 ? unattributed / wall : 0.0;
}

void PinEnvironment(Kind kind) {
  // Every STACCATO_* knob changes behaviour (auto-checkpoint, tracing,
  // shard count, cache size, pool size, ...): start from none of them.
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("STACCATO_", 0) == 0) {
      names.push_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  setenv("STACCATO_WAL_SYNC", "commit", 1);
  // Probe-cold runs on a one-thread pool, so its shards are scattered
  // inline. Its queries take about a millisecond, and waking three pool
  // workers per query made its p50 follow the host's scheduler: with two
  // spinning processes beside it, the 4-thread p50 rose 18% and the
  // 1-thread p50 2%, and unloaded the two differ by 10% at most.
  if (kind == Kind::kProbeCold) setenv("STACCATO_THREADS", "1", 1);
}

int Usage() {
  fprintf(stderr,
          "usage: perfbench --workload scan-warm|probe-cold|ingest-mixed "
          "--seed N --seconds S --trace 0|1 [--scale full|tiny] "
          "[--work DIR] [--source-id ID] [--dump-workload FILE] "
          "[--perturb-reference 1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, scale = "full", work = ".bench_work", dump;
  std::string source = "unknown";
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") seconds = std::atof(v.c_str());
    else if (k == "--trace") trace = v == "1";
    else if (k == "--scale") scale = v;
    else if (k == "--work") work = v;
    else if (k == "--source-id") source = v;
    else if (k == "--dump-workload") dump = v;
    else if (k == "--perturb-reference") g_perturb_reference = v == "1";
    else return Usage();
  }
  if (argc % 2 == 0 || seconds <= 0 || (scale != "full" && scale != "tiny")) {
    return Usage();
  }
  Kind kind;
  if (workload == "scan-warm") kind = Kind::kScanWarm;
  else if (workload == "probe-cold") kind = Kind::kProbeCold;
  else if (workload == "ingest-mixed") kind = Kind::kIngestMixed;
  else return Usage();

  PinEnvironment(kind);
  const Workload w = MakeWorkload(kind, seed, scale == "tiny");
  if (!dump.empty()) {
    DumpWorkload(w, dump);
    return 0;
  }

  const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
  fprintf(stdout,
          "fingerprint {\"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
          "\"source\": %s, \"seed\": %llu, \"workload\": %s, \"scale\": %s}\n",
          std::thread::hardware_concurrency(),
          JsonString("gcc-compatible " __VERSION__).c_str(),
          JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(source).c_str(),
          static_cast<unsigned long long>(seed), JsonString(workload).c_str(),
          JsonString(scale).c_str());
  if (!release) {
    fprintf(stderr, "perfbench: WARNING: not a Release build (%s); timings "
                    "are not comparable\n", PERFBENCH_BUILD_TYPE);
  }

  RunContext ctx{&w, StringPrintf("%s/%s-%d", work.c_str(), workload.c_str(),
                                  static_cast<int>(getpid())),
                 seconds, trace, SpanLog(trace)};
  std::error_code ec;
  fs::remove_all(ctx.work, ec);
  fs::create_directories(ctx.work, ec);
  if (ec) {
    fprintf(stderr, "perfbench: cannot create %s\n", ctx.work.c_str());
    return 1;
  }

  Report rep;
  switch (kind) {
    case Kind::kScanWarm: ScanWarm(&ctx, &rep); break;
    case Kind::kProbeCold: ProbeCold(&ctx, &rep); break;
    case Kind::kIngestMixed: IngestMixed(&ctx, &rep); break;
  }
  rep.Layer("error_rate",
            static_cast<double>(rep.failed) /
                static_cast<double>(std::max<uint64_t>(1, rep.attempted)),
            "ratio");
  if (trace) {
    rep.Layer("trace.unattributed_share", PrintSelfTimes(ctx.log), "ratio");
    const std::string path =
        StringPrintf("%s/trace-%s-seed%llu.json", work.c_str(),
                     workload.c_str(), static_cast<unsigned long long>(seed));
    WriteTrace(ctx, path, ctx.log);
    fprintf(stdout, "trace: %zu spans written to %s\n",
            ctx.log.spans().size(), path.c_str());
  }
  fs::remove_all(ctx.work, ec);

  const auto& metrics = trace ? rep.layer : rep.e2e;
  std::string json = StringPrintf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      rep.correct ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += StringPrintf("%s%s: {\"value\": %s, \"unit\": %s}",
                         i == 0 ? "" : ", ",
                         JsonString(metrics[i].first).c_str(),
                         JsonNumber(metrics[i].second.first).c_str(),
                         JsonString(metrics[i].second.second).c_str());
  }
  json += "}}";
  fprintf(stdout, "%s\n", json.c_str());
  fflush(stdout);
  return rep.correct ? 0 : 1;
}

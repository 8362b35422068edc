// Shared pieces of the benchmark binary: clocks, the seeded generator,
// percentiles, the result record and its one-line JSON form, and the
// in-memory span recorder of traced runs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

namespace pb {

inline uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return uint64_t(ts.tv_sec) * 1000000000ull + uint64_t(ts.tv_nsec);
}

inline uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return uint64_t(ts.tv_sec) * 1000000000ull + uint64_t(ts.tv_nsec);
}

/// Peak resident set of the process, MiB (ru_maxrss is in KiB on Linux).
inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

/// Pins the calling thread to the i-th CPU the process may run on, so that
/// each worker keeps one CPU for the whole run. No-op if there are fewer.
inline void pin_to_cpu(unsigned i) {
  // Read once, before any thread has pinned itself: a thread inherits its
  // creator's mask, so a later read could see a single CPU.
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed)) v.push_back(c);
    return v;
  }();
  if (i >= cpus.size()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[i], &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

inline void cpu_relax() { __builtin_ia32_pause(); }

/// splitmix64: every input the benchmark makes (sampling gaps, the handoff
/// schedule, ladder values) is drawn from one of these, seeded by --seed.
struct Rng {
  uint64_t s;
  explicit Rng(uint64_t seed) : s(seed) {}
  uint64_t next() {
    uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  uint64_t range(uint64_t lo, uint64_t hi) { return lo + next() % (hi - lo + 1); }
};

/// Seed of stream `k` of run seed `seed` (one stream per thread or input).
inline uint64_t stream_seed(uint64_t seed, uint64_t k) {
  return Rng(seed * 0x100000001B3ull + k).next();
}

template <class T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::size_t k = std::min(v.size() - 1, std::size_t(q * double(v.size())));
  std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(k), v.end());
  return double(v[k]);
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Mean of the middle 80% of `v`: the lowest and highest tenth are dropped.
/// The host switches between a slow and a fast state every few seconds, so
/// round values are bimodal; the median of a run then jumps from one mode
/// to the other when the fast share nears one half, while this mean moves
/// in proportion to that share. The trim keeps a stalled round out.
inline double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / double(v.size() - 2 * cut);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run reports. `attempted` counts items (one value through the
/// queue); `failed` counts accepted items that were never delivered or
/// drained; `errors` holds every output-check or cross-check failure.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void error(std::string e) { errors.push_back(std::move(e)); }
};

inline void print_result(const Result& r) {
  for (const auto& e : r.errors) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.errors.empty() ? "true" : "false", (unsigned long long)r.attempted,
              (unsigned long long)r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Log-linear histogram of span durations (ns): 32 sub-buckets per power
/// of two, so a percentile read from it is within ~3% of the exact one.
class Hist {
 public:
  void add(uint64_t v) {
    ++b_[index(v)];
    ++n_;
  }
  void merge(const Hist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) b_[i] += o.b_[i];
    n_ += o.n_;
  }
  double percentile(double q) const {
    if (n_ == 0) return 0.0;
    uint64_t rank = std::min<uint64_t>(n_ - 1, uint64_t(q * double(n_)));
    uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += b_[i];
      if (seen > rank) return lower(i);
    }
    return lower(kBuckets - 1);
  }

 private:
  static constexpr unsigned kSub = 5;  // 32 sub-buckets
  static constexpr std::size_t kBuckets = (64 - kSub + 1) << kSub;
  static std::size_t index(uint64_t v) {
    if (v < (1u << kSub)) return std::size_t(v);
    unsigned e = 63u - unsigned(__builtin_clzll(v));  // >= kSub
    uint64_t sub = (v >> (e - kSub)) & ((1u << kSub) - 1);
    return (std::size_t(e - kSub + 1) << kSub) + std::size_t(sub);
  }
  static double lower(std::size_t i) {
    if (i < (1u << kSub)) return double(i);
    unsigned e = unsigned(i >> kSub) + kSub - 1;
    uint64_t sub = i & ((1u << kSub) - 1);
    return double((uint64_t(1) << e) + (sub << (e - kSub)));
  }
  uint64_t b_[kBuckets] = {};
  uint64_t n_ = 0;
};

/// One thread's spans in a traced run. Every call into a surface is timed
/// into that surface's histogram; the first kKeep spans are also kept
/// whole (name, request id, start, end) and written out when the run ends.
/// A request is one item's enqueue→dequeue: its spans share `req`.
class SpanLog {
 public:
  struct Span {
    uint16_t name;
    uint16_t tid;
    uint64_t req;
    uint64_t start;
    uint64_t end;
  };
  static constexpr std::size_t kKeep = 8192;

  explicit SpanLog(std::size_t names) : hists_(names) {}

  void record(uint16_t name, uint16_t tid, uint64_t req, uint64_t start, uint64_t end) {
    hists_[name].add(end - start);
    if (kept_.size() < kKeep) kept_.push_back({name, tid, req, start, end});
  }
  Hist& hist(uint16_t name) { return hists_[name]; }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  std::vector<Hist> hists_;
  std::vector<Span> kept_;
};

/// Writes the kept spans as Chrome trace events (chrome://tracing,
/// Perfetto). Best effort: a run whose trace file cannot be written still
/// reports its metrics.
inline void write_spans(const std::string& path, const std::vector<const char*>& names,
                        const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  uint64_t t0 = ~uint64_t{0};
  for (const SpanLog* l : logs)
    for (const auto& s : l->kept()) t0 = std::min(t0, s.start);
  std::fprintf(f, "{\"traceEvents\": [");
  bool first = true;
  for (const SpanLog* l : logs) {
    for (const auto& s : l->kept()) {
      std::fprintf(f, "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                      "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"req\": %llu}}",
                   first ? "" : ",", names[s.name], unsigned(s.tid),
                   double(s.start - t0) / 1e3, double(s.end - s.start) / 1e3,
                   (unsigned long long)s.req);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

/// Sense-reversing spin barrier for the worker threads of one workload
/// (at most nproc of them, so spinning never starves a participant).
class SpinBarrier {
 public:
  explicit SpinBarrier(unsigned n) : n_(n) {}
  void wait() {
    const uint32_t gen = gen_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      arrived_.store(0, std::memory_order_relaxed);
      gen_.store(gen + 1, std::memory_order_release);
      return;
    }
    while (gen_.load(std::memory_order_acquire) == gen) cpu_relax();
  }

 private:
  const unsigned n_;
  std::atomic<uint32_t> arrived_{0};
  std::atomic<uint32_t> gen_{0};
};

/// Process start, as close as a program can stamp it: initialised before
/// main() runs. setup_s is measured from here.
extern const uint64_t g_process_start_ns;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_dir;
};

}  // namespace pb

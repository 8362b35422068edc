// pairs-1t and pairs-4t: the paper's pairs workload (Figure 2) with no
// think time, through WFQueue<uint64_t> with the default WfConfig.
//
// A run is whole rounds. In a round every thread runs enqueue(item) →
// dequeue() pairs until thread 0 sees the round's window (kWindowNs) end;
// then all threads meet at a barrier, thread 0 drains the queue and the
// ledger closes the round. A fixed window, not a fixed pair count, so that
// a thread the host preempts does not leave the others idle at the
// barrier. Each timed round yields a throughput, pair-latency percentiles
// and CPU per item; the run reports their trimmed mean over its rounds
// (trimmed_mean in util.hpp says why not the median).
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/wf_queue.hpp"
#include "ledger.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using Queue = wfq::WFQueue<uint64_t>;

enum class Mode { kStop, kUntraced, kTraced };
enum SpanName : uint16_t { kSpanEnq, kSpanDeq, kSpanPair };

struct alignas(64) Worker {
  explicit Worker(uint64_t seed) : rng(seed), spans(3) {}
  Rng rng;
  SpanLog spans;
  std::vector<uint32_t> samples;  // sampled pair latencies of this round
  // This round's counts and clocks.
  uint64_t enq_ok = 0;
  uint64_t enq_failed = 0;
  uint64_t deq_val = 0;
  uint64_t false_empty = 0;  // pairs-1t only: EMPTY with our item queued
  uint64_t mismatched = 0;   // pairs-1t only: not the item just enqueued
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t cpu = 0;
};

constexpr uint64_t kWindowNs = 250000000;
/// Latency samples are taken at random gaps, uniform in [1, 2*kMeanGap-1]
/// pairs: a fixed stride phase-locks onto the 1024-cell segment boundary
/// and reports its cost as the tail.
constexpr uint64_t kMeanGap = 32;
constexpr uint64_t kWarmPairs = 1 << 16;  // per thread, before timing starts

struct RoundStats {
  double mops;
  double p50, p90, p99;
  double cpu_ns_per_item;
};

class Pairs {
 public:
  Pairs(const Args& a, unsigned threads)
      : a_(a),
        threads_(threads),
        // Per-thread pair cap of a round, which sizes the ledger: 2-3x what
        // one window holds on the host in README.md. A round that reaches
        // it ends early, which leaves its throughput correct.
        round_cap_(threads == 1 ? (1u << 22) : (1u << 19)),
        ledger_(threads, threads + 1, round_cap_),
        barrier_(threads) {
    workers_.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) workers_.emplace_back(stream_seed(a.seed, t));
  }

  Result run() {
    Result r;
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads_; ++t) pool.emplace_back([this, t] { worker_loop(t); });
    if (threads_ > 1) pin_to_cpu(0);  // one CPU per worker
    Queue::Handle h = q_.get_handle();

    round(h, Mode::kUntraced, kWarmPairs, ~uint64_t{0});  // warm-up: pool, caches
    const double setup_s = double(now_ns() - g_process_start_ns) / 1e9;

    std::vector<RoundStats> timed, traced;
    // A traced run alternates untraced and traced rounds, so that the host's
    // drift (seconds to minutes long) falls on both alike and cancels out
    // of trace.overhead_pct.
    const double budget = a_.trace ? a_.seconds * 0.6 : a_.seconds;
    const uint64_t t0 = now_ns();
    do {
      timed.push_back(round(h, Mode::kUntraced, round_cap_, kWindowNs));
      if (a_.trace) traced.push_back(round(h, Mode::kTraced, round_cap_, kWindowNs));
    } while (double(now_ns() - t0) / 1e9 < budget);

    // Cross-check: the harness's totals against the queue's own counters.
    const wfq::OpStats s = q_.stats();
    const uint64_t enq = s.enq_fast + s.enq_slow;
    const uint64_t deq = s.deq_fast + s.deq_slow - s.deq_empty;
    if (enq != enq_ok_total_)
      r.error("enq_fast + enq_slow = " + std::to_string(enq) + ", harness counted " +
              std::to_string(enq_ok_total_) + " successful enqueues");
    if (deq != deq_val_total_)
      r.error("deq_fast + deq_slow - deq_empty = " + std::to_string(deq) +
              ", harness counted " + std::to_string(deq_val_total_) + " values dequeued");
    const std::size_t peak_live = q_.peak_live_segments();

    mode_.store(Mode::kStop, std::memory_order_relaxed);
    barrier_.wait();
    for (auto& t : pool) t.join();

    r.attempted = attempted_;
    r.failed = tally_.lost + enq_failed_total_;
    if (!tally_.ok()) r.error("output check: " + tally_.describe());
    if (false_empty_ != 0 || mismatched_ != 0)
      r.error("pairs-1t: " + std::to_string(false_empty_) + " false EMPTY, " +
              std::to_string(mismatched_) + " dequeues not returning the item just enqueued");

    auto over_rounds = [](const std::vector<RoundStats>& v, double RoundStats::*f) {
      std::vector<double> x;
      for (const auto& s : v) x.push_back(s.*f);
      return trimmed_mean(x);
    };
    if (!a_.trace) {
      r.add("throughput_mops", over_rounds(timed, &RoundStats::mops), "Mops/s");
      r.add("latency_p50_ns", over_rounds(timed, &RoundStats::p50), "ns");
      r.add("latency_p90_ns", over_rounds(timed, &RoundStats::p90), "ns");
      r.add("latency_p99_ns", over_rounds(timed, &RoundStats::p99), "ns");
      r.add("cpu_ns_per_item", over_rounds(timed, &RoundStats::cpu_ns_per_item), "ns");
      r.add("peak_rss_mib", peak_rss_mib(), "MiB");
      r.add("setup_s", setup_s, "s");
      std::fprintf(stderr, "perfbench: %s %zu timed rounds, %llu items\n", a_.workload.c_str(),
                   timed.size(), (unsigned long long)attempted_);
      return r;
    }

    Hist enq_spans, deq_spans, pair;
    std::vector<const SpanLog*> logs;
    for (auto& w : workers_) {
      enq_spans.merge(w.spans.hist(kSpanEnq));
      deq_spans.merge(w.spans.hist(kSpanDeq));
      pair.merge(w.spans.hist(kSpanPair));
      logs.push_back(&w.spans);
    }
    write_spans(a_.trace_dir + "/" + a_.workload + "-seed" + std::to_string(a_.seed) + ".json",
                {"WFQueue::enqueue", "WFQueue::dequeue", "pair"}, logs);
    const double untraced = over_rounds(timed, &RoundStats::mops);
    const double per_mop = 1e6 / double(s.enqueues() + s.dequeues());
    const double items = double(tally_.delivered);
    const double traced_mops = over_rounds(traced, &RoundStats::mops);
    r.add("trace.overhead_pct", 100.0 * (untraced - traced_mops) / untraced, "%");
    r.add("enq.p50_ns", enq_spans.percentile(0.5), "ns");
    r.add("enq.p99_ns", enq_spans.percentile(0.99), "ns");
    r.add("deq.p50_ns", deq_spans.percentile(0.5), "ns");
    r.add("deq.p99_ns", deq_spans.percentile(0.99), "ns");
    r.add("tail.delivery_p99_ns", pair.percentile(0.99), "ns");
    r.add("tail.delivery_p999_ns", pair.percentile(0.999), "ns");
    r.add("core.enq_slow_per_mop", double(s.enq_slow) * per_mop, "count/Mop");
    r.add("core.deq_slow_per_mop", double(s.deq_slow) * per_mop, "count/Mop");
    r.add("core.deq_empty_per_mop", double(s.deq_empty) * per_mop, "count/Mop");
    r.add("core.enq_slow_share", double(s.enq_slow) / double(enq), "ratio");
    r.add("core.empty_deqs_per_item", double(s.deq_empty) / items, "count/item");
    r.add("core.enq_cells_per_op", s.avg_enq_probes(), "cells/op");
    r.add("core.deq_cells_per_op", s.avg_deq_probes(), "cells/op");
    r.add("segment.freed_per_mop", double(s.segments_freed) * per_mop, "count/Mop");
    r.add("segment.cleanups_per_mop", double(s.cleanups) * per_mop, "count/Mop");
    r.add("segment.peak_live", double(peak_live), "segments");
    CapiSpans capi;
    run_ladder(r, a_.seed, capi);
    run_refs_4t(r);
    r.add("capi.enqueue.p50_ns", capi.enqueue.percentile(0.5), "ns");
    r.add("capi.enqueue.p99_ns", capi.enqueue.percentile(0.99), "ns");
    r.add("capi.dequeue_wait.p50_ns", capi.dequeue_wait.percentile(0.5), "ns");
    return r;
  }

 private:
  void worker_loop(unsigned t) {
    pin_to_cpu(t);
    Queue::Handle h = q_.get_handle();
    for (;;) {
      barrier_.wait();
      const Mode m = mode_.load(std::memory_order_relaxed);
      if (m == Mode::kStop) return;
      run_pairs(t, h, m);
      barrier_.wait();
    }
  }

  /// One round, called on thread 0: release the workers, run thread 0's
  /// share, drain, and close the round in the ledger.
  RoundStats round(Queue::Handle& h, Mode m, uint64_t limit, uint64_t window_ns) {
    mode_.store(m, std::memory_order_relaxed);
    limit_ = limit;
    stop_.store(false, std::memory_order_relaxed);
    deadline_ = window_ns == ~uint64_t{0} ? window_ns : now_ns() + window_ns;
    barrier_.wait();
    run_pairs(0, h, m);
    barrier_.wait();

    uint64_t ops = 0, items = 0, cpu = 0, start = ~uint64_t{0}, end = 0;
    std::vector<uint64_t> enqueued(threads_);
    std::vector<uint32_t> samples;
    for (unsigned t = 0; t < threads_; ++t) {
      Worker& w = workers_[t];
      enqueued[t] = w.enq_ok;
      ops += w.enq_ok + w.deq_val;
      items += w.enq_ok;
      cpu += w.cpu;
      start = std::min(start, w.start);
      end = std::max(end, w.end);
      samples.insert(samples.end(), w.samples.begin(), w.samples.end());
      enq_ok_total_ += w.enq_ok;
      enq_failed_total_ += w.enq_failed;
      deq_val_total_ += w.deq_val;
      false_empty_ += w.false_empty;
      mismatched_ += w.mismatched;
      attempted_ += w.enq_ok + w.enq_failed;
    }
    while (std::optional<uint64_t> v = q_.dequeue(h)) {
      ledger_.deliver(threads_, *v);
      ++deq_val_total_;
    }
    tally_.add(ledger_.finish(enqueued));
    return {double(ops) * 1e3 / double(end - start), percentile(samples, 0.5),
            percentile(samples, 0.9), percentile(samples, 0.99),
            double(cpu) / double(items)};
  }

  /// Thread t's share of one round.
  void run_pairs(unsigned t, Queue::Handle& h, Mode m) {
    Worker& w = workers_[t];
    w.samples.clear();
    w.enq_ok = w.enq_failed = w.deq_val = w.false_empty = w.mismatched = 0;
    uint64_t gap = w.rng.range(1, 2 * kMeanGap - 1);
    const uint64_t cpu0 = thread_cpu_ns();
    w.start = now_ns();
    for (uint64_t i = 0; i < limit_; ++i) {
      if (i % 64 == 0) {
        if (t == 0 && now_ns() >= deadline_) stop_.store(true, std::memory_order_relaxed);
        if (stop_.load(std::memory_order_relaxed)) break;
      }
      const uint64_t v = item(t, w.enq_ok + 1);
      std::optional<uint64_t> got;
      bool ok;
      if (--gap == 0) {
        // A sampled pair. A traced round also splits it into spans at the
        // enqueue's return; timing every pair would add three clock reads
        // to a pair that costs about four.
        const bool traced = m == Mode::kTraced;
        const uint64_t t0 = now_ns();
        ok = q_.enqueue(h, v);
        const uint64_t t1 = traced ? now_ns() : 0;
        got = q_.dequeue(h);
        const uint64_t t2 = now_ns();
        if (traced) {
          w.spans.record(kSpanEnq, uint16_t(t), v, t0, t1);
          w.spans.record(kSpanDeq, uint16_t(t), v, t1, t2);
          w.spans.record(kSpanPair, uint16_t(t), v, t0, t2);
        } else {
          w.samples.push_back(uint32_t(std::min<uint64_t>(t2 - t0, UINT32_MAX)));
        }
        gap = w.rng.range(1, 2 * kMeanGap - 1);
      } else {
        ok = q_.enqueue(h, v);
        got = q_.dequeue(h);
      }
      ok ? ++w.enq_ok : ++w.enq_failed;
      if (got) {
        ++w.deq_val;
        ledger_.deliver(t, *got);
        if (threads_ == 1 && *got != v) ++w.mismatched;
      } else if (threads_ == 1 && ok) {
        ++w.false_empty;
      }
    }
    w.end = now_ns();
    w.cpu = thread_cpu_ns() - cpu0;
  }

  const Args& a_;
  const unsigned threads_;
  const uint64_t round_cap_;
  Queue q_;
  Ledger ledger_;
  SpinBarrier barrier_;
  // Set by thread 0 before the barrier that starts a round.
  std::atomic<Mode> mode_{Mode::kUntraced};
  uint64_t limit_ = 0;
  uint64_t deadline_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<Worker> workers_;
  Tally tally_;
  uint64_t attempted_ = 0;
  uint64_t enq_ok_total_ = 0;
  uint64_t enq_failed_total_ = 0;
  uint64_t deq_val_total_ = 0;
  uint64_t false_empty_ = 0;
  uint64_t mismatched_ = 0;
};

}  // namespace

Result run_pairs(const Args& a, unsigned threads) { return Pairs(a, threads).run(); }

}  // namespace pb

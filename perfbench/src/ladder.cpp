// The layer ladder of traced runs: one seeded single-thread pair loop run
// through each public surface, from the bare core up to the C API, and
// through the repository's two reference queues. The difference between
// two rungs is what the upper layer adds per pair; the reference rows are
// the paper's floors and, between two commits, a drift control.
#include <optional>
#include <thread>
#include <vector>

#include "baselines/faaq.hpp"
#include "capi/wfq_c.h"
#include "core/obstruction_queue.hpp"
#include "core/wf_queue.hpp"
#include "ledger.hpp"
#include "sync/blocking_queue.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

struct NoStatsTraits : wfq::DefaultWfTraits {
  static constexpr bool kCollectStats = false;
};
struct ObsTraits : wfq::DefaultWfTraits {
  using Metrics = wfq::obs::ObsMetrics<>;
};

constexpr uint64_t kWarmPairs = 1 << 16;
constexpr uint64_t kRepPairs = 1 << 19;
constexpr int kReps = 5;

/// Median ns per pair over kReps repetitions of kRepPairs pairs. `pair(v)`
/// enqueues v, dequeues once and returns what it got; `checked` rungs must
/// return v itself (the FAA reference fabricates its values).
template <class Pair>
double rung(Result& r, const char* name, uint64_t base, bool checked, Pair&& pair) {
  uint64_t wrong = 0;
  uint64_t v = base;
  for (uint64_t i = 0; i < kWarmPairs; ++i, ++v) wrong += pair(v) != v;
  std::vector<double> reps;
  for (int rep = 0; rep < kReps; ++rep) {
    const uint64_t t0 = now_ns();
    for (uint64_t i = 0; i < kRepPairs; ++i, ++v) wrong += pair(v) != v;
    reps.push_back(double(now_ns() - t0) / double(kRepPairs));
  }
  if (checked && wrong != 0)
    r.error(std::string(name) + ": " + std::to_string(wrong) + " dequeues returned another value");
  return median(reps);
}

template <class Q>
double wf_rung(Result& r, const char* name, uint64_t base, bool checked = true) {
  Q q;
  auto h = q.get_handle();
  return rung(r, name, base, checked, [&](uint64_t v) {
    q.enqueue(h, v);
    std::optional<uint64_t> got = q.dequeue(h);
    return got ? *got : 0;
  });
}

/// Four threads, one per CPU as in pairs-4t, run the pairs loop on Q;
/// median Mops/s over three rounds.
template <class Q>
double mops_4t() {
  constexpr unsigned kThreads = 4;
  constexpr uint64_t kPairs = 1 << 17;
  std::vector<double> rounds;
  for (int round = 0; round < 3; ++round) {
    Q q;
    SpinBarrier start(kThreads);
    std::vector<uint64_t> t0(kThreads), t1(kThreads);
    auto body = [&](unsigned t) {
      pin_to_cpu(t);
      auto h = q.get_handle();
      start.wait();
      t0[t] = now_ns();
      for (uint64_t i = 1; i <= kPairs; ++i) {
        q.enqueue(h, item(t, i));
        (void)q.dequeue(h);
      }
      t1[t] = now_ns();
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < kThreads; ++t) pool.emplace_back(body, t);
    body(0);
    for (auto& th : pool) th.join();
    const uint64_t span = *std::max_element(t1.begin(), t1.end()) -
                          *std::min_element(t0.begin(), t0.end());
    rounds.push_back(double(2 * kThreads * kPairs) * 1e3 / double(span));
  }
  return median(rounds);
}

}  // namespace

void run_ladder(Result& r, uint64_t seed, CapiSpans& capi) {
  const uint64_t base = Rng(stream_seed(seed, 1000)).range(1, 1 << 20) << 24;
  r.add("ladder.core.pair_ns", [&] {
    wfq::WFQueueCore<> q;
    wfq::WFQueueCore<>::HandleGuard h(q);
    return rung(r, "ladder.core", base, true, [&](uint64_t v) {
      q.enqueue(h.get(), v);
      return q.dequeue(h.get());
    });
  }(), "ns");
  r.add("ladder.core_nostats.pair_ns", [&] {
    wfq::WFQueueCore<NoStatsTraits> q;
    wfq::WFQueueCore<NoStatsTraits>::HandleGuard h(q);
    return rung(r, "ladder.core_nostats", base, true, [&](uint64_t v) {
      q.enqueue(h.get(), v);
      return q.dequeue(h.get());
    });
  }(), "ns");
  r.add("ladder.wfqueue.pair_ns", wf_rung<wfq::WFQueue<uint64_t>>(r, "ladder.wfqueue", base),
        "ns");
  r.add("ladder.wfqueue_obs.pair_ns",
        wf_rung<wfq::WFQueue<uint64_t, ObsTraits>>(r, "ladder.wfqueue_obs", base), "ns");
  r.add("ladder.blocking.pair_ns", [&] {
    wfq::sync::BlockingWFQueue<uint64_t> q;
    auto h = q.get_handle();
    return rung(r, "ladder.blocking", base, true, [&](uint64_t v) {
      q.push(h, v);
      uint64_t got = 0;
      q.pop_wait(h, got);
      return got;
    });
  }(), "ns");

  // The C API rung calls what handoff-capi calls: wfq_enqueue and
  // wfq_dequeue_wait (which returns at once here: the value is queued).
  wfq_queue_t* cq = wfq_create_default();
  wfq_handle_t* ch = wfq_handle_acquire(cq);
  auto capi_pair = [&](uint64_t v) {
    uint64_t got = 0;
    wfq_enqueue(ch, v);
    wfq_dequeue_wait(ch, &got);
    return got;
  };
  r.add("ladder.capi.pair_ns", rung(r, "ladder.capi", base, true, capi_pair), "ns");
  // One more repetition with a span around each call: the capi.* rows.
  uint64_t v = base + (uint64_t(kReps) + 1) * kRepPairs + kWarmPairs;
  for (uint64_t i = 0; i < kRepPairs; ++i, ++v) {
    uint64_t got = 0;
    const uint64_t t0 = now_ns();
    wfq_enqueue(ch, v);
    const uint64_t t1 = now_ns();
    wfq_dequeue_wait(ch, &got);
    const uint64_t t2 = now_ns();
    capi.enqueue.add(t1 - t0);
    capi.dequeue_wait.add(t2 - t1);
    if (got != v) r.error("ladder.capi (traced): dequeue returned another value");
  }
  wfq_handle_release(ch);
  wfq_destroy(cq);

  r.add("ref.obstruction.pair_ns",
        wf_rung<wfq::ObstructionQueue<uint64_t>>(r, "ref.obstruction", base), "ns");
  r.add("ref.faa.pair_ns", wf_rung<wfq::baselines::FAAQueue<uint64_t>>(r, "ref.faa", base, false), "ns");
}

void run_refs_4t(Result& r) {
  r.add("ref.faa.mops_4t", mops_4t<wfq::baselines::FAAQueue<uint64_t>>(), "Mops/s");
  r.add("ref.obstruction.mops_4t", mops_4t<wfq::ObstructionQueue<uint64_t>>(), "Mops/s");
}

}  // namespace pb

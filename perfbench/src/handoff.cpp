// handoff-capi: the queue used the other way round from the pairs
// workloads. One producer enqueues with wfq_enqueue on an open-loop
// schedule (seeded gaps, uniform in [10, 30] µs: 50k items/s offered); one
// consumer takes items with wfq_dequeue_wait. The queue is mostly empty,
// so the consumer's dequeues find no value, the producer's enqueues meet
// cells the consumer already spent, and the consumer parks through the
// sync layer. The run ends with wfq_close and a drain.
//
// A run is whole rounds of kRoundItems scheduled items, their number fixed
// by --seconds. Delivery latency is timed from each item's scheduled send
// time, so a stall also counts against the items queued behind it.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "capi/wfq_c.h"
#include "ledger.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr double kRate = 50000;  // items/s offered
constexpr uint64_t kGapMin = 10000, kGapMax = 30000;  // ns; mean 1/kRate
constexpr uint64_t kRoundItems = 25000;               // 0.5 s of schedule
constexpr uint64_t kWarmItems = 4096;                 // unpaced, before t0

struct RoundStats {
  uint64_t first_due = 0;  // scheduled time of the round's first item
  uint64_t last_ret = 0;   // when the round's last delivery returned
  uint64_t delivered = 0;
  uint64_t consumer_cpu = 0;
  uint64_t producer_ns = 0;  // time inside wfq_enqueue (pacing excluded)
  double p50 = 0, p90 = 0, p99 = 0;
};

struct Phase {
  std::vector<RoundStats> rounds;
  Tally tally;
  wfq_stats_ex_t stats{};
  uint64_t first_due = 0;
  uint64_t attempted = 0;
  Hist late, delivery;
  // Span names: 0 is wfq_enqueue (producer), 1 is wfq_dequeue_wait (consumer).
  SpanLog producer_spans{2}, consumer_spans{2};
};

/// One queue lifetime: warm-up, `rounds` paced rounds, close, drain.
void run_phase(Result& r, uint64_t seed, uint64_t rounds, bool traced, Phase& ph) {
  const uint64_t paced = rounds * kRoundItems;
  wfq_queue_t* q = wfq_create_default();
  Ledger ledger(1, 2, kWarmItems + paced);
  ph.rounds.assign(rounds, {});
  std::atomic<uint64_t> warm_received{0};
  std::atomic<uint64_t> t0{0};
  uint64_t enq_ok = 0, deq_val = 0;
  std::string producer_error;

  std::thread producer([&] {
    wfq_handle_t* h = wfq_handle_acquire(q);
    for (uint64_t k = 1; k <= kWarmItems && producer_error.empty(); ++k) {
      if (int rc = wfq_enqueue(h, item(0, k)); rc == WFQ_OK) ++enq_ok;
      else producer_error = "wfq_enqueue returned " + std::to_string(rc);
    }
    // Start the schedule once the consumer has taken the warm-up items (or
    // after 1 s, so that a lost warm-up item cannot stall the run).
    const uint64_t warm_deadline = now_ns() + 1000000000;
    while (warm_received.load(std::memory_order_acquire) < enq_ok && now_ns() < warm_deadline)
      cpu_relax();
    Rng gaps(stream_seed(seed, 7));
    uint64_t due = now_ns() + 100000;
    t0.store(due, std::memory_order_release);
    for (uint64_t i = 0; i < paced && producer_error.empty(); ++i) {
      due += gaps.range(kGapMin, kGapMax);
      uint64_t start;
      while ((start = now_ns()) < due) cpu_relax();
      const uint64_t v = item(0, kWarmItems + 1 + i);
      const int rc = wfq_enqueue(h, v);
      const uint64_t end = now_ns();
      ph.late.add(start - due);
      ph.rounds[i / kRoundItems].producer_ns += end - start;
      if (traced) ph.producer_spans.record(0, 0, v, start, end);
      if (rc == WFQ_OK) ++enq_ok;
      else producer_error = "wfq_enqueue returned " + std::to_string(rc);
    }
    wfq_close(q);
    wfq_handle_release(h);
  });

  wfq_handle_t* h = wfq_handle_acquire(q);
  Rng gaps(stream_seed(seed, 7));
  uint64_t due = 0, next = 0, cur = 0, cpu_mark = 0;
  std::vector<uint32_t> lat;
  lat.reserve(kRoundItems);
  auto close_round = [&] {
    RoundStats& rs = ph.rounds[cur];
    rs.p50 = percentile(lat, 0.5);
    rs.p90 = percentile(lat, 0.9);
    rs.p99 = percentile(lat, 0.99);
    const uint64_t cpu = thread_cpu_ns();
    rs.consumer_cpu = cpu - cpu_mark;
    cpu_mark = cpu;
    lat.clear();
  };
  for (;;) {
    uint64_t v = 0;
    const uint64_t call = now_ns();
    const int rc = wfq_dequeue_wait(h, &v);
    const uint64_t ret = now_ns();
    if (rc == 0) break;  // closed and drained
    if (rc != 1) {
      r.error("wfq_dequeue_wait returned " + std::to_string(rc));
      break;
    }
    ++deq_val;
    ledger.deliver(0, v);
    const uint64_t k = v & ((uint64_t(1) << 40) - 1);
    if (k <= kWarmItems) {
      warm_received.fetch_add(1, std::memory_order_release);
      continue;
    }
    const uint64_t idx = k - kWarmItems - 1;
    if (next == 0) {  // first paced item: the schedule starts at t0
      while ((due = t0.load(std::memory_order_acquire)) == 0) cpu_relax();
      cpu_mark = thread_cpu_ns();
    }
    if (idx >= paced || idx < next) continue;  // the ledger reports it
    while (next <= idx) {  // replay the producer's gaps up to item idx
      due += gaps.range(kGapMin, kGapMax);
      if (next % kRoundItems == 0) ph.rounds[next / kRoundItems].first_due = due;
      ++next;
    }
    if (idx / kRoundItems != cur) {
      close_round();
      cur = idx / kRoundItems;
    }
    lat.push_back(uint32_t(std::min<uint64_t>(ret - due, UINT32_MAX)));
    ph.rounds[cur].delivered++;
    ph.rounds[cur].last_ret = ret;
    if (traced) {
      ph.consumer_spans.record(1, 1, v, call, ret);
      ph.delivery.add(ret - due);
    }
  }
  if (next != 0) close_round();
  producer.join();
  if (!producer_error.empty()) r.error(producer_error);

  // The drain after close: anything left is accounted for, not lost.
  for (uint64_t v = 0; wfq_dequeue(h, &v) == 1;) {
    ledger.deliver(1, v);
    ++deq_val;
  }
  wfq_get_stats_ex(q, &ph.stats);
  wfq_handle_release(h);
  wfq_destroy(q);

  const wfq_stats_ex_t& s = ph.stats;
  if (s.enq_fast + s.enq_slow != enq_ok)
    r.error("enq_fast + enq_slow = " + std::to_string(s.enq_fast + s.enq_slow) +
            ", harness counted " + std::to_string(enq_ok) + " successful enqueues");
  if (s.deq_fast + s.deq_slow - s.deq_empty != deq_val)
    r.error("deq_fast + deq_slow - deq_empty = " +
            std::to_string(s.deq_fast + s.deq_slow - s.deq_empty) + ", harness counted " +
            std::to_string(deq_val) + " values dequeued");
  ph.tally = ledger.finish({enq_ok});
  ph.first_due = t0.load();
  ph.attempted = kWarmItems + paced;
  for (const RoundStats& rs : ph.rounds)
    if (rs.delivered == 0) r.error("a round delivered no item");
}

double med(const Phase& ph, double (*f)(const RoundStats&)) {
  std::vector<double> x;
  for (const RoundStats& rs : ph.rounds) x.push_back(f(rs));
  return median(x);
}

double mops(const RoundStats& rs) {
  return double(kRoundItems + rs.delivered) * 1e3 / double(rs.last_ret - rs.first_due);
}

uint64_t rounds_for(double seconds) {
  return std::max<uint64_t>(1, uint64_t(seconds * kRate / double(kRoundItems) + 0.5));
}

}  // namespace

Result run_handoff(const Args& a) {
  Result r;
  auto account = [&](const Phase& ph) {
    r.attempted += ph.attempted;
    r.failed += ph.tally.lost;
    if (!ph.tally.ok()) r.error("output check: " + ph.tally.describe());
    if (ph.tally.lost != 0)
      std::fprintf(stderr, "perfbench: handoff-capi lost %llu of %llu items\n",
                   (unsigned long long)ph.tally.lost, (unsigned long long)ph.attempted);
  };

  if (!a.trace) {
    Phase ph;
    run_phase(r, a.seed, rounds_for(a.seconds), false, ph);
    account(ph);
    r.add("throughput_mops", med(ph, mops), "Mops/s");
    r.add("latency_p50_ns", med(ph, [](const RoundStats& s) { return s.p50; }), "ns");
    r.add("latency_p90_ns", med(ph, [](const RoundStats& s) { return s.p90; }), "ns");
    r.add("latency_p99_ns", med(ph, [](const RoundStats& s) { return s.p99; }), "ns");
    r.add("cpu_ns_per_item", med(ph, [](const RoundStats& s) {
            return double(s.consumer_cpu + s.producer_ns) / double(s.delivered);
          }), "ns");
    r.add("peak_rss_mib", peak_rss_mib(), "MiB");
    r.add("setup_s", double(ph.first_due - g_process_start_ns) / 1e9, "s");
    return r;
  }

  Phase untraced, traced;
  run_phase(r, a.seed, rounds_for(a.seconds * 0.3), false, untraced);
  run_phase(r, a.seed, rounds_for(a.seconds * 0.3), true, traced);
  account(untraced);
  account(traced);
  write_spans(a.trace_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) + ".json",
              {"wfq_enqueue", "wfq_dequeue_wait"},
              {&traced.producer_spans, &traced.consumer_spans});
  const Hist& enqueue = traced.producer_spans.hist(0);
  const Hist& dequeue_wait = traced.consumer_spans.hist(1);
  const wfq_stats_ex_t& s = traced.stats;
  const double items = double(traced.tally.delivered);
  const double per_mop = 1e6 / double(s.enq_fast + s.enq_slow + s.deq_fast + s.deq_slow);
  const double untraced_mops = med(untraced, mops);
  r.add("trace.overhead_pct", 100.0 * (untraced_mops - med(traced, mops)) / untraced_mops, "%");
  r.add("capi.enqueue.p50_ns", enqueue.percentile(0.5), "ns");
  r.add("capi.enqueue.p99_ns", enqueue.percentile(0.99), "ns");
  r.add("capi.dequeue_wait.p50_ns", dequeue_wait.percentile(0.5), "ns");
  r.add("tail.delivery_p99_ns", traced.delivery.percentile(0.99), "ns");
  r.add("tail.delivery_p999_ns", traced.delivery.percentile(0.999), "ns");
  r.add("gen.late_p99_ns", traced.late.percentile(0.99), "ns");
  r.add("core.enq_slow_per_mop", double(s.enq_slow) * per_mop, "count/Mop");
  r.add("core.deq_slow_per_mop", double(s.deq_slow) * per_mop, "count/Mop");
  r.add("core.deq_empty_per_mop", double(s.deq_empty) * per_mop, "count/Mop");
  r.add("core.enq_slow_share", double(s.enq_slow) / double(s.enq_fast + s.enq_slow), "ratio");
  r.add("core.empty_deqs_per_item", double(s.deq_empty) / items, "count/item");
  r.add("core.enq_cells_per_op", double(s.enq_probes) / double(s.enq_fast + s.enq_slow),
        "cells/op");
  r.add("core.deq_cells_per_op", double(s.deq_probes) / double(s.deq_fast + s.deq_slow),
        "cells/op");
  r.add("segment.freed_per_mop", double(s.segments_freed) * per_mop, "count/Mop");
  r.add("segment.cleanups_per_mop", double(s.cleanups) * per_mop, "count/Mop");
  r.add("sync.parks_per_item", double(s.deq_parks) / items, "count/item");
  r.add("sync.notifies_per_item", double(s.notify_calls) / items, "count/item");
  r.add("sync.spurious_per_mitem", double(s.deq_spurious_wakeups) * 1e6 / items, "count/Mitem");
  CapiSpans ladder_capi;  // handoff-capi reports its own C API spans above
  run_ladder(r, a.seed, ladder_capi);
  run_refs_4t(r);
  return r;
}

}  // namespace pb

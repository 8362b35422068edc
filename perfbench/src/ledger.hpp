// The output check every workload shares.
//
// Items are made by the benchmark, never taken from the queue: producer p's
// k-th item of a round is item(p, k) = (p + 1) << 40 | k, k = 1, 2, ...
// Each consumer (and the final drain, which is one more consumer row)
// reports every value it receives. The check then establishes:
//
//  * a value that no producer made, or that its producer had not yet
//    enqueued, is fabricated;
//  * a value delivered twice (to one consumer or to two) is duplicated;
//  * for each consumer, each producer's items arrive in increasing order
//    (FIFO as one consumer can observe it); a step back is reordered;
//  * every accepted item not delivered and not drained is lost.
//
// Fabricated, duplicated and reordered items fail the run's output check.
// A lost item counts as a failed item: the queue accepted it and never
// gave it back. Expected totals come from the producers' own counts of
// accepted enqueues. Memory is one bit per item per consumer row, cleared
// between rounds, so the check stays small beside the queue under test.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

inline uint64_t item(unsigned producer, uint64_t k) { return (uint64_t(producer) + 1) << 40 | k; }

struct Tally {
  uint64_t delivered = 0;
  uint64_t lost = 0;
  uint64_t fabricated = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;

  bool ok() const { return fabricated == 0 && duplicated == 0 && reordered == 0; }
  void add(const Tally& o) {
    delivered += o.delivered;
    lost += o.lost;
    fabricated += o.fabricated;
    duplicated += o.duplicated;
    reordered += o.reordered;
  }
  std::string describe() const {
    return "delivered=" + std::to_string(delivered) + " lost=" + std::to_string(lost) +
           " fabricated=" + std::to_string(fabricated) +
           " duplicated=" + std::to_string(duplicated) +
           " reordered=" + std::to_string(reordered);
  }
};

class Ledger {
 public:
  /// `rows` consumer rows (the drain takes one of them); each producer
  /// makes at most `cap` items per round.
  Ledger(unsigned producers, unsigned rows, uint64_t cap)
      : producers_(producers), cap_(cap), words_((cap + 64) / 64), rows_(rows) {
    for (auto& r : rows_) {
      r.bits.assign(std::size_t(producers) * words_, 0);
      r.last.assign(producers, 0);
    }
  }

  /// Row `row` received `v`. Each row has one writer.
  void deliver(unsigned row, uint64_t v) {
    Row& r = rows_[row];
    const uint64_t p = (v >> 40) - 1;
    const uint64_t k = v & ((uint64_t(1) << 40) - 1);
    if (p >= producers_ || k == 0 || k > cap_) {
      ++r.fabricated;
      return;
    }
    uint64_t& w = r.bits[p * words_ + k / 64];
    const uint64_t bit = uint64_t(1) << (k % 64);
    if (w & bit) {
      ++r.duplicated;
      return;
    }
    w |= bit;
    if (k < r.last[p]) ++r.reordered;
    r.last[p] = k;
  }

  /// Closes a round in which producer p had enqueued[p] items accepted;
  /// clears the rows for the next round.
  Tally finish(const std::vector<uint64_t>& enqueued) {
    Tally t;
    for (auto& r : rows_) {
      t.fabricated += r.fabricated;
      t.duplicated += r.duplicated;
      t.reordered += r.reordered;
      r.fabricated = r.duplicated = r.reordered = 0;
    }
    for (unsigned p = 0; p < producers_; ++p) {
      uint64_t seen = 0;
      for (uint64_t w = 0; w < words_; ++w) {
        uint64_t acc = 0;
        for (auto& r : rows_) {
          uint64_t& bits = r.bits[p * words_ + w];
          t.duplicated += uint64_t(__builtin_popcountll(acc & bits));
          acc |= bits;
          bits = 0;
        }
        // Valid item numbers in this word: [max(1, first), min(n, first + 63)].
        // A bit past the producer's count was delivered before it was made.
        const uint64_t first = w * 64;
        const uint64_t lo = std::max<uint64_t>(first, 1);
        const uint64_t hi = std::min(enqueued[p], first + 63);
        uint64_t valid = 0;
        if (hi >= lo) {
          const uint64_t span = hi - lo + 1;
          valid = (span == 64 ? ~uint64_t{0} : (uint64_t(1) << span) - 1) << (lo - first);
        }
        t.fabricated += uint64_t(__builtin_popcountll(acc & ~valid));
        seen += uint64_t(__builtin_popcountll(acc & valid));
      }
      t.delivered += seen;
      t.lost += enqueued[p] - seen;
    }
    for (auto& r : rows_) std::fill(r.last.begin(), r.last.end(), 0);
    return t;
  }

 private:
  struct Row {
    std::vector<uint64_t> bits;
    std::vector<uint64_t> last;
    uint64_t fabricated = 0;
    uint64_t duplicated = 0;
    uint64_t reordered = 0;
  };
  const unsigned producers_;
  const uint64_t cap_;
  const uint64_t words_;
  std::vector<Row> rows_;
};

/// Feeds the check one clean and three doctored histories (one item
/// dropped, one duplicated, two items of one producer swapped) and returns
/// an empty string if it reports each exactly, else what it missed.
inline std::string ledger_self_test() {
  struct Delivery {
    unsigned row;
    uint64_t v;
  };
  // Two producers of 8 items each, two consumers, and a drain row.
  std::vector<Delivery> clean;
  for (uint64_t k = 1; k <= 4; ++k) clean.push_back({0, item(0, k)});
  for (uint64_t k = 1; k <= 3; ++k) clean.push_back({0, item(1, k)});
  for (uint64_t k = 5; k <= 7; ++k) clean.push_back({1, item(0, k)});
  for (uint64_t k = 4; k <= 8; ++k) clean.push_back({1, item(1, k)});
  clean.push_back({2, item(0, 8)});
  const std::vector<uint64_t> enqueued = {8, 8};

  auto run = [&](const std::vector<Delivery>& h) {
    Ledger l(2, 3, 8);
    for (const auto& d : h) l.deliver(d.row, d.v);
    return l.finish(enqueued);
  };
  std::string missed;
  Tally t = run(clean);
  if (!t.ok() || t.lost != 0 || t.delivered != 16) missed += " clean(" + t.describe() + ")";

  std::vector<Delivery> dropped = clean;
  dropped.erase(dropped.begin() + 9);  // item(0, 7)
  t = run(dropped);
  if (!t.ok() || t.lost != 1) missed += " dropped(" + t.describe() + ")";

  std::vector<Delivery> duplicated = clean;
  duplicated.push_back({1, item(0, 3)});  // already delivered to row 0
  t = run(duplicated);
  if (t.duplicated != 1 || t.lost != 0) missed += " duplicated(" + t.describe() + ")";

  std::vector<Delivery> swapped = clean;
  std::swap(swapped[4], swapped[5]);  // item(1, 1) and item(1, 2) in row 0
  t = run(swapped);
  if (t.reordered != 1 || t.lost != 0) missed += " swapped(" + t.describe() + ")";
  return missed;
}

}  // namespace pb

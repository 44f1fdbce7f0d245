#include "reference_kernel.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <random>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

// Sized so one pass takes about 0.3 s on a 4-vCPU Xeon VM, and so no part
// holds more than ~12 MB: the pass before the set-up must stay below the
// smallest workload's peak RSS.
constexpr int kContainerSteps = 250'000;
constexpr std::uint64_t kHashKeys = 400'000;
constexpr std::uint64_t kOrderedKeys = 50'000;
constexpr int kHeapSteps = 1'400'000;
constexpr std::size_t kHeapEntries = 65'536;
constexpr std::size_t kSortRecords = std::size_t{1} << 19;

// Keeps the results observable so the loops are not optimized away.
volatile std::uint64_t g_sink = 0;

/// Hash-map and ordered-map updates and small vectors, the bookkeeping
/// the simulator does per event.
std::uint64_t containers() {
  std::unordered_map<std::uint64_t, std::uint64_t> hashed;
  std::map<std::uint64_t, std::uint64_t> ordered;
  std::mt19937_64 rng(7);
  std::uint64_t sum = 0;
  for (int step = 0; step < kContainerSteps; ++step) {
    const std::uint64_t key = rng() % kHashKeys;
    const auto s = static_cast<std::uint64_t>(step);
    hashed[key] += s;
    const auto it = ordered.find(key % kOrderedKeys);
    if (it == ordered.end()) {
      ordered.emplace(key % kOrderedKeys, s);
    } else {
      sum += it->second;
    }
    if (step % 3 == 0) hashed.erase(rng() % kHashKeys);
    const std::vector<std::uint64_t> small(8 + s % 16, s);
    sum += small.back();
  }
  return sum + hashed.size();
}

/// A binary min-heap kept at a fixed size, like an event queue.
std::uint64_t heap() {
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      queue;
  std::mt19937_64 rng(5);
  std::uint64_t sum = 0;
  for (int step = 0; step < kHeapSteps; ++step) {
    queue.push(rng() >> 20);
    if (queue.size() > kHeapEntries) {
      sum += queue.top();
      queue.pop();
    }
  }
  return sum;
}

/// A sort of small records by key.
std::uint64_t sort_records() {
  struct Record {
    std::uint64_t key;
    std::uint32_t a, b;
    double weight;
  };
  std::vector<Record> records(kSortRecords);
  std::mt19937_64 rng(9);
  for (Record& r : records) r = {rng(), 1, 2, 0.5};
  std::sort(records.begin(), records.end(),
            [](const Record& x, const Record& y) { return x.key < y.key; });
  return records[7].key;
}

}  // namespace

double reference_kernel_seconds() {
  const auto start = std::chrono::steady_clock::now();
  g_sink = containers() + heap() + sort_records();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench

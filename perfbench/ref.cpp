// perfbench_ref — a fixed reference job that measures how fast the host is
// running right now.
//
// The host's speed swings by tens of per cent over seconds to minutes (other
// tenants, turbo and shared caches), and whole runs of the benchmark land in
// slow or fast phases. run.py runs this job between the measured operations
// and reports their times as multiples of its time, which cancels the phase.
// It uses none of the repository's code, so no change to the program moves
// it. The work resembles the program's: a sort, a hash map, and bursts of
// pushes into 1024 buffers, like messages into per-processor queues, on
// freshly allocated memory.
//
// Usage: perfbench_ref    (prints a checksum; exits 0)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

int main() {
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::uint64_t> keys(1 << 18);
  for (std::uint64_t& k : keys) k = next();
  std::sort(keys.begin(), keys.end());

  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  for (int i = 0; i < (1 << 16); ++i) counts[next() & 0xfffff] += i;

  std::vector<std::vector<std::uint32_t>> queues(1024);
  std::uint64_t delivered = 0;
  for (int round = 0; round < 6; ++round) {
    for (std::uint32_t i = 0; i < (1U << 17); ++i) {
      queues[next() & 1023].push_back(i);
    }
    for (std::vector<std::uint32_t>& q : queues) {
      delivered += q.size();
      q.clear();
    }
  }
  std::printf("%llu %zu %llu\n",
              static_cast<unsigned long long>(keys[keys.size() / 2] >> 32),
              counts.size(), static_cast<unsigned long long>(delivered));
  return 0;
}

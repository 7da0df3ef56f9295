// The benchmark's own seeded topology stream.
//
// Round 1 bulk-loads `edges` uniformly random edges in sorted order; every
// later round deletes changes/2 uniformly chosen present edges and inserts
// changes/2 uniformly chosen absent pairs, so |E| stays constant.  The
// stream is generated in full before any clock starts, with O(1)
// bookkeeping per event, and depends only on (spec, seed): it does not use
// the library's workload generators, whose edge choice follows the
// oracle's internal edge order and so moves with the code under test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/edge.hpp"

namespace perfbench {

/// splitmix64: the benchmark's own generator, independent of src/common.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound) by multiply-shift.
  std::uint64_t below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

 private:
  std::uint64_t state_;
};

/// 64-bit FNV-1a, folded one word at a time.
class Fnv {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct StreamSpec {
  std::uint32_t n = 0;
  std::uint64_t edges = 0;
  std::uint32_t changes = 0;  // per churn round, even
  std::uint64_t rounds = 0;   // churn rounds after the bulk load
};

/// Events packed as (edge key << 1) | insert, eight bytes each.
class Stream {
 public:
  [[nodiscard]] std::uint32_t n() const { return n_; }
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] std::string hash_hex() const;
  /// Sorted inserts of the bulk-load round.
  [[nodiscard]] const std::vector<dynsub::EdgeEvent>& bulk() const { return bulk_; }
  /// Churn round r (0-based) into `out` (cleared first).
  void round(std::uint64_t r, std::vector<dynsub::EdgeEvent>& out) const;
  /// Sorted edge keys present after the bulk load and the first
  /// `churn_rounds` churn rounds, recomputed by replaying the stream.
  [[nodiscard]] std::vector<std::uint64_t> edges_after(std::uint64_t churn_rounds) const;

 private:
  friend Stream make_stream(const StreamSpec& spec, std::uint64_t seed);
  std::uint32_t n_ = 0;
  std::uint32_t changes_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t hash_ = 0;
  std::vector<dynsub::EdgeEvent> bulk_;
  std::vector<std::uint64_t> churn_;
};

[[nodiscard]] Stream make_stream(const StreamSpec& spec, std::uint64_t seed);

}  // namespace perfbench

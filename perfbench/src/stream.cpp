#include "stream.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

namespace {

constexpr std::uint64_t pack(std::uint64_t key, bool insert) {
  return (key << 1) | (insert ? 1 : 0);
}

dynsub::EdgeEvent unpack(std::uint64_t word) {
  const std::uint64_t key = word >> 1;
  const auto lo = static_cast<dynsub::NodeId>(key >> 32);
  const auto hi = static_cast<dynsub::NodeId>(key & 0xffffffffULL);
  return (word & 1) ? dynsub::EdgeEvent::insert(lo, hi)
                    : dynsub::EdgeEvent::remove(lo, hi);
}

std::uint64_t random_pair(Rng& rng, std::uint32_t n) {
  const auto a = static_cast<dynsub::NodeId>(rng.below(n));
  auto b = static_cast<dynsub::NodeId>(rng.below(n - 1));
  if (b >= a) ++b;
  return dynsub::Edge(a, b).key();
}

/// The present edge set with O(1) insert, erase and uniform choice.
class EdgeSet {
 public:
  explicit EdgeSet(std::size_t expected) { index_.reserve(expected); }
  [[nodiscard]] bool contains(std::uint64_t key) const { return index_.count(key) != 0; }
  void insert(std::uint64_t key) {
    index_.emplace(key, keys_.size());
    keys_.push_back(key);
  }
  std::uint64_t erase_at(std::size_t i) {
    const std::uint64_t key = keys_[i];
    index_.erase(key);
    if (i + 1 != keys_.size()) {
      keys_[i] = keys_.back();
      index_[keys_[i]] = i;
    }
    keys_.pop_back();
    return key;
  }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] const std::vector<std::uint64_t>& keys() const { return keys_; }

 private:
  std::vector<std::uint64_t> keys_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

}  // namespace

std::string Stream::hash_hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
  return buf;
}

void Stream::round(std::uint64_t r, std::vector<dynsub::EdgeEvent>& out) const {
  out.clear();
  const std::uint64_t begin = r * changes_;
  for (std::uint64_t i = begin; i < begin + changes_; ++i) out.push_back(unpack(churn_[i]));
}

std::vector<std::uint64_t> Stream::edges_after(std::uint64_t churn_rounds) const {
  std::unordered_set<std::uint64_t> present;
  present.reserve(bulk_.size() * 2);
  for (const auto& ev : bulk_) present.insert(ev.edge.key());
  const std::uint64_t end = std::min(churn_rounds, rounds_) * changes_;
  for (std::uint64_t i = 0; i < end; ++i) {
    const std::uint64_t key = churn_[i] >> 1;
    if (churn_[i] & 1) {
      present.insert(key);
    } else {
      present.erase(key);
    }
  }
  std::vector<std::uint64_t> out(present.begin(), present.end());
  std::sort(out.begin(), out.end());
  return out;
}

Stream make_stream(const StreamSpec& spec, std::uint64_t seed) {
  if (spec.n < 2 || spec.n >= (1u << 31) || spec.changes % 2 != 0 ||
      spec.edges < spec.changes / 2 ||
      spec.edges > static_cast<std::uint64_t>(spec.n) * (spec.n - 1) / 4) {
    throw std::invalid_argument("stream spec out of range");
  }
  Stream s;
  s.n_ = spec.n;
  s.changes_ = spec.changes;
  s.rounds_ = spec.rounds;
  Rng rng(seed ^ 0x70657266626e6368ULL);  // "perfbnch"
  Fnv fnv;
  fnv.add(spec.n);
  fnv.add(spec.changes);

  EdgeSet present(spec.edges);
  while (present.size() < spec.edges) {
    const std::uint64_t key = random_pair(rng, spec.n);
    if (!present.contains(key)) present.insert(key);
  }
  std::vector<std::uint64_t> sorted = present.keys();
  std::sort(sorted.begin(), sorted.end());
  s.bulk_.reserve(sorted.size());
  for (const std::uint64_t key : sorted) {
    s.bulk_.push_back(unpack(pack(key, true)));
    fnv.add(pack(key, true));
  }

  // Deletes come first in a round and their keys stay off limits to that
  // round's inserts: an edge may change at most once per round.
  const std::uint32_t half = spec.changes / 2;
  s.churn_.reserve(spec.rounds * spec.changes);
  std::unordered_set<std::uint64_t> touched;
  touched.reserve(spec.changes * 2);
  for (std::uint64_t r = 0; r < spec.rounds; ++r) {
    touched.clear();
    for (std::uint32_t i = 0; i < half; ++i) {
      const std::uint64_t key = present.erase_at(rng.below(present.size()));
      touched.insert(key);
      s.churn_.push_back(pack(key, false));
    }
    for (std::uint32_t i = 0; i < half; ++i) {
      std::uint64_t key = random_pair(rng, spec.n);
      while (present.contains(key) || touched.count(key) != 0) {
        key = random_pair(rng, spec.n);
      }
      present.insert(key);
      s.churn_.push_back(pack(key, true));
    }
  }
  for (const std::uint64_t word : s.churn_) fnv.add(word);
  s.hash_ = fnv.value();
  return s;
}

}  // namespace perfbench

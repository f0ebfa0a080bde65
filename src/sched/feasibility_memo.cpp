#include "dds/sched/feasibility_memo.hpp"

#include <algorithm>
#include <bit>

#include "dds/common/hash.hpp"

namespace dds {

void FeasibilityMemo::init(std::size_t key_words, std::size_t capacity) {
  DDS_REQUIRE(key_words > 0, "memo keys need at least one word");
  key_words_ = key_words;
  if (capacity == 0) {
    capacity_ = 0;
    mask_ = 0;
    hashes_.clear();
    keys_.clear();
    occupancy_.clear();
  } else {
    capacity_ = std::bit_ceil(std::max<std::size_t>(capacity, kProbeWindow));
    mask_ = capacity_ - 1;
    hashes_.assign(capacity_, 0);
    keys_.assign(capacity_ * key_words_, 0);
    occupancy_.assign(capacity_, kEmpty);
  }
  lookups_ = 0;
  hits_ = 0;
}

bool FeasibilityMemo::keyEquals(std::size_t slot,
                                const std::uint64_t* key) const {
  const std::uint64_t* stored = keys_.data() + slot * key_words_;
  for (std::size_t w = 0; w < key_words_; ++w) {
    if (stored[w] != key[w]) return false;
  }
  return true;
}

std::optional<bool> FeasibilityMemo::lookup(const std::uint64_t* key) {
  if (capacity_ == 0) return std::nullopt;
  ++lookups_;
  const std::uint64_t hash = fnv1aWords(key, key_words_);
  const std::size_t home = static_cast<std::size_t>(hash) & mask_;
  for (std::size_t probe = 0; probe < kProbeWindow; ++probe) {
    const std::size_t slot = (home + probe) & mask_;
    if (occupancy_[slot] == kEmpty) return std::nullopt;
    if (hashes_[slot] == hash && keyEquals(slot, key)) {
      ++hits_;
      return occupancy_[slot] == kFeasible;
    }
  }
  return std::nullopt;
}

void FeasibilityMemo::writeSlot(std::size_t slot, std::uint64_t hash,
                                const std::uint64_t* key, bool feasible) {
  hashes_[slot] = hash;
  std::copy(key, key + key_words_, keys_.data() + slot * key_words_);
  occupancy_[slot] = feasible ? kFeasible : kInfeasible;
}

void FeasibilityMemo::insert(const std::uint64_t* key, bool feasible) {
  if (capacity_ == 0) return;
  const std::uint64_t hash = fnv1aWords(key, key_words_);
  const std::size_t home = static_cast<std::size_t>(hash) & mask_;
  for (std::size_t probe = 0; probe < kProbeWindow; ++probe) {
    const std::size_t slot = (home + probe) & mask_;
    if (occupancy_[slot] == kEmpty ||
        (hashes_[slot] == hash && keyEquals(slot, key))) {
      writeSlot(slot, hash, key, feasible);
      return;
    }
  }
  // Probe window exhausted: overwrite the home slot. Deterministic, and
  // the displaced entry was by construction the least recently written of
  // the window's candidates more often than not.
  writeSlot(home, hash, key, feasible);
}

}  // namespace dds

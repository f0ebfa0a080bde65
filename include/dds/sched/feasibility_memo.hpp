// Open-addressing cache of bin-packing feasibility verdicts.
//
// The annealing planner revisits recently seen (VM multiset, demand)
// combinations constantly — a rejected add/remove move restores the
// previous multiset, and alternate flips leave the multiset untouched.
// Greedy packing (static_planning::tryAssign) is the single most
// expensive step of a candidate evaluation, so caching its yes/no verdict
// pays for itself after one revisit.
//
// Correctness contract: the memo is a *pure cache*. Keys are exact — the
// full key (vm counts plus the canonical IEEE-754 bit patterns of the
// demand vector) is stored next to each verdict and compared word for
// word on lookup, so a hash collision can never surface a wrong verdict;
// it only costs a probe. A miss falls back to the exact packing run.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dds/common/error.hpp"

namespace dds {

/// Fixed-capacity open-addressing table: linear probing over a bounded
/// window, deterministic overwrite of the home slot when the window is
/// full (an LRU would need per-hit bookkeeping; the search loop's reuse
/// pattern is so heavily biased to recent keys that plain overwrite wins).
class FeasibilityMemo {
 public:
  FeasibilityMemo() = default;

  /// Size the table for keys of `key_words` 64-bit words and (at least)
  /// `capacity` entries (rounded up to a power of two). `capacity == 0`
  /// disables the memo: lookups miss, inserts drop.
  void init(std::size_t key_words, std::size_t capacity);

  [[nodiscard]] bool enabled() const { return capacity_ > 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Cached verdict for `key` (exactly `keyWords()` words), or nullopt.
  [[nodiscard]] std::optional<bool> lookup(const std::uint64_t* key);

  /// Record the verdict for `key`, evicting deterministically if needed.
  void insert(const std::uint64_t* key, bool feasible);

  [[nodiscard]] std::size_t keyWords() const { return key_words_; }
  [[nodiscard]] std::uint64_t lookups() const { return lookups_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }

 private:
  static constexpr std::size_t kProbeWindow = 8;

  // Slot states for occupancy_: empty vs verdict.
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kInfeasible = 1;
  static constexpr std::uint8_t kFeasible = 2;

  [[nodiscard]] bool keyEquals(std::size_t slot,
                               const std::uint64_t* key) const;
  void writeSlot(std::size_t slot, std::uint64_t hash,
                 const std::uint64_t* key, bool feasible);

  std::size_t key_words_ = 0;
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::vector<std::uint64_t> hashes_;    ///< per slot, valid when occupied.
  std::vector<std::uint64_t> keys_;      ///< capacity_ * key_words_ arena.
  std::vector<std::uint8_t> occupancy_;  ///< kEmpty / kInfeasible / kFeasible.
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace dds

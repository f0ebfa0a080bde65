// Flat 4-ary min-heap of simulator events, held by value.
//
// The event simulator's hot loop pops the earliest network delivery or
// core completion millions of times per run (external arrivals are a
// single pending time the drain loop keeps outside the heap). Every
// comparison reads only the heap array, whose entries are the 40-byte
// events themselves, so a sift step touches one contiguous run of
// children:
//  * the heap is 4-ary — shallower than binary, and the four-child scan
//    is friendly to both branch prediction and cache lines;
//  * popTop() leaves a hole at the root instead of sifting the last
//    element down and re-sifting on the next push. Most pops are followed
//    by a push (a completion re-dispatches its core), which fills the
//    hole with one sift-down; top() or popTop() on a heap with a hole
//    first fills it from the back;
//  * the array keeps its capacity, so steady state allocates nothing.
//
// Ordering is (time, kind, seq): earliest first; at equal times arrivals
// precede deliveries precede completions — the tie rules of the oracle's
// three-queue drain loop (`arrival <= completion && arrival <= delivery`
// picks the arrival, then `delivery <= completion` picks the delivery) —
// and events of the same kind pop FIFO by insertion sequence.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dds/common/error.hpp"
#include "dds/common/ids.hpp"
#include "dds/common/time.hpp"

namespace dds {

/// Event category; numeric order encodes equal-time priority.
enum class EventKind : std::uint8_t {
  Arrival = 0,     ///< external message enters every input PE.
  Delivery = 1,    ///< in-flight message lands at a PE's queue.
  Completion = 2,  ///< a busy (vm, core) finishes its message.
};

/// One queued event. Field use by kind: Arrival uses only `time`;
/// Delivery uses `pe` and `msg_created`; Completion uses all.
struct Event {
  SimTime time = 0.0;
  std::uint64_t seq = 0;      ///< global insertion order, breaks exact ties.
  SimTime msg_created = 0.0;  ///< end-to-end latency anchor.
  PeId pe{0};
  VmId vm{0};
  std::int32_t core = 0;
  EventKind kind = EventKind::Arrival;
};
static_assert(sizeof(Event) <= 40, "an event record is 40 bytes");

/// Allocation-free (in steady state) priority queue of simulator events.
class EventHeap {
 public:
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t size() const {
    return heap_.size() - (hole_ ? 1 : 0);
  }

  /// Insert an event, filling the root hole a previous pop left, if any.
  void push(SimTime time, EventKind kind, PeId pe, VmId vm,
            std::int32_t core, SimTime msg_created) {
    const Event e{time, next_seq_++, msg_created, pe, vm, core, kind};
    if (hole_) {
      hole_ = false;
      siftDown(e);
    } else {
      heap_.push_back(e);
      siftUp(heap_.size() - 1, e);
    }
  }

  [[nodiscard]] const Event& top() {
    fillHole();
    DDS_REQUIRE(!heap_.empty(), "top() on empty event heap");
    return heap_.front();
  }

  /// Pop the earliest event, returning a copy; its root slot stays a
  /// hole until the next push or top().
  Event popTop() {
    fillHole();
    DDS_REQUIRE(!heap_.empty(), "popTop() on empty event heap");
    hole_ = true;
    return heap_.front();
  }

 private:
  static constexpr std::size_t kArity = 4;

  [[nodiscard]] static bool before(const Event& x, const Event& y) {
    if (x.time != y.time) return x.time < y.time;
    if (x.kind != y.kind) return x.kind < y.kind;
    return x.seq < y.seq;
  }

  /// Move the last event into the root hole.
  void fillHole() {
    if (!hole_) return;
    hole_ = false;
    const Event last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) siftDown(last);
  }

  void siftUp(std::size_t pos, const Event& e) {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      heap_[pos] = heap_[parent];
      pos = parent;
    }
    heap_[pos] = e;
  }

  /// Place `e` at the root (whose old content is dead) and sift it down.
  void siftDown(const Event& e) {
    std::size_t pos = 0;
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t first = pos * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], e)) break;
      heap_[pos] = heap_[best];
      pos = best;
    }
    heap_[pos] = e;
  }

  std::vector<Event> heap_;
  bool hole_ = false;  ///< heap_[0] was popped and not yet refilled.
  std::uint64_t next_seq_ = 0;
};

}  // namespace dds
